(* Self-test of the benchmark: its probes send what the simulator
   sends, its counting sink sees every completion, and every count it
   reports repeats exactly.  Each workload runs at a short horizon so
   the whole suite takes about a minute. *)

open Perfbench

let short w = { w with Workloads.warmup_ms = 2; duration_ms = 8 }

let traced w =
  let p = Workloads.prepare w ~seed:7 ~setup:false in
  let c = Counting.create ~window_from:Sim.Time.zero ~window_cap:1000 in
  let o = Workloads.run ~sink:(Counting.sink c) w p in
  (c, o)

let per_workload name f =
  List.map (fun w -> Alcotest.test_case w.Workloads.name `Quick (fun () -> f (short w))) Workloads.all
  |> fun cases -> (name, cases)

let request_length w =
  List.iter
    (fun (_, wl, _) ->
      let _, request, _ = Layers.request_of wl in
      Alcotest.(check int)
        "encoded request = Workload.request_bytes"
        (Loadgen.Workload.request_bytes wl `Set)
        (String.length request))
    w.Workloads.mix

let request_done_count w =
  let c, o = traced w in
  Alcotest.(check (list string)) "accounting closes" [] o.failures;
  Alcotest.(check bool) "requests completed" true (o.completed_total > 0);
  Alcotest.(check int) "Request_done = completed_total" o.completed_total c.request_done

let counts_repeat w =
  let c1, o1 = traced w in
  let c2, o2 = traced w in
  Alcotest.(check (list (pair string int))) "counts" (Counting.counts c1) (Counting.counts c2);
  Alcotest.(check string) "simulated results" o1.digest o2.digest;
  let untraced = Workloads.run w (Workloads.prepare w ~seed:7 ~setup:false) in
  Alcotest.(check string) "tracing leaves results unchanged" o1.digest untraced.digest

let metric_names trace units () =
  let w = short (Option.get (Workloads.find "small-64b")) in
  let r = Measure.run w ~seed:7 ~seconds:0.2 ~trace in
  Alcotest.(check bool) "correct" true r.correct;
  Alcotest.(check (list string))
    "every metric, once"
    (List.sort compare (List.map fst units))
    (List.sort compare (List.map (fun (m : Measure.metric) -> m.name) r.metrics))

let () =
  Alcotest.run "perfbench"
    [
      per_workload "resp-probe" request_length;
      per_workload "request-done" request_done_count;
      per_workload "counts-repeat" counts_repeat;
      ( "metrics",
        [
          Alcotest.test_case "end-to-end" `Quick (metric_names false Measure.end_to_end_units);
          Alcotest.test_case "per-layer" `Quick (metric_names true Measure.per_layer_units);
        ] );
    ]
