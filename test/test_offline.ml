(* Tests for the offline counter-log analysis (§3.4 methodology), the
   cross-connection aggregation (§3.2), and the multi-connection
   runner. *)

let us = Sim.Time.us

let share time total integral : E2e.Queue_state.share = { time; total; integral }

let triple ?(unacked = share 0 0 0.0) ?(unread = share 0 0 0.0)
    ?(ackdelay = share 0 0 0.0) () : E2e.Exchange.triple =
  { unacked; unread; ackdelay }

(* {1 Counter_log} *)

let test_counter_log_series () =
  let log = E2e.Counter_log.create () in
  (* Local sender: one message in flight for 30us per 100us interval;
     remote shares show 10us of unread delay per interval. *)
  let local i =
    triple
      ~unacked:(share (us (i * 100)) i (float_of_int i *. 30_000.0))
      ()
  in
  let remote i =
    triple
      ~unacked:(share (us (i * 100)) 0 0.0)
      ~unread:(share (us (i * 100)) i (float_of_int i *. 10_000.0))
      ~ackdelay:(share (us (i * 100)) 0 0.0)
      ()
  in
  for i = 0 to 5 do
    E2e.Counter_log.record log ~at:(us (i * 100)) ~local:(local i) ~remote:(remote i)
  done;
  Alcotest.(check int) "six dumps" 6 (E2e.Counter_log.length log);
  let series = E2e.Counter_log.series log in
  Alcotest.(check int) "five intervals" 5 (List.length series);
  List.iter
    (fun (s : E2e.Counter_log.sample) ->
      match s.latency_ns with
      | Some l -> Alcotest.(check (float 1e-6)) "30+10us per interval" 40_000.0 l
      | None -> Alcotest.fail "expected latency")
    series;
  (match E2e.Counter_log.overall log with
  | Some { latency_ns = Some l; throughput; _ } ->
    Alcotest.(check (float 1e-6)) "overall matches" 40_000.0 l;
    Alcotest.(check (float 1.0)) "throughput" 10_000.0 throughput
  | _ -> Alcotest.fail "expected overall estimate");
  match E2e.Counter_log.mean_latency_ns log with
  | Some l -> Alcotest.(check (float 1e-6)) "weighted mean" 40_000.0 l
  | None -> Alcotest.fail "expected mean"

let test_counter_log_ordering () =
  let log = E2e.Counter_log.create () in
  E2e.Counter_log.record log ~at:(us 100) ~local:(triple ()) ~remote:(triple ());
  Alcotest.check_raises "out of order"
    (Invalid_argument "Counter_log.record: samples must be appended in time order")
    (fun () ->
      E2e.Counter_log.record log ~at:(us 50) ~local:(triple ()) ~remote:(triple ()))

let test_counter_log_empty () =
  let log = E2e.Counter_log.create () in
  Alcotest.(check bool) "no overall" true (E2e.Counter_log.overall log = None);
  Alcotest.(check bool) "no mean" true (E2e.Counter_log.mean_latency_ns log = None);
  Alcotest.(check int) "empty series" 0 (List.length (E2e.Counter_log.series log))

let test_counter_log_agrees_with_inband () =
  (* Run real traffic; poll counters at both ends every 2ms like the
     prototype's ethtool collection; the offline estimate must agree
     with the in-band estimator. *)
  let engine = Sim.Engine.create () in
  let conn = Tcp.Conn.create engine () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () ->
      let d = Tcp.Socket.recv b (Tcp.Socket.recv_available b) in
      if String.length d > 0 then Tcp.Socket.send b "ok");
  Tcp.Socket.on_readable a (fun () -> ignore (Tcp.Socket.recv a (Tcp.Socket.recv_available a)));
  let log = E2e.Counter_log.create () in
  let rec poll () =
    let at = Sim.Engine.now engine in
    E2e.Counter_log.record log ~at
      ~local:(E2e.Estimator.local_snapshot (Tcp.Socket.estimator a) ~at)
      ~remote:(E2e.Estimator.local_snapshot (Tcp.Socket.estimator b) ~at);
    if Sim.Time.compare at (Sim.Time.ms 40) < 0 then
      Sim.Engine.schedule engine ~after:(Sim.Time.ms 2) poll
  in
  poll ();
  for i = 0 to 400 do
    Sim.Engine.schedule_at engine ~at:(us (i * 100)) (fun () ->
        Tcp.Socket.send a (String.make 1000 'x'))
  done;
  Sim.Engine.run_until engine (Sim.Time.ms 42);
  let offline =
    match E2e.Counter_log.mean_latency_ns log with
    | Some l -> l
    | None -> Alcotest.fail "no offline estimate"
  in
  match E2e.Estimator.peek_estimate (Tcp.Socket.estimator a) ~at:(Sim.Engine.now engine) with
  | Some { latency_ns = Some inband; _ } ->
    let err = Float.abs (offline -. inband) /. inband in
    if err > 0.15 then
      Alcotest.failf "offline %.0fns vs in-band %.0fns (%.0f%%)" offline inband
        (err *. 100.0)
  | _ -> Alcotest.fail "no in-band estimate"

(* {1 Aggregate} *)

let input latency_us throughput : E2e.Aggregate.input =
  { latency_ns = Option.map (fun l -> l *. 1e3) latency_us; throughput }

let test_aggregate_weighted_mean () =
  let agg = E2e.Aggregate.combine [ input (Some 100.0) 10.0; input (Some 200.0) 30.0 ] in
  (match agg.latency_ns with
  | Some l -> Alcotest.(check (float 1e-6)) "weighted" 175_000.0 l
  | None -> Alcotest.fail "expected latency");
  Alcotest.(check (float 1e-9)) "throughput adds" 40.0 agg.throughput;
  Alcotest.(check int) "two flows" 2 agg.flows

let test_aggregate_skips_empty () =
  let agg =
    E2e.Aggregate.combine [ input None 10.0; input (Some 50.0) 5.0; input (Some 60.0) 0.0 ]
  in
  (match agg.latency_ns with
  | Some l -> Alcotest.(check (float 1e-6)) "only weighted flow counts" 50_000.0 l
  | None -> Alcotest.fail "expected latency");
  Alcotest.(check int) "one contributing flow" 1 agg.flows;
  Alcotest.(check (float 1e-9)) "throughput still adds" 15.0 agg.throughput

let test_aggregate_empty () =
  let agg = E2e.Aggregate.combine [] in
  Alcotest.(check bool) "no latency" true (agg.latency_ns = None);
  Alcotest.(check (float 1e-9)) "zero throughput" 0.0 agg.throughput

(* Randomized §3.2 combine properties.  Latencies and throughputs are
   drawn from ranges wide enough to cover idle and overloaded flows,
   including latency-free ([None]) and zero-throughput inputs. *)
let gen_inputs =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (fun (i : E2e.Aggregate.input) ->
             Printf.sprintf "(%s,%g)"
               (match i.latency_ns with None -> "-" | Some l -> Printf.sprintf "%g" l)
               i.throughput)
           l))
    QCheck.Gen.(
      list_size (0 -- 12)
        (map2
           (fun lat tput : E2e.Aggregate.input ->
             { latency_ns = lat; throughput = tput })
           (opt (float_range 1.0 1e9))
           (oneof [ return 0.0; float_range 0.0 1e6 ])))

let contributing (inputs : E2e.Aggregate.input list) =
  List.filter
    (fun (i : E2e.Aggregate.input) -> i.latency_ns <> None && i.throughput > 0.0)
    inputs

let prop_aggregate_throughput_sums =
  QCheck.Test.make ~name:"aggregate: throughput sums over all inputs" ~count:300
    gen_inputs (fun inputs ->
      let agg = E2e.Aggregate.combine inputs in
      let sum = List.fold_left (fun a (i : E2e.Aggregate.input) -> a +. i.throughput) 0.0 inputs in
      Float.abs (agg.throughput -. sum) <= 1e-6 *. Float.max 1.0 sum)

let prop_aggregate_mean_bounded =
  QCheck.Test.make
    ~name:"aggregate: weighted mean bounded by contributing latencies" ~count:300
    gen_inputs (fun inputs ->
      let agg = E2e.Aggregate.combine inputs in
      match (agg.latency_ns, contributing inputs) with
      | None, [] -> true
      | None, _ :: _ | Some _, [] -> false
      | Some l, contrib ->
        let lats = List.filter_map (fun (i : E2e.Aggregate.input) -> i.latency_ns) contrib in
        let lo = List.fold_left Float.min Float.infinity lats in
        let hi = List.fold_left Float.max Float.neg_infinity lats in
        l >= lo -. 1e-6 && l <= hi +. 1e-6)

let prop_aggregate_flows_counts_contributors =
  QCheck.Test.make
    ~name:"aggregate: flows counts latency-contributing inputs" ~count:300
    gen_inputs (fun inputs ->
      (E2e.Aggregate.combine inputs).flows = List.length (contributing inputs))

let test_fairness_helpers () =
  Alcotest.(check (option (float 1e-9))) "ratio" (Some 2.0)
    (E2e.Aggregate.max_min_ratio [ 1.0; 2.0 ]);
  Alcotest.(check (option (float 1e-9))) "ratio of empty" None
    (E2e.Aggregate.max_min_ratio []);
  Alcotest.(check (option (float 1e-9))) "starved tenant" None
    (E2e.Aggregate.max_min_ratio [ 0.0; 1.0 ]);
  Alcotest.(check (option (float 1e-9))) "jain of equals" (Some 1.0)
    (E2e.Aggregate.jain [ 3.0; 3.0; 3.0 ]);
  Alcotest.(check (option (float 1e-9))) "jain maximally unfair" (Some 0.25)
    (E2e.Aggregate.jain [ 1.0; 0.0; 0.0; 0.0 ]);
  Alcotest.(check (option (float 1e-9))) "jain of empty" None (E2e.Aggregate.jain []);
  Alcotest.(check (option (float 1e-9))) "jain of zeros" None
    (E2e.Aggregate.jain [ 0.0; 0.0 ])

(* {1 Multi-connection runner} *)

let quick_config n_conns =
  let base = Loadgen.Runner.default_config ~rate_rps:40e3 ~batching:Loadgen.Runner.Static_off in
  { base with n_conns; warmup = Sim.Time.ms 20; duration = Sim.Time.ms 60 }

let test_multiconn_runs_and_balances () =
  let r = Loadgen.Runner.run (quick_config 4) in
  Alcotest.(check bool) "completes" true (r.completed > 1500);
  Alcotest.(check bool) "achieves offered" true (r.achieved_rps > 0.85 *. r.offered_rps);
  (* hint aggregation across flows still matches measured *)
  match r.hint_estimated_us with
  | Some est ->
    let err = Float.abs (est -. r.measured_mean_us) /. r.measured_mean_us in
    if err > 0.10 then Alcotest.failf "hint aggregate off by %.0f%%" (err *. 100.0)
  | None -> Alcotest.fail "no hint estimate"

let test_multiconn_deterministic () =
  let r1 = Loadgen.Runner.run (quick_config 3) in
  let r2 = Loadgen.Runner.run (quick_config 3) in
  Alcotest.(check int) "same completions" r1.completed r2.completed;
  Alcotest.(check (float 1e-9)) "same mean" r1.measured_mean_us r2.measured_mean_us

let test_multiconn_matches_single_at_low_load () =
  (* At low load, splitting the same offered rate across connections
     should not change latency much. *)
  let single = Loadgen.Runner.run (quick_config 1) in
  let multi = Loadgen.Runner.run (quick_config 4) in
  let rel =
    Float.abs (multi.measured_mean_us -. single.measured_mean_us)
    /. single.measured_mean_us
  in
  if rel > 0.5 then
    Alcotest.failf "multi %.1fus vs single %.1fus" multi.measured_mean_us
      single.measured_mean_us

let test_multiconn_dynamic_controller () =
  let base = quick_config 3 in
  let r =
    Loadgen.Runner.run
      { base with batching = Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic }
  in
  Alcotest.(check bool) "controller sampled aggregates" true (List.length r.samples > 10)

let test_multiconn_invalid () =
  Alcotest.check_raises "zero conns"
    (Invalid_argument "Runner.run: n_conns must be at least 1") (fun () ->
      ignore (Loadgen.Runner.run (quick_config 0)))

let test_runner_rejects_bad_rate_and_burst () =
  let expect msg cfg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Loadgen.Runner.run cfg))
  in
  let base = quick_config 1 in
  let rate_msg = "Runner.run: rate_rps must be positive and finite" in
  expect rate_msg { base with rate_rps = 0.0 };
  expect rate_msg { base with rate_rps = -5.0 };
  expect rate_msg { base with rate_rps = Float.nan };
  expect rate_msg { base with rate_rps = Float.infinity };
  expect "Runner.run: burst must be at least 1" { base with burst = 0 }

let suite =
  [
    ( "core.counter_log",
      [
        Alcotest.test_case "per-interval series" `Quick test_counter_log_series;
        Alcotest.test_case "ordering enforced" `Quick test_counter_log_ordering;
        Alcotest.test_case "empty log" `Quick test_counter_log_empty;
        Alcotest.test_case "agrees with in-band estimation" `Quick
          test_counter_log_agrees_with_inband;
      ] );
    ( "core.aggregate",
      [
        Alcotest.test_case "throughput-weighted mean" `Quick test_aggregate_weighted_mean;
        Alcotest.test_case "skips empty flows" `Quick test_aggregate_skips_empty;
        Alcotest.test_case "empty input" `Quick test_aggregate_empty;
        Alcotest.test_case "fairness helpers" `Quick test_fairness_helpers;
        QCheck_alcotest.to_alcotest prop_aggregate_throughput_sums;
        QCheck_alcotest.to_alcotest prop_aggregate_mean_bounded;
        QCheck_alcotest.to_alcotest prop_aggregate_flows_counts_contributors;
      ] );
    ( "integration.multiconn",
      [
        Alcotest.test_case "runs and balances" `Slow test_multiconn_runs_and_balances;
        Alcotest.test_case "deterministic" `Slow test_multiconn_deterministic;
        Alcotest.test_case "matches single at low load" `Slow
          test_multiconn_matches_single_at_low_load;
        Alcotest.test_case "dynamic controller aggregates" `Slow
          test_multiconn_dynamic_controller;
        Alcotest.test_case "invalid n_conns" `Quick test_multiconn_invalid;
        Alcotest.test_case "invalid rate and burst" `Quick
          test_runner_rejects_bad_rate_and_burst;
      ] );
  ]
