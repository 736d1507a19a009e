(* One benchmark run of one workload: set-up timing, the timed untraced
   repeats (end-to-end metrics), or the traced repeat plus the layer
   probes (per-layer metrics), with the correctness gate over all of
   them. *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : metric list;
  notes : string list;  (** human-readable detail printed before the result *)
}

let end_to_end_units =
  [
    ("sim_req_per_s", "req/s");
    ("alloc_words_per_req", "words/req");
    ("major_words_per_req", "words/req");
    ("peak_heap_mb", "MiB");
    ("setup_s", "s");
  ]

(* Layers whose host time is attributed per request; the shares of
   these plus [unattributed] sum to one.  [tcp.bytebuf] is reported as
   a share too, but it is a part of [tcp.transfer], not an addend. *)
let attributed = [ "kv.resp"; "tcp.transfer"; "core.share"; "core.estimate"; "shard.assign"; "trace" ]

let per_layer_units =
  [
    ("host.us_per_req", "us/req");
    ("kv.resp.ns_per_req", "ns/req");
    ("kv.resp.words_per_req", "words/req");
    ("tcp.bytebuf.words_per_kib", "words/KiB");
    ("tcp.transfer.ns_per_req", "ns/req");
    ("tcp.transfer.major_words_per_req", "words/req");
    ("tcp.segments_per_req", "count/req");
    ("tcp.acks_per_req", "count/req");
    ("tcp.delack_fires_per_req", "count/req");
    ("tcp.nagle_holds_per_req", "count/req");
    ("sim.engine.ns_per_event", "ns/event");
    ("sim.engine.words_per_event", "words/event");
    ("core.share.ns", "ns");
    ("core.shares_per_req", "count/req");
    ("core.estimate.ns", "ns");
    ("core.estimates_per_req", "count/req");
    ("loadgen.control.decisions_per_req", "count/req");
    ("shard.assign.ns_per_conn", "ns/conn");
    ("shard.assigns_per_kreq", "count/kreq");
    ("scenario.compile_ms", "ms");
    ("trace.records_per_req", "count/req");
    ("trace.write.ns_per_record", "ns/record");
    ("trace.bytes_per_record", "B/record");
    ("trace.fold.ns_per_record", "ns/record");
    ("span.feed.ns_per_record", "ns/record");
    ("runtime.minor_gcs_per_kreq", "count/kreq");
    ("runtime.major_gcs_per_kreq", "count/kreq");
    ("model.completed", "req");
    ("model.p99_us", "us");
    ("model.packets_per_req", "count/req");
    ("model.server_batch_mean", "req");
  ]
  @ List.concat_map
      (fun l -> [ (l ^ ".us_per_req", "us/req"); (l ^ ".share", "fraction") ])
      (attributed @ [ "tcp.bytebuf"; "unattributed" ])
  @ [ ("trace_overhead_frac", "fraction") ]

let unit_of name units =
  match List.assoc_opt name units with
  | Some u -> u
  | None -> invalid_arg ("no unit for metric " ^ name)

let median = Layers.median

type sample = {
  wall : float;  (** raw host seconds *)
  speed : float;  (** converts them to nominal host seconds (see {!Clock}) *)
  words : float;
  major : float;
  minor_gcs : int;
  major_gcs : int;
  outcome : Workloads.outcome;
}

(* Every timed run starts from a compacted heap, so garbage left by the
   previous repeat does not shift GC work into this one. *)
let timed w p ?sink () =
  let speed = Clock.speed () in
  let s0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  let outcome = Workloads.run ?sink w p in
  let t1 = Clock.now () in
  let s1 = Gc.quick_stat () in
  {
    wall = t1 -. t0;
    speed;
    words = Layers.allocated s0 s1;
    major = s1.major_words -. s0.major_words;
    minor_gcs = s1.minor_collections - s0.minor_collections;
    major_gcs = s1.major_collections - s0.major_collections;
    outcome;
  }

(* Repeat [f] for at least [min_reps] calls and until [budget] seconds
   have passed (at most [max_reps] calls). *)
let repeat ~min_reps ~max_reps ~budget f =
  let t0 = Clock.now () in
  let rec go acc n =
    if n >= max_reps || (n >= min_reps && Clock.now () -. t0 >= budget) then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* One set-up: compile the config and build the world, as a run to a
   zero horizon; in raw host seconds. *)
let setup_once w ~seed =
  let t0 = Clock.now () in
  Workloads.run_setup w ~seed;
  Clock.now () -. t0

let req (s : sample) = float_of_int s.outcome.completed_total

(* The correctness gate over a set of runs of one config: accounting
   closure, progress, liveness, and one digest of the simulated
   results.  Every run stops at its horizon with the requests issued
   just before it still in flight (0.1% of them on fig4a-16k, 3% on
   fleet-sharded); a run that leaves more than a tenth of its requests
   in flight has stalled. *)
let check ~digest samples =
  List.concat_map
    (fun s ->
      let o = s.outcome in
      o.Workloads.failures
      @ (if o.completed_total > 0 then [] else [ "no request completed" ])
      @ (if 10 * o.outstanding_end <= o.issued then []
         else
           [
             Printf.sprintf "stalled: %d of %d requests still in flight at the horizon"
               o.outstanding_end o.issued;
           ])
      @
      if o.digest = digest then []
      else [ Printf.sprintf "simulated results differ between repeats (%s <> %s)" o.digest digest ])
    samples

(* Operations are the simulated requests issued.  A request still in
   flight at the horizon is not failed: the simulation ends at a fixed
   instant by design, and [check] accounts for it.  Every request of a
   run set whose check failed is failed. *)
let tally samples ~failures =
  let attempted = List.fold_left (fun a s -> a + s.outcome.Workloads.issued) 0 samples in
  (attempted, if failures = [] then 0 else attempted)

(* An end-to-end run measures [w.sims] simulations of the workload,
   with seeds derived from the run's seed, and sums over them.  On
   small-64b the dynamic controller's trajectory alone moves host cost
   per request by up to 15% between seeds; summed over four
   trajectories, that averages out.  One fleet-sharded simulation
   takes over a second and varies little between seeds, so it runs
   alone. *)
let sub_seeds (w : Workloads.t) seed = List.init w.sims (fun i -> (w.sims * seed) + i)

(* The untraced timed repeats: each config is built once and run
   untimed to warm caches, then every config is repeated in rounds for
   [seconds].  Before each repeat, set-up runs for a twentieth of a
   repeat's time (once at least).  Set-up time is the median of all
   those set-ups, in raw host seconds; like the repeats it spans the
   whole window, so the run's median speed factor scales it to nominal
   host seconds.  Returns the configs with their untimed references,
   and the rounds, each one sample per config. *)
let untraced w ~seeds ~seconds =
  Workloads.warm w;
  let sims =
    List.map
      (fun seed ->
        Workloads.run_setup w ~seed;
        let p = Workloads.prepare w ~seed ~setup:false in
        (seed, p, timed w p ()))
      seeds
  in
  let setups = ref [] in
  let rounds =
    repeat ~min_reps:3 ~max_reps:max_int ~budget:seconds (fun () ->
        List.map
          (fun (seed, p, reference) ->
            setups :=
              repeat ~min_reps:1 ~max_reps:5001 ~budget:(reference.wall /. 20.) (fun () ->
                  setup_once w ~seed)
              @ !setups;
            timed w p ())
          sims)
  in
  let setup = median !setups in
  let failures =
    List.concat
      (List.mapi
         (fun i (_, _, reference) ->
           check ~digest:reference.outcome.digest
             (reference :: List.map (fun round -> List.nth round i) rounds))
         sims)
  in
  (setup, sims, rounds, failures)

(* Nominal host seconds, set-up excluded. *)
let host_s ~setup s = Float.max 1e-9 ((s.wall -. setup) *. s.speed)
let host_per_req ~setup s = host_s ~setup s /. req s

let end_to_end w ~seed ~seconds =
  let setup, _, rounds, failures = untraced w ~seeds:(sub_seeds w seed) ~seconds in
  let samples = List.concat rounds in
  let sum f round = List.fold_left (fun a s -> a +. f s) 0. round in
  let per_req f = median (List.map (fun round -> sum f round /. sum req round) rounds) in
  let speed = median (List.map (fun s -> s.speed) samples) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let values =
    [
      ("sim_req_per_s", 1. /. per_req (host_s ~setup));
      ("alloc_words_per_req", per_req (fun s -> s.words));
      ("major_words_per_req", per_req (fun s -> s.major));
      ("peak_heap_mb", heap_mb);
      ("setup_s", setup *. speed);
    ]
  in
  let attempted, failed = tally samples ~failures in
  let walls = List.map (fun s -> s.wall) samples in
  let note =
    Printf.sprintf
      "timed rounds: %d of %d simulations, %d requests; raw wall s min/median/max \
       %.4f/%.4f/%.4f; host speed factor median %.3f; set-up raw s %.6f"
      (List.length rounds)
      (List.length (List.hd rounds))
      (int_of_float (sum req (List.hd rounds)))
      (List.fold_left Float.min infinity walls)
      (median walls)
      (List.fold_left Float.max 0. walls)
      speed setup
  in
  (values, failures, attempted, failed, [ note ])

let per_layer w ~seed ~seconds =
  let setup, sims, rounds, failures = untraced w ~seeds:[ seed ] ~seconds:(seconds /. 2.) in
  let _, p, reference = List.hd sims in
  let samples = List.map List.hd rounds in
  let host_us = 1e6 *. median (List.map (host_per_req ~setup) samples) in
  (* Traced repeats (one at least, more while a quarter of the window
     lasts): their simulated results must match the untraced runs, and
     the first one's sink must see every completion. *)
  let traced =
    repeat ~min_reps:1 ~max_reps:5 ~budget:(seconds /. 4.) (fun () ->
        let c = Counting.create ~window_from:(Sim.Time.ms w.warmup_ms) ~window_cap:50_000 in
        (c, timed w p ~sink:(Counting.sink c) ()))
  in
  let c1 = fst (List.hd traced) in
  let traced = List.map snd traced in
  let completed = reference.outcome.completed_total in
  let failures =
    failures
    @ check ~digest:reference.outcome.digest traced
    @ (if c1.request_done = completed then []
       else
         [ Printf.sprintf "counting sink saw %d Request_done, run completed %d" c1.request_done completed ])
    @
    if c1.request_done_sharded = 0 || c1.request_done_sharded = completed then []
    else
      [
        Printf.sprintf "counting sink saw %d shard-tagged Request_done, run completed %d"
          c1.request_done_sharded completed;
      ]
  in
  let n = req reference in
  let per_req k = float_of_int k /. n in
  (* Probe costs averaged over the workload's request mix, each
     tenant's probe shaped by the deliveries its sockets received. *)
  let mixed f l = List.fold_left (fun acc (c, s) -> acc +. (s *. f c)) 0. l in
  let over_mix probe =
    List.map
      (fun (tenant, wl, s) ->
        let srv_chunk = Counting.delivery_bytes c1 ~tenant ~server:true in
        let cli_chunk = Counting.delivery_bytes c1 ~tenant ~server:false in
        (probe wl ~srv_chunk ~cli_chunk, s))
      w.mix
  in
  let resp = over_mix Layers.resp in
  let bytebuf = over_mix (fun wl ~srv_chunk:_ ~cli_chunk:_ -> Layers.bytebuf wl) in
  let transfer =
    over_mix (fun wl ~srv_chunk ~cli_chunk:_ ->
        let req_len = float_of_int (Loadgen.Workload.request_bytes wl `Set) in
        let batch = max 1 (int_of_float (Float.round (srv_chunk /. req_len))) in
        Layers.transfer ~batch wl)
  in
  let engine = Layers.engine ~depth:(16 + (4 * w.conns)) in
  let share = Layers.share () in
  let estimate = Layers.estimate () in
  let fleet = match w.kind with Workloads.Fleet -> true | Workloads.Runner _ -> false in
  let shard_ns, compile_ms =
    if not fleet then (0., 0.)
    else
      let cfg = Workloads.compile_fleet w ~seed ~setup:false in
      let labels =
        Array.of_list
          (List.concat_map
             (fun (t : Loadgen.Fleet.tenant) ->
               List.init t.n_conns (fun i -> Printf.sprintf "%s/c%d" t.name i))
             cfg.tenants)
      in
      let shard = Layers.shard ~labels ~shards:cfg.cores ~policy:cfg.lb in
      let compile =
        Layers.measure ~batches:3 ~ops:1 (fun () ->
            ignore (Sys.opaque_identity (Workloads.compile_fleet w ~seed ~setup:false)))
      in
      (shard.ns, compile.ns /. 1e6)
  in
  let tr = Layers.trace (Counting.window c1) in
  let kv_us = mixed (fun (c : Layers.cost) -> c.ns) resp /. 1e3 in
  let bytebuf_us = mixed (fun ((c : Layers.cost), _) -> c.ns) bytebuf /. 1e3 in
  let transfer_us = mixed (fun (c : Layers.cost) -> c.ns) transfer /. 1e3 in
  let share_us = share.ns *. per_req c1.shares /. 1e3 in
  let estimate_us = estimate.ns *. per_req c1.estimates /. 1e3 in
  let shard_us = shard_ns *. per_req c1.lb_assigned_in_run /. 1e3 in
  let trace_us =
    if w.observed then
      per_req c1.records *. (tr.write.ns +. tr.fold.ns +. tr.span_feed.ns) /. 1e3
    else 0.
  in
  let layer_us =
    List.combine attributed [ kv_us; transfer_us; share_us; estimate_us; shard_us; trace_us ]
  in
  let unattributed = host_us -. List.fold_left (fun a (_, v) -> a +. v) 0. layer_us in
  let shares =
    List.concat_map
      (fun (l, us) -> [ (l ^ ".us_per_req", us); (l ^ ".share", us /. host_us) ])
      (layer_us @ [ ("tcp.bytebuf", bytebuf_us); ("unattributed", unattributed) ])
  in
  let gcs f = median (List.map (fun s -> float_of_int (f s) *. 1e3 /. req s) samples) in
  let model =
    List.map
      (fun (k, v) ->
        (* Fleet.result has no packet count: use the data segments the
           counting sink saw. *)
        if fleet && k = "model.packets_per_req" then (k, per_req c1.segments) else (k, v))
      reference.outcome.model
  in
  let values =
    [
      ("host.us_per_req", host_us);
      ("kv.resp.ns_per_req", kv_us *. 1e3);
      ("kv.resp.words_per_req", mixed (fun (c : Layers.cost) -> c.words) resp);
      ( "tcp.bytebuf.words_per_kib",
        mixed (fun ((c : Layers.cost), _) -> c.words) bytebuf
        /. mixed (fun (_, kib) -> kib) bytebuf );
      ("tcp.transfer.ns_per_req", transfer_us *. 1e3);
      ("tcp.transfer.major_words_per_req", mixed (fun (c : Layers.cost) -> c.major_words) transfer);
      ("tcp.segments_per_req", per_req c1.segments);
      ("tcp.acks_per_req", per_req c1.acks);
      ("tcp.delack_fires_per_req", per_req c1.delack_fires);
      ("tcp.nagle_holds_per_req", per_req c1.nagle_holds);
      ("sim.engine.ns_per_event", engine.ns);
      ("sim.engine.words_per_event", engine.words);
      ("core.share.ns", share.ns);
      ("core.shares_per_req", per_req c1.shares);
      ("core.estimate.ns", estimate.ns);
      ("core.estimates_per_req", per_req c1.estimates);
      ("loadgen.control.decisions_per_req", per_req c1.decisions);
      ("shard.assign.ns_per_conn", shard_ns);
      ("shard.assigns_per_kreq", 1e3 *. per_req c1.lb_assigned);
      ("scenario.compile_ms", compile_ms);
      ("trace.records_per_req", per_req c1.records);
      ("trace.write.ns_per_record", tr.write.ns);
      ("trace.bytes_per_record", tr.bytes_per_record);
      ("trace.fold.ns_per_record", tr.fold.ns);
      ("span.feed.ns_per_record", tr.span_feed.ns);
      ("runtime.minor_gcs_per_kreq", gcs (fun s -> s.minor_gcs));
      ("runtime.major_gcs_per_kreq", gcs (fun s -> s.major_gcs));
    ]
    @ model @ shares
    @ [
        ( "trace_overhead_frac",
          (1e6 *. median (List.map (host_per_req ~setup) traced) /. host_us) -. 1. );
      ]
  in
  let attempted, failed = tally (samples @ traced) ~failures in
  (values, failures, attempted, failed, [])

let run w ~seed ~seconds ~trace =
  let (values, failures, attempted, failed, notes), units =
    if trace then (per_layer w ~seed ~seconds, per_layer_units)
    else (end_to_end w ~seed ~seconds, end_to_end_units)
  in
  let failures =
    failures
    @ List.filter_map
        (fun (k, v) ->
          if Float.is_finite v then None else Some (Printf.sprintf "metric %s is %g" k v))
        values
  in
  Workloads.remove_tmp ();
  {
    correct = failures = [];
    attempted;
    failed;
    failures;
    notes;
    metrics =
      List.map
        (fun (name, value) ->
          { name; value = (if Float.is_finite value then value else 0.); unit_ = unit_of name units })
        values;
  }

let json r =
  let metric m = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_ in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
