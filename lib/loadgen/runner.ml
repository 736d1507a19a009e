(* The batching types and the controller itself live in {!Control} so
   the fleet engine can instantiate one group per scope unit; they are
   re-exported here verbatim to keep the single-run API unchanged. *)

type dynamic = Control.dynamic = {
  policy : E2e.Policy.t;
  epsilon : float;
  tick : Sim.Time.span;
  ewma_alpha : float;
  min_observations : int;
  stale_after_rtts : float;
  stale_floor : Sim.Time.span;
  degrade : E2e.Degrade.config;
  fallback : E2e.Toggler.mode;
}

let default_dynamic = Control.default_dynamic

type aimd_cfg = Control.aimd_cfg = {
  slo_us : float;
  aimd_tick : Sim.Time.span;
  min_limit : int;
  max_limit : int;
  increase : int;
  decrease : float;
}

let default_aimd = Control.default_aimd

type batching = Control.batching =
  | Static_on
  | Static_off
  | Dynamic of dynamic
  | Aimd_limit of aimd_cfg

let batching_label = Control.batching_label

type config = {
  seed : int;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;
  rate_rps : float;
  burst : int;
  n_conns : int;
  workload : Workload.t;
  trace : Trace.entry list option;
      (* replay this schedule instead of drawing from workload/arrival *)
  batching : batching;
  unit_mode : E2e.Units.t;
  exchange : E2e.Exchange.policy;
  server : Kv.Server.config;
  client : Kv.Client.config;
  mss : int;
  rcv_buf : int;
  cork : bool;
  tso : bool;
  cc : bool;
  loss_prob : float;  (* per-packet drop probability, both directions *)
  fault : Fault.Plan.t option;  (* deterministic fault-injection plan *)
  sack : bool;  (* SACK scoreboard loss recovery (go-back-N when off) *)
  wscale : Tcp.Socket.wscale;  (* window carriage: exact or RFC 7323 *)
  persist : bool;  (* zero-window persist probing *)
  delack_timeout : Sim.Time.span;
  tx_cost : Sim.Time.span;
  rx_seg_cost : Sim.Time.span;
  rx_batch_cost : Sim.Time.span;
  gro_enabled : bool;
  gro_flush_timeout : Sim.Time.span;
  link : Tcp.Conn.link_params;
  observe : Observe.config option;
}

let default_config ~rate_rps ~batching =
  {
    seed = 42;
    warmup = Sim.Time.ms 100;
    duration = Sim.Time.ms 400;
    rate_rps;
    burst = 1;
    n_conns = 1;
    workload = Workload.paper_set_only;
    trace = None;
    batching;
    unit_mode = E2e.Units.Bytes;
    exchange = E2e.Exchange.Periodic (Sim.Time.us 100);
    server = Kv.Server.default_config;
    client = Kv.Client.default_config;
    mss = 1448;
    rcv_buf = 1024 * 1024;
    cork = false;
    tso = false;
    cc = false;
    loss_prob = 0.0;
    fault = None;
    sack = true;
    wscale = `Exact;
    persist = true;
    delack_timeout = Sim.Time.ms 40;
    tx_cost = Sim.Time.ns 300;
    rx_seg_cost = Sim.Time.ns 150;
    rx_batch_cost = Sim.Time.us 8;
    gro_enabled = true;
    gro_flush_timeout = Sim.Time.us 12;
    link = Tcp.Conn.default_link;
    observe = None;
  }

type estimate_sample = Control.estimate_sample = {
  at_us : float;
  latency_us : float option;
  throughput_rps : float;
  mode : E2e.Toggler.mode;
}

type result = {
  offered_rps : float;
  achieved_rps : float;
  completed : int;
  issued : int;
  completed_total : int;
  outstanding_end : int;
  link_dropped : int;
  shares_corrupted : int;
  shares_rejected : int;
  degrade_freezes : int option;
  degrade_thaws : int option;
  degrade_frozen_end : bool option;
  measured_mean_us : float;
  measured_p50_us : float;
  measured_p99_us : float;
  under_slo : float;
  estimated_us : float option;
  estimated_local_us : float option;
  estimated_remote_us : float option;
  estimated_tput_rps : float;
  hint_estimated_us : float option;
  hint_tput_rps : float option;
  hint_server_estimated_us : float option;
  client_app_util : float;
  server_app_util : float;
  client_irq_util : float;
  server_irq_util : float;
  packets : int;
  packets_per_request : float;
  server_batch_mean : float;
  server_wakeups : int;
  nagle_toggles : int;
  final_mode : E2e.Toggler.mode option;
  final_batch_limit : int option;
  server_gro_merge : float;
  server_gro_batches : int;
  server_acks_by_timer : int;
  client_srtt_us : float option;
      (* the RTT baseline the paper rules out, for comparison *)
  client_p99_est_us : float option;  (* online P2 tail estimate *)
  samples : estimate_sample list;
  observability : Observe.output option;
}

let slo_us = 500.0

let ns_opt_to_us = Option.map (fun ns -> ns /. 1e3)

type baseline = {
  b_client_app : Sim.Time.span;
  b_server_app : Sim.Time.span;
  b_client_irq : Sim.Time.span;
  b_server_irq : Sim.Time.span;
  b_packets : int;
  b_hints : E2e.Queue_state.share list;
  b_server_hints : E2e.Queue_state.share option list;
}

let run cfg =
  if cfg.n_conns < 1 then invalid_arg "Runner.run: n_conns must be at least 1";
  if (not (Float.is_finite cfg.rate_rps)) || cfg.rate_rps <= 0.0 then
    invalid_arg "Runner.run: rate_rps must be positive and finite";
  if cfg.burst < 1 then invalid_arg "Runner.run: burst must be at least 1";
  let initial_nagle = Control.initial_nagle cfg.batching in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let workload_rng = Sim.Rng.split rng in
  let arrival_rng = Sim.Rng.split rng in
  let toggler_rng = Sim.Rng.split rng in
  let socket_cfg =
    {
      Tcp.Socket.mss = cfg.mss;
      nagle = initial_nagle;
      cork = cfg.cork;
      tso_max = (if cfg.tso then Some (64 * 1024) else None);
      cc_enabled = cfg.cc;
      delack_timeout = cfg.delack_timeout;
      delack_max_pending = 2;
      rcv_buf = cfg.rcv_buf;
      unit_mode = cfg.unit_mode;
      exchange = cfg.exchange;
      sack = cfg.sack;
      wscale = cfg.wscale;
      persist = cfg.persist;
    }
  in
  let host =
    {
      Tcp.Conn.socket = socket_cfg;
      tx_cost = cfg.tx_cost;
      rx_seg_cost = cfg.rx_seg_cost;
      rx_batch_cost = cfg.rx_batch_cost;
      gro =
        {
          (Tcp.Gro.default_config ~mss:cfg.mss) with
          enabled = cfg.gro_enabled;
          flush_timeout = cfg.gro_flush_timeout;
        };
    }
  in
  (* One IRQ core per host shared by every connection; one app core per
     host (Redis and Lancet are single-threaded), one store. *)
  let client_irq = Sim.Cpu.create engine in
  let server_irq = Sim.Cpu.create engine in
  let client_cpu = Sim.Cpu.create engine in
  let server_cpu = Sim.Cpu.create engine in
  let store = Kv.Store.create () in
  Workload.prepopulate cfg.workload store ~now:(Sim.Engine.now engine);
  let loss_rng = Sim.Rng.split rng in
  (* The fault stream is split only when a plan is present: a faultless
     config draws exactly the same rng sequence as before the fault
     subsystem existed, keeping plan-disabled runs bit-identical. *)
  let fault_rng =
    match cfg.fault with None -> None | Some _ -> Some (Sim.Rng.split rng)
  in
  let conns =
    List.init cfg.n_conns (fun i ->
        let conn =
          Tcp.Conn.create engine ~a:host ~b:host ~link_ab:cfg.link ~link_ba:cfg.link
            ~cpu_a:client_irq ~cpu_b:server_irq
            ~label_a:(Printf.sprintf "c%d" i) ~label_b:(Printf.sprintf "s%d" i) ()
        in
        if cfg.loss_prob > 0.0 then begin
          Tcp.Link.set_loss (Tcp.Conn.link_ab conn) ~rng:loss_rng ~prob:cfg.loss_prob;
          Tcp.Link.set_loss (Tcp.Conn.link_ba conn) ~rng:loss_rng ~prob:cfg.loss_prob
        end;
        (match (cfg.fault, fault_rng) with
        | Some plan, Some frng ->
          (* Per-link injector rngs are split in a fixed order (c2s
             then s2c, connection by connection), so fault sequences
             are identical across repeats and across [--domains]. *)
          let inj side = Fault.Injector.create ~side ~rng:(Sim.Rng.split frng) in
          Tcp.Link.set_fault (Tcp.Conn.link_ab conn) (inj plan.Fault.Plan.c2s);
          Tcp.Link.set_fault (Tcp.Conn.link_ba conn) (inj plan.Fault.Plan.s2c)
        | _ -> ());
        conn)
  in
  (* Mid-run bandwidth/propagation-delay steps apply to every link of
     the affected run at the planned instant. *)
  (match cfg.fault with
  | Some plan ->
    List.iter
      (fun (s : Fault.Plan.step) ->
        Sim.Engine.schedule_at engine
          ~at:(Sim.Time.ns (int_of_float (s.at_us *. 1e3)))
          (fun () ->
            List.iter
              (fun conn ->
                List.iter
                  (fun link ->
                    Option.iter (Tcp.Link.set_gbit_per_s link) s.gbit_per_s;
                    Option.iter
                      (fun us ->
                        Tcp.Link.set_prop_delay link
                          (Sim.Time.ns (int_of_float (us *. 1e3))))
                      s.delay_us)
                  [ Tcp.Conn.link_ab conn; Tcp.Conn.link_ba conn ])
              conns))
      plan.Fault.Plan.steps
  | None -> ());
  let client_socks = List.map Tcp.Conn.sock_a conns in
  let server_socks = List.map Tcp.Conn.sock_b conns in
  let obs = Option.map Observe.create cfg.observe in
  (match obs with
  | Some o ->
    let tr = Observe.trace o in
    let au = Observe.audit o in
    List.iter
      (fun sock ->
        Tcp.Socket.set_trace sock tr;
        E2e.Estimator.set_audit (Tcp.Socket.estimator sock) au
          ~prefix:(Tcp.Socket.label sock))
      (client_socks @ server_socks);
    (* Fault visibility: each direction's drops/reorders/duplicates
       are labelled with the sending side's id. *)
    List.iteri
      (fun i conn ->
        Tcp.Link.set_trace (Tcp.Conn.link_ab conn) tr ~id:(Printf.sprintf "c%d" i);
        Tcp.Link.set_trace (Tcp.Conn.link_ba conn) tr ~id:(Printf.sprintf "s%d" i))
      conns
  | None -> ());
  let servers =
    List.map
      (fun sock -> Kv.Server.create engine ~cpu:server_cpu ~socket:sock ~store cfg.server)
      server_socks
  in
  let clients =
    List.map
      (fun sock -> Kv.Client.create engine ~cpu:client_cpu ~socket:sock cfg.client)
      client_socks
  in
  let client_arr = Array.of_list clients in
  let warmup_until = cfg.warmup in
  let total = cfg.warmup + cfg.duration in
  let recorder = Recorder.create ~warmup_until () in
  let arrival =
    if cfg.burst > 1 then
      Arrival.bursty ~rng:arrival_rng ~rate_rps:cfg.rate_rps ~burst:cfg.burst
    else Arrival.poisson ~rng:arrival_rng ~rate_rps:cfg.rate_rps
  in
  (* SLO observatory + decision ledger: one tracker and one ledger for
     the run's single control group.  Both only write trace/histogram
     state, never simulation state. *)
  let ledger =
    Option.map
      (fun o ->
        Observe.declare_slo o ~at:(Sim.Engine.now engine) ~id:"client" ~slo_us;
        E2e.Ledger.create ~trace:(Observe.trace o) ~group:"run")
      obs
  in
  (* Open-loop request driver, round-robin over connections. *)
  let on_complete ~latency reply =
    (match reply with
    | Kv.Resp.Error e -> failwith ("runner: server replied with error: " ^ e)
    | Kv.Resp.Simple _ | Kv.Resp.Integer _ | Kv.Resp.Bulk _ | Kv.Resp.Array _ -> ());
    Recorder.record recorder ~at:(Sim.Engine.now engine) ~latency;
    (match ledger with
    | Some lg -> E2e.Ledger.completion lg ~latency
    | None -> ());
    match obs with
    | Some o -> Observe.note_request o ~at:(Sim.Engine.now engine) ~latency
    | None -> ()
  in
  let next_client = ref 0 in
  let issue cmd =
    let client = client_arr.(!next_client) in
    next_client := (!next_client + 1) mod Array.length client_arr;
    Kv.Client.request client cmd ~on_complete
  in
  (match cfg.trace with
  | Some entries ->
    (* trace replay: the schedule is the trace, clipped to the run *)
    List.iter
      (fun (e : Trace.entry) ->
        if Sim.Time.compare e.at total <= 0 then
          Sim.Engine.schedule_at engine ~at:e.at (fun () -> issue e.cmd))
      entries
  | None ->
    let rec schedule_request () =
      let gap = Arrival.next_gap arrival ~now:(Sim.Engine.now engine) in
      let at = Sim.Time.add (Sim.Engine.now engine) gap in
      if Sim.Time.compare at total <= 0 then
        Sim.Engine.schedule engine ~after:gap (fun () ->
            issue (Workload.next_command cfg.workload ~rng:workload_rng);
            schedule_request ())
    in
    schedule_request ());
  (* Estimation: per-connection estimators (client side), aggregated
     across connections per §3.2 when a policy spans several flows. *)
  let estimators = List.map Tcp.Socket.estimator client_socks in
  let aggregate_estimate ~advance at =
    let per_flow =
      List.filter_map
        (fun e ->
          if advance then E2e.Estimator.estimate e ~at
          else E2e.Estimator.peek_estimate e ~at)
        estimators
    in
    (E2e.Aggregate.of_estimates per_flow, per_flow)
  in
  let all_socks = client_socks @ server_socks in
  (* Observability sampling.  Everything read here is non-destructive
     ([peek_estimate], queue sizes, counters), and the tick chain is
     scheduled before the controller ticks below so that at coincident
     instants the sample sees the window the controller is about to
     advance — enabling observability cannot change the simulation. *)
  (match obs with
  | None -> ()
  | Some o ->
    let m = Observe.metrics o in
    let queue_gauges prefix e =
      Sim.Metrics.gauge m (prefix ^ ".unacked") (fun () ->
          float_of_int (E2e.Estimator.unacked_size e));
      Sim.Metrics.gauge m (prefix ^ ".unread") (fun () ->
          float_of_int (E2e.Estimator.unread_size e));
      Sim.Metrics.gauge m (prefix ^ ".ackdelay") (fun () ->
          float_of_int (E2e.Estimator.ackdelay_size e))
    in
    List.iteri (fun i e -> queue_gauges (Printf.sprintf "c%d" i) e) estimators;
    List.iteri
      (fun i sock ->
        queue_gauges (Printf.sprintf "s%d" i) (Tcp.Socket.estimator sock))
      server_socks;
    Sim.Metrics.gauge m "client.nagle_toggles" (fun () ->
        float_of_int (Tcp.Nagle.toggles (Tcp.Socket.nagle (List.hd client_socks))));
    Sim.Metrics.gauge m "packets" (fun () ->
        float_of_int
          (List.fold_left (fun acc c -> acc + Tcp.Conn.total_packets c) 0 conns));
    Sim.Metrics.gauge m "completed" (fun () ->
        float_of_int (Recorder.count recorder));
    let interval = Observe.interval o in
    let rec tick () =
      let at = Sim.Engine.now engine in
      let per_flow =
        List.map (fun e -> E2e.Estimator.peek_estimate e ~at) estimators
      in
      (* Static runs never call [estimate] mid-run, so the trace would
         carry no estimate events without these peeked ones. *)
      List.iteri
        (fun i est ->
          match est with
          | Some (est : E2e.Estimator.estimate) ->
            Sim.Trace.event (Observe.trace o) ~at ~id:(Printf.sprintf "c%d" i)
              (Sim.Trace.Estimate_computed
                 {
                   latency_us = ns_opt_to_us est.latency_ns;
                   throughput = est.throughput;
                   window_us = float_of_int est.window /. 1e3;
                 })
          | None -> ())
        per_flow;
      let flows = List.filter_map Fun.id per_flow in
      let agg = E2e.Aggregate.of_estimates flows in
      let est_truth =
        if Sim.Time.compare at warmup_until <= 0 then None
        else
          match agg.latency_ns with
          | Some lat_ns ->
            let window_us =
              List.fold_left
                (fun acc (e : E2e.Estimator.estimate) ->
                  Float.max acc (float_of_int e.window /. 1e3))
                0.0 flows
            in
            let est_us = lat_ns /. 1e3 in
            Option.map
              (fun truth_us -> (est_us, truth_us))
              (Observe.note_residual o ~at ~window_us ~est_us)
          | None -> None
      in
      let s = Sim.Metrics.sample m ~at in
      let s =
        match est_truth with
        | Some (est_us, truth_us) ->
          { s with
            Sim.Metrics.values =
              s.Sim.Metrics.values
              @ [ ("estimate_us", est_us); ("truth_us", truth_us) ] }
        | None -> s
      in
      Observe.note_sample o s;
      Observe.slo_tick o ~at;
      if Sim.Time.compare (Sim.Time.add at interval) total <= 0 then
        Sim.Engine.schedule engine ~after:interval tick
    in
    Sim.Engine.schedule engine ~after:interval tick);
  (* One control group spanning the whole run — the pre-fleet
     behaviour.  The attach point matters: the observability tick chain
     above is scheduled first, so at coincident instants the sample
     still sees the window the controller is about to advance. *)
  let ctrl =
    Control.attach ?ledger ~engine ~until:total ~rng:toggler_rng
      ~fault_armed:(cfg.fault <> None) ~batching:cfg.batching ~client_socks
      ~all_socks ()
  in
  (* Warmup boundary: reset estimation windows, capture baselines. *)
  let baseline = ref None in
  Sim.Engine.schedule_at engine ~at:warmup_until (fun () ->
      let at = Sim.Engine.now engine in
      List.iter (fun e -> ignore (E2e.Estimator.estimate e ~at)) estimators;
      (match obs with
      | Some o -> Sim.Audit.reset_window (Observe.audit o) ~at
      | None -> ());
      baseline :=
        Some
          {
            b_client_app = Sim.Cpu.busy_ns client_cpu;
            b_server_app = Sim.Cpu.busy_ns server_cpu;
            b_client_irq = Sim.Cpu.busy_ns client_irq;
            b_server_irq = Sim.Cpu.busy_ns server_irq;
            b_packets =
              List.fold_left (fun acc c -> acc + Tcp.Conn.total_packets c) 0 conns;
            b_hints =
              List.map
                (fun c -> E2e.Hints.share (Kv.Client.hint_tracker c) ~at)
                clients;
            b_server_hints =
              List.map
                (fun sock -> Option.map snd (Tcp.Socket.remote_hint_window sock))
                server_socks;
          });
  Sim.Engine.run_until engine total;
  let at = Sim.Engine.now engine in
  (* Close the Little's-law audit window and put each queue's verdict
     on the trace before [Observe.output] snapshots the ring. *)
  (match obs with
  | None -> ()
  | Some o ->
    let reports = Observe.finalize_audit o ~at in
    List.iter
      (fun (r : Sim.Audit.report) ->
        Sim.Trace.event (Observe.trace o) ~at ~id:""
          (Sim.Trace.Audit_window
             {
               queue = r.queue;
               l_avg = r.l_avg;
               lambda_per_s = r.lambda_per_s;
               w_us = r.w_us;
               rel_err = r.rel_err;
             }))
      reports);
  let base =
    match !baseline with
    | Some b -> b
    | None -> failwith "runner: warmup sample never fired"
  in
  let duration_s = Sim.Time.to_sec cfg.duration in
  let completed = Recorder.count recorder in
  (* Run-level stack estimate over the measured window.  Static runs
     kept the window open since warmup; dynamic runs advanced it every
     tick, so aggregate the tick samples instead. *)
  let estimated_us, estimated_local_us, estimated_remote_us, estimated_tput =
    match cfg.batching with
    | Static_on | Static_off | Aimd_limit _ -> (
      let agg, per_flow = aggregate_estimate ~advance:false at in
      match (agg.latency_ns, per_flow) with
      | Some _, [ only ] ->
        (* single connection: expose the per-vantage detail too *)
        ( ns_opt_to_us agg.latency_ns,
          ns_opt_to_us only.latency_local_ns,
          ns_opt_to_us only.latency_remote_ns,
          agg.throughput )
      | Some _, _ -> (ns_opt_to_us agg.latency_ns, None, None, agg.throughput)
      | None, _ -> (None, None, None, agg.throughput))
    | Dynamic _ ->
      let lat, tput = Control.sample_summary ctrl ~warmup_until in
      (lat, None, None, tput)
  in
  (* Hint-based (§3.3) estimates: client-local and the server's view,
     aggregated across connections. *)
  let hint_inputs =
    List.map2
      (fun client prev ->
        let cur = E2e.Hints.share (Kv.Client.hint_tracker client) ~at in
        match E2e.Hints.avgs ~prev ~cur with
        | Some avgs ->
          { E2e.Aggregate.latency_ns = avgs.latency_ns; throughput = avgs.throughput }
        | None -> { E2e.Aggregate.latency_ns = None; throughput = 0.0 })
      clients base.b_hints
  in
  let hint_agg = E2e.Aggregate.combine hint_inputs in
  let hint_estimated_us = ns_opt_to_us hint_agg.latency_ns in
  let hint_tput =
    if hint_agg.throughput > 0.0 then Some hint_agg.throughput else None
  in
  let hint_server_inputs =
    List.map2
      (fun sock prev ->
        match (prev, Tcp.Socket.remote_hint_window sock) with
        | Some prev, Some (_, cur) -> (
          match E2e.Hints.avgs ~prev ~cur with
          | Some avgs ->
            { E2e.Aggregate.latency_ns = avgs.latency_ns; throughput = avgs.throughput }
          | None -> { E2e.Aggregate.latency_ns = None; throughput = 0.0 })
        | _ -> { E2e.Aggregate.latency_ns = None; throughput = 0.0 })
      server_socks base.b_server_hints
  in
  let hint_server_estimated_us =
    ns_opt_to_us (E2e.Aggregate.combine hint_server_inputs).latency_ns
  in
  let util busy base_v = float_of_int (busy - base_v) /. float_of_int cfg.duration in
  let packets =
    List.fold_left (fun acc c -> acc + Tcp.Conn.total_packets c) 0 conns - base.b_packets
  in
  let server_batches =
    List.fold_left
      (fun acc s -> Sim.Stats.Summary.merge acc (Kv.Server.batch_sizes s))
      (Sim.Stats.Summary.create ()) servers
  in
  let gro_batches =
    List.fold_left (fun acc c -> acc + Tcp.Gro.batches (Tcp.Conn.gro_b c)) 0 conns
  in
  let gro_segments =
    List.fold_left (fun acc c -> acc + Tcp.Gro.segments (Tcp.Conn.gro_b c)) 0 conns
  in
  {
    offered_rps = cfg.rate_rps;
    achieved_rps = float_of_int completed /. duration_s;
    completed;
    issued = List.fold_left (fun acc c -> acc + Kv.Client.issued c) 0 clients;
    completed_total =
      List.fold_left (fun acc c -> acc + Kv.Client.completed c) 0 clients;
    outstanding_end =
      List.fold_left (fun acc c -> acc + Kv.Client.outstanding c) 0 clients;
    link_dropped =
      List.fold_left
        (fun acc c ->
          acc + Tcp.Link.dropped (Tcp.Conn.link_ab c)
          + Tcp.Link.dropped (Tcp.Conn.link_ba c))
        0 conns;
    shares_corrupted =
      List.fold_left
        (fun acc c ->
          acc
          + Tcp.Link.corrupted_shares (Tcp.Conn.link_ab c)
          + Tcp.Link.corrupted_shares (Tcp.Conn.link_ba c))
        0 conns;
    shares_rejected =
      List.fold_left
        (fun acc sock ->
          acc + E2e.Estimator.rejected_shares (Tcp.Socket.estimator sock))
        0 (client_socks @ server_socks);
    degrade_freezes = Control.degrade_freezes ctrl;
    degrade_thaws = Control.degrade_thaws ctrl;
    degrade_frozen_end = Control.degrade_frozen_end ctrl;
    measured_mean_us = Recorder.mean_us recorder;
    measured_p50_us = Recorder.p50_us recorder;
    measured_p99_us = Recorder.p99_us recorder;
    under_slo = Recorder.under_slo_fraction recorder ~slo_us;
    estimated_us;
    estimated_local_us;
    estimated_remote_us;
    estimated_tput_rps = estimated_tput;
    hint_estimated_us;
    hint_tput_rps = hint_tput;
    hint_server_estimated_us;
    client_app_util = util (Sim.Cpu.busy_ns client_cpu) base.b_client_app;
    server_app_util = util (Sim.Cpu.busy_ns server_cpu) base.b_server_app;
    client_irq_util = util (Sim.Cpu.busy_ns client_irq) base.b_client_irq;
    server_irq_util = util (Sim.Cpu.busy_ns server_irq) base.b_server_irq;
    packets;
    packets_per_request =
      (if completed = 0 then 0.0 else float_of_int packets /. float_of_int completed);
    server_batch_mean = Sim.Stats.Summary.mean server_batches;
    server_wakeups = List.fold_left (fun acc s -> acc + Kv.Server.wakeups s) 0 servers;
    nagle_toggles = Tcp.Nagle.toggles (Tcp.Socket.nagle (List.hd client_socks));
    final_mode = Control.final_mode ctrl;
    final_batch_limit = Control.final_batch_limit ctrl;
    server_gro_merge =
      (if gro_batches = 0 then 0.0
       else float_of_int gro_segments /. float_of_int gro_batches);
    server_gro_batches = gro_batches;
    server_acks_by_timer =
      List.fold_left (fun acc sock -> acc + Tcp.Socket.acks_by_timer sock) 0 server_socks;
    client_srtt_us =
      (match Tcp.Rtt.srtt (Tcp.Socket.rtt (List.hd client_socks)) with
      | Some ns -> Some (float_of_int ns /. 1e3)
      | None -> None);
    client_p99_est_us =
      (* aggregate across connections: take the worst per-flow tail *)
      List.fold_left
        (fun acc c ->
          match (Kv.Client.p99_estimate_ns c, acc) with
          | Some ns, Some best -> Some (Float.max (ns /. 1e3) best)
          | Some ns, None -> Some (ns /. 1e3)
          | None, acc -> acc)
        None clients;
    samples = Control.samples ctrl;
    observability = Option.map Observe.output obs;
  }
