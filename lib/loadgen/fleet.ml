(* Heterogeneous multi-tenant fleet: N tenants, each with its own
   client host (app CPU + IRQ CPU, optionally VM-priced), arrival
   process, workload, link and SLO, all driving one shared server (one
   app core, one IRQ core — Redis is single-threaded).  Batching is
   controlled by {!Control} groups whose granularity is the [scope]
   knob: one group spanning the fleet, one per tenant, or one per
   connection with its own toggler/estimator/degrade state.

   Time-varying load: each tenant's arrival process can be wrapped in
   an {!Arrival.envelope}, and tenants may declare connection [churn] —
   Poisson connect/disconnect rates or scripted epochs.  Connections
   spawned mid-run enter TCP slow-start ([cc_enabled]) and the
   estimator cold-start path; departing connections drain outstanding
   requests and FIN cleanly.  Envelope-free, churn-free configs take
   none of these paths and split no extra rng streams, so their results
   stay bit-identical to the fixed-population implementation. *)

type scope = Global | Per_tenant | Per_conn

let scope_label = function
  | Global -> "global"
  | Per_tenant -> "per_tenant"
  | Per_conn -> "per_conn"

type churn = {
  arrive_rps : float;  (* Poisson connection-arrival rate; 0 disables *)
  depart_rps : float;  (* Poisson departure rate; 0 disables *)
  min_conns : int;  (* departures below this floor are refused *)
  max_conns : int;  (* arrivals above this cap are dropped *)
  script : (Sim.Time.t * int) list;  (* scripted (at, ±n) epochs *)
}

let no_churn = { arrive_rps = 0.0; depart_rps = 0.0; min_conns = 1; max_conns = 64; script = [] }

type tenant = {
  name : string;
  n_conns : int;
  rate_rps : float;
  burst : int;
  workload : Workload.t;
  cpu_multiplier : float;
  link : Tcp.Conn.link_params;
  slo_us : float;
  batching : Control.batching;
  envelope : Arrival.envelope;
  replay_gaps : int array option;
  churn : churn option;
}

let default_tenant ~name ~rate_rps =
  {
    name;
    n_conns = 1;
    rate_rps;
    burst = 1;
    workload = Workload.paper_set_only;
    cpu_multiplier = 1.0;
    link = Tcp.Conn.default_link;
    slo_us = Runner.slo_us;
    batching = Control.Static_off;
    envelope = Arrival.Flat;
    replay_gaps = None;
    churn = None;
  }

type config = {
  seed : int;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;
  scope : scope;
  batching : Control.batching;
  server : Kv.Server.config;
  client : Kv.Client.config;
  observe : Observe.config option;
  cold_start_inherit : bool;
  cores : int;  (* server shards; 1 = the unsharded tier *)
  lb : Shard.Lb.policy;  (* connection -> shard assignment policy *)
  tenants : tenant list;
}

let default_config ~tenants =
  {
    seed = 42;
    warmup = Sim.Time.ms 100;
    duration = Sim.Time.ms 400;
    scope = Global;
    batching = Control.Static_off;
    server = Kv.Server.default_config;
    client = Kv.Client.default_config;
    observe = None;
    cold_start_inherit = true;
    cores = 1;
    lb = Shard.Lb.Consistent_hash;
    tenants;
  }

type tenant_result = {
  t_name : string;
  t_offered_rps : float;
  t_achieved_rps : float;
  t_completed : int;
  t_issued : int;
  t_completed_total : int;
  t_outstanding_end : int;
  t_mean_us : float;
  t_p50_us : float;
  t_p99_us : float;
  t_under_slo : float;
  t_estimated_us : float option;
  t_estimated_tput_rps : float;
  t_client_app_util : float;
  t_nagle_toggles : int;
  t_conns_opened : int;
  t_conns_closed : int;
}

type shard_result = {
  sh_index : int;
  sh_conns : int;
  sh_issued : int;
  sh_completed_total : int;
  sh_outstanding_end : int;
  sh_completed : int;
  sh_achieved_rps : float;
  sh_mean_us : float;
  sh_p99_us : float;
  sh_app_util : float;
  sh_irq_util : float;
}

type result = {
  tenants : tenant_result list;
  shards : shard_result list;
  fleet_achieved_rps : float;
  fleet_mean_us : float;
  fleet_p99_us : float;
  goodput_max_min_ratio : float option;
  goodput_jain : float option;
  server_app_util : float;
  server_irq_util : float;
  final_modes : (string * E2e.Toggler.mode) list;
  observability : Observe.output option;
}

let validate_churn name c =
  let bad msg =
    invalid_arg (Printf.sprintf "Fleet.run: tenant %s: %s" name msg)
  in
  if (not (Float.is_finite c.arrive_rps)) || c.arrive_rps < 0.0 then
    bad "churn arrive_rps must be finite and non-negative";
  if (not (Float.is_finite c.depart_rps)) || c.depart_rps < 0.0 then
    bad "churn depart_rps must be finite and non-negative";
  if c.min_conns < 1 then bad "churn min_conns must be at least 1";
  if c.max_conns < c.min_conns then bad "churn max_conns must be >= min_conns";
  List.iter
    (fun (at, delta) ->
      if at < 0 then bad "churn script times must be non-negative";
      if delta = 0 then bad "churn script deltas must be non-zero")
    c.script

let validate_tenant t =
  if t.name = "" then invalid_arg "Fleet.run: tenant name must be non-empty";
  String.iter
    (fun c ->
      if c = '/' || c = ' ' || c = '\t' then
        invalid_arg
          (Printf.sprintf "Fleet.run: tenant name %S may not contain '/' or whitespace"
             t.name))
    t.name;
  if t.n_conns < 1 then
    invalid_arg (Printf.sprintf "Fleet.run: tenant %s: n_conns must be at least 1" t.name);
  if (not (Float.is_finite t.rate_rps)) || t.rate_rps <= 0.0 then
    invalid_arg
      (Printf.sprintf "Fleet.run: tenant %s: rate_rps must be positive and finite" t.name);
  if t.burst < 1 then
    invalid_arg (Printf.sprintf "Fleet.run: tenant %s: burst must be at least 1" t.name);
  if (not (Float.is_finite t.cpu_multiplier)) || t.cpu_multiplier <= 0.0 then
    invalid_arg
      (Printf.sprintf "Fleet.run: tenant %s: cpu_multiplier must be positive" t.name);
  if (not (Float.is_finite t.slo_us)) || t.slo_us <= 0.0 then
    invalid_arg (Printf.sprintf "Fleet.run: tenant %s: slo_us must be positive" t.name);
  match t.churn with
  | None -> ()
  | Some c ->
    validate_churn t.name c;
    if t.n_conns < c.min_conns || t.n_conns > c.max_conns then
      invalid_arg
        (Printf.sprintf
           "Fleet.run: tenant %s: n_conns must lie within churn [min_conns, max_conns]"
           t.name)

(* One connection's lifetime state.  [gen] is 0 for run-start
   connections and the per-tenant spawn ordinal for churn arrivals;
   [accepting] keeps the entry in the issue rotation, [retired] marks a
   fully drained-and-closed departure (kept for lifetime accounting). *)
type conn_entry = {
  gen : int;
  shard : int;  (* backend shard this connection is steered to *)
  client : Kv.Client.t;
  csock : Tcp.Socket.t;
  ssock : Tcp.Socket.t;
  mutable accepting : bool;
  mutable retired : bool;
  mutable egroup : Control.t option;
  mutable on_complete : latency:Sim.Time.span -> Kv.Resp.value -> unit;
}

(* Everything one tenant owns at runtime.  [entries] holds every
   connection the tenant ever had in a flat slot pool (handles are
   ascending spawn order, never freed, so lifetime accounting
   (issued = completed + outstanding) covers departed connections and
   10^5+-connection tenants cost one flat array instead of a list
   spine the GC must walk). *)
type tenant_state = {
  spec : tenant;
  mode : Control.batching;  (* after applying the scope *)
  client_cpu : Sim.Cpu.t;
  client_irq : Sim.Cpu.t;
  store : Kv.Store.t;
  conns0 : Tcp.Conn.t list;  (* run-start connections, for trace wiring *)
  recorder : Recorder.t;
  workload_rng : Sim.Rng.t;
  arrival : Arrival.t;
  entries : conn_entry Shard.Flat.t;
  mutable next_gen : int;
  mutable opened_mid : int;
  mutable closed_mid : int;
  rotation : conn_entry Rotation.t;
      (* the accepting entries in ascending handle order *)
  next_client : int ref;
}

let ns_opt_to_us = Option.map (fun ns -> ns /. 1e3)

(* Live slots in ascending handle order — the old oldest-first list
   order, for every iteration below that depends on it. *)
let entries_list s =
  List.rev (Shard.Flat.fold s.entries ~init:[] ~f:(fun acc _ e -> e :: acc))

let iter_entries s ~f = Shard.Flat.iter s.entries ~f:(fun _ e -> f e)

let fold_entries s ~init ~f =
  Shard.Flat.fold s.entries ~init ~f:(fun acc _ e -> f acc e)

let accepting_count s = Rotation.length s.rotation

let live_entries s =
  List.rev
    (fold_entries s ~init:[] ~f:(fun acc e ->
         if e.retired then acc else e :: acc))

let run (cfg : config) =
  if cfg.tenants = [] then invalid_arg "Fleet.run: at least one tenant required";
  if cfg.cores < 1 then invalid_arg "Fleet.run: cores must be at least 1";
  List.iter validate_tenant cfg.tenants;
  let names = List.map (fun t -> t.name) cfg.tenants in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Fleet.run: tenant names must be unique";
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let warmup_until = cfg.warmup in
  let total = cfg.warmup + cfg.duration in
  (* Sharded server tier: [cores] simulated cores, each with a private
     app CPU (its run queue) and IRQ CPU.  With [cores = 1] this is the
     classic shared single-core server (contention for which is the
     coupling that makes global batching decisions unfair), created in
     exactly the pre-sharding CPU order so such runs stay
     bit-identical.  The front load balancer assigns each connection a
     shard (deterministic, rng-free policies — no stream splits), and
     the RSS steering table is pinned to agree so repinning stays an
     explicit, observable operation. *)
  let cores = cfg.cores in
  let pool = Shard.Pool.create engine ~cores in
  let lb = Shard.Lb.create ~policy:cfg.lb ~shards:cores in
  let steer = Shard.Steer.create ~shards:cores in
  (* Per-shard dispatch depth (issued - completed), for the
     [Shard_enqueued] stream and end-of-run accounting closure. *)
  let sh_issued = Array.make cores 0 in
  let sh_done = Array.make cores 0 in
  let sh_recorders =
    Array.init cores (fun _ -> Recorder.create ~warmup_until ())
  in
  let lb_policy_name = Shard.Lb.policy_to_string cfg.lb in
  (* Assign a connection to a shard: LB policy picks, steering table
     pinned to match.  [key] is the shard-free connection label. *)
  let assign_shard key =
    if cores = 1 then 0
    else begin
      let sh = Shard.Lb.assign lb ~key in
      Shard.Steer.repin steer key ~shard:sh;
      sh
    end
  in
  let fleet_recorder = Recorder.create ~warmup_until () in
  let obs = Option.map Observe.create cfg.observe in
  let host ~nagle =
    {
      Tcp.Conn.socket =
        {
          Tcp.Socket.mss = 1448;
          nagle;
          cork = false;
          tso_max = None;
          cc_enabled = false;
          delack_timeout = Sim.Time.ms 40;
          delack_max_pending = 2;
          rcv_buf = 1024 * 1024;
          unit_mode = E2e.Units.Bytes;
          exchange = E2e.Exchange.Periodic (Sim.Time.us 100);
          sack = true;
          wscale = `Exact;
          persist = true;
        };
      tx_cost = Sim.Time.ns 300;
      rx_seg_cost = Sim.Time.ns 150;
      rx_batch_cost = Sim.Time.us 8;
      gro = Tcp.Gro.default_config ~mss:1448;
    }
  in
  (* Rng split order is fixed and documented: two streams per tenant in
     declaration order (workload, arrival), then one per control group
     in group order, then — only for tenants that declare churn — one
     churn stream per churning tenant in declaration order.  Identical
     configs therefore replay identical draw sequences regardless of
     host parallelism, and configs without churn split exactly the
     pre-churn streams.  Sharding adds {e no} streams: load-balancer
     policies and flow steering are deterministic hashes and counters,
     so [cores = 1] configs split exactly the unsharded streams. *)
  let states =
    List.map
      (fun (t : tenant) ->
        let workload_rng = Sim.Rng.split rng in
        let arrival_rng = Sim.Rng.split rng in
        let mode = match cfg.scope with Global -> cfg.batching | _ -> t.batching in
        let h = host ~nagle:(Control.initial_nagle mode) in
        let client_irq = Sim.Cpu.create engine in
        let client_cpu = Sim.Cpu.create engine in
        (* One store per tenant: workloads may disagree on value sizes
           and the key space is shared ("k:<n>"), so a shared store
           would let one tenant resize another's GET responses. *)
        let store = Kv.Store.create () in
        Workload.prepopulate t.workload store ~now:(Sim.Engine.now engine);
        (* LB assignment per connection, in label order.  Sharded runs
           suffix ids with "@s<k>" so every downstream tool (spans,
           inspect, slo, report) can break the run down per shard;
           single-shard runs keep the exact pre-sharding labels. *)
        let conn_shards =
          List.init t.n_conns (fun i ->
              assign_shard (Printf.sprintf "%s/c%d" t.name i))
        in
        let conns =
          List.mapi
            (fun i shard ->
              let suffix =
                if cores = 1 then "" else Printf.sprintf "@s%d" shard
              in
              Tcp.Conn.create engine ~a:h ~b:h ~link_ab:t.link ~link_ba:t.link
                ~cpu_a:client_irq ~cpu_b:(Shard.Pool.irq pool shard)
                ~label_a:(Printf.sprintf "%s/c%d%s" t.name i suffix)
                ~label_b:(Printf.sprintf "%s/s%d%s" t.name i suffix)
                ())
            conn_shards
        in
        let client_socks = List.map Tcp.Conn.sock_a conns in
        List.iter2
          (fun shard conn ->
            ignore
              (Kv.Server.create engine ~cpu:(Shard.Pool.cpu pool shard)
                 ~socket:(Tcp.Conn.sock_b conn) ~store cfg.server))
          conn_shards conns;
        let client_cfg =
          { cfg.client with
            Kv.Client.cpu_multiplier = cfg.client.Kv.Client.cpu_multiplier *. t.cpu_multiplier
          }
        in
        let clients =
          List.map
            (fun sock -> Kv.Client.create engine ~cpu:client_cpu ~socket:sock client_cfg)
            client_socks
        in
        (* Typed LB breadcrumbs, sharded runs only, so unsharded traces
           stay byte-identical to pre-sharding ones. *)
        (match obs with
        | Some o when cores > 1 ->
          let tr = Observe.trace o in
          if Sim.Trace.enabled tr then
            List.iter2
              (fun shard sock ->
                Sim.Trace.event tr ~at:(Sim.Engine.now engine)
                  ~id:(Tcp.Socket.label sock)
                  (Sim.Trace.Lb_assigned { shard; policy = lb_policy_name }))
              conn_shards client_socks
        | Some _ | None -> ());
        let base =
          match t.replay_gaps with
          | Some gaps -> Arrival.replay ~gaps_ns:gaps
          | None ->
            if t.burst > 1 then
              Arrival.bursty ~rng:arrival_rng ~rate_rps:t.rate_rps ~burst:t.burst
            else Arrival.poisson ~rng:arrival_rng ~rate_rps:t.rate_rps
        in
        let arrival = Arrival.modulate base t.envelope in
        let entries =
          Shard.Flat.create ~capacity:(max 16 t.n_conns)
            ~dummy:
              (match (clients, conns, conn_shards) with
              | client :: _, conn :: _, shard :: _ ->
                {
                  gen = -1;
                  shard;
                  client;
                  csock = Tcp.Conn.sock_a conn;
                  ssock = Tcp.Conn.sock_b conn;
                  accepting = false;
                  retired = true;
                  egroup = None;
                  on_complete = (fun ~latency:_ _ -> ());
                }
              | _ -> assert false)
            ()
        in
        List.iter2
          (fun (client, shard) conn ->
            ignore
              (Shard.Flat.alloc entries
                 {
                   gen = 0;
                   shard;
                   client;
                   csock = Tcp.Conn.sock_a conn;
                   ssock = Tcp.Conn.sock_b conn;
                   accepting = true;
                   retired = false;
                   egroup = None;
                   on_complete = (fun ~latency:_ _ -> ());
                 }))
          (List.combine clients conn_shards)
          conns;
        let s =
          {
            spec = t;
            mode;
            client_cpu;
            client_irq;
            store;
            conns0 = conns;
            recorder = Recorder.create ~warmup_until ();
            workload_rng;
            arrival;
            entries;
            next_gen = 1;
            opened_mid = 0;
            closed_mid = 0;
            rotation = Rotation.create ();
            next_client = ref 0;
          }
        in
        iter_entries s ~f:(Rotation.push s.rotation);
        s)
      cfg.tenants
  in
  let all_client_socks =
    List.concat_map (fun s -> List.map (fun e -> e.csock) (entries_list s)) states
  in
  let all_server_socks =
    List.concat_map (fun s -> List.map (fun e -> e.ssock) (entries_list s)) states
  in
  (match obs with
  | Some o ->
    let tr = Observe.trace o in
    let au = Observe.audit o in
    List.iter
      (fun sock ->
        Tcp.Socket.set_trace sock tr;
        E2e.Estimator.set_audit (Tcp.Socket.estimator sock) au
          ~prefix:(Tcp.Socket.label sock))
      (all_client_socks @ all_server_socks);
    List.iter
      (fun s ->
        List.iter
          (fun conn ->
            Tcp.Link.set_trace (Tcp.Conn.link_ab conn) tr
              ~id:(Tcp.Socket.label (Tcp.Conn.sock_a conn)))
          s.conns0)
      states
  | None -> ());
  (* Decision ledgers (one per control group) and SLO trackers (one
     per tenant plus one per connection), created before the drivers so
     completions are attributed from the first request on.  Group ids
     match the control groups attached below. *)
  let ledger_tbl : (string, E2e.Ledger.t) Hashtbl.t = Hashtbl.create 16 in
  (match obs with
  | None -> ()
  | Some o ->
    let tr = Observe.trace o in
    let at = Sim.Engine.now engine in
    let add group =
      Hashtbl.replace ledger_tbl group (E2e.Ledger.create ~trace:tr ~group)
    in
    List.iter
      (fun s ->
        Observe.declare_slo o ~at ~id:(s.spec.name ^ "/client")
          ~slo_us:s.spec.slo_us;
        iter_entries s ~f:(fun e ->
            Observe.declare_slo o ~at ~id:(Tcp.Socket.label e.csock)
              ~slo_us:s.spec.slo_us))
      states;
    (* Sharded runs additionally declare tenant-per-shard SLO ids
       ("<tenant>/client@s<k>") as trace breadcrumbs only — offline
       [slo] rebuilds a per-shard attainment roll-up from them while
       the in-run observatory keeps its tenant-level trackers. *)
    if cores > 1 && Sim.Trace.enabled tr then
      List.iter
        (fun s ->
          for k = 0 to cores - 1 do
            Sim.Trace.event tr ~at
              ~id:(Printf.sprintf "%s/client@s%d" s.spec.name k)
              (Sim.Trace.Message
                 { tag = "slo_declared";
                   detail = Printf.sprintf "%.17g" s.spec.slo_us })
          done)
        states;
    match cfg.scope with
    | Global -> add "fleet"
    | Per_tenant -> List.iter (fun s -> add s.spec.name) states
    | Per_conn ->
      List.iter
        (fun s -> iter_entries s ~f:(fun e -> add (Tcp.Socket.label e.csock)))
        states);
  let ledger_for gid = Hashtbl.find_opt ledger_tbl gid in
  let entry_ledger s e =
    match cfg.scope with
    | Global -> ledger_for "fleet"
    | Per_tenant -> ledger_for s.spec.name
    | Per_conn -> ledger_for (Tcp.Socket.label e.csock)
  in
  (* Per-entry completion callback: records latency, feeds the owning
     group's ledger and the per-tenant + per-connection SLO trackers.
     Built once per connection (run-start or spawned) so the hot path
     allocates no closures. *)
  let wire_entry s e =
    let lg = entry_ledger s e in
    let conn_id = Tcp.Socket.label e.csock in
    let tenant_req_id = s.spec.name ^ "/client" in
    let shard = e.shard in
    let shard_req_id =
      if cores = 1 then None
      else Some (Printf.sprintf "%s/client@s%d" s.spec.name shard)
    in
    e.on_complete <-
      (fun ~latency reply ->
        (match reply with
        | Kv.Resp.Error err -> failwith ("fleet: server replied with error: " ^ err)
        | Kv.Resp.Simple _ | Kv.Resp.Integer _ | Kv.Resp.Bulk _ | Kv.Resp.Array _ -> ());
        let at = Sim.Engine.now engine in
        Recorder.record s.recorder ~at ~latency;
        Recorder.record fleet_recorder ~at ~latency;
        sh_done.(shard) <- sh_done.(shard) + 1;
        Recorder.record sh_recorders.(shard) ~at ~latency;
        (match lg with
        | Some lg -> E2e.Ledger.completion lg ~latency
        | None -> ());
        match obs with
        | Some o ->
          Observe.note_request o ~id:tenant_req_id ~at ~latency;
          (match shard_req_id with
          | Some sid ->
            let tr = Observe.trace o in
            if Sim.Trace.enabled tr then
              Sim.Trace.event tr ~at ~id:sid
                (Sim.Trace.Request_done { latency_us = Sim.Time.to_us latency })
          | None -> ());
          Observe.note_slo o ~id:conn_id ~at ~latency
        | None -> ())
  in
  (* Open-loop drivers: one independent arrival process per tenant,
     round-robin over the tenant's currently accepting connections.
     Churn appends to and removes from the rotation in place; with a
     fixed population it is the fixed sequence the pre-churn
     implementation used. *)
  List.iter
    (fun s ->
      iter_entries s ~f:(wire_entry s);
      let issue cmd =
        let n = accepting_count s in
        if n > 0 then begin
          let k = !(s.next_client) mod n in
          s.next_client := (k + 1) mod n;
          let e = Rotation.get s.rotation k in
          let shard = e.shard in
          sh_issued.(shard) <- sh_issued.(shard) + 1;
          (* Dispatch breadcrumb (sharded runs only); the enabled check
             precedes event construction so untraced issues allocate
             nothing extra. *)
          (if cores > 1 then
             match obs with
             | Some o ->
               let tr = Observe.trace o in
               if Sim.Trace.enabled tr then
                 Sim.Trace.event tr ~at:(Sim.Engine.now engine)
                   ~id:(Tcp.Socket.label e.csock)
                   (Sim.Trace.Shard_enqueued
                      { shard; depth = sh_issued.(shard) - sh_done.(shard) })
             | None -> ());
          Kv.Client.request e.client cmd ~on_complete:e.on_complete
        end
      in
      let rec schedule_request () =
        let gap = Arrival.next_gap s.arrival ~now:(Sim.Engine.now engine) in
        let at = Sim.Time.add (Sim.Engine.now engine) gap in
        if Sim.Time.compare at total <= 0 then
          Sim.Engine.schedule engine ~after:gap (fun () ->
              issue (Workload.next_command s.spec.workload ~rng:s.workload_rng);
              schedule_request ())
      in
      schedule_request ())
    states;
  (* Observability sampling, scheduled before the control groups so a
     coincident-instant sample sees the window the controller is about
     to advance (same invariant as {!Runner.run}).  The tick iterates
     the live population, so churn arrivals join the sample and the
     per-tenant settling series the moment they exist. *)
  (match obs with
  | None -> ()
  | Some o ->
    let m = Observe.metrics o in
    List.iter
      (fun sock ->
        let e = Tcp.Socket.estimator sock in
        let prefix = Tcp.Socket.label sock in
        Sim.Metrics.gauge m (prefix ^ ".unacked") (fun () ->
            float_of_int (E2e.Estimator.unacked_size e));
        Sim.Metrics.gauge m (prefix ^ ".unread") (fun () ->
            float_of_int (E2e.Estimator.unread_size e)))
      all_client_socks;
    Sim.Metrics.gauge m "completed" (fun () ->
        float_of_int (Recorder.count fleet_recorder));
    let interval = Observe.interval o in
    let rec tick () =
      let at = Sim.Engine.now engine in
      let per_tenant =
        List.map
          (fun s ->
            let live = live_entries s in
            let flows =
              List.filter_map
                (fun e ->
                  let est =
                    E2e.Estimator.peek_estimate (Tcp.Socket.estimator e.csock) ~at
                  in
                  (match est with
                  | Some (est : E2e.Estimator.estimate) ->
                    Sim.Trace.event (Observe.trace o) ~at
                      ~id:(Tcp.Socket.label e.csock)
                      (Sim.Trace.Estimate_computed
                         {
                           latency_us = ns_opt_to_us est.latency_ns;
                           throughput = est.throughput;
                           window_us = float_of_int est.window /. 1e3;
                         })
                  | None -> ());
                  est)
                live
            in
            (s, live, flows))
          states
      in
      let flows = List.concat_map (fun (_, _, fl) -> fl) per_tenant in
      let agg = E2e.Aggregate.of_estimates flows in
      (match agg.latency_ns with
      | Some lat_ns when Sim.Time.compare at warmup_until > 0 ->
        let window_us =
          List.fold_left
            (fun acc (e : E2e.Estimator.estimate) ->
              Float.max acc (float_of_int e.window /. 1e3))
            0.0 flows
        in
        ignore (Observe.note_residual o ~at ~window_us ~est_us:(lat_ns /. 1e3))
      | Some _ | None -> ());
      Observe.note_sample o (Sim.Metrics.sample m ~at);
      Observe.slo_tick o ~at;
      List.iter
        (fun (s, live, tflows) ->
          let tagg = E2e.Aggregate.of_estimates tflows in
          let accepting = List.filter (fun e -> e.accepting) live in
          let nagle_frac =
            match accepting with
            | [] -> Float.nan
            | _ ->
              let on =
                List.fold_left
                  (fun acc e ->
                    if Tcp.Nagle.enabled (Tcp.Socket.nagle e.csock) then acc + 1
                    else acc)
                  0 accepting
              in
              float_of_int on /. float_of_int (List.length accepting)
          in
          Observe.note_settle o ~id:(s.spec.name ^ "/client") ~at
            ~est_us:(ns_opt_to_us tagg.latency_ns) ~nagle_frac)
        per_tenant;
      if Sim.Time.compare (Sim.Time.add at interval) total <= 0 then
        Sim.Engine.schedule engine ~after:interval tick
    in
    Sim.Engine.schedule engine ~after:interval tick);
  (* Envelope edges: register every modulation discontinuity at its own
     instant so the settling tracker can segment the run.  Scheduling
     (rather than registering up front) keeps the trace breadcrumbs in
     event order — written at setup time they would be the ring's oldest
     records and the first dropped on wraparound, leaving offline tools
     with completions but no edges. *)
  (match obs with
  | None -> ()
  | Some o ->
    List.iter
      (fun s ->
        match Arrival.envelope s.arrival with
        | Arrival.Flat -> ()
        | env ->
          List.iter
            (fun at_us ->
              let at = int_of_float (at_us *. 1e3) in
              Sim.Engine.schedule_at engine ~at (fun () ->
                  Observe.note_edge o ~id:(s.spec.name ^ "/client") ~at))
            (Arrival.edges env ~until_us:(float_of_int total /. 1e3)))
      states);
  (* Control groups, one per scope unit, each with its own rng split in
     a fixed order so per-connection togglers explore independently. *)
  let groups =
    match cfg.scope with
    | Global ->
      let g =
        Control.attach ?ledger:(ledger_for "fleet") ~engine ~until:total
          ~rng:(Sim.Rng.split rng) ~fault_armed:false ~batching:cfg.batching
          ~client_socks:all_client_socks
          ~all_socks:(all_client_socks @ all_server_socks)
          ()
      in
      List.iter (fun s -> iter_entries s ~f:(fun e -> e.egroup <- Some g)) states;
      [ ("fleet", None, g) ]
    | Per_tenant ->
      List.mapi
        (fun i s ->
          let es = entries_list s in
          let g =
            Control.attach ?ledger:(ledger_for s.spec.name) ~engine ~until:total
              ~rng:(Sim.Rng.split rng) ~fault_armed:false ~batching:s.mode
              ~client_socks:(List.map (fun e -> e.csock) es)
              ~all_socks:
                (List.map (fun e -> e.csock) es
                @ List.map (fun e -> e.ssock) es)
              ()
          in
          List.iter (fun e -> e.egroup <- Some g) es;
          (s.spec.name, Some i, g))
        states
    | Per_conn ->
      List.concat
        (List.mapi
           (fun i s ->
             List.map
               (fun e ->
                 let g =
                   Control.attach
                     ?ledger:(ledger_for (Tcp.Socket.label e.csock))
                     ~engine ~until:total ~rng:(Sim.Rng.split rng)
                     ~fault_armed:false ~batching:s.mode ~client_socks:[ e.csock ]
                     ~all_socks:[ e.csock; e.ssock ]
                     ()
                 in
                 e.egroup <- Some g;
                 (Tcp.Socket.label e.csock, Some i, g))
               (entries_list s))
           states)
  in
  (* Connection churn: spawn and retire connections while the run is
     live.  Spawned connections enter TCP slow-start ([cc_enabled]) and
     — when [cold_start_inherit] — the estimator cold-start path plus
     group-prior inheritance (adopting the live mode under
     Global/Per_tenant, seeding the fresh toggler's arms from a sibling
     under Per_conn).  Departing connections leave the rotation, drain
     outstanding requests, FIN, and close the server side once its
     half-close is seen. *)
  let spawned_groups = ref [] in
  let tenant_group i =
    List.find_map (fun (_, ti, g) -> if ti = Some i then Some g else None) groups
  in
  let global_group () =
    match groups with (_, _, g) :: _ -> Some g | [] -> None
  in
  (* The group of the oldest live entry that has one.  Handles are never
     freed, so the live ones are [0 .. live - 1]; the search stops at
     the first match instead of folding over the whole tenant. *)
  let sibling_group s =
    let n = Shard.Flat.live s.entries in
    let rec find h =
      if h >= n then None
      else
        let e = Shard.Flat.get s.entries h in
        match e.egroup with
        | Some _ as g when not e.retired -> g
        | _ -> find (h + 1)
    in
    find 0
  in
  let spawn_one i s crng =
    let t = s.spec in
    let idx = Shard.Flat.live s.entries in
    let gen = s.next_gen in
    s.next_gen <- gen + 1;
    (* Churn arrivals go through the same front LB as run-start
       connections (rng-free, so churn streams stay untouched). *)
    let shard = assign_shard (Printf.sprintf "%s/c%d" t.name idx) in
    let suffix = if cores = 1 then "" else Printf.sprintf "@s%d" shard in
    let hp = host ~nagle:(Control.initial_nagle s.mode) in
    let hp =
      { hp with
        Tcp.Conn.socket = { hp.Tcp.Conn.socket with Tcp.Socket.cc_enabled = true }
      }
    in
    let conn =
      Tcp.Conn.create engine ~a:hp ~b:hp ~link_ab:t.link ~link_ba:t.link
        ~cpu_a:s.client_irq ~cpu_b:(Shard.Pool.irq pool shard)
        ~label_a:(Printf.sprintf "%s/c%d%s" t.name idx suffix)
        ~label_b:(Printf.sprintf "%s/s%d%s" t.name idx suffix)
        ()
    in
    let csock = Tcp.Conn.sock_a conn in
    let ssock = Tcp.Conn.sock_b conn in
    ignore
      (Kv.Server.create engine ~cpu:(Shard.Pool.cpu pool shard) ~socket:ssock
         ~store:s.store cfg.server);
    let client_cfg =
      { cfg.client with
        Kv.Client.cpu_multiplier = cfg.client.Kv.Client.cpu_multiplier *. t.cpu_multiplier
      }
    in
    let client = Kv.Client.create engine ~cpu:s.client_cpu ~socket:csock client_cfg in
    let label = Tcp.Socket.label csock in
    let at = Sim.Engine.now engine in
    (match obs with
    | Some o ->
      let tr = Observe.trace o in
      let au = Observe.audit o in
      List.iter
        (fun sock ->
          Tcp.Socket.set_trace sock tr;
          E2e.Estimator.set_audit (Tcp.Socket.estimator sock) au
            ~prefix:(Tcp.Socket.label sock))
        [ csock; ssock ];
      Tcp.Link.set_trace (Tcp.Conn.link_ab conn) tr ~id:label;
      Observe.declare_slo o ~at ~id:label ~slo_us:t.slo_us;
      let m = Observe.metrics o in
      let est = Tcp.Socket.estimator csock in
      Sim.Metrics.gauge m (label ^ ".unacked") (fun () ->
          float_of_int (E2e.Estimator.unacked_size est));
      Sim.Metrics.gauge m (label ^ ".unread") (fun () ->
          float_of_int (E2e.Estimator.unread_size est))
    | None -> ());
    let inherited = cfg.cold_start_inherit in
    if inherited then E2e.Estimator.set_cold_start (Tcp.Socket.estimator csock);
    (match obs with
    | Some o when cores > 1 ->
      let tr = Observe.trace o in
      if Sim.Trace.enabled tr then
        Sim.Trace.event tr ~at ~id:label
          (Sim.Trace.Lb_assigned { shard; policy = lb_policy_name })
    | Some _ | None -> ());
    let entry =
      {
        gen;
        shard;
        client;
        csock;
        ssock;
        accepting = true;
        retired = false;
        egroup = None;
        on_complete = (fun ~latency:_ _ -> ());
      }
    in
    (match cfg.scope with
    | Global | Per_tenant ->
      let g = (match cfg.scope with Global -> global_group () | _ -> tenant_group i) in
      (match g with
      | Some g ->
        Control.adopt ~inherit_mode:inherited g ~client_sock:csock ~server_sock:ssock;
        entry.egroup <- Some g
      | None -> ())
    | Per_conn ->
      (match obs with
      | Some o ->
        Hashtbl.replace ledger_tbl label
          (E2e.Ledger.create ~trace:(Observe.trace o) ~group:label)
      | None -> ());
      let g =
        Control.attach ?ledger:(ledger_for label) ~engine ~until:total
          ~rng:(Sim.Rng.split crng) ~fault_armed:false ~batching:s.mode
          ~client_socks:[ csock ] ~all_socks:[ csock; ssock ] ()
      in
      entry.egroup <- Some g;
      spawned_groups := (label, Some i, g) :: !spawned_groups;
      if inherited then (
        match sibling_group s with
        | Some sib ->
          (match (Control.toggler sib, Control.toggler g) with
          | Some from_t, Some to_t ->
            List.iter
              (fun m ->
                match E2e.Toggler.smoothed from_t m with
                | Some outcome -> E2e.Toggler.seed_arm to_t ~mode:m outcome
                | None -> ())
              [ E2e.Toggler.Batch_on; E2e.Toggler.Batch_off ]
          | _ -> ());
          let en = Control.current_nagle sib in
          Tcp.Socket.set_nagle_enabled csock en;
          Tcp.Socket.set_nagle_enabled ssock en
        | None -> ()));
    ignore (Shard.Flat.alloc s.entries entry);
    s.opened_mid <- s.opened_mid + 1;
    wire_entry s entry;
    Rotation.push s.rotation entry;
    match obs with
    | Some o ->
      Sim.Trace.event (Observe.trace o) ~at ~id:label
        (Sim.Trace.Conn_opened { gen; inherited })
    | None -> ()
  in
  let retire_at s k =
    let e = Rotation.get s.rotation k in
    e.accepting <- false;
    Rotation.remove_at s.rotation k;
    let label = Tcp.Socket.label e.csock in
    let rec drain () =
      if Kv.Client.outstanding e.client = 0 then begin
        Tcp.Socket.close e.csock;
        (match e.egroup with
        | Some g -> Control.abandon g ~client_sock:e.csock ~server_sock:e.ssock
        | None -> ());
        e.retired <- true;
        s.closed_mid <- s.closed_mid + 1;
        if cores > 1 then Shard.Lb.release lb ~shard:e.shard;
        (match obs with
        | Some o ->
          Sim.Trace.event (Observe.trace o) ~at:(Sim.Engine.now engine) ~id:label
            (Sim.Trace.Conn_closed
               { gen = e.gen; completed = Kv.Client.completed e.client })
        | None -> ());
        let rec server_close () =
          match Tcp.Socket.state e.ssock with
          | Tcp.Socket.Close_wait -> Tcp.Socket.close e.ssock
          | Tcp.Socket.Closed | Tcp.Socket.Time_wait -> ()
          | _ -> Sim.Engine.schedule engine ~after:(Sim.Time.us 100) server_close
        in
        server_close ()
      end
      else Sim.Engine.schedule engine ~after:(Sim.Time.us 50) drain
    in
    drain ()
  in
  List.iteri
    (fun i s ->
      match s.spec.churn with
      | None -> ()
      | Some ch ->
        let crng = Sim.Rng.split rng in
        (if ch.arrive_rps > 0.0 then
           let rec arrivals () =
             let gap =
               int_of_float (Sim.Rng.exponential crng ~mean:(1e9 /. ch.arrive_rps))
             in
             let at = Sim.Time.add (Sim.Engine.now engine) gap in
             if Sim.Time.compare at total <= 0 then
               Sim.Engine.schedule engine ~after:gap (fun () ->
                   if accepting_count s < ch.max_conns then spawn_one i s crng;
                   arrivals ())
           in
           arrivals ());
        (if ch.depart_rps > 0.0 then
           let rec departures () =
             let gap =
               int_of_float (Sim.Rng.exponential crng ~mean:(1e9 /. ch.depart_rps))
             in
             let at = Sim.Time.add (Sim.Engine.now engine) gap in
             if Sim.Time.compare at total <= 0 then
               Sim.Engine.schedule engine ~after:gap (fun () ->
                   (if accepting_count s > ch.min_conns then
                      let k = Sim.Rng.int crng ~bound:(accepting_count s) in
                      retire_at s k);
                   departures ())
           in
           departures ());
        List.iter
          (fun (at, delta) ->
            if Sim.Time.compare at total <= 0 then begin
              (match obs with
              | Some o -> Observe.note_edge o ~id:(s.spec.name ^ "/client") ~at
              | None -> ());
              Sim.Engine.schedule_at engine ~at (fun () ->
                  if delta > 0 then
                    for _ = 1 to delta do
                      if accepting_count s < ch.max_conns then spawn_one i s crng
                    done
                  else
                    for _ = 1 to -delta do
                      if accepting_count s > ch.min_conns then
                        retire_at s (accepting_count s - 1)
                    done)
            end)
          ch.script)
    states;
  (* Warmup boundary: close every estimation window, reset the audit,
     capture CPU baselines. *)
  let baseline = ref None in
  Sim.Engine.schedule_at engine ~at:warmup_until (fun () ->
      let at = Sim.Engine.now engine in
      List.iter
        (fun s ->
          iter_entries s ~f:(fun e ->
              if not e.retired then
                ignore
                  (E2e.Estimator.estimate (Tcp.Socket.estimator e.csock) ~at)))
        states;
      (match obs with
      | Some o -> Sim.Audit.reset_window (Observe.audit o) ~at
      | None -> ());
      baseline :=
        Some
          ( Array.init cores (fun k ->
                Sim.Cpu.busy_ns (Shard.Pool.cpu pool k)),
            Array.init cores (fun k ->
                Sim.Cpu.busy_ns (Shard.Pool.irq pool k)),
            List.map (fun s -> Sim.Cpu.busy_ns s.client_cpu) states ));
  Sim.Engine.run_until engine total;
  let at = Sim.Engine.now engine in
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
  (* Re-emit the tenant-per-shard SLO declarations at run end: the
     trace is a drop-oldest ring, and on 10k+-connection fleets the
     start-of-run breadcrumbs are long evicted by completion events.
     The [slo] reader is order-independent, so the newest copy is as
     good as the first. *)
  (match obs with
  | Some o when cores > 1 ->
    let tr = Observe.trace o in
    if Sim.Trace.enabled tr then
      List.iter
        (fun s ->
          for k = 0 to cores - 1 do
            Sim.Trace.event tr ~at
              ~id:(Printf.sprintf "%s/client@s%d" s.spec.name k)
              (Sim.Trace.Message
                 { tag = "slo_declared";
                   detail = Printf.sprintf "%.17g" s.spec.slo_us })
          done)
        states
  | Some _ | None -> ());
  let b_sh_app, b_sh_irq, b_clients =
    match !baseline with
    | Some b -> b
    | None -> failwith "fleet: warmup sample never fired"
  in
  let duration_s = Sim.Time.to_sec cfg.duration in
  let util busy base_v = float_of_int (busy - base_v) /. float_of_int cfg.duration in
  let all_groups = groups @ List.rev !spawned_groups in
  (* Per-tenant stack estimate: dynamic groups advance their windows on
     every tick, so aggregate their tick samples; static/AIMD groups
     (and any tenant under a global group) kept windows open since
     warmup, so a final peek covers the whole measured period. *)
  let tenant_estimate i s =
    let own_groups =
      List.filter_map
        (fun (_, ti, ctrl) -> if ti = Some i then Some ctrl else None)
        all_groups
    in
    let dynamic = match s.mode with Control.Dynamic _ -> true | _ -> false in
    if cfg.scope <> Global && dynamic then
      let summaries = List.map (Control.sample_summary ~warmup_until) own_groups in
      let weighted, weight =
        List.fold_left
          (fun (acc, w) (lat, tput) ->
            match lat with
            | Some us when tput > 0.0 -> (acc +. (us *. tput), w +. tput)
            | Some _ | None -> (acc, w))
          (0.0, 0.0) summaries
      in
      let tput = List.fold_left (fun acc (_, tp) -> acc +. tp) 0.0 summaries in
      ((if weight > 0.0 then Some (weighted /. weight) else None), tput)
    else
      let live_socks = List.map (fun e -> e.csock) (live_entries s) in
      let agg, _ = Control.estimate_socks live_socks ~at in
      (ns_opt_to_us agg.latency_ns, agg.throughput)
  in
  let tenant_results =
    List.mapi
      (fun i s ->
        let completed = Recorder.count s.recorder in
        let est_us, est_tput = tenant_estimate i s in
        let clients = List.map (fun e -> e.client) (entries_list s) in
        let issued = List.fold_left (fun acc c -> acc + Kv.Client.issued c) 0 clients in
        let outstanding =
          List.fold_left (fun acc c -> acc + Kv.Client.outstanding c) 0 clients
        in
        {
          t_name = s.spec.name;
          t_offered_rps = Arrival.rate s.arrival;
          t_achieved_rps = float_of_int completed /. duration_s;
          t_completed = completed;
          t_issued = issued;
          t_completed_total =
            List.fold_left (fun acc c -> acc + Kv.Client.completed c) 0 clients;
          t_outstanding_end = outstanding;
          t_mean_us = Recorder.mean_us s.recorder;
          t_p50_us = Recorder.p50_us s.recorder;
          t_p99_us = Recorder.p99_us s.recorder;
          t_under_slo = Recorder.under_slo_fraction s.recorder ~slo_us:s.spec.slo_us;
          t_estimated_us = est_us;
          t_estimated_tput_rps = est_tput;
          t_client_app_util =
            util (Sim.Cpu.busy_ns s.client_cpu) (List.nth b_clients i);
          t_nagle_toggles =
            fold_entries s ~init:0 ~f:(fun acc e ->
                acc + Tcp.Nagle.toggles (Tcp.Socket.nagle e.csock));
          t_conns_opened = s.opened_mid;
          t_conns_closed = s.closed_mid;
        })
      states
  in
  (* Fairness over goodput fractions (achieved/offered) so tenants with
     very different offered loads are comparable. *)
  let goodput =
    List.map (fun r -> r.t_achieved_rps /. r.t_offered_rps) tenant_results
  in
  (* Per-shard accounting: fold every tenant's entries (live and
     retired alike) bucketed by the shard each connection was steered
     to, so t_issued = t_completed_total + t_outstanding_end closes
     per shard exactly as it does per tenant. *)
  let shard_results =
    List.init cores (fun k ->
        let conns, issued, completed_total, outstanding =
          List.fold_left
            (fun acc s ->
              fold_entries s ~init:acc ~f:(fun (n, iss, ct, out) e ->
                  if e.shard = k then
                    ( n + 1,
                      iss + Kv.Client.issued e.client,
                      ct + Kv.Client.completed e.client,
                      out + Kv.Client.outstanding e.client )
                  else (n, iss, ct, out)))
            (0, 0, 0, 0) states
        in
        let rec_k = sh_recorders.(k) in
        {
          sh_index = k;
          sh_conns = conns;
          sh_issued = issued;
          sh_completed_total = completed_total;
          sh_outstanding_end = outstanding;
          sh_completed = Recorder.count rec_k;
          sh_achieved_rps = float_of_int (Recorder.count rec_k) /. duration_s;
          sh_mean_us = Recorder.mean_us rec_k;
          sh_p99_us = Recorder.p99_us rec_k;
          sh_app_util =
            util (Sim.Cpu.busy_ns (Shard.Pool.cpu pool k)) b_sh_app.(k);
          sh_irq_util =
            util (Sim.Cpu.busy_ns (Shard.Pool.irq pool k)) b_sh_irq.(k);
        })
  in
  {
    tenants = tenant_results;
    shards = shard_results;
    fleet_achieved_rps = float_of_int (Recorder.count fleet_recorder) /. duration_s;
    fleet_mean_us = Recorder.mean_us fleet_recorder;
    fleet_p99_us = Recorder.p99_us fleet_recorder;
    goodput_max_min_ratio = E2e.Aggregate.max_min_ratio goodput;
    goodput_jain = E2e.Aggregate.jain goodput;
    server_app_util =
      List.fold_left (fun acc r -> acc +. r.sh_app_util) 0.0 shard_results;
    server_irq_util =
      List.fold_left (fun acc r -> acc +. r.sh_irq_util) 0.0 shard_results;
    final_modes =
      List.filter_map
        (fun (gid, _, ctrl) ->
          Option.map (fun m -> (gid, m)) (Control.final_mode ctrl))
        all_groups;
    observability =
      Option.map (Observe.output ~until_us:(float_of_int total /. 1e3)) obs;
  }
