(* The batching-control plane, factored out of [Runner.run] so that a
   multi-tenant fleet can instantiate one controller per scope unit
   (whole fleet, tenant, or single connection) instead of exactly one
   per run.  A control group owns the sockets it switches, the client
   estimators it reads, and — for dynamic groups — its own toggler rng,
   degrade state machine and tick-by-tick sample log, so groups are
   fully independent of each other. *)

type dynamic = {
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

let default_dynamic =
  {
    policy = E2e.Policy.Throughput_under_slo { slo_ns = E2e.Policy.default_slo_ns };
    epsilon = 0.05;
    tick = Sim.Time.ms 1;
    ewma_alpha = 0.3;
    min_observations = 3;
    stale_after_rtts = 8.0;
    stale_floor = Sim.Time.ms 2;
    degrade = E2e.Degrade.default_config;
    fallback = E2e.Toggler.Batch_off;
  }

type aimd_cfg = {
  slo_us : float;
  aimd_tick : Sim.Time.span;
  min_limit : int;
  max_limit : int;
  increase : int;
  decrease : float;
}

let default_aimd =
  {
    slo_us = 500.0;
    aimd_tick = Sim.Time.ms 1;
    min_limit = 64;
    max_limit = 1448;
    increase = 128;
    decrease = 0.5;
  }

type batching = Static_on | Static_off | Dynamic of dynamic | Aimd_limit of aimd_cfg

let batching_label = function
  | Static_on -> "nagle-on"
  | Static_off -> "nagle-off"
  | Dynamic _ -> "dynamic"
  | Aimd_limit _ -> "aimd"

let initial_nagle = function
  | Static_on -> true
  | Static_off -> false
  | Dynamic _ -> false (* start as Redis ships: TCP_NODELAY *)
  | Aimd_limit _ -> true (* the AIMD limit generalizes Nagle's rule *)

type estimate_sample = {
  at_us : float;
  latency_us : float option;
  throughput_rps : float;
  mode : E2e.Toggler.mode;
}

let ns_opt_to_us = Option.map (fun ns -> ns /. 1e3)

(* Aggregate the current estimates of [socks]' client-side estimators
   per §3.2.  [advance] closes each estimator's window (the controller
   tick does this); the default peeks without consuming it. *)
let estimate_socks ?(advance = false) socks ~at =
  let per_flow =
    List.filter_map
      (fun sock ->
        let e = Tcp.Socket.estimator sock in
        if advance then E2e.Estimator.estimate e ~at
        else E2e.Estimator.peek_estimate e ~at)
      socks
  in
  (E2e.Aggregate.of_estimates per_flow, per_flow)

(* The tick-by-tick sample log, column-wise: a tick appends four
   unboxed values instead of a record, an option and boxed floats that
   would all stay live until the run ends.  A [None] latency is stored
   as nan.  The columns are allocated at the first append, sized to the
   ticks left until [until], so the thousands of groups of a
   per-connection fleet cost nothing at attach. *)
module Samples = struct
  type t = {
    until : Sim.Time.t;
    every : Sim.Time.span;
    mutable len : int;
    mutable at_us : Float.Array.t;
    mutable latency_us : Float.Array.t;
    mutable throughput_rps : Float.Array.t;
    mutable batch_on : Bytes.t;  (* '\001' for [Batch_on] *)
  }

  let create ~until ~every =
    let none = Float.Array.create 0 in
    { until; every; len = 0; at_us = none; latency_us = none; throughput_rps = none;
      batch_on = Bytes.empty }

  let append log ~at ~latency_ns ~throughput ~mode =
    let n = log.len in
    if n = Float.Array.length log.at_us then begin
      (* The first append sizes the columns to the ticks left; growth
         past that only serves a caller that appends more often than
         [every]. *)
      let cap =
        if n = 0 then 1 + (max 0 (Sim.Time.diff log.until at) / log.every) else 2 * n
      in
      let grow a =
        let b = Float.Array.create cap in
        Float.Array.blit a 0 b 0 n;
        b
      in
      log.at_us <- grow log.at_us;
      log.latency_us <- grow log.latency_us;
      log.throughput_rps <- grow log.throughput_rps;
      log.batch_on <- Bytes.extend log.batch_on 0 (cap - n)
    end;
    Float.Array.set log.at_us n (Sim.Time.to_us at);
    Float.Array.set log.latency_us n
      (match latency_ns with Some ns -> ns /. 1e3 | None -> Float.nan);
    Float.Array.set log.throughput_rps n throughput;
    Bytes.set log.batch_on n
      (match (mode : E2e.Toggler.mode) with Batch_on -> '\001' | Batch_off -> '\000');
    log.len <- n + 1

  let get log i =
    let l = Float.Array.get log.latency_us i in
    {
      at_us = Float.Array.get log.at_us i;
      latency_us = (if Float.is_nan l then None else Some l);
      throughput_rps = Float.Array.get log.throughput_rps i;
      mode = (if Bytes.get log.batch_on i = '\001' then Batch_on else Batch_off);
    }

  let to_list log =
    let rec build i acc = if i < 0 then acc else build (i - 1) (get log i :: acc) in
    build (log.len - 1) []

  (* Sums in sample order, as a fold over [to_list] would. *)
  let summary log ~warmup_until =
    let from_us = Sim.Time.to_us warmup_until in
    let weighted = ref 0.0 and count = ref 0 and tput_sum = ref 0.0 in
    for i = 0 to log.len - 1 do
      let l = Float.Array.get log.latency_us i in
      if Float.Array.get log.at_us i > from_us && not (Float.is_nan l) then begin
        weighted := !weighted +. l;
        incr count;
        tput_sum := !tput_sum +. Float.Array.get log.throughput_rps i
      end
    done;
    if !count = 0 then (None, 0.0)
    else (Some (!weighted /. float_of_int !count), !tput_sum /. float_of_int !count)
end

type t = {
  batching : batching;
  toggler : E2e.Toggler.t option;
  aimd : E2e.Aimd.t option;
  degrade : E2e.Degrade.t option;
  log : Samples.t;
  (* Group membership is mutable so connections can join (churn spawn)
     and leave (drain + FIN) a live group: the decision-tick closures
     read these refs, never a captured list. *)
  clients : Tcp.Socket.t list ref;
  alls : Tcp.Socket.t list ref;
}

let attach ?ledger ~engine ~until ~rng ~fault_armed ~batching ~client_socks
    ~all_socks () =
  let clients = ref client_socks in
  let alls = ref all_socks in
  let aggregate_estimate ~advance at = estimate_socks ~advance !clients ~at in
  let kick_all () = List.iter Tcp.Socket.kick !alls in
  (* Age (µs) of the freshest accepted remote share across the group's
     estimators — the staleness clock the ledger records; -1 until the
     first share arrives. *)
  let stale_age_us at =
    let age =
      List.fold_left
        (fun acc sock ->
          match E2e.Estimator.last_share_at (Tcp.Socket.estimator sock) with
          | Some t0 ->
              let a = Sim.Time.to_us at -. Sim.Time.to_us t0 in
              (match acc with None -> Some a | Some b -> Some (Stdlib.min a b))
          | None -> acc)
        None !clients
    in
    match age with None -> -1.0 | Some a -> Stdlib.max a 0.0
  in
  let log =
    (* only dynamic groups log samples *)
    Samples.create ~until
      ~every:(match batching with Dynamic d -> d.tick | _ -> Sim.Time.ms 1)
  in
  let none =
    { batching; toggler = None; aimd = None; degrade = None; log; clients; alls }
  in
  (* Each tick re-arms one timer: scheduling a fresh event per tick
     would keep an event record live for a whole tick period. *)
  let every_tick ~span action =
    let timer = ref Sim.Engine.unset_timer in
    timer :=
      Sim.Engine.timer (fun () ->
          let at = Sim.Engine.now engine in
          action at;
          if Sim.Time.compare (Sim.Time.add at span) until <= 0 then
            Sim.Engine.arm engine !timer ~after:span);
    Sim.Engine.arm engine !timer ~after:span
  in
  match batching with
  | Static_on | Static_off -> none
  | Aimd_limit a ->
    (* The AIMD variable is "latency headroom" h in [1, span+1]: the
       batching limit is max_limit - (h - 1).  While the SLO is met,
       h grows additively (gently probing toward less batching, hence
       lower latency); on a violation h halves (the limit jumps back
       toward full Nagle, recovering amortization fast) — the
       Chiu–Jain asymmetry with SLO violation as the congestion
       signal. *)
    let span = a.max_limit - a.min_limit in
    let controller =
      E2e.Aimd.create ~initial:1 ~min_limit:1 ~max_limit:(span + 1)
        ~increase:a.increase ~decrease:a.decrease ()
    in
    let limit_of_headroom h = a.max_limit - (h - 1) in
    let set_limit limit =
      List.iter
        (fun sock -> Tcp.Nagle.set_min_send (Tcp.Socket.nagle sock) (Some limit))
        !alls;
      kick_all ()
    in
    set_limit (limit_of_headroom (E2e.Aimd.limit controller));
    every_tick ~span:a.aimd_tick (fun at ->
      let agg, _ = aggregate_estimate ~advance:true at in
      let before = limit_of_headroom (E2e.Aimd.limit controller) in
      let reason =
        match agg.latency_ns with
        | Some latency_ns when agg.throughput > 0.0 ->
          let fb = if latency_ns <= a.slo_us *. 1e3 then `Good else `Bad in
          set_limit (limit_of_headroom (E2e.Aimd.feedback controller fb));
          (match fb with `Good -> "good" | `Bad -> "bad")
        | Some _ | None -> "hold"
      in
      (match ledger with
      | Some lg ->
        E2e.Ledger.decision lg ~at
          ?on_us:(ns_opt_to_us agg.latency_ns)
          ~mode:(Printf.sprintf "limit=%d" before)
          ~action:
            (Printf.sprintf "limit=%d"
               (limit_of_headroom (E2e.Aimd.limit controller)))
          ~reason ~frozen:false ~stale_us:(stale_age_us at) ()
      | None -> ()));
    { none with aimd = Some controller }
  | Dynamic d ->
    let toggler =
      E2e.Toggler.create ~epsilon:d.epsilon ~ewma_alpha:d.ewma_alpha
        ~min_observations:d.min_observations ~policy:d.policy ~rng
        ~initial:
          (if initial_nagle batching then E2e.Toggler.Batch_on
           else E2e.Toggler.Batch_off)
        ()
    in
    (* Graceful degradation is armed only under a fault plan: clean
       runs must stay bit-identical to pre-fault behaviour, and a
       low-rate clean run can legitimately go shares-quiet for longer
       than any reasonable staleness timeout. *)
    let degrade = if fault_armed then Some (E2e.Degrade.create ~config:d.degrade ()) else None in
    let set_mode mode =
      let enabled = match mode with E2e.Toggler.Batch_on -> true | Batch_off -> false in
      List.iter (fun sock -> Tcp.Socket.set_nagle_enabled sock enabled) !alls;
      kick_all ()
    in
    let step_degrade at =
      match degrade with
      | None -> false
      | Some dg ->
        (* Stale once no flow has accepted a share within
           max(k · srtt, floor); the timeout tracks the live RTT
           estimate. *)
        let stale =
          !clients <> []
          && List.for_all
            (fun sock ->
              let e = Tcp.Socket.estimator sock in
              let srtt =
                Option.value (Tcp.Rtt.srtt (Tcp.Socket.rtt sock)) ~default:0
              in
              let timeout =
                Stdlib.max
                  (int_of_float (d.stale_after_rtts *. float_of_int srtt))
                  d.stale_floor
              in
              E2e.Estimator.set_staleness e ~timeout:(Some timeout);
              E2e.Estimator.is_stale e ~at)
            !clients
        in
        let state = E2e.Degrade.step dg ~stale in
        E2e.Toggler.force toggler
          (match state with
          | E2e.Degrade.Frozen -> Some d.fallback
          | E2e.Degrade.Active -> None);
        state = E2e.Degrade.Frozen
    in
    every_tick ~span:d.tick (fun at ->
      let mode = E2e.Toggler.mode toggler in
      let frozen = step_degrade at in
      let agg, per_flow = aggregate_estimate ~advance:true at in
      if per_flow <> [] then begin
        (* While frozen the estimates are known-garbage (stale remote
           windows): keep them out of the arms so the bandit resumes
           from trustworthy scores after the fault clears. *)
        (match agg.latency_ns with
        | Some latency_ns when agg.throughput > 0.0 && not frozen ->
          E2e.Toggler.observe toggler ~mode
            { E2e.Policy.latency_ns; throughput = agg.throughput }
        | Some _ | None -> ());
        Samples.append log ~at ~latency_ns:agg.latency_ns ~throughput:agg.throughput
          ~mode
      end;
      match ledger with
      | None -> set_mode (E2e.Toggler.decide toggler)
      | Some lg ->
        let expl = E2e.Toggler.decide_explained toggler in
        set_mode expl.chosen;
        E2e.Ledger.decision lg ~at ?on_us:expl.on_us ?off_us:expl.off_us
          ~mode:(E2e.Toggler.mode_to_string expl.before)
          ~action:(E2e.Toggler.mode_to_string expl.chosen)
          ~reason:(E2e.Toggler.reason_to_string expl.why)
          ~frozen ~stale_us:(stale_age_us at) ());
    { none with toggler = Some toggler; degrade }

let samples t = Samples.to_list t.log
let final_mode t = Option.map E2e.Toggler.mode t.toggler
let toggler t = t.toggler
let client_socks t = !(t.clients)

let current_nagle t =
  match t.toggler with
  | Some tg -> (match E2e.Toggler.mode tg with Batch_on -> true | Batch_off -> false)
  | None -> initial_nagle t.batching

(* A connection spawned mid-run joins a live group: it becomes visible
   to the next decision tick and immediately receives the group's
   current mode/limit — the cold-start inheritance path for
   [Global]/[Per_tenant] scope (a fresh socket otherwise starts at the
   configuration default and waits a tick for correction). *)
let adopt ?(inherit_mode = true) t ~client_sock ~server_sock =
  t.clients := !(t.clients) @ [ client_sock ];
  t.alls := !(t.alls) @ [ client_sock; server_sock ];
  if not inherit_mode then ()
  else
    match t.batching with
  | Static_on | Static_off -> ()
  | Dynamic _ ->
    let enabled = current_nagle t in
    Tcp.Socket.set_nagle_enabled client_sock enabled;
    Tcp.Socket.set_nagle_enabled server_sock enabled
  | Aimd_limit a ->
    let limit =
      match t.aimd with
      | Some c -> a.max_limit - (E2e.Aimd.limit c - 1)
      | None -> a.max_limit
    in
    Tcp.Nagle.set_min_send (Tcp.Socket.nagle client_sock) (Some limit);
    Tcp.Nagle.set_min_send (Tcp.Socket.nagle server_sock) (Some limit)

(* Departing connections leave the group before closing so the decision
   tick stops reading their (now idle) estimators. *)
let abandon t ~client_sock ~server_sock =
  t.clients := List.filter (fun s -> s != client_sock) !(t.clients);
  t.alls := List.filter (fun s -> s != client_sock && s != server_sock) !(t.alls)

let final_batch_limit t =
  match (t.aimd, t.batching) with
  | Some c, Aimd_limit a -> Some (a.max_limit - (E2e.Aimd.limit c - 1))
  | _ -> None

let degrade_freezes t = Option.map E2e.Degrade.freezes t.degrade
let degrade_thaws t = Option.map E2e.Degrade.thaws t.degrade

let degrade_frozen_end t =
  Option.map (fun d -> E2e.Degrade.state d = E2e.Degrade.Frozen) t.degrade

(* Mean of the estimate samples inside the measured window — how
   dynamic runs summarize their advancing estimation windows. *)
let sample_summary t ~warmup_until = Samples.summary t.log ~warmup_until
