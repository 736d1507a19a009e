type lifecycle = Cold_start | Warm

type t = {
  unacked : Queue_state.t;
  unread : Queue_state.t;
  ackdelay : Queue_state.t;
  created_at : Sim.Time.t;
  mutable lifecycle : lifecycle;
  (* The local window's anchor — the snapshot of the three queues at
     the last [estimate] (or creation) — kept in place: one time, three
     totals and three integrals ([anchor], indexed [q_unacked] &c.).
     A fresh share triple per tick would live a whole tick period, long
     enough to be promoted, for every connection. *)
  mutable anchor_at : Sim.Time.t;
  mutable anchor_unacked : int;
  mutable anchor_unread : int;
  mutable anchor_ackdelay : int;
  anchor : Float.Array.t;
  cur : Float.Array.t;  (* scratch: the integrals advanced to [compute]'s [at] *)
  mutable remote_baseline : Exchange.triple option;
  mutable remote_latest : Exchange.triple option;
  mutable last_share_at : Sim.Time.t option;
      (* arrival time of the last *accepted* remote share *)
  mutable staleness : Sim.Time.span option;
      (* no accepted share within this span -> estimates are stale *)
  mutable rejected : int;
  mutable trace : Sim.Trace.t option;
  mutable trace_id : string;
  mutable audit : (Sim.Audit.queue * Sim.Audit.queue * Sim.Audit.queue) option;
      (* (unacked, unread, ackdelay) Little's-law audit mirrors *)
}

let local_snapshot t ~at : Exchange.triple =
  {
    unacked = Queue_state.snapshot t.unacked ~at;
    unread = Queue_state.snapshot t.unread ~at;
    ackdelay = Queue_state.snapshot t.ackdelay ~at;
  }

let q_unacked = 0
let q_unread = 1
let q_ackdelay = 2

let create ~at =
  let unacked = Queue_state.create ~at in
  let unread = Queue_state.create ~at in
  let ackdelay = Queue_state.create ~at in
  {
    unacked;
    unread;
    ackdelay;
    created_at = at;
    (* Estimators created with their run start Warm: their first window
       spans warmup, which the warmup-boundary [estimate] call already
       discards.  Only connections spawned mid-run (fleet churn) are
       marked [Cold_start] explicitly. *)
    lifecycle = Warm;
    anchor_at = at;
    anchor_unacked = 0;
    anchor_unread = 0;
    anchor_ackdelay = 0;
    anchor = Float.Array.make 3 0.0;
    cur = Float.Array.make 3 0.0;
    remote_baseline = None;
    remote_latest = None;
    last_share_at = None;
    staleness = None;
    rejected = 0;
    trace = None;
    trace_id = "";
    audit = None;
  }

let set_trace t tr ~id =
  t.trace <- Some tr;
  t.trace_id <- id

let set_cold_start t = t.lifecycle <- Cold_start
let lifecycle t = t.lifecycle
let is_cold t = t.lifecycle = Cold_start

let set_audit t au ~prefix =
  t.audit <-
    Some
      ( Sim.Audit.queue au (prefix ^ ".unacked"),
        Sim.Audit.queue au (prefix ^ ".unread"),
        Sim.Audit.queue au (prefix ^ ".ackdelay") )

(* The audit mirrors are passive bookkeeping (no engine interaction),
   so attaching them cannot perturb the run. *)
let track_unacked t ~at n =
  Queue_state.track t.unacked ~at n;
  match t.audit with
  | Some (q, _, _) -> Sim.Audit.track q ~at n
  | None -> ()

let track_unread t ~at n =
  Queue_state.track t.unread ~at n;
  match t.audit with
  | Some (_, q, _) -> Sim.Audit.track q ~at n
  | None -> ()

let track_ackdelay t ~at n =
  Queue_state.track t.ackdelay ~at n;
  match t.audit with
  | Some (_, _, q) -> Sim.Audit.track q ~at n
  | None -> ()

let unacked_size t = Queue_state.size t.unacked
let unread_size t = Queue_state.size t.unread
let ackdelay_size t = Queue_state.size t.ackdelay

let ingest_remote t ~at (triple : Exchange.triple) =
  match Exchange.check_plausible ?prev:t.remote_latest ~now:at triple with
  | Error reason ->
    (* Corrupted or implausible shares must never poison the monotone
       counters: count, trace, and leave every window untouched. *)
    t.rejected <- t.rejected + 1;
    (match t.trace with
    | Some tr when Sim.Trace.enabled tr ->
      Sim.Trace.event tr ~at ~id:t.trace_id (Share_rejected { reason })
    | _ -> ())
  | Ok () -> (
    (* The first-ever share anchors the remote window, exactly as
       the local anchor pins the local window at creation: until the first
       [estimate] both windows span creation-to-now, so pinning the
       baseline to the first share (rather than sliding it with every
       pre-estimate ingest) is what keeps the two vantage points' windows
       aligned.  Pinned by a regression test in test_exchange.ml. *)
    let latest = Some triple in
    if Option.is_none t.remote_baseline then t.remote_baseline <- latest;
    t.remote_latest <- latest;
    t.last_share_at <- Some at;
    match t.trace with
    | Some tr when Sim.Trace.enabled tr ->
        Sim.Trace.event tr ~at:triple.unacked.time ~id:t.trace_id
          (Share_ingested
             {
               unacked_total = triple.unacked.total;
               unread_total = triple.unread.total;
               ackdelay_total = triple.ackdelay.total;
             })
    | _ -> ())

let rejected_shares t = t.rejected
let last_share_at t = t.last_share_at

let set_staleness t ~timeout = t.staleness <- timeout
let staleness t = t.staleness

let is_stale t ~at =
  match t.staleness with
  | None -> false
  | Some timeout ->
    let anchor = Option.value t.last_share_at ~default:t.created_at in
    Sim.Time.diff at anchor > timeout

let remote_window t =
  match (t.remote_baseline, t.remote_latest) with
  | Some prev, Some cur -> Some (prev, cur)
  | _ -> None

type estimate = {
  latency_ns : float option;
  latency_local_ns : float option;
  latency_remote_ns : float option;
  throughput : float;
  window : Sim.Time.span;
  stale : bool;
}

(* Algorithm 2's per-queue latency over a remote share pair, as
   [Latency.components_of_triples] computes it: present iff the queue's
   window is non-empty and something departed. *)
let[@inline] share_latency_ok (p : Queue_state.share) (c : Queue_state.share) =
  Sim.Time.diff c.time p.time > 0 && c.total - p.total > 0

let[@inline] share_latency (p : Queue_state.share) (c : Queue_state.share) =
  (c.integral -. p.integral) /. float_of_int (c.total - p.total)

(* The local queue's latency over the anchored window (which is
   non-empty here), or 0.0 — the value [Latency.combine] substitutes
   for a queue with no departures. *)
let[@inline] local_latency t i ~d_total =
  if d_total > 0 then
    (Float.Array.get t.cur i -. Float.Array.get t.anchor i) /. float_of_int d_total
  else 0.0

(* [Latency.components_of_triples], [combine], [reconcile] and
   [Queue_state.get_avgs] over the in-place anchor, performing the same
   float operations in the same order, so every estimate is bit-equal
   to the share-triple formulation (the estimator oracle test holds it
   to that). *)
let compute t ~at =
  Queue_state.integral_into t.unacked ~at t.cur q_unacked;
  Queue_state.integral_into t.unread ~at t.cur q_unread;
  Queue_state.integral_into t.ackdelay ~at t.cur q_ackdelay;
  let window = Sim.Time.diff at t.anchor_at in
  if window <= 0 then None
  else begin
    let du = Queue_state.total t.unacked - t.anchor_unacked in
    let dr = Queue_state.total t.unread - t.anchor_unread in
    let da = Queue_state.total t.ackdelay - t.anchor_ackdelay in
    let lu = local_latency t q_unacked ~d_total:du in
    let lr = local_latency t q_unread ~d_total:dr in
    let la = local_latency t q_ackdelay ~d_total:da in
    let latency_local_ns, latency_remote_ns =
      match (t.remote_baseline, t.remote_latest) with
      | Some p, Some c when Sim.Time.diff c.unacked.time p.unacked.time > 0 ->
        let ru_ok = share_latency_ok p.unacked c.unacked in
        let rr =
          if share_latency_ok p.unread c.unread then share_latency p.unread c.unread
          else 0.0
        in
        let ra =
          if share_latency_ok p.ackdelay c.ackdelay then
            share_latency p.ackdelay c.ackdelay
          else 0.0
        in
        ( (if du > 0 then Some (Float.max (lu -. ra +. lr +. rr) 0.0) else None),
          if ru_ok then
            Some (Float.max (share_latency p.unacked c.unacked -. la +. rr +. lr) 0.0)
          else None )
      | _ ->
        (* no remote window: [combine]'s zero terms, kept as operations *)
        ((if du > 0 then Some (Float.max (lu -. 0.0 +. lr +. 0.0) 0.0) else None), None)
    in
    let throughput = float_of_int du /. Sim.Time.to_sec window in
    let latency_ns = Latency.reconcile latency_local_ns latency_remote_ns in
    let stale = is_stale t ~at in
    Some { latency_ns; latency_local_ns; latency_remote_ns; throughput; window; stale }
  end

let estimate t ~at =
  match compute t ~at with
  | None -> None
  | Some est ->
    t.anchor_at <- at;
    t.anchor_unacked <- Queue_state.total t.unacked;
    t.anchor_unread <- Queue_state.total t.unread;
    t.anchor_ackdelay <- Queue_state.total t.ackdelay;
    Float.Array.blit t.cur 0 t.anchor 0 3;
    (* The remote window advances too: the latest ingested share becomes
       the next window's baseline, keeping the two vantage points'
       windows aligned (modulo one network delay). *)
    if Option.is_some t.remote_latest then t.remote_baseline <- t.remote_latest;
    if t.lifecycle = Cold_start then begin
      (* The first window of a mid-run connection spans its slow-start
         ramp: a handful of samples over a tiny span.  Discard it —
         windows re-anchor at [at] — and report nothing, so a fresh
         connection cannot poison its group's aggregate. *)
      t.lifecycle <- Warm;
      None
    end
    else begin
      (match t.trace with
      | Some tr when Sim.Trace.enabled tr ->
          Sim.Trace.event tr ~at ~id:t.trace_id
            (Estimate_computed
               {
                 latency_us = Option.map (fun l -> l /. 1e3) est.latency_ns;
                 throughput = est.throughput;
                 window_us = float_of_int est.window /. 1e3;
               })
      | _ -> ());
      Some est
    end

let peek_estimate t ~at =
  if t.lifecycle = Cold_start then None
  else compute t ~at
