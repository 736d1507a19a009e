(* A trace sink that counts the simulator's typed events.  Attached to
   a repeat of the workload, it gives exact per-request work counts for
   each layer, and keeps a contiguous steady-state window of records so
   the trace probes price this workload's own record mix. *)

type t = {
  mutable records : int;
  mutable segments : int;  (** fresh data segments sent *)
  mutable acks : int;  (** acks received *)
  mutable delack_fires : int;
  mutable nagle_holds : int;
  mutable shares : int;  (** exchange triples ingested *)
  mutable estimates : int;  (** estimator windows closed *)
  mutable decisions : int;
  mutable request_done : int;
  mutable request_done_sharded : int;
      (** sharded fleets repeat each completion under a shard id *)
  mutable lb_assigned : int;  (** connections steered, set-up included *)
  mutable lb_assigned_in_run : int;  (** of which after time zero (churn) *)
  deliveries : (string * bool, int ref * int ref) Hashtbl.t;
      (** (tenant, server side?) -> data deliveries and their payload
          bytes: the receive-side granularity the byte path sees *)
  mutable last_rx : string * Sim.Time.t;
  window_from : Sim.Time.t;
  window_cap : int;
  mutable window : Sim.Trace.record list;  (** newest first *)
  mutable window_len : int;
}

let create ~window_from ~window_cap =
  {
    records = 0;
    segments = 0;
    acks = 0;
    delack_fires = 0;
    nagle_holds = 0;
    shares = 0;
    estimates = 0;
    decisions = 0;
    request_done = 0;
    request_done_sharded = 0;
    lb_assigned = 0;
    lb_assigned_in_run = 0;
    deliveries = Hashtbl.create 4;
    last_rx = ("", Sim.Time.zero);
    window_from;
    window_cap;
    window = [];
    window_len = 0;
  }

(* Socket labels are ["c0"]/["s0"], or ["tenant/c0@s1"] in fleets. *)
let tenant_of id = Option.value (Sim.Trace.tenant_of_id id) ~default:""

let server_side id =
  let base = match String.rindex_opt id '/' with Some i -> i + 1 | None -> 0 in
  String.length id > base && id.[base] = 's'

(* A GRO delivery hands its segments to the socket at one instant, so
   consecutive receptions by one socket at one time are one delivery. *)
let received t (r : Sim.Trace.record) ~fresh =
  let key = (tenant_of r.id, server_side r.id) in
  let n, bytes =
    match Hashtbl.find_opt t.deliveries key with
    | Some v -> v
    | None ->
      let v = (ref 0, ref 0) in
      Hashtbl.add t.deliveries key v;
      v
  in
  let last_id, last_at = t.last_rx in
  if not (String.equal last_id r.id && Sim.Time.compare last_at r.at = 0) then incr n;
  bytes := !bytes + fresh;
  t.last_rx <- (r.id, r.at)

(** Mean payload bytes per data delivery into the server ([server]) or
    client sockets of [tenant] (["" ] outside fleets). *)
let delivery_bytes t ~tenant ~server =
  match Hashtbl.find_opt t.deliveries (tenant, server) with
  | Some (n, bytes) when !n > 0 -> float_of_int !bytes /. float_of_int !n
  | _ -> 0.

let sink t (r : Sim.Trace.record) =
  t.records <- t.records + 1;
  (match r.event with
  | Segment_received { fresh; _ } when fresh > 0 -> received t r ~fresh
  | Segment_sent { retx = false; _ } -> t.segments <- t.segments + 1
  | Ack_received _ -> t.acks <- t.acks + 1
  | Delack_fire _ -> t.delack_fires <- t.delack_fires + 1
  | Nagle_hold _ -> t.nagle_holds <- t.nagle_holds + 1
  | Share_ingested _ -> t.shares <- t.shares + 1
  | Estimate_computed _ -> t.estimates <- t.estimates + 1
  | Decision_made _ -> t.decisions <- t.decisions + 1
  | Request_done _ when Option.is_none (Sim.Trace.shard_of_id r.id) ->
    t.request_done <- t.request_done + 1
  | Request_done _ -> t.request_done_sharded <- t.request_done_sharded + 1
  | Lb_assigned _ ->
    t.lb_assigned <- t.lb_assigned + 1;
    if Sim.Time.compare r.at Sim.Time.zero > 0 then
      t.lb_assigned_in_run <- t.lb_assigned_in_run + 1
  | _ -> ());
  if t.window_len < t.window_cap && Sim.Time.compare r.at t.window_from >= 0 then begin
    t.window <- r :: t.window;
    t.window_len <- t.window_len + 1
  end

(** The kept window, in emission order. *)
let window t = Array.of_list (List.rev t.window)

(** Every count, by name — the values the self-test requires to repeat
    exactly across runs. *)
let counts t =
  [
    ("records", t.records);
    ("segments", t.segments);
    ("acks", t.acks);
    ("delack_fires", t.delack_fires);
    ("nagle_holds", t.nagle_holds);
    ("shares", t.shares);
    ("estimates", t.estimates);
    ("decisions", t.decisions);
    ("request_done", t.request_done);
    ("request_done_sharded", t.request_done_sharded);
    ("lb_assigned", t.lb_assigned);
    ("lb_assigned_in_run", t.lb_assigned_in_run);
  ]
  @ List.sort compare
      (Hashtbl.fold
         (fun (tenant, server) (n, bytes) acc ->
           let key = Printf.sprintf "deliveries[%s,%b]" tenant server in
           (key, !n) :: (key ^ ".bytes", !bytes) :: acc)
         t.deliveries [])
