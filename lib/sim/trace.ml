(* Typed structured tracing: a bounded ring of (time, id, event) records
   with JSONL export/import.  The enabled check must come before any
   allocation so that call sites guarded by [enabled] (or going through
   [emitf]) pay nothing when tracing is off. *)

type event =
  | Segment_sent of { seq : int; len : int; push : bool; retx : bool }
  | Segment_received of { seq : int; fresh : int }
  | Ack_received of { acked : int; una : int }
  | Nagle_hold of { chunk : int; in_flight : int }
  | Nagle_toggle of { enabled : bool }
  | Cork_hold of { chunk : int }
  | Delack_fire of { pending : int }
  | Delack_cancel of { pending : int }
  | Fin_received of { rcv_nxt : int }
  | Segment_dropped of { seq : int; len : int; reason : string }
  | Segment_reordered of { seq : int; delay_us : float }
  | Segment_duplicated of { seq : int }
  | Segment_challenged of { seq : int; kind : string }
  | Probe_sent of { seq : int; backoff : int }
  | Share_corrupted of { seq : int }
  | Share_rejected of { reason : string }
  | Share_ingested of {
      unacked_total : int;
      unread_total : int;
      ackdelay_total : int;
    }
  | Estimate_computed of {
      latency_us : float option;
      throughput : float;
      window_us : float;
    }
  | Request_done of { latency_us : float }
  | Req_issued of { req : int; off : int; len : int }
  | Req_sent of { req : int }
  | Req_complete of { req : int }
  | Srv_start of { req : int }
  | Srv_reply of { req : int; off : int; len : int }
  | Audit_window of {
      queue : string;
      l_avg : float;
      lambda_per_s : float;
      w_us : float;
      rel_err : float;
    }
  | Message of { tag : string; detail : string }
  | Decision_made of {
      decision : int;  (** sequence number within the emitting group *)
      on_us : float option;  (** smoothed estimate for the Batch_on arm *)
      off_us : float option;  (** smoothed estimate for the Batch_off arm *)
      mode : string;  (** mode in force when the decision was taken *)
      action : string;  (** mode/limit chosen by the decision *)
      reason : string;  (** explore/exploit/undersampled/forced/good/bad/hold *)
      frozen : bool;  (** degrade freeze in force *)
      stale_us : float;  (** age of the freshest remote share; -1 = unknown *)
    }
  | Decision_outcome of {
      decision : int;  (** the [Decision_made] this realizes *)
      mean_us : float;
      p99_us : float;
      n : int;  (** completions observed during the tenure *)
    }
  | Conn_opened of {
      gen : int;  (** per-tenant connection generation counter *)
      inherited : bool;  (** group prior adopted (estimator cold-start) *)
    }
  | Conn_closed of {
      gen : int;
      completed : int;  (** requests completed over the connection's life *)
    }
  | Lb_assigned of {
      shard : int;  (** backend shard the load balancer picked *)
      policy : string;  (** round_robin / consistent_hash / least_loaded *)
    }
  | Shard_enqueued of {
      shard : int;
      depth : int;  (** shard dispatch-queue depth after this enqueue *)
    }

type record = { at : Time.t; id : string; event : event }

type t = {
  capacity : int;
  mutable enabled : bool;
  mutable buf : record option array;
  mutable next : int;
  mutable count : int;
  mutable emitted : int;
  mutable sink : (record -> unit) option;
  mutable sunk : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    enabled = false;
    buf = Array.make capacity None;
    next = 0;
    count = 0;
    emitted = 0;
    sink = None;
    sunk = 0;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let capacity t = t.capacity
let emitted t = t.emitted
let dropped t = t.emitted - t.count - t.sunk
let set_sink t sink = t.sink <- sink
let sunk t = t.sunk

let event t ~at ~id ev =
  if t.enabled then begin
    (match t.sink with
    | None ->
        t.buf.(t.next) <- Some { at; id; event = ev };
        t.next <- (t.next + 1) mod t.capacity;
        if t.count < t.capacity then t.count <- t.count + 1
    | Some f ->
        t.sunk <- t.sunk + 1;
        f { at; id; event = ev });
    t.emitted <- t.emitted + 1
  end

let emit t ~at ~tag ~detail =
  if t.enabled then event t ~at ~id:"" (Message { tag; detail })

let emitf t ~at ~tag fmt =
  if t.enabled then
    Format.kasprintf (fun detail -> emit t ~at ~tag ~detail) fmt
  else
    (* Consume the format arguments without evaluating them. *)
    Format.ikfprintf ignore Format.str_formatter fmt

let iter t f =
  let start = if t.count = t.capacity then t.next else 0 in
  for i = 0 to t.count - 1 do
    match t.buf.((start + i) mod t.capacity) with
    | Some r -> f r
    | None -> ()
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

let records t = List.rev (fold t ~init:[] ~f:(fun acc r -> r :: acc))

(* Fleet runs tag every emitter id with its tenant: ["bare/c0"].  The
   slash cannot appear in the single-run "c0"/"s0" labels, so pre-fleet
   traces simply have no tenant. *)
let tenant_of_id id =
  match String.index_opt id '/' with
  | Some i when i > 0 -> Some (String.sub id 0 i)
  | Some _ | None -> None

(* Sharded fleet runs suffix ids with the backend shard: ["bare/c0@s3"].
   Single-shard runs keep the unsuffixed labels, so pre-sharding traces
   simply have no shard. *)
let shard_of_id id =
  match String.rindex_opt id '@' with
  | Some i
    when i + 2 < String.length id && id.[i + 1] = 's' ->
      int_of_string_opt (String.sub id (i + 2) (String.length id - i - 2))
  | Some _ | None -> None

(* {1 Event descriptors}

   Both codecs are driven by one descriptor per event: its binary kind
   id, its JSON ["ev"] name and its typed field list in binary payload
   order.  [encode] is the one place that takes an event apart and each
   descriptor's [decode] the one place that builds it; the JSONL and
   binary writers and readers in between only move field values through
   a [frame].  Adding an event is one descriptor, one [encode] arm and a
   binary version bump ([detail] needs an arm only for a custom
   rendering). *)

(* A field's type; the string is its JSON key. *)
type field =
  | I64 of string  (** int, always 8 bytes *)
  | Slot of string  (** int, u32 unless the record's wide flag widens it to i64 *)
  | F64 of string  (** float, as IEEE-754 bits *)
  | Str of string  (** string, a u32 string-table reference *)
  | Flag of string  (** bool, a flag bit *)
  | Opt_f64 of string  (** float option: a presence flag bit plus an f64 (0 if absent) *)
  | Retag of string
      (** bool, a flag bit that JSONL carries in the ["ev"] name: this
          name replaces the descriptor's when set *)

(* One event's field values by position: [ints] holds I64 and Slot
   values and, for flag-bit fields, nonzero when set; [floats] the F64
   and Opt_f64 values, [strs] the Str values; [n] is [encode]'s cursor. *)
type frame = {
  ints : int array;
  floats : float array;
  strs : string array;
  mutable n : int;
}

type desc = {
  kind : int;
  ev : string;
  fields : field array;
  bits : int array;  (** flag mask per field; bits go from bit 0 in field order *)
  json : int array;  (** field positions in JSON key order *)
  narrow : int array;  (** binary offset of each field, then the payload length *)
  wide : int array;  (** the same with slots widened to i64 *)
  decode : frame -> event;
}

let max_fields = 8

let new_frame () =
  {
    ints = Array.make max_fields 0;
    floats = Array.make max_fields 0.0;
    strs = Array.make max_fields "";
    n = 0;
  }

(* The frame of the codecs that have none of their own (a binary writer
   has): a frame is only live within one encode or decode call. *)
let frame_key = Domain.DLS.new_key new_frame

let key (I64 k | Slot k | F64 k | Str k | Flag k | Opt_f64 k | Retag k) = k

let width ~wide = function
  | I64 _ | F64 _ | Opt_f64 _ -> 8
  | Slot _ -> if wide then 8 else 4
  | Str _ -> 4
  | Flag _ | Retag _ -> 0

(* Descriptors by kind id, in definition order, and by JSON ["ev"] name
   ([Retag] names included); [desc] registers each one. *)
let defined = ref []
let by_ev = Hashtbl.create 64

(* [json] gives the JSON key order where it differs from the field
   order. *)
let desc kind ev ?json fields decode =
  let json = Option.value json ~default:(List.map key fields) in
  let fields = Array.of_list fields in
  let n_bits = ref 0 in
  let bit = function
    | Flag _ | Opt_f64 _ | Retag _ ->
        incr n_bits;
        1 lsl (!n_bits - 1)
    | I64 _ | Slot _ | F64 _ | Str _ -> 0
  in
  let bits = Array.map bit fields in
  assert (kind = List.length !defined);
  assert (Array.length fields <= max_fields && !n_bits <= 6);
  let pos k = Option.get (Array.find_index (fun fd -> key fd = k) fields) in
  let json = Array.of_list (List.map pos json) in
  let offsets wide =
    let len, offs = Array.fold_left_map (fun o fd -> (o + width ~wide fd, o)) 0 fields in
    Array.append offs [| len |]
  in
  let narrow = offsets false and wide = offsets true in
  let d = { kind; ev; fields; bits; json; narrow; wide; decode } in
  defined := d :: !defined;
  Hashtbl.replace by_ev ev d;
  Array.iter (function Retag k -> Hashtbl.replace by_ev k d | _ -> ()) fields;
  d

let[@inline] int f i = f.ints.(i)
let[@inline] bool f i = f.ints.(i) <> 0
let[@inline] float f i = f.floats.(i)
let[@inline] str f i = f.strs.(i)
let[@inline] opt f i = if f.ints.(i) <> 0 then Some f.floats.(i) else None

let segment_sent =
  desc 0 "tx" [ I64 "seq"; Slot "len"; Flag "push"; Retag "retx" ] (fun f ->
      Segment_sent { seq = int f 0; len = int f 1; push = bool f 2; retx = bool f 3 })

let segment_received =
  desc 1 "rx" [ I64 "seq"; Slot "fresh" ] (fun f ->
      Segment_received { seq = int f 0; fresh = int f 1 })

let ack_received =
  desc 2 "ack" [ I64 "una"; Slot "acked" ] ~json:[ "acked"; "una" ] (fun f ->
      Ack_received { una = int f 0; acked = int f 1 })

let nagle_hold =
  desc 3 "hold" [ Slot "chunk"; Slot "in_flight" ] (fun f ->
      Nagle_hold { chunk = int f 0; in_flight = int f 1 })

let nagle_toggle =
  desc 4 "toggle" [ Flag "enabled" ] (fun f -> Nagle_toggle { enabled = bool f 0 })

let cork_hold = desc 5 "cork" [ Slot "chunk" ] (fun f -> Cork_hold { chunk = int f 0 })

let delack_fire =
  desc 6 "delack_fire" [ Slot "pending" ] (fun f -> Delack_fire { pending = int f 0 })

let delack_cancel =
  desc 7 "delack_cancel" [ Slot "pending" ] (fun f -> Delack_cancel { pending = int f 0 })

let fin_received =
  desc 8 "fin" [ I64 "rcv_nxt" ] (fun f -> Fin_received { rcv_nxt = int f 0 })

let segment_dropped =
  desc 9 "drop" [ I64 "seq"; Slot "len"; Str "reason" ] (fun f ->
      Segment_dropped { seq = int f 0; len = int f 1; reason = str f 2 })

let segment_reordered =
  desc 10 "reorder" [ I64 "seq"; F64 "delay_us" ] (fun f ->
      Segment_reordered { seq = int f 0; delay_us = float f 1 })

let segment_duplicated =
  desc 11 "dup" [ I64 "seq" ] (fun f -> Segment_duplicated { seq = int f 0 })

let share_corrupted =
  desc 12 "share_corrupt" [ I64 "seq" ] (fun f -> Share_corrupted { seq = int f 0 })

let share_rejected =
  desc 13 "share_reject" [ Str "reason" ] (fun f -> Share_rejected { reason = str f 0 })

let share_ingested =
  desc 14 "share" [ Slot "unacked"; Slot "unread"; Slot "ackdelay" ] (fun f ->
      Share_ingested
        { unacked_total = int f 0; unread_total = int f 1; ackdelay_total = int f 2 })

let estimate_computed =
  desc 15 "estimate" [ Opt_f64 "latency_us"; F64 "throughput"; F64 "window_us" ] (fun f ->
      Estimate_computed
        { latency_us = opt f 0; throughput = float f 1; window_us = float f 2 })

let request_done =
  desc 16 "request" [ F64 "latency_us" ] (fun f ->
      Request_done { latency_us = float f 0 })

let req_issued =
  desc 17 "req_issued" [ Slot "req"; I64 "off"; Slot "len" ] (fun f ->
      Req_issued { req = int f 0; off = int f 1; len = int f 2 })

let req_sent = desc 18 "req_sent" [ Slot "req" ] (fun f -> Req_sent { req = int f 0 })

let req_complete =
  desc 19 "req_complete" [ Slot "req" ] (fun f -> Req_complete { req = int f 0 })

let srv_start = desc 20 "srv_start" [ Slot "req" ] (fun f -> Srv_start { req = int f 0 })

let srv_reply =
  desc 21 "srv_reply" [ Slot "req"; I64 "off"; Slot "len" ] (fun f ->
      Srv_reply { req = int f 0; off = int f 1; len = int f 2 })

let audit_window =
  desc 22 "audit"
    [ Str "queue"; F64 "l"; F64 "lambda"; F64 "w_us"; F64 "rel_err" ]
    (fun f ->
      Audit_window
        {
          queue = str f 0;
          l_avg = float f 1;
          lambda_per_s = float f 2;
          w_us = float f 3;
          rel_err = float f 4;
        })

let message =
  desc 23 "msg" [ Str "tag"; Str "detail" ] (fun f ->
      Message { tag = str f 0; detail = str f 1 })

let segment_challenged =
  desc 24 "challenge" [ I64 "seq"; Str "kind" ] (fun f ->
      Segment_challenged { seq = int f 0; kind = str f 1 })

let probe_sent =
  desc 25 "probe" [ I64 "seq"; Slot "backoff" ] (fun f ->
      Probe_sent { seq = int f 0; backoff = int f 1 })

let decision_made =
  desc 26 "decision"
    [
      Slot "decision";
      Flag "frozen";
      Opt_f64 "on_us";
      Opt_f64 "off_us";
      Str "mode";
      Str "action";
      Str "reason";
      F64 "stale_us";
    ]
    ~json:
      [ "decision"; "on_us"; "off_us"; "mode"; "action"; "reason"; "frozen"; "stale_us" ]
    (fun f ->
      Decision_made
        {
          decision = int f 0;
          frozen = bool f 1;
          on_us = opt f 2;
          off_us = opt f 3;
          mode = str f 4;
          action = str f 5;
          reason = str f 6;
          stale_us = float f 7;
        })

let decision_outcome =
  desc 27 "outcome"
    [ Slot "decision"; Slot "n"; F64 "mean_us"; F64 "p99_us" ]
    ~json:[ "decision"; "mean_us"; "p99_us"; "n" ]
    (fun f ->
      Decision_outcome
        { decision = int f 0; n = int f 1; mean_us = float f 2; p99_us = float f 3 })

let conn_opened =
  desc 28 "conn_open" [ Slot "gen"; Flag "inherited" ] (fun f ->
      Conn_opened { gen = int f 0; inherited = bool f 1 })

let conn_closed =
  desc 29 "conn_close" [ Slot "gen"; Slot "completed" ] (fun f ->
      Conn_closed { gen = int f 0; completed = int f 1 })

let lb_assigned =
  desc 30 "lb_assign" [ Slot "shard"; Str "policy" ] (fun f ->
      Lb_assigned { shard = int f 0; policy = str f 1 })

let shard_enqueued =
  desc 31 "shard_enq" [ Slot "shard"; Slot "depth" ] (fun f ->
      Shard_enqueued { shard = int f 0; depth = int f 1 })

let by_kind = Array.of_list (List.rev !defined)

(* The steps of the encode visitor: each stores one field value at the
   cursor and passes the descriptor on, so an [encode] arm reads as the
   descriptor followed by its field values in order. *)
let[@inline] put_int f v d =
  f.ints.(f.n) <- v;
  f.n <- f.n + 1;
  d

let[@inline] put_bool f v d = put_int f (Bool.to_int v) d

let[@inline] put_float f v d =
  f.floats.(f.n) <- v;
  f.n <- f.n + 1;
  d

let[@inline] put_str f v d =
  f.strs.(f.n) <- v;
  f.n <- f.n + 1;
  d

let[@inline] put_opt f v d =
  f.ints.(f.n) <- Bool.to_int (Option.is_some v);
  put_float f (Option.value v ~default:0.0) d

(* Store [ev]'s field values in [f] and return its descriptor. *)
let encode f ev =
  f.n <- 0;
  match ev with
  | Segment_sent { seq; len; push; retx } ->
      segment_sent |> put_int f seq |> put_int f len |> put_bool f push |> put_bool f retx
  | Segment_received { seq; fresh } ->
      segment_received |> put_int f seq |> put_int f fresh
  | Ack_received { acked; una } -> ack_received |> put_int f una |> put_int f acked
  | Nagle_hold { chunk; in_flight } ->
      nagle_hold |> put_int f chunk |> put_int f in_flight
  | Nagle_toggle { enabled } -> nagle_toggle |> put_bool f enabled
  | Cork_hold { chunk } -> cork_hold |> put_int f chunk
  | Delack_fire { pending } -> delack_fire |> put_int f pending
  | Delack_cancel { pending } -> delack_cancel |> put_int f pending
  | Fin_received { rcv_nxt } -> fin_received |> put_int f rcv_nxt
  | Segment_dropped { seq; len; reason } ->
      segment_dropped |> put_int f seq |> put_int f len |> put_str f reason
  | Segment_reordered { seq; delay_us } ->
      segment_reordered |> put_int f seq |> put_float f delay_us
  | Segment_duplicated { seq } -> segment_duplicated |> put_int f seq
  | Segment_challenged { seq; kind } ->
      segment_challenged |> put_int f seq |> put_str f kind
  | Probe_sent { seq; backoff } -> probe_sent |> put_int f seq |> put_int f backoff
  | Share_corrupted { seq } -> share_corrupted |> put_int f seq
  | Share_rejected { reason } -> share_rejected |> put_str f reason
  | Share_ingested { unacked_total = a; unread_total = b; ackdelay_total = c } ->
      share_ingested |> put_int f a |> put_int f b |> put_int f c
  | Estimate_computed { latency_us = l; throughput = t; window_us = w } ->
      estimate_computed |> put_opt f l |> put_float f t |> put_float f w
  | Request_done { latency_us } -> request_done |> put_float f latency_us
  | Req_issued { req; off; len } ->
      req_issued |> put_int f req |> put_int f off |> put_int f len
  | Req_sent { req } -> req_sent |> put_int f req
  | Req_complete { req } -> req_complete |> put_int f req
  | Srv_start { req } -> srv_start |> put_int f req
  | Srv_reply { req; off; len } ->
      srv_reply |> put_int f req |> put_int f off |> put_int f len
  | Audit_window { queue = q; l_avg = l; lambda_per_s = r; w_us = w; rel_err = e } ->
      audit_window |> put_str f q |> put_float f l |> put_float f r |> put_float f w
      |> put_float f e
  | Message { tag; detail } -> message |> put_str f tag |> put_str f detail
  | Decision_made { decision; on_us; off_us; mode; action; reason; frozen; stale_us } ->
      decision_made
      |> put_int f decision
      |> put_bool f frozen
      |> put_opt f on_us
      |> put_opt f off_us
      |> put_str f mode
      |> put_str f action
      |> put_str f reason
      |> put_float f stale_us
  | Decision_outcome { decision = d; mean_us = m; p99_us = p; n } ->
      decision_outcome |> put_int f d |> put_int f n |> put_float f m |> put_float f p
  | Conn_opened { gen; inherited } -> conn_opened |> put_int f gen |> put_bool f inherited
  | Conn_closed { gen; completed } -> conn_closed |> put_int f gen |> put_int f completed
  | Lb_assigned { shard; policy } -> lb_assigned |> put_int f shard |> put_str f policy
  | Shard_enqueued { shard; depth } ->
      shard_enqueued |> put_int f shard |> put_int f depth

let ev_name d f =
  match Array.find_index (function Retag _ -> true | _ -> false) d.fields with
  | Some i when f.ints.(i) <> 0 -> key d.fields.(i)
  | Some _ | None -> d.ev

let tag r =
  match r.event with
  | Message { tag; _ } -> tag
  | ev ->
      let f = Domain.DLS.get frame_key in
      ev_name (encode f ev) f

let arm = function Some v -> Printf.sprintf "%.2f" v | None -> "-"

let detail r =
  match r.event with
  | Segment_sent { seq; len; push; retx } ->
      Printf.sprintf "seq=%d len=%d%s%s" seq len
        (if push then " PSH" else "")
        (if retx then " RETX" else "")
  | Segment_reordered { seq; delay_us } ->
      Printf.sprintf "seq=%d delay_us=%.1f" seq delay_us
  | Estimate_computed { latency_us; throughput; window_us } ->
      Printf.sprintf "latency_us=%s tput=%.1f window_us=%.1f" (arm latency_us) throughput
        window_us
  | Audit_window { queue; l_avg; lambda_per_s; w_us; rel_err } ->
      Printf.sprintf "queue=%s L=%.3f lambda=%.1f/s W=%.2fus err=%.4f" queue l_avg
        lambda_per_s w_us rel_err
  | Message { detail; _ } -> detail
  | Decision_made { decision; on_us; off_us; mode; action; reason; frozen; stale_us }
    ->
      Printf.sprintf "#%d on=%s off=%s mode=%s action=%s reason=%s%s stale_us=%.1f"
        decision (arm on_us) (arm off_us) mode action reason
        (if frozen then " FROZEN" else "")
        stale_us
  | Decision_outcome { decision; mean_us; p99_us; n } ->
      Printf.sprintf "#%d mean_us=%.2f p99_us=%.2f n=%d" decision mean_us p99_us n
  | Conn_opened { gen; inherited } ->
      Printf.sprintf "gen=%d%s" gen (if inherited then " INHERITED" else "")
  | ev ->
      (* The rest render as [key=value] in JSON key order. *)
      let f = Domain.DLS.get frame_key in
      let d = encode f ev in
      let value i =
        match d.fields.(i) with
        | I64 k | Slot k -> Printf.sprintf "%s=%d" k f.ints.(i)
        | F64 k -> Printf.sprintf "%s=%.2f" k f.floats.(i)
        | Opt_f64 k -> Printf.sprintf "%s=%s" k (arm (opt f i))
        | Str k -> Printf.sprintf "%s=%s" k f.strs.(i)
        | Flag k | Retag k -> Printf.sprintf "%s=%b" k (f.ints.(i) <> 0)
      in
      String.concat " " (List.map value (Array.to_list d.json))

let find t ~tag:wanted =
  List.rev
    (fold t ~init:[] ~f:(fun acc r ->
         if String.equal (tag r) wanted then r :: acc else acc))

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.next <- 0;
  t.count <- 0;
  t.emitted <- 0;
  t.sunk <- 0

let pp_record ppf r =
  Format.fprintf ppf "[%a] %s %s: %s" Time.pp r.at
    (if r.id = "" then "-" else r.id)
    (tag r) (detail r)

let dump t ppf = iter t (fun r -> Format.fprintf ppf "%a@." pp_record r)

(* {1 JSONL export} *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":\"";
  json_escape b v;
  Buffer.add_char b '"'

(* %.17g round-trips every finite float through [float_of_string]. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let record_to_json ?run r =
  let f = Domain.DLS.get frame_key in
  let d = encode f r.event in
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"at_ns\":%d" (Time.to_ns r.at));
  (match run with Some run -> add_str b "run" run | None -> ());
  add_str b "conn" r.id;
  add_str b "ev" (ev_name d f);
  let add k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%s" k v) in
  Array.iter
    (fun i ->
      match d.fields.(i) with
      | I64 k | Slot k -> add k (string_of_int f.ints.(i))
      | F64 k -> add k (json_float f.floats.(i))
      | Opt_f64 k -> add k (if f.ints.(i) <> 0 then json_float f.floats.(i) else "null")
      | Str k -> add_str b k f.strs.(i)
      | Flag k -> add k (string_of_bool (f.ints.(i) <> 0))
      | Retag _ -> ())
    d.json;
  Buffer.add_char b '}';
  Buffer.contents b

(* {1 Minimal flat-JSON-object parser}

   Only what the exporter above (and [Metrics.sample_to_json]) produces:
   one object per line, scalar values (string / number / bool / null),
   no nesting.  Hand-rolled because the repo deliberately has no JSON
   dependency.  Numbers keep their lexeme so that int fields are read
   as ints, not through a float. *)

type json_value = Jstr of string | Jnum of string | Jbool of bool | Jnull

exception Parse_error of string

let parse_flat_object line =
  let n = String.length line in
  let pos = ref 0 in
  let err msg = raise (Parse_error msg) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_while p =
    while !pos < n && p line.[!pos] do
      incr pos
    done
  in
  let skip_ws () = skip_while (function ' ' | '\t' | '\r' | '\n' -> true | _ -> false) in
  let expect c =
    if !pos < n && line.[!pos] = c then incr pos
    else err (Printf.sprintf "expected '%c' at offset %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then err "truncated escape";
            (match line.[!pos] with
            | 'u' ->
                if !pos + 4 >= n then err "truncated \\u escape";
                let hex = String.sub line (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> err "bad \\u escape"
                in
                pos := !pos + 4;
                (* Only BMP codepoints below 0x80 are emitted by our
                   exporter; decode others as '?' rather than UTF-8. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_char b '?'
            | c -> (
                match String.index_opt "\"\\/nrtbf" c with
                | Some i -> Buffer.add_char b "\"\\/\n\r\t\b\012".[i]
                | None -> err (Printf.sprintf "bad escape '\\%c'" c)));
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub line !pos k = word then begin
      pos := !pos + k;
      v
    end
    else err "bad literal"
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        skip_while (function
          | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
          | _ -> false);
        let s = String.sub line start (!pos - start) in
        if Option.is_none (float_of_string_opt s) then
          err (Printf.sprintf "bad number %S" s);
        Jnum s
    | Some c -> err (Printf.sprintf "unexpected '%c' at offset %d" c !pos)
    | None -> err "unexpected end of input"
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (if peek () = Some '}' then incr pos
     else
       let rec members () =
         skip_ws ();
         let key = parse_string () in
         skip_ws ();
         expect ':';
         let v = parse_value () in
         fields := (key, v) :: !fields;
         skip_ws ();
         match peek () with
         | Some ',' ->
             incr pos;
             members ()
         | Some '}' -> incr pos
         | _ -> err (Printf.sprintf "expected ',' or '}' at offset %d" !pos)
       in
       members ());
    skip_ws ();
    if !pos <> n then err "trailing garbage after object";
    Ok (List.rev !fields)
  with Parse_error msg -> Error msg

let field fields key = List.assoc_opt key fields

(* The value of [key] as read by [conv], which names its type [what]. *)
let get fields (what, conv) key =
  match Option.map conv (field fields key) with
  | Some (Some x) -> x
  | Some None -> raise (Parse_error (Printf.sprintf "field %S is not %s" key what))
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" key))

let int_v = ("an integer", function Jnum s -> int_of_string_opt s | _ -> None)
let float_v = ("a number", function Jnum s -> float_of_string_opt s | _ -> None)
let str_v = ("a string", function Jstr s -> Some s | _ -> None)
let bool_v = ("a bool", function Jbool b -> Some b | _ -> None)

(* Raised (internally) by the event decoder when the ["ev"] tag has no
   descriptor: the line is well-formed JSONL from a newer writer, not
   garbage, and forward-compat readers may skip it. *)
exception Unknown_ev of string

let record_of_json_ext line =
  Result.bind (parse_flat_object line) (fun fields ->
      let opt (_, conv) key = Option.bind (field fields key) conv in
      try
        let at = get fields int_v "at_ns" in
        let ev = get fields str_v "ev" in
        let run = opt str_v "run" in
        let id = Option.value (opt str_v "conn") ~default:"" in
        let d = try Hashtbl.find by_ev ev with Not_found -> raise (Unknown_ev ev) in
        let f = Domain.DLS.get frame_key in
        Array.iter
          (fun i ->
            match d.fields.(i) with
            | I64 k | Slot k -> f.ints.(i) <- get fields int_v k
            | F64 k -> f.floats.(i) <- get fields float_v k
            | Str k -> f.strs.(i) <- get fields str_v k
            | Flag k -> f.ints.(i) <- Bool.to_int (get fields bool_v k)
            | Retag k -> f.ints.(i) <- Bool.to_int (ev = k)
            | Opt_f64 k ->
                let v = opt float_v k in
                f.ints.(i) <- Bool.to_int (Option.is_some v);
                f.floats.(i) <- Option.value v ~default:0.0)
          d.json;
        Ok (run, { at; id; event = d.decode f })
      with Parse_error msg -> Error msg)

let record_of_json line =
  match record_of_json_ext line with
  | exception Unknown_ev other ->
      Error (Printf.sprintf "unknown event type %S" other)
  | r -> r

(* Stream a JSONL trace file without materializing it.  Missing or
   unreadable files and malformed lines are reported as [Error] (with
   the offending line number) so callers can exit non-zero with one
   clear message instead of silently doing nothing.

   [?unknown] opts into forward compatibility: well-formed lines whose
   ["ev"] tag this reader has no case for (a newer writer's event
   kinds) are skipped and reported to the callback instead of failing
   the fold.  Malformed lines still fail either way. *)
let fold_jsonl ?unknown path ~init ~f =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let fail line_no msg = Error (Printf.sprintf "%s: line %d: %s" path line_no msg) in
      let rec go line_no acc =
        match In_channel.input_line ic with
        | None -> Ok acc
        | Some line when String.trim line = "" -> go (line_no + 1) acc
        | Some line -> (
            match record_of_json_ext line with
            | Ok (run, r) -> go (line_no + 1) (f acc run r)
            | Error msg -> fail line_no msg
            | exception Unknown_ev ev -> (
                match unknown with
                | Some cb ->
                    cb ev;
                    go (line_no + 1) acc
                | None -> fail line_no (Printf.sprintf "unknown event type %S" ev)))
      in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 1 init)

let load_jsonl path =
  match
    fold_jsonl path ~init:[] ~f:(fun acc run r -> (run, r) :: acc)
  with
  | Error _ as e -> e
  | Ok [] -> Error (Printf.sprintf "%s: no trace records" path)
  | Ok rev -> Ok (List.rev rev)

(* {1 Binary trace format}

   A compact fixed-width encoding of the same records.  Layout (all
   integers little-endian):

     header   magic "e2ebtrc1" (8B) | version u16 | header_len u16
              | reserved u32                                   = 16 B
     records  kind u8 | flags u8 | id_ref u16 | at_ns i64
              | payload (the descriptor's fields, in order)
              | run_ref u16 when flags bit 7
     trailer  name table then string table, each entry
              u32 byte length + raw bytes
     footer   trailer_off i64 | n_records i64 | n_names u32
              | n_strs u32 | magic "e2ebtrcF" (8B)             = 32 B

   Connection ids and run labels are interned into the u16-indexed
   name table (at most 65536 distinct values); free-form strings
   (drop reasons, audit queue names, message tags/details) go into the
   u32-indexed string table.  Both tables are buffered in memory and
   written after the records, so the writer streams records with
   memory proportional to the number of distinct strings only, and a
   reader loads the tables from the footer before scanning records.

   Flags: bits 0-5 carry the descriptor's flag-bit fields in field
   order (PSH / retx, Nagle-enabled, latency-present, ...), bit 6
   ("wide") widens every u32-slot payload field of the record to i64
   when any value overflows 32 bits, bit 7 marks a trailing run-label
   reference.  i64 fields (stream offsets, cumulative totals,
   timestamps) and f64 fields (IEEE bits) always round-trip OCaml ints
   and floats exactly. *)

module Binary = struct
  let magic = "e2ebtrc1"
  let footer_magic = "e2ebtrcF"

  (* v2 added kinds 26/27 (Decision_made / Decision_outcome) and flag
     bit 2; v3 added kinds 28/29 (Conn_opened / Conn_closed); v4 added
     kinds 30/31 (Lb_assigned / Shard_enqueued).  v1..v3 files remain
     readable.

     Forward compatibility from v4 on: writers of any later version
     must encode kinds unknown to this reader with an explicit u16
     payload-length field immediately after the 12-byte record prefix
     (known kinds keep their fixed layouts), so a v4 reader given an
     [?unknown] callback can skip newer records instead of failing. *)
  let version = 4
  let min_read_version = 1
  let header_len = 16
  let footer_len = 32
  let flag_wide = 0x40
  let flag_run = 0x80
  let u32_ok v = v >= 0 && v <= 0xFFFF_FFFF

  (* An interning table: [Hashtbl.find] rather than [find_opt], so that
     a hit does not allocate. *)
  type table = { ids : (string, int) Hashtbl.t; mutable rev : string list; cap : int }

  let intern t s =
    match Hashtbl.find t.ids s with
    | i -> i
    | exception Not_found ->
        let i = Hashtbl.length t.ids in
        (* only the name table has a cap *)
        if i >= t.cap then
          failwith "Trace.Binary: more than 65536 distinct ids/run labels";
        Hashtbl.add t.ids s i;
        t.rev <- s :: t.rev;
        i

  type writer = {
    oc : out_channel;
    names : table;
    strs : table;
    buf : Bytes.t;  (** one record: prefix, payload and run ref *)
    frame : frame;
    mutable n_records : int;
    mutable finished : bool;
  }

  let writer oc =
    let b = Bytes.make (12 + (8 * max_fields) + 2) '\000' in
    Bytes.blit_string magic 0 b 0 8;
    Bytes.set_uint16_le b 8 version;
    Bytes.set_uint16_le b 10 header_len;
    output oc b 0 header_len;
    {
      oc;
      names = { ids = Hashtbl.create 64; rev = []; cap = 0x10000 };
      strs = { ids = Hashtbl.create 64; rev = []; cap = max_int };
      buf = b;
      frame = new_frame ();
      n_records = 0;
      finished = false;
    }

  (* Write [d]'s payload and flag bits from [f] into the record; the
     record length so far, or -1 when a slot needs the wide encoding. *)
  let payload w f d ~wide =
    let b = w.buf and offs = if wide then d.wide else d.narrow in
    let fits = ref true and flags = ref 0 in
    for i = 0 to Array.length d.fields - 1 do
      let o = 12 + offs.(i) and v = f.ints.(i) in
      match d.fields.(i) with
      | Slot _ when not wide ->
          if u32_ok v then Bytes.set_int32_le b o (Int32.of_int v) else fits := false
      | I64 _ | Slot _ -> Bytes.set_int64_le b o (Int64.of_int v)
      | F64 _ -> Bytes.set_int64_le b o (Int64.bits_of_float f.floats.(i))
      | Opt_f64 _ ->
          if v <> 0 then flags := !flags lor d.bits.(i);
          Bytes.set_int64_le b o (Int64.bits_of_float f.floats.(i))
      | Str _ -> Bytes.set_int32_le b o (Int32.of_int (intern w.strs f.strs.(i)))
      | Flag _ | Retag _ -> if v <> 0 then flags := !flags lor d.bits.(i)
    done;
    Bytes.set_uint8 b 1 !flags;
    if !fits then 12 + offs.(Array.length d.fields) else -1

  let write w ?run r =
    if w.finished then invalid_arg "Trace.Binary.write: writer is finished";
    let f = w.frame and b = w.buf in
    let d = encode f r.event in
    let narrow = payload w f d ~wide:false in
    let len = if narrow < 0 then payload w f d ~wide:true else narrow in
    let flags = ref (Bytes.get_uint8 b 1 lor (if narrow < 0 then flag_wide else 0)) in
    Bytes.set_uint8 b 0 d.kind;
    Bytes.set_uint16_le b 2 (intern w.names r.id);
    Bytes.set_int64_le b 4 (Int64.of_int (Time.to_ns r.at));
    (match run with
    | Some label ->
        flags := !flags lor flag_run;
        Bytes.set_uint16_le b len (intern w.names label)
    | None -> ());
    Bytes.set_uint8 b 1 !flags;
    output w.oc b 0 (if !flags land flag_run <> 0 then len + 2 else len);
    w.n_records <- w.n_records + 1

  let written w = w.n_records

  let finish w =
    if not w.finished then begin
      w.finished <- true;
      let b = w.buf in
      let trailer_off = LargeFile.pos_out w.oc in
      let emit_table t =
        List.iter
          (fun s ->
            Bytes.set_int32_le b 0 (Int32.of_int (String.length s));
            output w.oc b 0 4;
            output_string w.oc s)
          (List.rev t.rev)
      in
      emit_table w.names;
      emit_table w.strs;
      Bytes.set_int64_le b 0 trailer_off;
      Bytes.set_int64_le b 8 (Int64.of_int w.n_records);
      Bytes.set_int32_le b 16 (Int32.of_int (Hashtbl.length w.names.ids));
      Bytes.set_int32_le b 20 (Int32.of_int (Hashtbl.length w.strs.ids));
      Bytes.blit_string footer_magic 0 b 24 8;
      output w.oc b 0 footer_len;
      flush w.oc
    end

  (* {2 Reading} *)

  exception Corrupt of string

  let get_u32 by off = Int32.to_int (Bytes.get_int32_le by off) land 0xFFFF_FFFF
  let get_i64 by off = Int64.to_int (Bytes.get_int64_le by off)

  let is_binary path =
    let read_magic ic = In_channel.really_input_string ic 8 in
    match In_channel.with_open_bin path read_magic with
    | s -> s = Some magic
    | exception Sys_error _ -> false

  let fold_file ?unknown path ~init ~f =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic -> (
        let corrupt fmt =
          Printf.ksprintf (fun m -> raise (Corrupt (path ^ ": " ^ m))) fmt
        in
        let scratch = Bytes.create 64 in
        let read n =
          (try really_input ic scratch 0 n
           with End_of_file -> corrupt "truncated file");
          scratch
        in
        let result =
          try
            let size = in_channel_length ic in
            if size < header_len + footer_len then corrupt "file too short";
            let by = read 8 in
            if Bytes.sub_string by 0 8 <> magic then corrupt "bad magic";
            let by = read 8 in
            let v = Bytes.get_uint16_le by 0 in
            (* With an [?unknown] callback, files from newer writers are
               acceptable: their new kinds carry explicit lengths (see
               the version note above) and get skipped record by
               record.  Without one, stay strict. *)
            if v < min_read_version || (v > version && unknown = None) then
              corrupt "unsupported version %d" v;
            let hlen = Bytes.get_uint16_le by 2 in
            seek_in ic (size - footer_len);
            let by = read footer_len in
            if Bytes.sub_string by 24 8 <> footer_magic then
              corrupt "bad footer magic";
            let trailer_off = get_i64 by 0 in
            let n_records = get_i64 by 8 in
            let n_names = get_u32 by 16 in
            let n_strs = get_u32 by 20 in
            if trailer_off < hlen || trailer_off > size - footer_len then
              corrupt "trailer offset out of bounds";
            (* Refs to names are u16 and every table entry holds at least
               its 4-byte length: check the counts before allocating. *)
            if n_names > 0x10000 then corrupt "%d names exceed u16 refs" n_names;
            if 4 * (n_names + n_strs) > size - footer_len - trailer_off then
              corrupt "string table counts exceed the trailer";
            seek_in ic trailer_off;
            let read_table n =
              let a = Array.make n "" in
              for i = 0 to n - 1 do
                let len = get_u32 (read 4) 0 in
                if len > size then corrupt "bad table entry";
                let s = Bytes.create len in
                (try really_input ic s 0 len
                 with End_of_file -> corrupt "truncated table");
                a.(i) <- Bytes.unsafe_to_string s
              done;
              a
            in
            let names = read_table n_names in
            let strs = read_table n_strs in
            let lookup what table i =
              if i < Array.length table then table.(i)
              else corrupt "%s ref %d out of range" what i
            in
            let fr = Domain.DLS.get frame_key in
            seek_in ic hlen;
            let acc = ref init in
            for rec_no = 0 to n_records - 1 do
              let by = read 12 in
              let kind = Bytes.get_uint8 by 0 in
              let flags = Bytes.get_uint8 by 1 in
              let id_ref = Bytes.get_uint16_le by 2 in
              let at = get_i64 by 4 in
              let wide = flags land flag_wide <> 0 in
              if kind < Array.length by_kind then begin
                let d = by_kind.(kind) in
                let offs = if wide then d.wide else d.narrow in
                let by = read offs.(Array.length d.fields) in
                for i = 0 to Array.length d.fields - 1 do
                  let o = offs.(i) in
                  match d.fields.(i) with
                  | I64 _ -> fr.ints.(i) <- get_i64 by o
                  | Slot _ -> fr.ints.(i) <- if wide then get_i64 by o else get_u32 by o
                  | F64 _ | Opt_f64 _ ->
                      fr.ints.(i) <- flags land d.bits.(i);
                      fr.floats.(i) <- Int64.float_of_bits (Bytes.get_int64_le by o)
                  | Str _ -> fr.strs.(i) <- lookup "string" strs (get_u32 by o)
                  | Flag _ | Retag _ -> fr.ints.(i) <- flags land d.bits.(i)
                done;
                let event = d.decode fr in
                let run =
                  if flags land flag_run <> 0 then
                    Some (lookup "name" names (Bytes.get_uint16_le (read 2) 0))
                  else None
                in
                acc := f !acc run { at; id = lookup "name" names id_ref; event }
              end
              else
                match unknown with
                | Some cb ->
                    (* Newer-writer record: skip its explicit-length
                       payload and optional run ref, count it. *)
                    let plen = Bytes.get_uint16_le (read 2) 0 in
                    seek_in ic (pos_in ic + plen);
                    if flags land flag_run <> 0 then ignore (read 2);
                    cb (Printf.sprintf "kind %d" kind)
                | None -> corrupt "record %d: unknown kind %d" rec_no kind
            done;
            Ok !acc
          with
          | Corrupt msg -> Error msg
          | Sys_error msg -> Error msg
        in
        close_in ic;
        result)

  let load_file path =
    match fold_file path ~init:[] ~f:(fun acc run r -> (run, r) :: acc) with
    | Error _ as e -> e
    | Ok rev -> Ok (List.rev rev)
end

(* Fold over a trace file in either format, sniffing the binary magic. *)
let fold_file ?unknown path ~init ~f =
  if Binary.is_binary path then Binary.fold_file ?unknown path ~init ~f
  else fold_jsonl ?unknown path ~init ~f
