(* Layer probes: each times calls into one layer's public functions,
   with inputs shaped by a workload, from outside the program.  A
   probe's cost per call times the traced run's per-request count of
   such calls is the layer's attributed share of host time. *)

type cost = {
  ns : float;  (** host ns per operation, median over batches *)
  words : float;  (** words allocated per operation (minor + direct major) *)
  major_words : float;  (** words reaching the major heap per operation *)
}

let allocated (a : Gc.stat) (b : Gc.stat) =
  b.minor_words -. a.minor_words +. (b.major_words -. a.major_words)
  -. (b.promoted_words -. a.promoted_words)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One call of [f] performs [ops] operations.  Calls are batched until a
   batch lasts 20 ms; the cost is the median over [batches] batches,
   after one untimed warm-up call, in nominal host ns (see {!Clock}). *)
let measure ?(batches = 5) ~ops f =
  f ();
  let run calls =
    let s0 = Gc.quick_stat () in
    let t0 = Clock.now () in
    for _ = 1 to calls do
      f ()
    done;
    let t1 = Clock.now () in
    let s1 = Gc.quick_stat () in
    (t1 -. t0, s0, s1)
  in
  let rec calibrate calls =
    let dt, _, _ = run calls in
    if dt >= 0.02 || calls >= 1 lsl 24 then calls else calibrate (calls * 2)
  in
  let calls = calibrate 1 in
  let per_op = float_of_int (calls * ops) in
  let speed = Clock.speed () in
  let samples = List.init batches (fun _ -> run calls) in
  let ns = median (List.map (fun (dt, _, _) -> dt *. speed *. 1e9 /. per_op) samples) in
  let _, s0, s1 = List.hd samples in
  {
    ns;
    words = allocated s0 s1 /. per_op;
    major_words = (s1.major_words -. s0.major_words) /. per_op;
  }

let mss = 1448
let at_ns ns = Sim.Time.add Sim.Time.zero (Sim.Time.ns ns)

let chunks_of s n =
  let len = String.length s in
  List.init ((len + n - 1) / n) (fun i -> String.sub s (i * n) (min n (len - (i * n))))

(** The encoded request a workload sends, built through the command
    generator the simulator uses, and the reply the server sends back. *)
let request_of (wl : Loadgen.Workload.t) =
  let cmd = Loadgen.Workload.next_command wl ~rng:(Sim.Rng.create ~seed:1) in
  let store = Kv.Store.create () in
  Loadgen.Workload.prepopulate wl store ~now:Sim.Time.zero;
  ( cmd,
    Kv.Resp.encode (Kv.Command.to_resp cmd),
    Kv.Resp.encode (Kv.Command.execute store ~now:Sim.Time.zero cmd) )

let rec drain p n =
  match Kv.Resp.Parser.next p with
  | Ok (Some _) -> drain p (n + 1)
  | Ok None -> n
  | Error e -> failwith ("kv.resp probe: " ^ e)

(* [msg] repeated, parsed as it arrives in deliveries of [chunk] bytes
   (the mean the traced run saw; [chunk < 1] means one per message).
   One operation is one message. *)
let parse_stream msg ~chunk =
  let len = String.length msg in
  let chunk = if chunk >= 1. then int_of_float (Float.round chunk) else len in
  let reps = max 4 (min 256 ((4 * chunk + len - 1) / len)) in
  let pieces = chunks_of (String.concat "" (List.init reps (fun _ -> msg))) chunk in
  let p = Kv.Resp.Parser.create () in
  let values = ref 0 in
  let c =
    measure ~ops:reps (fun () ->
        List.iter
          (fun piece ->
            Kv.Resp.Parser.feed p piece;
            values := drain p !values)
          pieces)
  in
  if !values mod reps <> 0 || Kv.Resp.Parser.buffered p <> 0 then
    failwith "kv.resp probe: stream did not parse into whole messages";
  c

(** kv.resp: the server parses requests and the client parses replies,
    each fed in the delivery sizes the workload's sockets receive.  One
    operation is one request. *)
let resp wl ~srv_chunk ~cli_chunk =
  let cmd, request, reply = request_of wl in
  let p = Kv.Resp.Parser.create () in
  Kv.Resp.Parser.feed p request;
  (match Kv.Resp.Parser.next p with
  | Ok (Some v) when Kv.Command.of_resp v = Ok cmd -> ()
  | _ -> failwith "kv.resp probe: the request did not parse back");
  let s = parse_stream request ~chunk:srv_chunk in
  let c = parse_stream reply ~chunk:cli_chunk in
  { ns = s.ns +. c.ns; words = s.words +. c.words; major_words = s.major_words +. c.major_words }

(** tcp.bytebuf: what a socket pair does with one request and its
    reply — the sender appends the write and slices MSS segments off
    it, the receiver appends each segment and the application reads
    everything buffered.  One operation is one request. *)
let bytebuf wl =
  let _, request, reply = request_of wl in
  let snd = Tcp.Bytebuf.create () and rcv = Tcp.Bytebuf.create () in
  let carry msg =
    Tcp.Bytebuf.append snd msg;
    while not (Tcp.Bytebuf.is_empty snd) do
      Tcp.Bytebuf.append rcv (Tcp.Bytebuf.read snd mss)
    done;
    if String.length (Tcp.Bytebuf.read rcv (Tcp.Bytebuf.length rcv)) <> String.length msg
    then failwith "tcp.bytebuf probe: bytes lost"
  in
  let c =
    measure ~ops:1 (fun () ->
        carry request;
        carry reply)
  in
  (c, float_of_int (String.length request + String.length reply) /. 1024.)

(** tcp.transfer: a bare connection pair on its own engine moves
    request/reply exchanges, [batch] requests per client write (the
    requests per server delivery the workload saw) — segmentation,
    acks, delayed-ack timers, GRO, the link and the engine events they
    need, with no application, parser or metadata exchange.  One
    operation is one request. *)
let transfer ~batch wl =
  let _, request, reply = request_of wl in
  let req_len = String.length request and rep_len = String.length reply in
  let burst = String.concat "" (List.init batch (fun _ -> request)) in
  let replies = Array.init (batch + 1) (fun n -> String.concat "" (List.init n (fun _ -> reply))) in
  let socket =
    (* Every workload's client starts with Nagle off: [Static_off], or
       the TCP_NODELAY start of dynamic control. *)
    { Tcp.Socket.default_config with nagle = false; exchange = E2e.Exchange.On_demand }
  in
  let host = { Tcp.Conn.default_host with socket } in
  let requests = batch * max 1 (64 / batch) in
  let once () =
    let engine = Sim.Engine.create () in
    let conn = Tcp.Conn.create engine ~a:host ~b:host () in
    let cli = Tcp.Conn.sock_a conn and srv = Tcp.Conn.sock_b conn in
    let srv_got = ref 0 and cli_got = ref 0 and completed = ref 0 in
    let take sock got =
      got := !got + String.length (Tcp.Socket.recv sock (Tcp.Socket.recv_available sock))
    in
    Tcp.Socket.on_readable srv (fun () ->
        take srv srv_got;
        let n = !srv_got / req_len in
        if n > 0 then begin
          srv_got := !srv_got - (n * req_len);
          Tcp.Socket.send srv replies.(n)
        end);
    Tcp.Socket.on_readable cli (fun () ->
        take cli cli_got;
        while !cli_got >= rep_len do
          cli_got := !cli_got - rep_len;
          incr completed;
          if !completed mod batch = 0 && !completed < requests then Tcp.Socket.send cli burst
        done);
    Tcp.Socket.send cli burst;
    Sim.Engine.run engine;
    if !completed <> requests then failwith "tcp.transfer probe: requests lost"
  in
  measure ~ops:requests once

(** sim.engine: schedule + dispatch at a steady pending depth; every
    fired event schedules its successor. *)
let engine ~depth =
  let e = Sim.Engine.create () in
  let delays = Array.init 1024 (fun i -> Sim.Time.ns (1 + (i * 7919 mod 100_000))) in
  let k = ref 0 in
  let rec fire () =
    incr k;
    ignore (Sim.Engine.schedule e ~after:delays.(!k land 1023) fire)
  in
  for i = 1 to depth do
    ignore (Sim.Engine.schedule e ~after:delays.(i land 1023) fire)
  done;
  let steps = 4096 in
  measure ~ops:steps (fun () ->
      for _ = 1 to steps do
        ignore (Sim.Engine.step e)
      done)

(** core.share: one 36-byte exchange — the sender's snapshot, the wire
    codec round trip, and the receiver's ingest. *)
let share () =
  let a = E2e.Estimator.create ~at:Sim.Time.zero in
  let b = E2e.Estimator.create ~at:Sim.Time.zero in
  let now = ref 0 and up = ref false in
  measure ~ops:1 (fun () ->
      now := !now + 10_000;
      up := not !up;
      let at = at_ns !now in
      E2e.Estimator.track_unacked a ~at (if !up then 1 else -1);
      match E2e.Exchange.decode (E2e.Exchange.encode (E2e.Estimator.local_snapshot a ~at)) with
      | Ok triple -> E2e.Estimator.ingest_remote b ~at triple
      | Error e -> failwith ("core.share probe: " ^ e))

(** core.estimate: closing one estimation window, after one local queue
    change and one remote share. *)
let estimate () =
  let a = E2e.Estimator.create ~at:Sim.Time.zero in
  let b = E2e.Estimator.create ~at:Sim.Time.zero in
  let now = ref 0 and sign = ref (-1) in
  measure ~ops:1 (fun () ->
      now := !now + 100_000;
      sign := - !sign;
      let at = at_ns !now in
      E2e.Estimator.track_unacked a ~at !sign;
      E2e.Estimator.track_unread b ~at !sign;
      E2e.Estimator.ingest_remote a ~at (E2e.Estimator.local_snapshot b ~at);
      ignore (Sys.opaque_identity (E2e.Estimator.estimate a ~at)))

(** shard.assign: front-LB assignment plus RSS steering lookup for
    every connection label of a fleet. *)
let shard ~labels ~shards ~policy =
  measure ~ops:(Array.length labels) (fun () ->
      let lb = Shard.Lb.create ~policy ~shards in
      let steer = Shard.Steer.create ~shards in
      Array.iter
        (fun key ->
          ignore (Shard.Lb.assign lb ~key);
          ignore (Shard.Steer.lookup steer key))
        labels)

type trace_costs = {
  write : cost;  (** per record *)
  bytes_per_record : float;
  fold : cost;  (** per record *)
  span_feed : cost;  (** per record *)
}

(** trace/span: write a window of this workload's records as a binary
    trace, fold the file back, and feed the records to the streaming
    span builder. *)
let trace records =
  let n = Array.length records in
  if n = 0 then failwith "trace probe: no records";
  let path = Workloads.tmp_path "layer.bin" in
  let write () =
    let oc = open_out_bin path in
    let w = Sim.Trace.Binary.writer oc in
    Array.iter (fun r -> Sim.Trace.Binary.write w r) records;
    Sim.Trace.Binary.finish w;
    close_out oc
  in
  let write_c = measure ~batches:3 ~ops:n write in
  let bytes = (Unix.stat path).Unix.st_size in
  let folded = ref 0 in
  let fold () =
    match Sim.Trace.fold_file path ~init:0 ~f:(fun k _ _ -> k + 1) with
    | Ok k -> folded := k
    | Error e -> failwith ("trace probe: " ^ e)
  in
  let fold_c = measure ~batches:3 ~ops:n fold in
  if !folded <> n then failwith "trace probe: fold lost records";
  let feed () =
    let s = Sim.Span.Streaming.create () in
    Array.iter (fun r -> ignore (Sim.Span.Streaming.feed s r)) records
  in
  let feed_c = measure ~batches:3 ~ops:n feed in
  Sys.remove path;
  {
    write = write_c;
    bytes_per_record = float_of_int bytes /. float_of_int n;
    fold = fold_c;
    span_feed = feed_c;
  }
