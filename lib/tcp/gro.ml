type config = {
  enabled : bool;
  max_bytes : int;
  flush_timeout : Sim.Time.span;
  mss : int;
}

let default_config ~mss =
  { enabled = true; max_bytes = 64 * 1024; flush_timeout = Sim.Time.us 12; mss }

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  deliver : Segment.t list -> unit;
  held : Segment.t Queue.t;
  mutable held_bytes : int;
  mutable timer : Sim.Engine.timer;  (* made on first arm *)
  mutable batches : int;
  mutable segments : int;
}

let create engine cfg ~deliver =
  if cfg.max_bytes < cfg.mss then invalid_arg "Gro.create: max_bytes below one MSS";
  if cfg.flush_timeout <= 0 then invalid_arg "Gro.create: flush_timeout must be positive";
  {
    engine;
    cfg;
    deliver;
    held = Queue.create ();
    held_bytes = 0;
    timer = Sim.Engine.unset_timer;
    batches = 0;
    segments = 0;
  }

let flush t =
  Sim.Engine.disarm t.engine t.timer;
  if not (Queue.is_empty t.held) then begin
    let batch = List.of_seq (Queue.to_seq t.held) in
    Queue.clear t.held;
    t.held_bytes <- 0;
    t.batches <- t.batches + 1;
    t.deliver batch
  end

let submit t seg =
  t.segments <- t.segments + 1;
  if not t.cfg.enabled then begin
    t.batches <- t.batches + 1;
    t.deliver [ seg ]
  end
  else begin
    let len = Segment.len seg in
    if t.held_bytes + len > t.cfg.max_bytes then flush t;
    Queue.add seg t.held;
    t.held_bytes <- t.held_bytes + len;
    (* Only a full-sized data segment can keep a batch open; short
       tails and pure acks terminate it. *)
    if len < t.cfg.mss then flush t
    else if not (Sim.Engine.armed t.timer) then begin
      if t.timer == Sim.Engine.unset_timer then
        t.timer <- Sim.Engine.timer (fun () -> flush t);
      Sim.Engine.arm t.engine t.timer ~after:t.cfg.flush_timeout
    end
  end

let pending t = Queue.length t.held
let batches t = t.batches
let segments t = t.segments

let merge_ratio t =
  if t.batches = 0 then 0.0 else float_of_int t.segments /. float_of_int t.batches
