type timer = Event_heap.event

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  queue : Event_heap.t;
}

(* Ordering (earliest deadline first, FIFO among same-instant events
   via [seq]) lives inside Event_heap's inlined comparison.  The heap
   holds live events only: a disarmed timer leaves it at once, so its
   length is the pending count. *)
let create () = { clock = Time.zero; next_seq = 0; queue = Event_heap.create () }

let now t = t.clock

(* Every schedule and arm draws the next seq, so same-instant events
   fire in the order they were scheduled or armed. *)
let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_at t ~at action =
  if Time.compare at t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the simulated past";
  Event_heap.push t.queue { Event_heap.at; seq = fresh_seq t; action; pos = -1 }

let schedule t ~after action =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(Time.add t.clock after) action

let timer action = { Event_heap.at = Time.zero; seq = -1; action; pos = -1 }

(* Shared by every engine and domain: it is never armed, so nothing
   ever writes it. *)
let unset_timer = timer ignore
let armed = Event_heap.queued
let disarm t tm = Event_heap.remove t.queue tm

let arm t (tm : timer) ~after =
  if after < 0 then invalid_arg "Engine.arm: negative delay";
  if tm == unset_timer then invalid_arg "Engine.arm: unset_timer cannot be armed";
  Event_heap.remove t.queue tm;
  tm.at <- Time.add t.clock after;
  tm.seq <- fresh_seq t;
  Event_heap.push t.queue tm

let pending t = Event_heap.length t.queue

(* The event loop uses Event_heap's option-free [take]/[top] so that
   dispatching an event allocates nothing at all — the per-event [Some]
   boxes of peek/pop were the loop's last allocations, and they are
   paid once per simulated event. *)
let step t =
  if Event_heap.is_empty t.queue then false
  else begin
    let ev = Event_heap.take t.queue in
    t.clock <- ev.at;
    ev.action ();
    true
  end

let rec run t = if step t then run t

let rec run_until t deadline =
  if
    (not (Event_heap.is_empty t.queue))
    && Time.compare (Event_heap.top t.queue).at deadline <= 0
  then begin
    ignore (step t);
    run_until t deadline
  end
  else t.clock <- Time.max t.clock deadline

let check t = Event_heap.check t.queue
