type event = {
  mutable at : Time.t;
  mutable seq : int;
  action : unit -> unit;
  mutable pos : int;
}

type t = {
  mutable data : event array;
  mutable size : int;
  sentinel : event;  (** fills vacated and never-used slots *)
}

let create () =
  let sentinel = { at = Time.zero; seq = -1; action = ignore; pos = -1 } in
  { data = [||]; size = 0; sentinel }

let length h = h.size
let is_empty h = h.size = 0
let queued (ev : event) = ev.pos >= 0

(* Time.t and seq are plain ints, so this compiles to unboxed integer
   compares — the whole point of the specialization. *)
let[@inline] before (a : event) (b : event) =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap h.sentinel in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Both sifts move [ev] through a hole instead of swapping, and store
   every element's new slot in its [pos] as it moves. *)
let rec sift_up h i ev =
  let parent = (i - 1) / 2 in
  if i > 0 && before ev h.data.(parent) then begin
    let p = h.data.(parent) in
    h.data.(i) <- p;
    p.pos <- i;
    sift_up h parent ev
  end
  else begin
    h.data.(i) <- ev;
    ev.pos <- i
  end

let rec sift_down h i ev =
  let l = (2 * i) + 1 in
  if l >= h.size then begin
    h.data.(i) <- ev;
    ev.pos <- i
  end
  else begin
    let r = l + 1 in
    let c = if r < h.size && before h.data.(r) h.data.(l) then r else l in
    let child = h.data.(c) in
    if before child ev then begin
      h.data.(i) <- child;
      child.pos <- i;
      sift_down h c ev
    end
    else begin
      h.data.(i) <- ev;
      ev.pos <- i
    end
  end

let push h ev =
  if queued ev then invalid_arg "Event_heap.push: event already queued";
  grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) ev

let peek h = if h.size = 0 then None else Some h.data.(0)

(* Option-free accessors for the engine's event loop: with Time.t a
   plain int, [top]/[take] allocate nothing, where [peek]/[pop] box a
   [Some] per call — which was the engine's last per-event allocation.
   Callers must check [is_empty] first; on an empty heap both return
   the (never queued) sentinel. *)
let top h = if h.size = 0 then h.sentinel else h.data.(0)

(* Detach the element in slot [i] and refill the hole with the last
   element.  The vacated last slot gets the sentinel, so the removed
   event's action closure does not linger in the array. *)
let remove_at h i =
  let ev = h.data.(i) in
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let moved = h.data.(last) in
    h.data.(last) <- h.sentinel;
    if i > 0 && before moved h.data.((i - 1) / 2) then sift_up h i moved
    else sift_down h i moved
  end
  else h.data.(last) <- h.sentinel;
  ev.pos <- -1;
  ev

let take h = if h.size = 0 then h.sentinel else remove_at h 0
let pop h = if h.size = 0 then None else Some (remove_at h 0)
let remove h ev = if queued ev then ignore (remove_at h ev.pos)

let clear h =
  for i = 0 to h.size - 1 do
    h.data.(i).pos <- -1
  done;
  Array.fill h.data 0 h.size h.sentinel;
  h.size <- 0

let check h =
  for i = 0 to h.size - 1 do
    let ev = h.data.(i) in
    if ev.pos <> i then
      failwith (Printf.sprintf "Event_heap.check: slot %d holds pos %d" i ev.pos);
    if i > 0 && before ev h.data.((i - 1) / 2) then
      failwith (Printf.sprintf "Event_heap.check: slot %d precedes its parent" i)
  done
