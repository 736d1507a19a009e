(** Monomorphic binary min-heap specialized for engine events.

    Ordering is the inlined [(at, seq)] integer comparison (earliest
    deadline first, FIFO among same-instant events), with no function
    pointer in sight.

    Every event records its own slot in [pos], so a queued event can be
    removed, or given a new key and pushed again, in O(log n) without a
    search.  The engine relies on this to keep only live events queued:
    a cancelled timer leaves the heap at once instead of waiting for its
    deadline.

    Vacated slots are overwritten with a per-heap sentinel on [take],
    [remove] and [clear], so a fired or removed event's action closure —
    which can capture sockets, connections, whole simulation worlds —
    becomes collectable as soon as it leaves the queue. *)

type event = {
  mutable at : Time.t;
  mutable seq : int;
  action : unit -> unit;
  mutable pos : int;
      (** the event's slot in the heap holding it, or [-1] when it is not
          queued.  Build events with [pos = -1]; only the heap writes
          it. *)
}
(** [at] and [seq] may be changed only while the event is not queued. *)

type t

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val queued : event -> bool
(** [pos >= 0]. *)

val push : t -> event -> unit
(** @raise Invalid_argument if the event is already queued. *)

val peek : t -> event option
(** Earliest event without removing it. *)

val pop : t -> event option
(** Remove and return the earliest event.  The slot it occupied is
    cleared. *)

val top : t -> event
(** Option-free [peek] for the engine's hot loop: no allocation.
    Returns the heap's sentinel ([pos = -1]) when empty — callers must
    check {!is_empty} first to distinguish. *)

val take : t -> event
(** Option-free [pop]: removes and returns the earliest event without
    boxing it, clearing the vacated slot.  Returns the sentinel when
    empty — check {!is_empty} first. *)

val remove : t -> event -> unit
(** Remove a queued event from the heap that holds it: the last element
    fills its slot and sifts up or down.  A no-op when the event is not
    queued. *)

val clear : t -> unit
(** Drop every queued event, overwriting all live slots with the
    sentinel so their action closures are immediately collectable. *)

val check : t -> unit
(** Verify that every queued event's [pos] is its slot and that no
    event precedes its parent.  For tests.
    @raise Failure naming the first broken slot. *)
