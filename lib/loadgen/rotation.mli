(** A tenant's issue rotation: the connections that accept new
    requests, in ascending handle order.

    A fleet tenant issues round-robin over this sequence.  Handles
    grow with spawn order and are never reused, so a spawned connection
    always belongs at the end: {!push} appends in amortised O(1).  A
    departing connection leaves with {!remove_at}, which closes the gap
    with one blit and keeps the order — churn never rebuilds the
    sequence from the whole population. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument outside [0, length). *)

val push : 'a t -> 'a -> unit
(** Append; the caller guarantees its handle exceeds every present
    one (checked only by {!check}). *)

val remove_at : 'a t -> int -> unit
(** Remove position [k], shifting the later ones down by one.
    @raise Invalid_argument outside [0, length). *)

val check : 'a t -> handle:('a -> int) -> unit
(** Verify that handles strictly ascend along the rotation.  For tests.
    @raise Failure naming the first position out of order. *)
