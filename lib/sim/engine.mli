(** Discrete-event simulation engine.

    A deterministic single-threaded event loop over simulated time.
    Events scheduled for the same instant fire in schedule order (FIFO),
    which makes every run bit-reproducible for a given seed and
    workload.

    One-shot events are fire-and-forget ({!schedule}).  Anything that
    may be cancelled or pushed back is a {!timer}: one record, created
    once with its action, that is armed, re-armed and disarmed in place.
    A disarmed timer leaves the queue at once, so the queue holds live
    events only. *)

type t

val create : unit -> t
(** Fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> after:Time.span -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + after].  [after] must be
    non-negative.  @raise Invalid_argument on a negative delay. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> unit
(** Absolute-time variant.  [at] must not be in the simulated past. *)

(** {1 Timers} *)

type timer
(** A re-armable event.  A timer belongs to the one engine it is armed
    on. *)

val timer : (unit -> unit) -> timer
(** A disarmed timer that runs the given action whenever it fires. *)

val unset_timer : timer
(** A placeholder for an owner that makes its timer on first use, so
    that an object which never arms one allocates none.  It is never
    armed: {!armed} is [false], {!disarm} is a no-op, and {!arm}
    raises [Invalid_argument]. *)

val arm : t -> timer -> after:Time.span -> unit
(** [arm t tm ~after] makes [tm] fire at [now t + after], replacing any
    deadline it had.  It takes its FIFO place among same-instant events
    as of this call, exactly as a fresh {!schedule} would.  Allocates
    nothing.  @raise Invalid_argument on a negative delay or on
    {!unset_timer}. *)

val disarm : t -> timer -> unit
(** Remove an armed timer from the queue.  A no-op when the timer is
    not armed, including after it has fired. *)

val armed : timer -> bool
(** [true] from {!arm} until the timer fires or is disarmed.  A timer's
    own action runs with the timer disarmed, so it may re-arm it. *)

val pending : t -> int
(** Number of events scheduled or armed and not yet fired or
    disarmed. *)

val step : t -> bool
(** Fire the earliest pending event, advancing the clock to its time.
    Returns [false] when no events remain. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> Time.t -> unit
(** Fire every event scheduled strictly before or at the given time,
    then advance the clock to exactly that time. *)

val check : t -> unit
(** Verify the event queue's invariants: every queued event knows its
    own slot, and no event precedes its parent.  For tests.
    @raise Failure on the first broken slot. *)
