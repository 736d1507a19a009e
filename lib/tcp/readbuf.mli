(** An application's read buffer: one contiguous byte window that
    incremental protocol parsers ([Kv.Resp.Parser],
    [Rpc.Frame.Decoder]) fill by blitting and parse in place.

    Bytes arrive with {!feed_sub}, straight from {!Socket.recv_into};
    the window compacts by blitting and grows only when the live bytes
    outgrow it.  A parser that finds its message incomplete records how
    many bytes it needs with {!await}; {!ready} then stays false, an
    O(1) check, until that many have arrived, so a large value fed in
    MSS-sized pieces is scanned once, not once per piece. *)

type t

val create : unit -> t
(** Allocates no window until the first feed. *)

val feed : t -> string -> unit

val feed_sub : t -> string -> int -> int -> unit
(** [feed_sub t s off len] appends bytes [off, off + len) of [s]. *)

val length : t -> int
(** Bytes fed and not yet consumed. *)

val get : t -> int -> char
(** [get t i] is the [i]-th unconsumed byte, for [0 <= i < length t]
    (beyond that, the result is unspecified or [Invalid_argument]). *)

val sub_string : t -> int -> int -> string
(** [sub_string t off len]: a fresh copy of unconsumed bytes
    [off, off + len). *)

val consume : t -> int -> unit
(** Drop the first [n] unconsumed bytes: a whole message was taken.
    Clears the {!await} mark. *)

val await : t -> int -> unit
(** [await t n]: the pending message needs [length t >= n].  Besides
    gating {!ready}, a known size lets growth allocate the window the
    message needs instead of doubling past it. *)

val ready : t -> bool
(** Some bytes are buffered, and at least as many as the last {!await}
    mark asked for ({!consume} clears the mark). *)
