(** Byte-stream FIFO carrying real payload bytes.

    Send and receive socket buffers.  Appended bytes are queued as
    {!Slice}s of the caller's strings, never copied; {!take} and
    {!drain} hand them on as slices, so bytes cross the socket without
    a copy.  Carrying actual bytes (not just counts) lets the RESP
    protocol layer parse genuine traffic. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val append : t -> string -> unit
(** Queue the whole string, shared. *)

val append_slice : t -> Slice.t -> unit

val read : t -> int -> string
(** [read t n] removes and returns [min n (length t)] bytes, copied. *)

val read_all : t -> string

val take : t -> int -> Slice.t
(** [take t n] removes [min n (length t)] bytes as one slice: a shared
    view when they lie in one queued slice, otherwise a fresh copy of
    just those bytes. *)

val drain : t -> (string -> int -> int -> unit) -> int
(** [drain t f] removes every byte, calling [f base off len] once per
    queued slice in stream order, and returns the byte count.  Nothing
    is copied. *)

val total_appended : t -> int
(** Lifetime bytes appended — conservation checks in tests. *)

val total_consumed : t -> int
