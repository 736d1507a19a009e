(** RESP2 — the Redis serialization protocol.

    Implemented for wire realism: the simulated Redis server and client
    exchange genuine RESP traffic, so message sizes (and hence what
    Nagle sees) match the paper's workload. *)

type value =
  | Simple of string  (** [+OK\r\n] *)
  | Error of string  (** [-ERR ...\r\n] *)
  | Integer of int  (** [:42\r\n] *)
  | Bulk of string option  (** [$5\r\nhello\r\n]; [None] is the nil bulk *)
  | Array of value list option  (** [*2\r\n...]; [None] is the nil array *)

val equal : value -> value -> bool
val pp : Format.formatter -> value -> unit

val encode : value -> string
(** The wire bytes, in one string of exactly {!encoded_length} bytes. *)

val encode_parts : value -> Tcp.Slice.t list
(** The same bytes as {!encode}, as parts for one {!Tcp.Socket.sendv}:
    bulk bodies of 4 KiB or more are passed by reference, not copied,
    between slices of one exactly-sized string holding everything else
    (headers, CRLFs, small values).  A value without such a body is one
    part. *)

val encoded_length : value -> int
(** [String.length (encode v)] without building the string. *)

(** Incremental parser for a TCP byte stream: feed arbitrary chunks,
    pop complete values as they become available.  It parses in place
    over a {!Tcp.Readbuf} window: fed bytes are blitted into the
    window, and the only fresh copy of a bulk body is the string it
    returns. *)
module Parser : sig
  type t

  val create : unit -> t

  val feed : t -> string -> unit

  val feed_sub : t -> string -> int -> int -> unit
  (** [feed_sub t s off len] feeds bytes [off, off + len) of [s]: the
      callback for {!Tcp.Socket.recv_into}. *)

  val next : t -> (value option, string) result
  (** [Ok None] when the buffered bytes do not yet form a complete
      value; [Error _] on protocol violations (parsing cannot continue
      afterwards), including bulk lengths over 512 MiB and integers
      outside the [int] range.  While a value is known to be missing
      bytes, [next] returns [Ok None] in O(1) without allocating. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by returned values. *)
end

val parse_exactly : string -> (value, string) result
(** Parse a string expected to contain exactly one value. *)
