(** RPC wire framing.

    A minimal length-prefixed request/response format in the spirit of
    gRPC-over-HTTP2's data frames or Thrift's framed transport — just
    enough structure for a framework to own message boundaries, which
    is exactly what the paper's §3.3 hint API needs from a framework:
    the runtime knows where requests begin and complete, so it can call
    create/complete without any application involvement.

    Layout (big-endian):
    {v u32 length | u8 kind | u64 id | [u16 mlen | method] | payload v}
    where the method field is present only in requests. *)

type t =
  | Request of { id : int64; meth : string; payload : string }
  | Response of { id : int64; payload : string }
  | Error_response of { id : int64; message : string }

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val id : t -> int64

val encode : t -> string
(** @raise Invalid_argument when a request's method name exceeds
    65535 bytes. *)

val encoded_length : t -> int

(** Incremental decoder over a TCP byte stream, reading frames in
    place from a {!Tcp.Readbuf} window. *)
module Decoder : sig
  type frame := t
  type t

  val create : unit -> t
  val feed : t -> string -> unit

  val feed_sub : t -> string -> int -> int -> unit
  (** [feed_sub t s off len] feeds bytes [off, off + len) of [s]: the
      callback for {!Tcp.Socket.recv_into}. *)

  val next : t -> (frame option, string) result
  (** [Ok None] until a whole frame is buffered; [Error _] on a
      malformed frame (the decoder stays failed). *)

  val buffered : t -> int
end

val decode_exactly : string -> (t, string) result
