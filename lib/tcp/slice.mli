(** A read-only view of [len] bytes of an immutable string, starting at
    [off].  Segments, socket buffers and application writes carry
    payloads as slices, so splitting a payload is offset arithmetic and
    never a copy.  The bytes are shared with whoever made the base
    string: a string handed to {!Socket.send} must never be mutated
    afterwards (see DESIGN.md, "Byte path & ownership"). *)

type t = private { base : string; off : int; len : int }

val empty : t
val of_string : string -> t
(** The whole string, shared. *)

val length : t -> int

val total_length : t list -> int

val sub : t -> int -> int -> t
(** [sub t off len] is bytes [off, off + len) of [t], shared.
    @raise Invalid_argument when the range is outside [t]. *)

val to_string : t -> string
(** The bytes as a string: the base itself when the slice covers all
    of it, otherwise a copy. *)

val blit : t -> Bytes.t -> int -> unit
(** [blit t dst off] copies the slice into [dst] at [off]. *)
