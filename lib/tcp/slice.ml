type t = { base : string; off : int; len : int }

let empty = { base = ""; off = 0; len = 0 }
let of_string s = { base = s; off = 0; len = String.length s }

let length t = t.len
let total_length ts = List.fold_left (fun acc t -> acc + t.len) 0 ts

let sub t off len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Slice.sub";
  if off = 0 && len = t.len then t else { t with off = t.off + off; len }

let to_string t =
  if t.off = 0 && t.len = String.length t.base then t.base
  else String.sub t.base t.off t.len

let blit t dst dst_off = Bytes.blit_string t.base t.off dst dst_off t.len
