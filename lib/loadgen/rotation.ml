type 'a t = { mutable items : 'a array; mutable len : int }

let create () = { items = [||]; len = 0 }
let length r = r.len

let get r k =
  if k < 0 || k >= r.len then invalid_arg "Rotation.get";
  r.items.(k)

let push r x =
  if r.len = Array.length r.items then begin
    (* [x] fills the fresh slots, so no option box per slot. *)
    let items = Array.make (max 16 (2 * r.len)) x in
    Array.blit r.items 0 items 0 r.len;
    r.items <- items
  end;
  r.items.(r.len) <- x;
  r.len <- r.len + 1

let remove_at r k =
  if k < 0 || k >= r.len then invalid_arg "Rotation.remove_at";
  Array.blit r.items (k + 1) r.items k (r.len - k - 1);
  r.len <- r.len - 1

let check r ~handle =
  for k = 1 to r.len - 1 do
    if handle r.items.(k) <= handle r.items.(k - 1) then
      failwith (Printf.sprintf "Rotation.check: position %d does not ascend" k)
  done
