type t = {
  chunks : Slice.t Queue.t;
  mutable head_off : int;  (* consumed prefix of the front slice *)
  mutable len : int;
  mutable appended : int;
  mutable consumed : int;
}

let create () =
  { chunks = Queue.create (); head_off = 0; len = 0; appended = 0; consumed = 0 }

let length t = t.len
let is_empty t = t.len = 0

let append_slice t (s : Slice.t) =
  if s.len > 0 then begin
    Queue.add s t.chunks;
    t.len <- t.len + s.len;
    t.appended <- t.appended + s.len
  end

let append t s = if String.length s > 0 then append_slice t (Slice.of_string s)

(* Remove [n] bytes, [0 < n <= length t], from the front slice onward,
   handing each piece to [f base off len]. *)
let consume t n f =
  let left = ref n in
  while !left > 0 do
    let (s : Slice.t) = Queue.peek t.chunks in
    let avail = s.len - t.head_off in
    let take = Stdlib.min avail !left in
    f s.base (s.off + t.head_off) take;
    left := !left - take;
    if take = avail then begin
      ignore (Queue.pop t.chunks);
      t.head_off <- 0
    end
    else t.head_off <- t.head_off + take
  done;
  t.len <- t.len - n;
  t.consumed <- t.consumed + n

let read t n =
  let n = Stdlib.min n t.len in
  if n = 0 then ""
  else begin
    let buf = Bytes.create n in
    let filled = ref 0 in
    consume t n (fun base off len ->
        Bytes.blit_string base off buf !filled len;
        filled := !filled + len);
    Bytes.unsafe_to_string buf
  end

let read_all t = read t t.len

let take t n =
  let n = Stdlib.min n t.len in
  if n = 0 then Slice.empty
  else begin
    let front = Queue.peek t.chunks in
    if n <= front.len - t.head_off then begin
      let s = Slice.sub front t.head_off n in
      consume t n (fun _ _ _ -> ());
      s
    end
    else Slice.of_string (read t n)
  end

let drain t f =
  let n = t.len in
  if n > 0 then consume t n f;
  n

let total_appended t = t.appended
let total_consumed t = t.consumed
