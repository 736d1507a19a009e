type t = {
  mutable win : Bytes.t;
  mutable lo : int;  (* first unconsumed byte *)
  mutable hi : int;  (* end of the buffered bytes *)
  mutable want : int;  (* bytes the pending message needs from [lo]; 0 = unknown *)
}

(* Nothing is allocated until the first feed: a connection that never
   receives costs only this record. *)
let create () = { win = Bytes.empty; lo = 0; hi = 0; want = 0 }

let length t = t.hi - t.lo
let ready t = t.hi > t.lo && t.hi - t.lo >= t.want
let await t n = t.want <- n

let min_size = 256

(* A window larger than this is released once it drains, so one huge
   message does not pin its window for the life of the connection. *)
let max_retained = 64 * 1024

(* Make room for [len] more bytes.  Compaction moves the live bytes to
   the front; it runs only when that frees at least as much as it
   copies, or when a new window would be no larger, so its cost stays
   linear in the bytes fed.  Growth doubles, except while the pending
   message's size is known: then it heads for exactly that size, but
   never past four times what has arrived, so a peer claiming a huge
   length cannot make the window outgrow the data it actually sent. *)
let make_room t len =
  let live = t.hi - t.lo in
  let needed = live + len in
  let cap = Bytes.length t.win in
  let grown =
    if t.want > needed then Stdlib.min t.want (4 * needed)
    else Stdlib.max min_size (2 * needed)
  in
  if needed <= cap && (t.lo >= live || grown <= cap) then
    Bytes.blit t.win t.lo t.win 0 live
  else begin
    let w = Bytes.create grown in
    Bytes.blit t.win t.lo w 0 live;
    t.win <- w
  end;
  t.lo <- 0;
  t.hi <- live

let feed_sub t s off len =
  if len > 0 then begin
    if t.hi + len > Bytes.length t.win then make_room t len;
    Bytes.blit_string s off t.win t.hi len;
    t.hi <- t.hi + len
  end

let feed t s = feed_sub t s 0 (String.length s)

let get t i = Bytes.get t.win (t.lo + i)
let sub_string t off len = Bytes.sub_string t.win (t.lo + off) len

let consume t n =
  t.lo <- t.lo + n;
  t.want <- 0;
  if t.lo = t.hi then begin
    t.lo <- 0;
    t.hi <- 0;
    if Bytes.length t.win > max_retained then t.win <- Bytes.empty
  end
