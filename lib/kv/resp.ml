type value =
  | Simple of string
  | Error of string
  | Integer of int
  | Bulk of string option
  | Array of value list option

let rec equal a b =
  match (a, b) with
  | Simple x, Simple y | Error x, Error y -> String.equal x y
  | Integer x, Integer y -> x = y
  | Bulk x, Bulk y -> Option.equal String.equal x y
  | Array x, Array y -> Option.equal (List.equal equal) x y
  | (Simple _ | Error _ | Integer _ | Bulk _ | Array _), _ -> false

let rec pp ppf = function
  | Simple s -> Format.fprintf ppf "+%s" s
  | Error s -> Format.fprintf ppf "-%s" s
  | Integer i -> Format.fprintf ppf ":%d" i
  | Bulk None -> Format.pp_print_string ppf "(nil)"
  | Bulk (Some s) ->
    if String.length s <= 32 then Format.fprintf ppf "%S" s
    else Format.fprintf ppf "<bulk:%d bytes>" (String.length s)
  | Array None -> Format.pp_print_string ppf "(nil array)"
  | Array (Some vs) ->
    Format.fprintf ppf "[@[<h>%a@]]" (Format.pp_print_list ~pp_sep:(fun ppf () ->
        Format.pp_print_string ppf "; ") pp) vs

(* {2 Encoding}

   Every encoder sizes its output exactly ([inline_length]) and writes
   it with [write]; nothing is built twice or grown. *)

(* Decimal width of [n], sign included, without allocating. *)
let int_width n =
  let rec go n w = if n > -10 && n < 10 then w else go (n / 10) (w + 1) in
  go n (if n < 0 then 2 else 1)

let put_int b pos n =
  let w = int_width n in
  if n < 0 then Bytes.set b pos '-';
  let rec go n i =
    Bytes.set b i (Char.chr (48 + abs (n mod 10)));
    if n / 10 <> 0 then go (n / 10) (i - 1)
  in
  go n (pos + w - 1);
  pos + w

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_crlf b pos =
  Bytes.set b pos '\r';
  Bytes.set b (pos + 1) '\n';
  pos + 2

let put_header b pos c n =
  Bytes.set b pos c;
  put_crlf b (put_int b (pos + 1) n)

let put_line b pos c s =
  Bytes.set b pos c;
  put_crlf b (put_string b (pos + 1) s)

(* Bulk bodies at least this long are sent by reference by
   [encode_parts]: below it, copying the body into the inline bytes
   costs less than the segment that would straddle the part edges. *)
let by_ref_min = 4096

let by_ref ~refs s = refs && String.length s >= by_ref_min

(* Bytes of [v]'s encoding written in place: all of it, less the bodies
   passed by reference when [refs]. *)
let rec inline_length ~refs = function
  | Simple s | Error s -> 1 + String.length s + 2
  | Integer i -> 1 + int_width i + 2
  | Bulk None | Array None -> 5
  | Bulk (Some s) ->
    let n = String.length s in
    1 + int_width n + 2 + (if by_ref ~refs s then 0 else n) + 2
  | Array (Some vs) ->
    List.fold_left
      (fun acc v -> acc + inline_length ~refs v)
      (1 + int_width (List.length vs) + 2)
      vs

let encoded_length v = inline_length ~refs:false v

(* Write [v] at [pos] and return the end position.  A body passed by
   reference is not written: [on_ref pos s] records where it belongs. *)
let rec write ~refs ~on_ref b pos = function
  | Simple s -> put_line b pos '+' s
  | Error s -> put_line b pos '-' s
  | Integer i -> put_header b pos ':' i
  | Bulk None -> put_string b pos "$-1\r\n"
  | Bulk (Some s) ->
    let pos = put_header b pos '$' (String.length s) in
    if by_ref ~refs s then begin
      on_ref pos s;
      put_crlf b pos
    end
    else put_crlf b (put_string b pos s)
  | Array None -> put_string b pos "*-1\r\n"
  | Array (Some vs) ->
    List.fold_left (write ~refs ~on_ref b) (put_header b pos '*' (List.length vs)) vs

let encode v =
  let b = Bytes.create (encoded_length v) in
  ignore (write ~refs:false ~on_ref:(fun _ _ -> ()) b 0 v);
  Bytes.unsafe_to_string b

let encode_parts v =
  let b = Bytes.create (inline_length ~refs:true v) in
  let refs = ref [] in
  let stop = write ~refs:true ~on_ref:(fun pos s -> refs := (pos, s) :: !refs) b 0 v in
  let inline = Tcp.Slice.of_string (Bytes.unsafe_to_string b) in
  (* Walk the references back to front, so the parts come out in order. *)
  let rec parts acc upto = function
    | [] -> Tcp.Slice.sub inline 0 upto :: acc
    | (pos, s) :: rest ->
      let acc = Tcp.Slice.of_string s :: Tcp.Slice.sub inline pos (upto - pos) :: acc in
      parts acc pos rest
  in
  parts [] stop !refs

(* {2 Parsing} *)

(* Redis's default proto-max-bulk-len.  Rejecting longer claims keeps
   every length arithmetic below far from overflow. *)
let max_bulk = 512 * 1024 * 1024

module Parser = struct
  type t = {
    buf : Tcp.Readbuf.t;
    mutable failed : string option;
  }

  let create () = { buf = Tcp.Readbuf.create (); failed = None }

  let feed t s = Tcp.Readbuf.feed t.buf s
  let feed_sub t s off len = Tcp.Readbuf.feed_sub t.buf s off len

  let buffered t = Tcp.Readbuf.length t.buf

  (* [Incomplete n]: the value needs [n] buffered bytes before another
     attempt can get further. *)
  exception Incomplete of int
  exception Bad of string

  (* Parsing reads the window in place, at offsets from its first
     unconsumed byte. *)
  let get = Tcp.Readbuf.get

  let find_crlf w pos limit =
    let rec go i =
      if i + 1 >= limit then raise (Incomplete (limit + 1))
      else if get w i = '\r' && get w (i + 1) = '\n' then i
      else go (i + 1)
    in
    go pos

  (* Accumulate negatively so that min_int parses; anything outside the
     int range is rejected rather than wrapped. *)
  let parse_int w ~from ~until =
    let negative = until > from && get w from = '-' in
    let start = if negative then from + 1 else from in
    if start >= until then raise (Bad "empty integer");
    let acc = ref 0 in
    for i = start to until - 1 do
      match get w i with
      | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if !acc < (min_int + d) / 10 then raise (Bad "integer out of range");
        acc := (!acc * 10) - d
      | c -> raise (Bad (Printf.sprintf "bad digit %C in integer" c))
    done;
    if negative then !acc
    else if !acc = min_int then raise (Bad "integer out of range")
    else - !acc

  let rec parse w pos limit =
    if pos >= limit then raise (Incomplete (pos + 1));
    let header_end = find_crlf w (pos + 1) limit in
    let after = header_end + 2 in
    match get w pos with
    | '+' -> (Simple (Tcp.Readbuf.sub_string w (pos + 1) (header_end - pos - 1)), after)
    | '-' -> (Error (Tcp.Readbuf.sub_string w (pos + 1) (header_end - pos - 1)), after)
    | ':' -> (Integer (parse_int w ~from:(pos + 1) ~until:header_end), after)
    | '$' ->
      let n = parse_int w ~from:(pos + 1) ~until:header_end in
      if n = -1 then (Bulk None, after)
      else if n < 0 then raise (Bad "negative bulk length")
      else if n > max_bulk then raise (Bad "bulk length exceeds 512 MiB")
      else if after + n + 2 > limit then raise (Incomplete (after + n + 2))
      else if not (get w (after + n) = '\r' && get w (after + n + 1) = '\n') then
        raise (Bad "bulk payload not terminated by CRLF")
      else (Bulk (Some (Tcp.Readbuf.sub_string w after n)), after + n + 2)
    | '*' ->
      let n = parse_int w ~from:(pos + 1) ~until:header_end in
      if n = -1 then (Array None, after)
      else if n < 0 then raise (Bad "negative array length")
      else begin
        let items = ref [] in
        let cursor = ref after in
        for _ = 1 to n do
          let v, next = parse w !cursor limit in
          items := v :: !items;
          cursor := next
        done;
        (Array (Some (List.rev !items)), !cursor)
      end
    | c -> raise (Bad (Printf.sprintf "unexpected type byte %C" c))

  (* An incomplete value is re-parsed from its first byte, but only
     once the bytes it was missing have arrived: until then [next] is
     the O(1) [ready] check. *)
  let next t =
    match t.failed with
    | Some msg -> Result.Error msg
    | None -> (
      if not (Tcp.Readbuf.ready t.buf) then Ok None
      else
        match parse t.buf 0 (Tcp.Readbuf.length t.buf) with
        | v, used ->
          Tcp.Readbuf.consume t.buf used;
          Ok (Some v)
        | exception Incomplete need ->
          Tcp.Readbuf.await t.buf need;
          Ok None
        | exception Bad msg ->
          t.failed <- Some msg;
          Result.Error msg)
end

let parse_exactly s =
  let p = Parser.create () in
  Parser.feed p s;
  match Parser.next p with
  | Result.Error e -> Result.Error e
  | Ok None -> Result.Error "incomplete value"
  | Ok (Some v) ->
    if Parser.buffered p <> 0 then Result.Error "trailing bytes after value" else Ok v
