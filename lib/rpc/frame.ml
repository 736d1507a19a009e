type t =
  | Request of { id : int64; meth : string; payload : string }
  | Response of { id : int64; payload : string }
  | Error_response of { id : int64; message : string }

let equal a b =
  match (a, b) with
  | Request x, Request y ->
    Int64.equal x.id y.id && String.equal x.meth y.meth
    && String.equal x.payload y.payload
  | Response x, Response y -> Int64.equal x.id y.id && String.equal x.payload y.payload
  | Error_response x, Error_response y ->
    Int64.equal x.id y.id && String.equal x.message y.message
  | (Request _ | Response _ | Error_response _), _ -> false

let pp ppf = function
  | Request { id; meth; payload } ->
    Format.fprintf ppf "Request#%Ld %s (%d bytes)" id meth (String.length payload)
  | Response { id; payload } ->
    Format.fprintf ppf "Response#%Ld (%d bytes)" id (String.length payload)
  | Error_response { id; message } -> Format.fprintf ppf "Error#%Ld %s" id message

let id = function
  | Request { id; _ } | Response { id; _ } | Error_response { id; _ } -> id

let kind_request = 0
let kind_response = 1
let kind_error = 2

let put_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u32 buf v =
  put_u16 buf ((v lsr 16) land 0xFFFF);
  put_u16 buf (v land 0xFFFF)

let put_u64 buf v =
  put_u32 buf (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFF_FFFF);
  put_u32 buf (Int64.to_int (Int64.logand v 0xFFFF_FFFFL))

(* Decoding reads the decoder's window in place, at offsets from its
   first unconsumed byte. *)
let get_u8 w off = Char.code (Tcp.Readbuf.get w off)
let get_u16 w off = (get_u8 w off lsl 8) lor get_u8 w (off + 1)
let get_u32 w off = (get_u16 w off lsl 16) lor get_u16 w (off + 2)

let get_u64 w off =
  Int64.logor
    (Int64.shift_left (Int64.of_int (get_u32 w off)) 32)
    (Int64.of_int (get_u32 w (off + 4)))

let body_length = function
  | Request { meth; payload; _ } ->
    if String.length meth > 0xFFFF then
      invalid_arg "Frame.encode: method name exceeds 65535 bytes";
    1 + 8 + 2 + String.length meth + String.length payload
  | Response { payload; _ } -> 1 + 8 + String.length payload
  | Error_response { message; _ } -> 1 + 8 + String.length message

let encoded_length t = 4 + body_length t

let encode t =
  let body = body_length t in
  let buf = Buffer.create (4 + body) in
  put_u32 buf body;
  (match t with
  | Request { id; meth; payload } ->
    Buffer.add_char buf (Char.chr kind_request);
    put_u64 buf id;
    put_u16 buf (String.length meth);
    Buffer.add_string buf meth;
    Buffer.add_string buf payload
  | Response { id; payload } ->
    Buffer.add_char buf (Char.chr kind_response);
    put_u64 buf id;
    Buffer.add_string buf payload
  | Error_response { id; message } ->
    Buffer.add_char buf (Char.chr kind_error);
    put_u64 buf id;
    Buffer.add_string buf message);
  Buffer.contents buf

(* The [n]-byte frame body at [off] in [w], after the length prefix. *)
let parse_body w ~off n =
  let sub o len = Tcp.Readbuf.sub_string w (off + o) len in
  if n < 9 then Error "frame body shorter than header"
  else begin
    let kind = get_u8 w off in
    let id = get_u64 w (off + 1) in
    if kind = kind_request then begin
      if n < 11 then Error "request body too short for method length"
      else begin
        let mlen = get_u16 w (off + 9) in
        if 11 + mlen > n then Error "method name exceeds frame"
        else
          Ok (Request { id; meth = sub 11 mlen; payload = sub (11 + mlen) (n - 11 - mlen) })
      end
    end
    else if kind = kind_response then Ok (Response { id; payload = sub 9 (n - 9) })
    else if kind = kind_error then Ok (Error_response { id; message = sub 9 (n - 9) })
    else Error (Printf.sprintf "unknown frame kind %d" kind)
  end

module Decoder = struct
  type nonrec t = {
    buf : Tcp.Readbuf.t;
    mutable failed : string option;
  }

  let create () = { buf = Tcp.Readbuf.create (); failed = None }

  let feed t s = Tcp.Readbuf.feed t.buf s
  let feed_sub t s off len = Tcp.Readbuf.feed_sub t.buf s off len

  let buffered t = Tcp.Readbuf.length t.buf

  (* Until the length prefix, then the whole frame, has arrived, [next]
     is the O(1) [ready] check. *)
  let next t =
    match t.failed with
    | Some msg -> Error msg
    | None ->
      if not (Tcp.Readbuf.ready t.buf) then Ok None
      else if buffered t < 4 then begin
        Tcp.Readbuf.await t.buf 4;
        Ok None
      end
      else begin
        let body = get_u32 t.buf 0 in
        if buffered t < 4 + body then begin
          Tcp.Readbuf.await t.buf (4 + body);
          Ok None
        end
        else
          match parse_body t.buf ~off:4 body with
          | Ok frame ->
            Tcp.Readbuf.consume t.buf (4 + body);
            Ok (Some frame)
          | Error msg ->
            t.failed <- Some msg;
            Error msg
      end
end

let decode_exactly s =
  let d = Decoder.create () in
  Decoder.feed d s;
  match Decoder.next d with
  | Error _ as e -> e
  | Ok None -> Error "incomplete frame"
  | Ok (Some f) ->
    if Decoder.buffered d <> 0 then Error "trailing bytes after frame" else Ok f
