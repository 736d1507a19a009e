(* Tests for the Redis-like substrate: RESP codec, store semantics,
   command dispatch. *)

let ms = Sim.Time.ms

(* {1 Resp} *)

let roundtrip v =
  match Kv.Resp.parse_exactly (Kv.Resp.encode v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (Kv.Resp.equal v v')
  | Error e -> Alcotest.fail e

let test_resp_roundtrips () =
  roundtrip (Kv.Resp.Simple "OK");
  roundtrip (Kv.Resp.Error "ERR boom");
  roundtrip (Kv.Resp.Integer 42);
  roundtrip (Kv.Resp.Integer (-17));
  roundtrip (Kv.Resp.Bulk (Some "hello\r\nworld"));
  roundtrip (Kv.Resp.Bulk (Some ""));
  roundtrip (Kv.Resp.Bulk None);
  roundtrip (Kv.Resp.Array None);
  roundtrip (Kv.Resp.Array (Some []));
  roundtrip
    (Kv.Resp.Array
       (Some [ Kv.Resp.Bulk (Some "SET"); Kv.Resp.Integer 1; Kv.Resp.Simple "x" ]));
  roundtrip
    (Kv.Resp.Array (Some [ Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "nested") ]) ]))

let test_resp_wire_format () =
  Alcotest.(check string) "simple" "+OK\r\n" (Kv.Resp.encode (Kv.Resp.Simple "OK"));
  Alcotest.(check string) "bulk" "$5\r\nhello\r\n"
    (Kv.Resp.encode (Kv.Resp.Bulk (Some "hello")));
  Alcotest.(check string) "nil" "$-1\r\n" (Kv.Resp.encode (Kv.Resp.Bulk None));
  Alcotest.(check string) "array" "*1\r\n:7\r\n"
    (Kv.Resp.encode (Kv.Resp.Array (Some [ Kv.Resp.Integer 7 ])))

let test_resp_encoded_length () =
  List.iter
    (fun v ->
      Alcotest.(check int) "encoded_length agrees"
        (String.length (Kv.Resp.encode v))
        (Kv.Resp.encoded_length v))
    [
      Kv.Resp.Simple "PONG";
      Kv.Resp.Integer 12345;
      Kv.Resp.Bulk (Some (String.make 1000 'v'));
      Kv.Resp.Bulk None;
      Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "a"); Kv.Resp.Bulk (Some "bb") ]);
    ]

let test_resp_incremental_parsing () =
  let p = Kv.Resp.Parser.create () in
  let wire = Kv.Resp.encode (Kv.Resp.Bulk (Some "abcdefgh")) in
  (* feed byte by byte: must return Ok None until complete *)
  String.iteri
    (fun i c ->
      Kv.Resp.Parser.feed p (String.make 1 c);
      match Kv.Resp.Parser.next p with
      | Ok None when i < String.length wire - 1 -> ()
      | Ok (Some v) when i = String.length wire - 1 ->
        Alcotest.(check bool) "value" true (Kv.Resp.equal v (Kv.Resp.Bulk (Some "abcdefgh")))
      | Ok (Some _) -> Alcotest.fail "completed early"
      | Ok None -> Alcotest.fail "never completed"
      | Error e -> Alcotest.fail e)
    wire

let test_resp_pipelined_values () =
  let p = Kv.Resp.Parser.create () in
  Kv.Resp.Parser.feed p
    (Kv.Resp.encode (Kv.Resp.Simple "A") ^ Kv.Resp.encode (Kv.Resp.Integer 2)
    ^ Kv.Resp.encode (Kv.Resp.Bulk (Some "C")));
  let next () = Result.get_ok (Kv.Resp.Parser.next p) in
  Alcotest.(check bool) "first" true (next () = Some (Kv.Resp.Simple "A"));
  Alcotest.(check bool) "second" true (next () = Some (Kv.Resp.Integer 2));
  Alcotest.(check bool) "third" true (next () = Some (Kv.Resp.Bulk (Some "C")));
  Alcotest.(check bool) "drained" true (next () = None);
  Alcotest.(check int) "no leftover bytes" 0 (Kv.Resp.Parser.buffered p)

let test_resp_malformed () =
  let p = Kv.Resp.Parser.create () in
  Kv.Resp.Parser.feed p "!nonsense\r\n";
  (match Kv.Resp.Parser.next p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad type byte");
  (* parser stays failed *)
  match Kv.Resp.Parser.next p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recovered silently"

let test_resp_bad_bulk_terminator () =
  match Kv.Resp.parse_exactly "$3\r\nabcXX" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad terminator"

let gen_resp_value =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                map (fun s -> Kv.Resp.Simple s) (string_size ~gen:(char_range 'a' 'z') (0 -- 20));
                map (fun i -> Kv.Resp.Integer i) int;
                map (fun s -> Kv.Resp.Bulk (Some s)) (string_size (0 -- 64));
                return (Kv.Resp.Bulk None);
              ]
          in
          if n = 0 then leaf
          else
            oneof
              [ leaf; map (fun l -> Kv.Resp.Array (Some l)) (list_size (0 -- 4) (self (n / 2))) ]))

let prop_resp_roundtrip =
  QCheck.Test.make ~name:"RESP roundtrip (arbitrary values)" ~count:300
    (QCheck.make gen_resp_value)
    (fun v ->
      match Kv.Resp.parse_exactly (Kv.Resp.encode v) with
      | Ok v' -> Kv.Resp.equal v v'
      | Error _ -> false)

(* Words [f ()] allocates, minor and direct-to-major. *)
let words_allocated f =
  let before = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

(* Feed [wire] at the cyclic cut widths, draining after every feed;
   returns the values and the first error. *)
let parse_at_cuts wire cuts =
  let p = Kv.Resp.Parser.create () in
  let values = ref [] and error = ref None in
  let pos = ref 0 and k = ref 0 in
  while !pos < String.length wire do
    let n = min (List.nth cuts (!k mod List.length cuts)) (String.length wire - !pos) in
    Kv.Resp.Parser.feed_sub p wire !pos n;
    pos := !pos + n;
    incr k;
    let rec drain () =
      match Kv.Resp.Parser.next p with
      | Ok (Some v) ->
        values := v :: !values;
        drain ()
      | Ok None -> ()
      | Error e -> if !error = None then error := Some e
    in
    drain ()
  done;
  (p, List.rev !values, !error)

let prop_resp_parse_any_cuts =
  QCheck.Test.make ~name:"RESP parser matches parse_exactly at any cuts" ~count:300
    QCheck.(
      pair
        (make Gen.(list_size (1 -- 6) gen_resp_value))
        (list_of_size
           Gen.(1 -- 20)
           (make Gen.(frequency [ (1, return 1); (3, 1 -- 40) ]))))
    (fun (values, cuts) ->
      let wires = List.map Kv.Resp.encode values in
      let expected = List.map (fun w -> Result.get_ok (Kv.Resp.parse_exactly w)) wires in
      (* a trailing protocol violation must fail, and stay failed *)
      let p, parsed, error = parse_at_cuts (String.concat "" wires ^ "!bad\r\n") cuts in
      Kv.Resp.Parser.feed p "+OK\r\n";
      List.equal Kv.Resp.equal expected parsed
      && error <> None
      && Kv.Resp.Parser.next p = Error (Option.get error))

let test_resp_hostile_headers () =
  let check_small name input expect_error =
    let p = Kv.Resp.Parser.create () in
    let result = ref (Ok None) in
    let words =
      words_allocated (fun () ->
          Kv.Resp.Parser.feed p input;
          result := Kv.Resp.Parser.next p)
    in
    Alcotest.(check bool) (name ^ ": outcome") expect_error (Result.is_error !result);
    if words > 1024. then Alcotest.failf "%s: %.0f words allocated" name words;
    p
  in
  ignore (check_small "bulk over 512 MiB" "$99999999999\r\n" true);
  ignore (check_small "negative array" "*-2\r\n" true);
  ignore (check_small "length wrapping the int range" "$18446744073709551621\r\n" true);
  ignore (check_small "integer out of range" ":99999999999999999999\r\n" true);
  ignore (check_small "huge array, no items" "*99999999999\r\n" false);
  (* A claim under the limit waits for its body; the window follows the
     bytes that arrive, not the 500 MiB claimed. *)
  let p = check_small "500 MiB bulk, no body" "$524288000\r\n" false in
  let piece = String.make 1448 'x' in
  let fed = 64 * 1448 in
  let words =
    words_allocated (fun () ->
        for _ = 1 to 64 do
          Kv.Resp.Parser.feed p piece;
          if Kv.Resp.Parser.next p <> Ok None then Alcotest.fail "completed early"
        done)
  in
  if words > float_of_int (4 * fed / 8) then
    Alcotest.failf "%.0f words allocated for %d bytes fed" words fed

let test_resp_linear_cost () =
  let size = 1 lsl 20 in
  let wire = Kv.Resp.encode (Kv.Resp.Bulk (Some (String.make size 'v'))) in
  let p = Kv.Resp.Parser.create () in
  let got = ref 0 in
  let words =
    words_allocated (fun () ->
        let pos = ref 0 in
        while !pos < String.length wire do
          let n = min 1448 (String.length wire - !pos) in
          Kv.Resp.Parser.feed_sub p wire !pos n;
          pos := !pos + n;
          match Kv.Resp.Parser.next p with
          | Ok (Some (Kv.Resp.Bulk (Some v))) -> got := String.length v
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "wrong value"
          | Error e -> Alcotest.fail e
        done)
  in
  Alcotest.(check int) "value parsed whole" size !got;
  let limit = 3. *. float_of_int (size / 8) in
  if words >= limit then Alcotest.failf "%.0f words allocated, limit %.0f" words limit

let test_resp_encode_parts () =
  let big = String.make 16384 'v' in
  let check v =
    let parts = Kv.Resp.encode_parts v in
    Alcotest.(check string) "parts concatenate to encode" (Kv.Resp.encode v)
      (String.concat "" (List.map Tcp.Slice.to_string parts));
    parts
  in
  let bulks l = Kv.Resp.Array (Some (List.map (fun s -> Kv.Resp.Bulk (Some s)) l)) in
  (match check (bulks [ "SET"; "k"; big ]) with
  | [ _; body; _ ] ->
    Alcotest.(check bool) "body by reference" true (body.Tcp.Slice.base == big)
  | parts -> Alcotest.failf "%d parts" (List.length parts));
  Alcotest.(check int) "small value: one part" 1 (List.length (check (bulks [ "GET"; "k" ])));
  Alcotest.(check int) "two bodies" 5 (List.length (check (bulks [ big; big ])));
  ignore (check (Kv.Resp.Integer min_int))

(* {1 Store} *)

let test_store_set_get () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "k" "v";
  Alcotest.(check (option string)) "get" (Some "v") (Kv.Store.get s ~now:0 "k");
  Alcotest.(check (option string)) "missing" None (Kv.Store.get s ~now:0 "nope")

let test_store_ttl_expiry () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 ~ttl:(ms 100) "k" "v";
  Alcotest.(check (option string)) "before expiry" (Some "v")
    (Kv.Store.get s ~now:(ms 99) "k");
  Alcotest.(check (option string)) "after expiry" None (Kv.Store.get s ~now:(ms 100) "k");
  Alcotest.(check int) "expired not counted" 0 (Kv.Store.size s ~now:(ms 100))

let test_store_delete_exists () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "a" "1";
  Kv.Store.set s ~now:0 "b" "2";
  Alcotest.(check int) "exists" 2 (Kv.Store.exists s ~now:0 [ "a"; "b"; "c" ]);
  Alcotest.(check int) "deleted" 1 (Kv.Store.delete s ~now:0 [ "a"; "zz" ]);
  Alcotest.(check int) "one left" 1 (Kv.Store.size s ~now:0)

let test_store_append_strlen () =
  let s = Kv.Store.create () in
  Alcotest.(check int) "append to missing" 3 (Kv.Store.append s ~now:0 "k" "abc");
  Alcotest.(check int) "append more" 6 (Kv.Store.append s ~now:0 "k" "def");
  Alcotest.(check int) "strlen" 6 (Kv.Store.strlen s ~now:0 "k");
  Alcotest.(check int) "strlen missing" 0 (Kv.Store.strlen s ~now:0 "none")

let test_store_incr () =
  let s = Kv.Store.create () in
  Alcotest.(check (result int string)) "incr from missing" (Ok 1)
    (Kv.Store.incr_by s ~now:0 "n" 1);
  Alcotest.(check (result int string)) "incr by 10" (Ok 11)
    (Kv.Store.incr_by s ~now:0 "n" 10);
  Kv.Store.set s ~now:0 "s" "not-a-number";
  match Kv.Store.incr_by s ~now:0 "s" 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incremented a string"

let test_store_setnx_getset () =
  let s = Kv.Store.create () in
  Alcotest.(check bool) "setnx fresh" true (Kv.Store.setnx s ~now:0 "k" "1");
  Alcotest.(check bool) "setnx existing" false (Kv.Store.setnx s ~now:0 "k" "2");
  Alcotest.(check (option string)) "getset returns old" (Some "1")
    (Kv.Store.getset s ~now:0 "k" "3");
  Alcotest.(check (option string)) "getset stored new" (Some "3")
    (Kv.Store.get s ~now:0 "k")

let test_store_expire_ttl_queries () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "k" "v";
  Alcotest.(check bool) "expire existing" true (Kv.Store.expire s ~now:0 "k" ~ttl:(ms 500));
  Alcotest.(check bool) "expire missing" false
    (Kv.Store.expire s ~now:0 "gone" ~ttl:(ms 500));
  (match Kv.Store.ttl s ~now:(ms 100) "k" with
  | `Ttl t -> Alcotest.(check int) "remaining" (ms 400) t
  | _ -> Alcotest.fail "expected ttl");
  Kv.Store.set s ~now:0 "p" "v";
  Alcotest.(check bool) "no ttl" true (Kv.Store.ttl s ~now:0 "p" = `No_ttl);
  Alcotest.(check bool) "missing" true (Kv.Store.ttl s ~now:0 "zz" = `Missing)

let test_store_keys_glob () =
  let s = Kv.Store.create () in
  List.iter (fun k -> Kv.Store.set s ~now:0 k "v") [ "user:1"; "user:2"; "sess:1" ];
  Alcotest.(check (list string)) "prefix glob" [ "user:1"; "user:2" ]
    (Kv.Store.keys_matching s ~now:0 ~pattern:"user:*");
  Alcotest.(check (list string)) "question mark" [ "sess:1"; "user:1" ]
    (Kv.Store.keys_matching s ~now:0 ~pattern:"????:1");
  Alcotest.(check (list string)) "star matches all" [ "sess:1"; "user:1"; "user:2" ]
    (Kv.Store.keys_matching s ~now:0 ~pattern:"*")

let test_store_flush () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "k" "v";
  Kv.Store.flush s;
  Alcotest.(check int) "empty" 0 (Kv.Store.size s ~now:0)

(* {1 Command} *)

let exec store cmd = Kv.Command.execute store ~now:0 cmd

let test_command_roundtrip_encoding () =
  let cmds =
    [
      Kv.Command.Ping;
      Kv.Command.Echo "hello";
      Kv.Command.Set { key = "k"; value = "v"; ttl = None };
      Kv.Command.Set { key = "k"; value = "v"; ttl = Some (ms 250) };
      Kv.Command.Get "k";
      Kv.Command.Del [ "a"; "b" ];
      Kv.Command.Exists [ "a" ];
      Kv.Command.Append { key = "k"; value = "v" };
      Kv.Command.Strlen "k";
      Kv.Command.Incr "n";
      Kv.Command.Decr "n";
      Kv.Command.Incrby { key = "n"; delta = 5 };
      Kv.Command.Mset [ ("a", "1"); ("b", "2") ];
      Kv.Command.Mget [ "a"; "b" ];
      Kv.Command.Setnx { key = "k"; value = "v" };
      Kv.Command.Getset { key = "k"; value = "v" };
      Kv.Command.Expire { key = "k"; seconds = 10 };
      Kv.Command.Ttl "k";
      Kv.Command.Dbsize;
      Kv.Command.Flushall;
      Kv.Command.Keys "*";
    ]
  in
  List.iter
    (fun cmd ->
      match Kv.Command.of_resp (Kv.Command.to_resp cmd) with
      | Ok cmd' when cmd = cmd' -> ()
      | Ok _ -> Alcotest.failf "roundtrip changed %s" (Kv.Command.name cmd)
      | Error e -> Alcotest.failf "%s: %s" (Kv.Command.name cmd) e)
    cmds

let test_command_case_insensitive () =
  match
    Kv.Command.of_resp
      (Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "get"); Kv.Resp.Bulk (Some "k") ]))
  with
  | Ok (Kv.Command.Get "k") -> ()
  | _ -> Alcotest.fail "lowercase get rejected"

let test_command_unknown_and_arity () =
  (match
     Kv.Command.of_resp (Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "WAT") ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown accepted");
  match
    Kv.Command.of_resp (Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "GET") ]))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad arity accepted"

let test_command_execute_flow () =
  let s = Kv.Store.create () in
  Alcotest.(check bool) "ping" true (exec s Kv.Command.Ping = Kv.Resp.Simple "PONG");
  Alcotest.(check bool) "set" true
    (exec s (Kv.Command.Set { key = "k"; value = "v"; ttl = None }) = Kv.Resp.Simple "OK");
  Alcotest.(check bool) "get hit" true
    (exec s (Kv.Command.Get "k") = Kv.Resp.Bulk (Some "v"));
  Alcotest.(check bool) "get miss" true
    (exec s (Kv.Command.Get "zz") = Kv.Resp.Bulk None);
  Alcotest.(check bool) "incr" true (exec s (Kv.Command.Incr "n") = Kv.Resp.Integer 1);
  Alcotest.(check bool) "incr error is RESP error" true
    (match exec s (Kv.Command.Incr "k") with Kv.Resp.Error _ -> true | _ -> false);
  Alcotest.(check bool) "mget" true
    (exec s (Kv.Command.Mget [ "k"; "zz" ])
    = Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "v"); Kv.Resp.Bulk None ]));
  Alcotest.(check bool) "dbsize" true
    (match exec s Kv.Command.Dbsize with Kv.Resp.Integer n -> n >= 1 | _ -> false)

let test_command_request_bytes_realism () =
  (* The Figure-4 workload: 16B key, 16KiB value — request must be a
     little over 16 KiB on the wire. *)
  let cmd =
    Kv.Command.Set { key = String.make 16 'k'; value = String.make 16384 'v'; ttl = None }
  in
  let n = Kv.Command.request_bytes cmd in
  Alcotest.(check bool) "between 16424 and 16480" true (n > 16420 && n < 16480)

let suite =
  [
    ( "kv.resp",
      [
        Alcotest.test_case "value roundtrips" `Quick test_resp_roundtrips;
        Alcotest.test_case "wire format" `Quick test_resp_wire_format;
        Alcotest.test_case "encoded_length" `Quick test_resp_encoded_length;
        Alcotest.test_case "incremental parsing" `Quick test_resp_incremental_parsing;
        Alcotest.test_case "pipelined values" `Quick test_resp_pipelined_values;
        Alcotest.test_case "malformed input" `Quick test_resp_malformed;
        Alcotest.test_case "bad bulk terminator" `Quick test_resp_bad_bulk_terminator;
        QCheck_alcotest.to_alcotest prop_resp_roundtrip;
        QCheck_alcotest.to_alcotest prop_resp_parse_any_cuts;
        Alcotest.test_case "hostile headers allocate little" `Quick
          test_resp_hostile_headers;
        Alcotest.test_case "large bulk costs linear" `Quick test_resp_linear_cost;
        Alcotest.test_case "encode_parts by reference" `Quick test_resp_encode_parts;
      ] );
    ( "kv.store",
      [
        Alcotest.test_case "set/get" `Quick test_store_set_get;
        Alcotest.test_case "ttl expiry" `Quick test_store_ttl_expiry;
        Alcotest.test_case "delete/exists" `Quick test_store_delete_exists;
        Alcotest.test_case "append/strlen" `Quick test_store_append_strlen;
        Alcotest.test_case "incr semantics" `Quick test_store_incr;
        Alcotest.test_case "setnx/getset" `Quick test_store_setnx_getset;
        Alcotest.test_case "expire/ttl queries" `Quick test_store_expire_ttl_queries;
        Alcotest.test_case "keys glob" `Quick test_store_keys_glob;
        Alcotest.test_case "flush" `Quick test_store_flush;
      ] );
    ( "kv.command",
      [
        Alcotest.test_case "encode/decode roundtrip" `Quick test_command_roundtrip_encoding;
        Alcotest.test_case "case-insensitive names" `Quick test_command_case_insensitive;
        Alcotest.test_case "unknown command / bad arity" `Quick
          test_command_unknown_and_arity;
        Alcotest.test_case "execute flow" `Quick test_command_execute_flow;
        Alcotest.test_case "Figure-4 request size" `Quick
          test_command_request_bytes_realism;
      ] );
  ]
