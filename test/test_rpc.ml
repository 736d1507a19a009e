(* Tests for the RPC framework: wire framing, service dispatch, and the
   framework-integrated hint estimation of §3.3. *)

(* {1 Frame} *)

let check_roundtrip f =
  match Rpc.Frame.decode_exactly (Rpc.Frame.encode f) with
  | Ok f' -> Alcotest.(check bool) "frame roundtrip" true (Rpc.Frame.equal f f')
  | Error e -> Alcotest.fail e

let test_frame_roundtrips () =
  check_roundtrip (Rpc.Frame.Request { id = 1L; meth = "echo"; payload = "hello" });
  check_roundtrip (Rpc.Frame.Request { id = Int64.max_int; meth = ""; payload = "" });
  check_roundtrip (Rpc.Frame.Response { id = 42L; payload = String.make 10_000 'x' });
  check_roundtrip (Rpc.Frame.Error_response { id = 7L; message = "boom" })

let test_frame_encoded_length () =
  List.iter
    (fun f ->
      Alcotest.(check int) "encoded_length agrees"
        (String.length (Rpc.Frame.encode f))
        (Rpc.Frame.encoded_length f))
    [
      Rpc.Frame.Request { id = 3L; meth = "compute.hash"; payload = "abc" };
      Rpc.Frame.Response { id = 3L; payload = "" };
      Rpc.Frame.Error_response { id = 3L; message = "m" };
    ]

let test_frame_incremental () =
  let f = Rpc.Frame.Request { id = 9L; meth = "m"; payload = "payload" } in
  let wire = Rpc.Frame.encode f in
  let d = Rpc.Frame.Decoder.create () in
  String.iteri
    (fun i c ->
      Rpc.Frame.Decoder.feed d (String.make 1 c);
      match Rpc.Frame.Decoder.next d with
      | Ok None when i < String.length wire - 1 -> ()
      | Ok (Some f') when i = String.length wire - 1 ->
        Alcotest.(check bool) "complete at last byte" true (Rpc.Frame.equal f f')
      | Ok _ -> Alcotest.fail "wrong completion point"
      | Error e -> Alcotest.fail e)
    wire

let test_frame_pipelined () =
  let frames =
    [
      Rpc.Frame.Request { id = 1L; meth = "a"; payload = "1" };
      Rpc.Frame.Response { id = 1L; payload = "2" };
      Rpc.Frame.Error_response { id = 2L; message = "3" };
    ]
  in
  let d = Rpc.Frame.Decoder.create () in
  Rpc.Frame.Decoder.feed d (String.concat "" (List.map Rpc.Frame.encode frames));
  List.iter
    (fun expected ->
      match Rpc.Frame.Decoder.next d with
      | Ok (Some f) -> Alcotest.(check bool) "in order" true (Rpc.Frame.equal expected f)
      | _ -> Alcotest.fail "missing frame")
    frames;
  Alcotest.(check int) "drained" 0 (Rpc.Frame.Decoder.buffered d)

let test_frame_bad_kind () =
  (* corrupt the kind byte *)
  let wire = Bytes.of_string (Rpc.Frame.encode (Rpc.Frame.Response { id = 1L; payload = "" })) in
  Bytes.set wire 4 '\255';
  match Rpc.Frame.decode_exactly (Bytes.to_string wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad kind"

let test_frame_hostile_length () =
  (* A 4 GiB length prefix with a few body bytes: the decoder waits,
     sizing nothing from the claimed length. *)
  let d = Rpc.Frame.Decoder.create () in
  let before = Gc.allocated_bytes () in
  Rpc.Frame.Decoder.feed d "\xff\xff\xff\xff\x01partial";
  let first = Rpc.Frame.Decoder.next d in
  Rpc.Frame.Decoder.feed d (String.make 1000 'x');
  let second = Rpc.Frame.Decoder.next d in
  let words = (Gc.allocated_bytes () -. before) /. 8. in
  Alcotest.(check bool) "waiting" true (first = Ok None && second = Ok None);
  if words > 4096. then Alcotest.failf "%.0f words allocated" words

let test_frame_oversized_method () =
  Alcotest.check_raises "oversized method"
    (Invalid_argument "Frame.encode: method name exceeds 65535 bytes") (fun () ->
      ignore
        (Rpc.Frame.encode
           (Rpc.Frame.Request { id = 1L; meth = String.make 70_000 'm'; payload = "" })))

let prop_frame_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map3
            (fun id meth payload -> Rpc.Frame.Request { id = Int64.of_int id; meth; payload })
            nat
            (string_size (0 -- 30))
            (string_size (0 -- 200));
          map2
            (fun id payload -> Rpc.Frame.Response { id = Int64.of_int id; payload })
            nat
            (string_size (0 -- 200));
          map2
            (fun id message -> Rpc.Frame.Error_response { id = Int64.of_int id; message })
            nat
            (string_size (0 -- 50));
        ])
  in
  QCheck.Test.make ~name:"frame roundtrip (arbitrary)" ~count:300 (QCheck.make gen)
    (fun f ->
      match Rpc.Frame.decode_exactly (Rpc.Frame.encode f) with
      | Ok f' -> Rpc.Frame.equal f f'
      | Error _ -> false)

(* {1 Service + Client over the simulated stack} *)

let fixture () =
  let engine = Sim.Engine.create () in
  let host =
    {
      Tcp.Conn.socket = { Tcp.Socket.default_config with nagle = false };
      tx_cost = 0;
      rx_seg_cost = 0;
      rx_batch_cost = 0;
      gro = { (Tcp.Gro.default_config ~mss:1448) with enabled = false };
    }
  in
  let conn = Tcp.Conn.create engine ~a:host ~b:host () in
  let service =
    Rpc.Service.create engine
      ~cpu:(Sim.Cpu.create engine)
      ~socket:(Tcp.Conn.sock_b conn) Rpc.Service.default_config
  in
  let client =
    Rpc.Client.create engine
      ~cpu:(Sim.Cpu.create engine)
      ~socket:(Tcp.Conn.sock_a conn) Rpc.Client.default_config
  in
  (engine, service, client)

let test_rpc_echo () =
  let engine, service, client = fixture () in
  Rpc.Service.register service "echo" (fun payload -> Ok payload);
  let got = ref None in
  Rpc.Client.call client ~meth:"echo" ~payload:"ping-pong"
    ~on_reply:(fun ~latency:_ reply -> got := Some reply);
  Sim.Engine.run engine;
  Alcotest.(check bool) "echoed" true (!got = Some (Ok "ping-pong"));
  Alcotest.(check int) "served" 1 (Rpc.Service.calls_served service)

let test_rpc_unknown_method () =
  let engine, _service, client = fixture () in
  let got = ref None in
  Rpc.Client.call client ~meth:"nope" ~payload:""
    ~on_reply:(fun ~latency:_ reply -> got := Some reply);
  Sim.Engine.run engine;
  match !got with
  | Some (Error msg) ->
    Alcotest.(check bool) "mentions method" true
      (String.length msg > 0 && String.sub msg 0 7 = "unknown")
  | _ -> Alcotest.fail "expected an error reply"

let test_rpc_handler_error () =
  let engine, service, client = fixture () in
  Rpc.Service.register service "fail" (fun _ -> Error "handler says no");
  let got = ref None in
  Rpc.Client.call client ~meth:"fail" ~payload:""
    ~on_reply:(fun ~latency:_ reply -> got := Some reply);
  Sim.Engine.run engine;
  Alcotest.(check bool) "propagated" true (!got = Some (Error "handler says no"));
  Alcotest.(check int) "error counted" 1 (Rpc.Service.errors_returned service)

let test_rpc_many_calls_in_order () =
  let engine, service, client = fixture () in
  Rpc.Service.register service "double" (fun p ->
      match int_of_string_opt p with
      | Some n -> Ok (string_of_int (2 * n))
      | None -> Error "not a number");
  let replies = ref [] in
  for i = 1 to 100 do
    Rpc.Client.call client ~meth:"double" ~payload:(string_of_int i)
      ~on_reply:(fun ~latency:_ reply ->
        match reply with
        | Ok v -> replies := int_of_string v :: !replies
        | Error e -> Alcotest.fail e)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "all doubled in order"
    (List.init 100 (fun i -> 2 * (i + 1)))
    (List.rev !replies);
  Alcotest.(check int) "outstanding drained" 0 (Rpc.Client.outstanding client)

let test_rpc_mixed_methods_and_costs () =
  let engine, service, client = fixture () in
  Rpc.Service.register service ~cost:(Sim.Time.us 1) "fast" (fun _ -> Ok "f");
  Rpc.Service.register service ~cost:(Sim.Time.us 200) "slow" (fun _ -> Ok "s");
  let fast_lat = ref 0 and slow_lat = ref 0 in
  Rpc.Client.call client ~meth:"slow" ~payload:""
    ~on_reply:(fun ~latency _ -> slow_lat := latency);
  Rpc.Client.call client ~meth:"fast" ~payload:""
    ~on_reply:(fun ~latency _ -> fast_lat := latency);
  Sim.Engine.run engine;
  Alcotest.(check bool) "slow call costs more" true (!slow_lat > Sim.Time.us 200);
  Alcotest.(check (list string)) "methods listed" [ "fast"; "slow" ]
    (Rpc.Service.methods service)

let test_rpc_hints_measure_end_to_end () =
  (* The framework's automatic hints must reproduce the measured mean
     latency without the application doing anything. *)
  let engine, service, client = fixture () in
  Rpc.Service.register service "work" (fun p -> Ok p);
  let prev = Rpc.Client.hint_share client ~at:(Sim.Engine.now engine) in
  let sum = ref 0 and n = ref 0 in
  for i = 0 to 199 do
    Sim.Engine.schedule_at engine ~at:(Sim.Time.us (i * 50)) (fun () ->
        Rpc.Client.call client ~meth:"work" ~payload:(String.make 500 'w')
          ~on_reply:(fun ~latency _ ->
            sum := !sum + latency;
            incr n))
  done;
  Sim.Engine.run engine;
  let measured = float_of_int !sum /. float_of_int !n in
  match Rpc.Client.perceived client ~prev ~at:(Sim.Engine.now engine) with
  | Some { latency_ns = Some est; _ } ->
    let err = Float.abs (est -. measured) /. measured in
    if err > 0.02 then
      Alcotest.failf "hint estimate %.0f vs measured %.0f (%.1f%%)" est measured
        (err *. 100.0)
  | _ -> Alcotest.fail "no hint estimate"

let test_rpc_server_sees_client_hints () =
  (* §3.3: the server needs no monitoring of its own — the client's
     stack shares the hint queue state in-band. *)
  let engine = Sim.Engine.create () in
  let host =
    {
      Tcp.Conn.socket = Tcp.Socket.default_config;
      tx_cost = 0;
      rx_seg_cost = 0;
      rx_batch_cost = 0;
      gro = { (Tcp.Gro.default_config ~mss:1448) with enabled = false };
    }
  in
  let conn = Tcp.Conn.create engine ~a:host ~b:host () in
  let service =
    Rpc.Service.create engine
      ~cpu:(Sim.Cpu.create engine)
      ~socket:(Tcp.Conn.sock_b conn) Rpc.Service.default_config
  in
  Rpc.Service.register service "noop" (fun _ -> Ok "");
  let client =
    Rpc.Client.create engine
      ~cpu:(Sim.Cpu.create engine)
      ~socket:(Tcp.Conn.sock_a conn) Rpc.Client.default_config
  in
  for i = 0 to 49 do
    Sim.Engine.schedule_at engine ~at:(Sim.Time.us (i * 100)) (fun () ->
        Rpc.Client.call client ~meth:"noop" ~payload:"x" ~on_reply:(fun ~latency:_ _ -> ()))
  done;
  Sim.Engine.run engine;
  match Tcp.Socket.remote_hint_window (Tcp.Conn.sock_b conn) with
  | Some (prev, cur) -> (
    match E2e.Hints.avgs ~prev ~cur with
    | Some { latency_ns = Some l; _ } ->
      Alcotest.(check bool) "plausible client-perceived latency at server" true
        (l > 0.0 && l < 1e7)
    | _ -> Alcotest.fail "server could not derive latency")
  | None -> Alcotest.fail "no hint shares reached the server"

let suite =
  [
    ( "rpc.frame",
      [
        Alcotest.test_case "roundtrips" `Quick test_frame_roundtrips;
        Alcotest.test_case "encoded_length" `Quick test_frame_encoded_length;
        Alcotest.test_case "incremental decoding" `Quick test_frame_incremental;
        Alcotest.test_case "pipelined frames" `Quick test_frame_pipelined;
        Alcotest.test_case "bad kind rejected" `Quick test_frame_bad_kind;
        Alcotest.test_case "oversized method rejected" `Quick test_frame_oversized_method;
        Alcotest.test_case "hostile length allocates little" `Quick test_frame_hostile_length;
        QCheck_alcotest.to_alcotest prop_frame_roundtrip;
      ] );
    ( "rpc.service",
      [
        Alcotest.test_case "echo roundtrip" `Quick test_rpc_echo;
        Alcotest.test_case "unknown method" `Quick test_rpc_unknown_method;
        Alcotest.test_case "handler error" `Quick test_rpc_handler_error;
        Alcotest.test_case "100 calls in order" `Quick test_rpc_many_calls_in_order;
        Alcotest.test_case "per-method costs" `Quick test_rpc_mixed_methods_and_costs;
      ] );
    ( "rpc.hints",
      [
        Alcotest.test_case "framework hints match measured" `Quick
          test_rpc_hints_measure_end_to_end;
        Alcotest.test_case "server sees client-perceived latency" `Quick
          test_rpc_server_sees_client_hints;
      ] );
  ]
