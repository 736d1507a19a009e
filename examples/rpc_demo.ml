(* The Section-3.3 adoption story: an RPC framework that gives both
   ends accurate end-to-end performance estimation for free.

   We define a tiny compute service, drive it with pipelined calls, and
   show three numbers agreeing:
     1. what the client application measured (ground truth),
     2. what the framework's automatic hints report at the client,
     3. what the SERVER derives from the hint shares its peer's stack
        forwarded — client-perceived latency, observed at the server,
        with zero server-side monitoring.

   Run with: dune exec examples/rpc_demo.exe *)

let pf = Printf.printf

let () =
  let engine = Sim.Engine.create () in
  let conn = Tcp.Conn.create engine () in
  let service =
    Rpc.Service.create engine
      ~cpu:(Sim.Cpu.create engine)
      ~socket:(Tcp.Conn.sock_b conn) Rpc.Service.default_config
  in
  (* a small service: string reversal (cheap) and a checksum (pricier) *)
  Rpc.Service.register service ~cost:(Sim.Time.us 2) "reverse" (fun p ->
      Ok (String.init (String.length p) (fun i -> p.[String.length p - 1 - i])));
  Rpc.Service.register service ~cost:(Sim.Time.us 15) "checksum" (fun p ->
      let sum = ref 0 in
      String.iter (fun c -> sum := (!sum + Char.code c) land 0xFFFF) p;
      Ok (string_of_int !sum));
  Rpc.Service.register service "version" (fun _ -> Ok "e2ebatch-rpc/1.0");
  let client =
    Rpc.Client.create engine
      ~cpu:(Sim.Cpu.create engine)
      ~socket:(Tcp.Conn.sock_a conn) Rpc.Client.default_config
  in
  (* 2000 calls at 20 kcalls/s, mixing the two methods *)
  let measured = Sim.Stats.Summary.create () in
  let baseline = Rpc.Client.hint_share client ~at:(Sim.Engine.now engine) in
  let rng = Sim.Rng.create ~seed:3 in
  for i = 0 to 1_999 do
    Sim.Engine.schedule_at engine ~at:(Sim.Time.us (i * 50)) (fun () ->
        let meth = if Sim.Rng.bool rng then "reverse" else "checksum" in
        Rpc.Client.call client ~meth ~payload:(String.make 700 'd')
          ~on_reply:(fun ~latency reply ->
            (match reply with
            | Ok _ -> ()
            | Error e -> failwith e);
            Sim.Stats.Summary.add measured (Sim.Time.to_us latency)))
  done;
  Sim.Engine.run engine;
  let now = Sim.Engine.now engine in
  pf "calls completed          : %d (%d served by the service)\n"
    (Rpc.Client.completed client)
    (Rpc.Service.calls_served service);
  pf "1. measured by the app   : %8.1f us mean\n" (Sim.Stats.Summary.mean measured);
  (match Rpc.Client.perceived client ~prev:baseline ~at:now with
  | Some { latency_ns = Some l; throughput; _ } ->
    pf "2. framework hints (client): %6.1f us mean, %.0f calls/s\n" (l /. 1e3) throughput
  | _ -> pf "2. framework hints: unavailable\n");
  (match Tcp.Socket.remote_hint_window (Tcp.Conn.sock_b conn) with
  | Some (prev, cur) -> (
    match E2e.Hints.avgs ~prev ~cur with
    | Some { latency_ns = Some l; _ } ->
      pf "3. derived at the SERVER : %8.1f us mean (no server-side monitoring)\n"
        (l /. 1e3)
    | _ -> pf "3. server view: unavailable\n")
  | None -> pf "3. server view: no hint shares received\n");
  pf "\nThe application wrote no instrumentation: the framework calls the\n";
  pf "create/complete hint API around each call, and the stack shares the\n";
  pf "queue state with the peer (Section 3.3).\n"
