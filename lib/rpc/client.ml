type config = { send_cost : Sim.Time.span; response_cost : Sim.Time.span }

let default_config = { send_cost = Sim.Time.us 1; response_cost = Sim.Time.us 1 }

type pending = {
  issued_at : Sim.Time.t;
  on_reply : latency:Sim.Time.span -> (string, string) result -> unit;
}

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  socket : Tcp.Socket.t;
  cfg : config;
  decoder : Frame.Decoder.t;
  pending : (int64, pending) Hashtbl.t;
  hints : E2e.Hints.t;
  mutable next_id : int64;
  mutable busy : bool;
  mutable issued : int;
  mutable completed : int;
}

let rec create engine ~cpu ~socket cfg =
  if cfg.send_cost < 0 || cfg.response_cost < 0 then
    invalid_arg "Rpc.Client.create: negative costs";
  let t =
    {
      engine;
      cpu;
      socket;
      cfg;
      decoder = Frame.Decoder.create ();
      pending = Hashtbl.create 64;
      hints = E2e.Hints.tracker ~at:(Sim.Engine.now engine);
      next_id = 1L;
      busy = false;
      issued = 0;
      completed = 0;
    }
  in
  (* The framework, not the application, wires the hint plumbing. *)
  Tcp.Socket.set_hint_provider socket (fun ~at -> E2e.Hints.share t.hints ~at);
  Tcp.Socket.on_readable socket (fun () -> wake t);
  t

and wake t = if not t.busy then process t

and process t =
  Tcp.Socket.recv_into t.socket (Frame.Decoder.feed_sub t.decoder);
  match Frame.Decoder.next t.decoder with
  | Error msg -> failwith ("rpc client: framing error: " ^ msg)
  | Ok None -> ()
  | Ok (Some frame) ->
    let id = Frame.id frame in
    let reply =
      match frame with
      | Frame.Response { payload; _ } -> Ok payload
      | Frame.Error_response { message; _ } -> Error message
      | Frame.Request _ -> failwith "rpc client: received a request frame"
    in
    let rec_ =
      match Hashtbl.find_opt t.pending id with
      | Some r -> r
      | None -> failwith (Printf.sprintf "rpc client: reply to unknown call %Ld" id)
    in
    Hashtbl.remove t.pending id;
    let now = Sim.Engine.now t.engine in
    t.completed <- t.completed + 1;
    E2e.Hints.complete t.hints ~at:now 1;
    rec_.on_reply ~latency:(Sim.Time.diff now rec_.issued_at) reply;
    t.busy <- true;
    Sim.Cpu.run t.cpu ~cost:t.cfg.response_cost (fun () ->
        t.busy <- false;
        process t)

let call t ~meth ~payload ~on_reply =
  let now = Sim.Engine.now t.engine in
  let id = t.next_id in
  t.next_id <- Int64.succ t.next_id;
  t.issued <- t.issued + 1;
  E2e.Hints.create t.hints ~at:now 1;
  Hashtbl.replace t.pending id { issued_at = now; on_reply };
  let wire = Frame.encode (Frame.Request { id; meth; payload }) in
  Sim.Cpu.run t.cpu ~cost:t.cfg.send_cost (fun () -> Tcp.Socket.send t.socket wire)

let outstanding t = Hashtbl.length t.pending
let issued t = t.issued
let completed t = t.completed
let hint_tracker t = t.hints
let hint_share t ~at = E2e.Hints.share t.hints ~at
let perceived t ~prev ~at = E2e.Hints.avgs ~prev ~cur:(hint_share t ~at)
