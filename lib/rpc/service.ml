type handler = string -> (string, string) result

type config = { beta : Sim.Time.span; default_call_cost : Sim.Time.span }

let default_config = { beta = Sim.Time.us 4; default_call_cost = Sim.Time.us 5 }

type registration = { handler : handler; cost : Sim.Time.span }

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  socket : Tcp.Socket.t;
  cfg : config;
  table : (string, registration) Hashtbl.t;
  decoder : Frame.Decoder.t;
  mutable busy : bool;
  mutable served : int;
  mutable errors : int;
  mutable wakeups : int;
  batch_sizes : Sim.Stats.Summary.t;
}

let drain_requests t =
  let rec go acc =
    match Frame.Decoder.next t.decoder with
    | Ok (Some (Frame.Request r)) -> go ((r.id, r.meth, r.payload) :: acc)
    | Ok (Some (Frame.Response _ | Frame.Error_response _)) ->
      failwith "rpc service: received a response frame"
    | Ok None -> List.rev acc
    | Error msg -> failwith ("rpc service: framing error: " ^ msg)
  in
  go []

let lookup t meth = Hashtbl.find_opt t.table meth

let rec wake t = if not t.busy then process t

and process t =
  t.busy <- true;
  t.wakeups <- t.wakeups + 1;
  Tcp.Socket.recv_into t.socket (Frame.Decoder.feed_sub t.decoder);
  let requests = drain_requests t in
  let k = List.length requests in
  if k > 0 then Sim.Stats.Summary.add t.batch_sizes (float_of_int k);
  let cost =
    List.fold_left
      (fun acc (_, meth, _) ->
        acc
        +
        match lookup t meth with
        | Some { cost; _ } -> cost
        | None -> t.cfg.default_call_cost)
      t.cfg.beta requests
  in
  Sim.Cpu.run t.cpu ~cost (fun () ->
      List.iter
        (fun (id, meth, payload) ->
          let reply =
            match lookup t meth with
            | None ->
              t.errors <- t.errors + 1;
              Frame.Error_response { id; message = "unknown method " ^ meth }
            | Some { handler; _ } -> (
              match handler payload with
              | Ok payload ->
                t.served <- t.served + 1;
                Frame.Response { id; payload }
              | Error message ->
                t.errors <- t.errors + 1;
                Frame.Error_response { id; message })
          in
          Tcp.Socket.send t.socket (Frame.encode reply))
        requests;
      t.busy <- false;
      if Tcp.Socket.recv_available t.socket > 0 then process t)

let create engine ~cpu ~socket cfg =
  if cfg.beta < 0 || cfg.default_call_cost < 0 then
    invalid_arg "Service.create: negative costs";
  let t =
    {
      engine;
      cpu;
      socket;
      cfg;
      table = Hashtbl.create 16;
      decoder = Frame.Decoder.create ();
      busy = false;
      served = 0;
      errors = 0;
      wakeups = 0;
      batch_sizes = Sim.Stats.Summary.create ();
    }
  in
  Tcp.Socket.on_readable socket (fun () -> wake t);
  t

let register t ?cost meth handler =
  let cost = Option.value cost ~default:t.cfg.default_call_cost in
  if cost < 0 then invalid_arg "Service.register: negative cost";
  Hashtbl.replace t.table meth { handler; cost }

let methods t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.table [])
let calls_served t = t.served
let errors_returned t = t.errors
let wakeups t = t.wakeups
let batch_sizes t = t.batch_sizes
