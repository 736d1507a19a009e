(* The four benchmark workloads.  Each is one deterministic simulation
   to a fixed simulated horizon; the seed is the only input that varies
   between runs, and the simulator only ever sees the configs built
   here.  Horizons are sized so one run costs about a second of host
   time or less, letting a measurement window repeat the same
   simulation several times and report a median. *)

type kind =
  | Runner of { rate_rps : float; batching : Loadgen.Runner.batching }
  | Fleet

type t = {
  name : string;
  kind : kind;
  warmup_ms : int;
  duration_ms : int;
  mix : (string * Loadgen.Workload.t * float) list;
      (** request mix seen by the server, as (tenant, workload, share
          of requests) — what the layer probes are shaped by; the
          tenant is [""] outside fleets *)
  conns : int;  (** connections alive at start *)
  observed : bool;
      (** [Observe] attached with a binary trace sink, and the file
          folded back through [Span.Streaming] after the run *)
  sims : int;
      (** simulations, each with its own seed, that one end-to-end
          run measures and sums over *)
}

(* The scale-smoke fleet shape with per-connection dynamic control and
   Poisson churn on the VM tenant. *)
let fleet_bare_conns = 6000
let fleet_vm_conns = 4000
let fleet_bare_rps = 40000.
let fleet_vm_rps = 15000.

let fleet_spec_text ~seed ~warmup_ms ~duration_ms =
  String.concat "\n"
    [
      Printf.sprintf
        "fleet seed=%d warmup_ms=%d duration_ms=%d scope=per_conn batching=dynamic"
        seed warmup_ms duration_ms;
      "server cores=4 lb=least_loaded";
      Printf.sprintf "tenant name=bare conns=%d rate_rps=%.0f batching=dynamic"
        fleet_bare_conns fleet_bare_rps;
      Printf.sprintf
        "tenant name=vm conns=%d rate_rps=%.0f mix=small cpu_mult=4 batching=dynamic \
         churn_arrive_rps=20000 churn_depart_rps=20000 churn_min=3500 churn_max=4500"
        fleet_vm_conns fleet_vm_rps;
      "";
    ]

let small_dynamic =
  Runner
    { rate_rps = 100e3; batching = Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic }

let all =
  let small = Loadgen.Workload.small_requests in
  [
    {
      name = "fig4a-16k";
      kind = Runner { rate_rps = 50e3; batching = Loadgen.Runner.Static_off };
      warmup_ms = 10;
      duration_ms = 90;
      mix = [ ("", Loadgen.Workload.paper_set_only, 1.0) ];
      conns = 1;
      observed = false;
      sims = 4;
    };
    {
      name = "small-64b";
      kind = small_dynamic;
      warmup_ms = 10;
      duration_ms = 390;
      mix = [ ("", small, 1.0) ];
      conns = 1;
      observed = false;
      sims = 4;
    };
    {
      name = "fleet-sharded";
      kind = Fleet;
      warmup_ms = 10;
      duration_ms = 20;
      mix =
        (let total = fleet_bare_rps +. fleet_vm_rps in
         [
           ("bare", Loadgen.Workload.paper_set_only, fleet_bare_rps /. total);
           ("vm", small, fleet_vm_rps /. total);
         ]);
      conns = fleet_bare_conns + fleet_vm_conns;
      observed = false;
      sims = 1;
    };
    {
      name = "observed-64b";
      kind = small_dynamic;
      warmup_ms = 10;
      duration_ms = 190;
      mix = [ ("", small, 1.0) ];
      conns = 1;
      observed = true;
      sims = 4;
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all

(* ---- Running one simulation ------------------------------------- *)

type fold_check = {
  request_done : int;  (** [Request_done] records in the folded file *)
  resolved : int;  (** spans the streaming fold resolved *)
  incomplete : int;  (** requests it reported incomplete *)
  pending : int;  (** of which still in flight at the end of the file *)
}

type outcome = {
  issued : int;
  completed_total : int;
  outstanding_end : int;
  failures : string list;  (** accounting checks that did not hold *)
  model : (string * float) list;  (** simulated result scalars *)
  digest : string;  (** of every simulated result scalar *)
}

(* Scratch files live inside the checkout the benchmark runs from. *)
let tmp_dir = ".perfbench_tmp"

let tmp_path file =
  if not (Sys.file_exists tmp_dir) then Sys.mkdir tmp_dir 0o755;
  Filename.concat tmp_dir file

let remove_tmp () =
  if Sys.file_exists tmp_dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat tmp_dir f)) (Sys.readdir tmp_dir);
    Sys.rmdir tmp_dir
  end

let digest_of fields = Digest.to_hex (Digest.string (String.concat "|" fields))
let hex f = Printf.sprintf "%h" f
let opt_hex = function Some f -> hex f | None -> "-"

let closure ~what ~issued ~completed_total ~outstanding_end =
  if issued = completed_total + outstanding_end then []
  else
    [
      Printf.sprintf "%s: issued %d <> completed_total %d + outstanding_end %d" what
        issued completed_total outstanding_end;
    ]

(* An observe config that only routes typed events to [sink].  Its
   sampling tick is pushed past the horizon so it adds no estimator
   peeks: the events the sink sees are the ones the untraced run also
   executes. *)
let counting_observe sink =
  {
    Loadgen.Observe.default_config with
    trace_capacity = 16;
    sample_interval = Sim.Time.sec 3600;
    trace_sink = Some sink;
  }

(* The observed workload's own observability: the [run --trace-out
   x.bin] configuration, ring replaced by a binary-file sink. *)
let user_observe sink =
  { Loadgen.Observe.default_config with trace_capacity = 1024; trace_sink = Some sink }

let runner_config w ~rate_rps ~batching ~seed ~setup =
  let base = Loadgen.Runner.default_config ~rate_rps ~batching in
  {
    base with
    seed;
    warmup = Sim.Time.ms (if setup then 0 else w.warmup_ms);
    duration = Sim.Time.ms (if setup then 0 else w.duration_ms);
    workload = (match w.mix with [ (_, wl, _) ] -> wl | _ -> invalid_arg "runner mix");
  }

let run_runner w cfg ~observe =
  let r = Loadgen.Runner.run { cfg with Loadgen.Runner.observe } in
  let failures =
    closure ~what:"run" ~issued:r.issued ~completed_total:r.completed_total
      ~outstanding_end:r.outstanding_end
  in
  let model =
    [
      ("model.completed", float_of_int r.completed_total);
      ("model.p99_us", r.measured_p99_us);
      ("model.packets_per_req", r.packets_per_request);
      ("model.server_batch_mean", r.server_batch_mean);
    ]
  in
  let digest =
    digest_of
      ([
         w.name;
         string_of_int r.completed;
         string_of_int r.issued;
         string_of_int r.completed_total;
         string_of_int r.outstanding_end;
         string_of_int r.packets;
         string_of_int r.server_wakeups;
         string_of_int r.nagle_toggles;
         string_of_int r.server_acks_by_timer;
         hex r.achieved_rps;
         hex r.measured_mean_us;
         hex r.measured_p50_us;
         hex r.measured_p99_us;
         hex r.server_batch_mean;
         hex r.client_app_util;
         hex r.server_app_util;
         opt_hex r.estimated_us;
         hex r.estimated_tput_rps;
       ])
  in
  {
    issued = r.issued;
    completed_total = r.completed_total;
    outstanding_end = r.outstanding_end;
    failures;
    model;
    digest;
  }

let compile_fleet w ~seed ~setup =
  match
    Scenario.Spec.of_string
      (fleet_spec_text ~seed ~warmup_ms:w.warmup_ms ~duration_ms:w.duration_ms)
  with
  | Error e -> failwith ("fleet scenario: " ^ e)
  | Ok spec ->
    let cfg = Scenario.Exec.to_fleet spec in
    if setup then { cfg with Loadgen.Fleet.warmup = 0; duration = 0 } else cfg

let run_fleet w cfg ~observe =
  let r = Loadgen.Fleet.run { cfg with Loadgen.Fleet.observe } in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let issued = sum (fun (t : Loadgen.Fleet.tenant_result) -> t.t_issued) r.tenants in
  let completed_total =
    sum (fun (t : Loadgen.Fleet.tenant_result) -> t.t_completed_total) r.tenants
  in
  let outstanding_end =
    sum (fun (t : Loadgen.Fleet.tenant_result) -> t.t_outstanding_end) r.tenants
  in
  let failures =
    List.concat_map
      (fun (t : Loadgen.Fleet.tenant_result) ->
        closure ~what:("tenant " ^ t.t_name) ~issued:t.t_issued
          ~completed_total:t.t_completed_total ~outstanding_end:t.t_outstanding_end)
      r.tenants
    @ List.concat_map
        (fun (s : Loadgen.Fleet.shard_result) ->
          closure
            ~what:(Printf.sprintf "shard s%d" s.sh_index)
            ~issued:s.sh_issued ~completed_total:s.sh_completed_total
            ~outstanding_end:s.sh_outstanding_end)
        r.shards
    @ (let sh_issued = sum (fun (s : Loadgen.Fleet.shard_result) -> s.sh_issued) r.shards in
       if sh_issued = issued then []
       else [ Printf.sprintf "shards issued %d <> tenants issued %d" sh_issued issued ])
  in
  let model =
    [
      ("model.completed", float_of_int completed_total);
      ("model.p99_us", r.fleet_p99_us);
      (* Fleet.result carries no packet count (the traced run fills it
         in from the data segments it counts) and no server batch
         size. *)
      ("model.packets_per_req", 0.0);
      ("model.server_batch_mean", 0.0);
    ]
  in
  let digest =
    digest_of
      (w.name
       :: hex r.fleet_achieved_rps :: hex r.fleet_mean_us :: hex r.fleet_p99_us
       :: List.concat_map
            (fun (t : Loadgen.Fleet.tenant_result) ->
              [
                t.t_name;
                string_of_int t.t_completed;
                string_of_int t.t_issued;
                string_of_int t.t_completed_total;
                string_of_int t.t_outstanding_end;
                string_of_int t.t_nagle_toggles;
                string_of_int t.t_conns_opened;
                string_of_int t.t_conns_closed;
                hex t.t_mean_us;
                hex t.t_p99_us;
                opt_hex t.t_estimated_us;
              ])
            r.tenants
      @ List.concat_map
          (fun (s : Loadgen.Fleet.shard_result) ->
            [
              string_of_int s.sh_conns;
              string_of_int s.sh_issued;
              string_of_int s.sh_completed_total;
              hex s.sh_p99_us;
            ])
          r.shards
      @ List.map
          (fun (g, m) -> g ^ "=" ^ E2e.Toggler.mode_to_string m)
          r.final_modes)
  in
  { issued; completed_total; outstanding_end; failures; model; digest }

(* Stream the trace file back the way [inspect] does and check that
   every completed request resolves to a span or is written off. *)
let fold_trace path =
  let s = Sim.Span.Streaming.create () in
  let done_ = ref 0 in
  match
    Sim.Trace.fold_file path ~init:() ~f:(fun () _run r ->
        (match r.Sim.Trace.event with
        | Sim.Trace.Request_done _ -> incr done_
        | _ -> ());
        ignore (Sim.Span.Streaming.feed s r))
  with
  | Error e -> Error e
  | Ok () ->
    Ok
      {
        request_done = !done_;
        resolved = Sim.Span.Streaming.resolved s;
        incomplete = Sim.Span.Streaming.incomplete s;
        pending = Sim.Span.Streaming.pending s;
      }

let fold_failures (f : fold_check) ~outstanding_end =
  (if f.resolved + (f.incomplete - f.pending) = f.request_done then []
   else
     [
       Printf.sprintf
         "span fold: %d Request_done records but %d resolved + %d written off"
         f.request_done f.resolved (f.incomplete - f.pending);
     ])
  @
  if f.pending = outstanding_end then []
  else
    [
      Printf.sprintf "span fold: %d requests pending at end of trace, run reports %d"
        f.pending outstanding_end;
    ]

(* Non-observed workloads attach observability only for the traced
   run's counting sink; the observed one always streams its binary
   trace, then folds it back and checks the fold. *)
let with_trace_file w ~sink run =
  if not w.observed then run (Option.map counting_observe sink)
  else begin
    let path = tmp_path (w.name ^ ".bin") in
    let oc = open_out_bin path in
    let writer = Sim.Trace.Binary.writer oc in
    let write r = Sim.Trace.Binary.write writer r in
    let sink =
      match sink with
      | None -> write
      | Some count ->
        fun r ->
          count r;
          write r
    in
    let o =
      Fun.protect
        ~finally:(fun () ->
          Sim.Trace.Binary.finish writer;
          close_out oc)
        (fun () -> run (Some (user_observe sink)))
    in
    let fold = fold_trace path in
    Sys.remove path;
    match fold with
    | Error e -> { o with failures = o.failures @ [ "trace fold: " ^ e ] }
    | Ok f -> { o with failures = o.failures @ fold_failures f ~outstanding_end:o.outstanding_end }
  end

(** A prepared simulation: everything the timed region must not pay
    for (scenario parsing and compilation) is done by [prepare]. *)
type prepared = Prepared_runner of Loadgen.Runner.config | Prepared_fleet of Loadgen.Fleet.config

let prepare w ~seed ~setup =
  match w.kind with
  | Runner { rate_rps; batching } ->
    Prepared_runner (runner_config w ~rate_rps ~batching ~seed ~setup)
  | Fleet -> Prepared_fleet (compile_fleet w ~seed ~setup)

(** Run a prepared simulation; [sink] (the traced run) receives every
    typed event the simulator emits. *)
let run ?sink w p =
  with_trace_file w ~sink (fun observe ->
      match p with
      | Prepared_runner cfg -> run_runner w cfg ~observe
      | Prepared_fleet cfg -> run_fleet w cfg ~observe)

(** Set-up as the user pays it: parse/compile the config and build the
    world, by running the same workload to a zero horizon. *)
let run_setup w ~seed =
  let o = run w (prepare w ~seed ~setup:true) in
  ignore (Sys.opaque_identity o)

(** Fill lazily built caches the timed run would otherwise pay for
    once: the shared value payloads of every request size. *)
let warm w = List.iter (fun (_, wl, _) -> ignore (Loadgen.Workload.request_bytes wl `Set)) w.mix
