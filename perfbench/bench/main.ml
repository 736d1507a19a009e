(* perfbench: host cost of the simulator on one workload.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Prints the environment, every metric with its unit and any failed
   check, then one JSON object as the last line.  Exits 1 when a
   correctness check fails, 2 on a usage error. *)

let default_seed = 42

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " Perfbench.Workloads.names);
      ("--seed", Arg.Set_int seed, Printf.sprintf " workload seed (default %d)" default_seed);
      ("--seconds", Arg.Set_int seconds, " measurement window in seconds (default 20)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage (Arg.align spec) usage;
    exit 2
  in
  Arg.parse (Arg.align spec) (fun a -> fail ("unexpected argument " ^ a)) usage;
  let w =
    match Perfbench.Workloads.find !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let g = Gc.get () in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" w.name !seed !seconds !trace;
  Printf.printf "env: nproc=%d ocaml=%s word_size=%d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size;
  Printf.printf "gc: minor_heap_size=%d space_overhead=%d max_overhead=%d allocation_policy=%d\n%!"
    g.minor_heap_size g.space_overhead g.max_overhead g.allocation_policy;
  let r =
    Perfbench.Measure.run w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
  in
  List.iter print_endline r.notes;
  List.iter
    (fun (m : Perfbench.Measure.metric) ->
      Printf.printf "  %-36s %16.4f %s\n" m.name m.value m.unit_)
    r.metrics;
  Printf.printf "  attempted=%d failed=%d\n" r.attempted r.failed;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) r.failures;
  print_endline (Perfbench.Measure.json r);
  exit (if r.correct then 0 else 1)
