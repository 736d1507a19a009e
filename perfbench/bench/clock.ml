(* Host time at a nominal host speed.

   The machines this benchmark runs on are shared: the same binary's
   throughput swings by +-20% between phases that last tens of seconds,
   which no measurement window of a few seconds averages out.  So every
   timed region is preceded by [kernel], a fixed allocation-and-compute
   loop owned by the benchmark (stdlib only, independent of the
   simulator's code), and its duration scales the region's wall time to
   what it would be on a host that runs the kernel in [nominal_s]. *)

let now = Unix.gettimeofday

(** Seconds the kernel takes on the reference host: one of the fast
    phases of a 2-vCPU x86-64 container. *)
let nominal_s = 0.05

let kernel () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i land 4095) (string_of_int i);
    match Hashtbl.find_opt h (i * 7 land 4095) with
    | Some s -> acc := !acc + String.length s
    | None -> ()
  done;
  let l = List.init 50_000 (fun i -> i * 7919 mod 10007) in
  ignore (Sys.opaque_identity (List.sort compare l, !acc));
  now () -. t0

(** The factor that converts a wall duration measured now into nominal
    host seconds.  It compacts the heap first, so the kernel runs
    against the same small heap whatever ran before it; the kernel's
    first, slower run in a process is discarded. *)
let speed =
  let warm = lazy (ignore (kernel ())) in
  fun () ->
    Lazy.force warm;
    Gc.compact ();
    nominal_s /. kernel ()
