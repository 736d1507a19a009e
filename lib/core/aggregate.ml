type input = { latency_ns : float option; throughput : float }

type t = { latency_ns : float option; throughput : float; flows : int }

(* One pass over any list of flows, read through the accessors: no
   intermediate list or tuples.  Local refs that no closure captures
   compile to unboxed mutable variables. *)
let accumulate ~latency_ns ~throughput flows_list =
  let weighted = ref 0.0 and weight = ref 0.0 and flows = ref 0 and total = ref 0.0 in
  let rest = ref flows_list and more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | x :: tl ->
      rest := tl;
      let tp = throughput x in
      total := !total +. tp;
      (match latency_ns x with
      | Some l when tp > 0.0 ->
        weighted := !weighted +. (l *. tp);
        weight := !weight +. tp;
        incr flows
      | Some _ | None -> ())
  done;
  {
    latency_ns = (if !weight > 0.0 then Some (!weighted /. !weight) else None);
    throughput = !total;
    flows = !flows;
  }

let combine (inputs : input list) =
  accumulate inputs
    ~latency_ns:(fun (i : input) -> i.latency_ns)
    ~throughput:(fun (i : input) -> i.throughput)

let max_min_ratio xs =
  match xs with
  | [] -> None
  | x :: rest ->
    let lo, hi = List.fold_left (fun (lo, hi) x -> (Float.min lo x, Float.max hi x)) (x, x) rest in
    if lo > 0.0 then Some (hi /. lo) else None

let jain xs =
  let n = List.length xs in
  if n = 0 then None
  else
    let sum = List.fold_left ( +. ) 0.0 xs in
    let sumsq = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if sumsq <= 0.0 then None
    else Some (sum *. sum /. (float_of_int n *. sumsq))

let of_estimates estimates =
  accumulate estimates
    ~latency_ns:(fun (e : Estimator.estimate) -> e.latency_ns)
    ~throughput:(fun (e : Estimator.estimate) -> e.throughput)
