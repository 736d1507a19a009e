type t = {
  mutable time : Sim.Time.t;
  mutable size : int;
  mutable total : int;
  mutable integral : float;
}

let create ~at = { time = at; size = 0; total = 0; integral = 0.0 }

let track t ~at nitems =
  if Sim.Time.compare at t.time < 0 then
    invalid_arg "Queue_state.track: time went backwards";
  let dt = Sim.Time.diff at t.time in
  t.integral <- t.integral +. (float_of_int t.size *. float_of_int dt);
  t.time <- at;
  let nsize = t.size + nitems in
  if nsize < 0 then invalid_arg "Queue_state.track: size would become negative";
  t.size <- nsize;
  if nitems < 0 then t.total <- t.total - nitems

let size t = t.size
let total t = t.total

type share = { time : Sim.Time.t; total : int; integral : float }

let[@inline] integral_at (t : t) ~at =
  if Sim.Time.compare at t.time < 0 then
    invalid_arg "Queue_state.snapshot: time went backwards";
  let dt = Sim.Time.diff at t.time in
  t.integral +. (float_of_int t.size *. float_of_int dt)

let snapshot (t : t) ~at = { time = at; total = t.total; integral = integral_at t ~at }

let integral_into t ~at dst i = Float.Array.set dst i (integral_at t ~at)

type avgs = { q_avg : float; throughput : float; latency_ns : float option }

let get_avgs ~prev ~cur =
  let dt = Sim.Time.diff cur.time prev.time in
  if dt <= 0 then None
  else begin
    let d_total = cur.total - prev.total in
    let d_integral = cur.integral -. prev.integral in
    let q_avg = d_integral /. float_of_int dt in
    let throughput = float_of_int d_total /. Sim.Time.to_sec dt in
    let latency_ns =
      if d_total > 0 then Some (d_integral /. float_of_int d_total) else None
    in
    Some { q_avg; throughput; latency_ns }
  end

let pp_share ppf s =
  Format.fprintf ppf "(time=%a total=%d integral=%.0f)" Sim.Time.pp s.time s.total
    s.integral

let pp ppf (t : t) =
  Format.fprintf ppf "(time=%a size=%d total=%d integral=%.0f)" Sim.Time.pp t.time
    t.size t.total t.integral
