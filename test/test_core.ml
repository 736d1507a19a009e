(* Tests for the controller-side core modules: EWMA smoothing, batching
   policies, the epsilon-greedy toggler, the AIMD batch-limit
   controller, and the Figure-1 analytic model. *)

let check_float = Alcotest.(check (float 1e-9))

(* {1 Ewma} *)

let test_ewma_first_sample () =
  let e = E2e.Ewma.create ~alpha:0.5 in
  Alcotest.(check (option (float 0.0))) "empty" None (E2e.Ewma.value e);
  check_float "first sample adopted" 10.0 (E2e.Ewma.update e 10.0)

let test_ewma_converges () =
  let e = E2e.Ewma.create ~alpha:0.5 in
  ignore (E2e.Ewma.update e 0.0);
  for _ = 1 to 50 do
    ignore (E2e.Ewma.update e 100.0)
  done;
  let v = E2e.Ewma.value_or e ~default:0.0 in
  if Float.abs (v -. 100.0) > 1e-6 then Alcotest.failf "did not converge: %f" v

let test_ewma_weights () =
  let e = E2e.Ewma.create ~alpha:0.25 in
  ignore (E2e.Ewma.update e 0.0);
  check_float "one step of alpha=0.25" 25.0 (E2e.Ewma.update e 100.0)

let test_ewma_reset () =
  let e = E2e.Ewma.create ~alpha:0.5 in
  ignore (E2e.Ewma.update e 42.0);
  E2e.Ewma.reset e;
  Alcotest.(check (option (float 0.0))) "reset" None (E2e.Ewma.value e)

let test_ewma_bad_alpha () =
  Alcotest.check_raises "alpha=0" (Invalid_argument "Ewma.create: alpha must be in (0,1]")
    (fun () -> ignore (E2e.Ewma.create ~alpha:0.0));
  Alcotest.check_raises "alpha>1" (Invalid_argument "Ewma.create: alpha must be in (0,1]")
    (fun () -> ignore (E2e.Ewma.create ~alpha:1.5))

let test_ewma_irregular () =
  let e = E2e.Ewma.Irregular.create ~tau:(Sim.Time.us 100) in
  ignore (E2e.Ewma.Irregular.update e ~at:0 0.0);
  (* After exactly tau, the weight is 1 - e^-1 ~ 0.632. *)
  let v = E2e.Ewma.Irregular.update e ~at:(Sim.Time.us 100) 100.0 in
  if Float.abs (v -. 63.212) > 0.01 then Alcotest.failf "tau step: %f" v;
  (* A long gap forgets the past almost completely. *)
  let v = E2e.Ewma.Irregular.update e ~at:(Sim.Time.ms 100) 0.0 in
  if Float.abs v > 0.01 then Alcotest.failf "long gap: %f" v

let prop_ewma_bounded =
  QCheck.Test.make ~name:"EWMA stays within sample range" ~count:300
    QCheck.(pair (float_range 0.01 1.0) (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)))
    (fun (alpha, xs) ->
      let e = E2e.Ewma.create ~alpha in
      List.iter (fun x -> ignore (E2e.Ewma.update e x)) xs;
      match E2e.Ewma.value e with
      | None -> false
      | Some v ->
        let lo = List.fold_left Float.min infinity xs in
        let hi = List.fold_left Float.max neg_infinity xs in
        v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* {1 Policy} *)

let out latency_us tput : E2e.Policy.outcome =
  { latency_ns = latency_us *. 1e3; throughput = tput }

let test_policy_latency () =
  let p = E2e.Policy.Prefer_latency in
  Alcotest.(check bool) "lower latency wins" true
    (E2e.Policy.better p (out 100.0 1.0) (out 200.0 99.0))

let test_policy_throughput () =
  let p = E2e.Policy.Prefer_throughput in
  Alcotest.(check bool) "higher tput wins" true
    (E2e.Policy.better p (out 900.0 50.0) (out 100.0 40.0))

let test_policy_slo () =
  let p = E2e.Policy.Throughput_under_slo { slo_ns = 500e3 } in
  (* both meet: throughput decides *)
  Alcotest.(check bool) "both meet SLO" true
    (E2e.Policy.better p (out 400.0 60.0) (out 100.0 50.0));
  (* both meet with ~equal throughput: latency breaks the tie *)
  Alcotest.(check bool) "tie-break by latency" true
    (E2e.Policy.better p (out 100.0 52.0) (out 400.0 50.0));
  Alcotest.(check bool) "tie-break symmetric" false
    (E2e.Policy.better p (out 400.0 50.0) (out 100.0 52.0));
  (* only one meets: it wins regardless of throughput *)
  Alcotest.(check bool) "SLO-compliant wins" true
    (E2e.Policy.better p (out 450.0 10.0) (out 600.0 90.0));
  Alcotest.(check bool) "SLO-violating loses" false
    (E2e.Policy.better p (out 600.0 90.0) (out 450.0 10.0));
  (* neither meets: latency decides *)
  Alcotest.(check bool) "both violate -> latency" true
    (E2e.Policy.better p (out 600.0 1.0) (out 900.0 99.0))

let test_policy_parse () =
  (match E2e.Policy.of_string "latency" with
  | Ok E2e.Policy.Prefer_latency -> ()
  | _ -> Alcotest.fail "latency");
  (match E2e.Policy.of_string "slo:250" with
  | Ok (E2e.Policy.Throughput_under_slo { slo_ns }) -> check_float "slo us" 250e3 slo_ns
  | _ -> Alcotest.fail "slo:250");
  (match E2e.Policy.of_string "slo" with
  | Ok (E2e.Policy.Throughput_under_slo { slo_ns }) ->
    check_float "default slo" E2e.Policy.default_slo_ns slo_ns
  | _ -> Alcotest.fail "slo");
  match E2e.Policy.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted"

let test_policy_roundtrip () =
  List.iter
    (fun p ->
      match E2e.Policy.of_string (E2e.Policy.to_string p) with
      | Ok p' when p' = p -> ()
      | _ -> Alcotest.failf "roundtrip failed for %s" (E2e.Policy.to_string p))
    [
      E2e.Policy.Prefer_latency;
      E2e.Policy.Prefer_throughput;
      E2e.Policy.Throughput_under_slo { slo_ns = 500_000.0 };
    ]

(* {1 Toggler} *)

let make_toggler ?(epsilon = 0.0) ?(initial = E2e.Toggler.Batch_off) () =
  E2e.Toggler.create ~epsilon ~ewma_alpha:0.5 ~min_observations:1
    ~policy:E2e.Policy.Prefer_latency
    ~rng:(Sim.Rng.create ~seed:1)
    ~initial ()

let test_toggler_explores_unsampled_arm () =
  let t = make_toggler () in
  (* The other arm has no observations: the first decision explores. *)
  Alcotest.(check string) "explores on" "on"
    (E2e.Toggler.mode_to_string (E2e.Toggler.decide t))

let test_toggler_exploits_better_arm () =
  let t = make_toggler () in
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_off (out 100.0 1.0);
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 500.0 1.0);
  (* off has the lower latency: with epsilon=0 we stay off. *)
  for _ = 1 to 10 do
    Alcotest.(check string) "stays off" "off"
      (E2e.Toggler.mode_to_string (E2e.Toggler.decide t))
  done

let test_toggler_switches_when_world_changes () =
  let t = make_toggler () in
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_off (out 100.0 1.0);
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 500.0 1.0);
  ignore (E2e.Toggler.decide t);
  (* The off arm degrades hard; EWMA tracks it and we flip to on. *)
  for _ = 1 to 20 do
    E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_off (out 2000.0 1.0)
  done;
  Alcotest.(check string) "flips to on" "on"
    (E2e.Toggler.mode_to_string (E2e.Toggler.decide t))

let test_toggler_epsilon_explores () =
  let t =
    E2e.Toggler.create ~epsilon:1.0 ~ewma_alpha:0.5 ~min_observations:1
      ~policy:E2e.Policy.Prefer_latency
      ~rng:(Sim.Rng.create ~seed:2)
      ~initial:E2e.Toggler.Batch_off ()
  in
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_off (out 1.0 1.0);
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 9999.0 1.0);
  (* epsilon=1: always try the other arm, even though it is worse. *)
  let m1 = E2e.Toggler.decide t in
  let m2 = E2e.Toggler.decide t in
  Alcotest.(check string) "explored" "on" (E2e.Toggler.mode_to_string m1);
  Alcotest.(check string) "explored back" "off" (E2e.Toggler.mode_to_string m2)

let test_toggler_observation_counts () =
  let t = make_toggler () in
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 1.0 1.0);
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 2.0 1.0);
  Alcotest.(check int) "on samples" 2 (E2e.Toggler.observations t E2e.Toggler.Batch_on);
  Alcotest.(check int) "off samples" 0 (E2e.Toggler.observations t E2e.Toggler.Batch_off)

let test_toggler_smoothing () =
  let t = make_toggler () in
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 100.0 10.0);
  E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 200.0 20.0);
  match E2e.Toggler.smoothed t E2e.Toggler.Batch_on with
  | Some o ->
    check_float "ewma latency" 150e3 o.latency_ns;
    check_float "ewma tput" 15.0 o.throughput
  | None -> Alcotest.fail "expected smoothed outcome"

(* [decide] builds no explanation but must take the same branch and
   make the same rng draws as [decide_explained]: two togglers on one
   seed, fed the same observations and forcings, one deciding each way,
   stay in lockstep and leave their rngs in the same state. *)
type tog_op = Observe of bool * float | Force of bool option | Decide

let prop_decide_matches_explained =
  QCheck.Test.make ~count:300 ~name:"decide draws like decide_explained"
    QCheck.(
      make
        Gen.(
          list_size (0 -- 60)
            (frequency
               [
                 (3, map2 (fun on l -> Observe (on, l)) bool (float_range 1.0 1000.0));
                 (1, map (fun f -> Force f) (opt bool));
                 (4, return Decide);
               ])))
    (fun ops ->
      let make () =
        E2e.Toggler.create ~epsilon:0.3 ~ewma_alpha:0.5 ~min_observations:2
          ~policy:E2e.Policy.Prefer_latency
          ~rng:(Sim.Rng.create ~seed:9)
          ~initial:E2e.Toggler.Batch_off ()
      in
      let a = make () and b = make () in
      let mode on = if on then E2e.Toggler.Batch_on else E2e.Toggler.Batch_off in
      List.for_all
        (fun op ->
          match op with
          | Observe (on, l) ->
            E2e.Toggler.observe a ~mode:(mode on) (out l 1.0);
            E2e.Toggler.observe b ~mode:(mode on) (out l 1.0);
            true
          | Force f ->
            E2e.Toggler.force a (Option.map mode f);
            E2e.Toggler.force b (Option.map mode f);
            true
          | Decide ->
            let before = E2e.Toggler.mode b in
            let chosen = E2e.Toggler.decide a in
            let expl = E2e.Toggler.decide_explained b in
            chosen = expl.chosen && expl.before = before
            && E2e.Toggler.mode a = E2e.Toggler.mode b)
        ops
      &&
      (* same rng state: the togglers' next exploration draws agree *)
      let probe t =
        E2e.Toggler.force t None;
        E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 1.0 1.0);
        E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_on (out 1.0 1.0);
        E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_off (out 1.0 1.0);
        E2e.Toggler.observe t ~mode:E2e.Toggler.Batch_off (out 1.0 1.0);
        List.init 20 (fun _ -> (E2e.Toggler.decide_explained t).why)
      in
      probe a = probe b)

let test_toggler_bad_epsilon () =
  Alcotest.check_raises "epsilon" (Invalid_argument "Toggler.create: epsilon must be in [0,1]")
    (fun () ->
      ignore
        (E2e.Toggler.create ~epsilon:1.5 ~policy:E2e.Policy.Prefer_latency
           ~rng:(Sim.Rng.create ~seed:1) ~initial:E2e.Toggler.Batch_on ()))

(* {1 Aimd} *)

let test_aimd_additive_increase () =
  let a = E2e.Aimd.create ~min_limit:100 ~max_limit:1000 ~increase:50 ~decrease:0.5 () in
  Alcotest.(check int) "initial at min" 100 (E2e.Aimd.limit a);
  Alcotest.(check int) "one good step" 150 (E2e.Aimd.feedback a `Good);
  Alcotest.(check int) "two good steps" 200 (E2e.Aimd.feedback a `Good)

let test_aimd_multiplicative_decrease () =
  let a =
    E2e.Aimd.create ~initial:800 ~min_limit:100 ~max_limit:1000 ~increase:50
      ~decrease:0.5 ()
  in
  Alcotest.(check int) "halved" 400 (E2e.Aimd.feedback a `Bad);
  Alcotest.(check int) "halved again" 200 (E2e.Aimd.feedback a `Bad)

let test_aimd_clamping () =
  let a =
    E2e.Aimd.create ~initial:990 ~min_limit:100 ~max_limit:1000 ~increase:50
      ~decrease:0.5 ()
  in
  Alcotest.(check int) "clamped at max" 1000 (E2e.Aimd.feedback a `Good);
  let b =
    E2e.Aimd.create ~initial:110 ~min_limit:100 ~max_limit:1000 ~increase:50
      ~decrease:0.5 ()
  in
  Alcotest.(check int) "clamped at min" 100 (E2e.Aimd.feedback b `Bad)

let test_aimd_counters_and_slo_adapter () =
  let a = E2e.Aimd.create ~min_limit:1 ~max_limit:10 ~increase:1 ~decrease:0.5 () in
  ignore (E2e.Aimd.feedback a (E2e.Aimd.with_slo ~slo_ns:500e3 (out 100.0 1.0)));
  ignore (E2e.Aimd.feedback a (E2e.Aimd.with_slo ~slo_ns:500e3 (out 900.0 1.0)));
  Alcotest.(check int) "good rounds" 1 (E2e.Aimd.good_rounds a);
  Alcotest.(check int) "bad rounds" 1 (E2e.Aimd.bad_rounds a)

let test_aimd_bad_params () =
  Alcotest.check_raises "inverted range"
    (Invalid_argument "Aimd.create: need 0 < min_limit <= max_limit") (fun () ->
      ignore (E2e.Aimd.create ~min_limit:10 ~max_limit:5 ~increase:1 ~decrease:0.5 ()))

let prop_aimd_stays_in_range =
  QCheck.Test.make ~name:"AIMD limit stays in [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) bool)
    (fun feedback ->
      let a = E2e.Aimd.create ~min_limit:10 ~max_limit:500 ~increase:7 ~decrease:0.7 () in
      List.for_all
        (fun good ->
          let l = E2e.Aimd.feedback a (if good then `Good else `Bad) in
          l >= 10 && l <= 500)
        feedback)

(* {1 Batch_model (Figure 1)} *)

let test_figure1_c1 () =
  (* c=1: batching improves both latency and throughput (Fig 1a). *)
  let v = E2e.Batch_model.compare (E2e.Batch_model.figure1_params ~client_cost:1.0) in
  Alcotest.(check bool) "latency better" true v.batching_improves_latency;
  Alcotest.(check bool) "throughput better" true v.batching_improves_throughput

let test_figure1_c5 () =
  (* c=5: batching degrades both (Fig 1b). *)
  let v = E2e.Batch_model.compare (E2e.Batch_model.figure1_params ~client_cost:5.0) in
  Alcotest.(check bool) "latency worse" false v.batching_improves_latency;
  Alcotest.(check bool) "throughput worse" false v.batching_improves_throughput

let test_figure1_c3 () =
  (* c=3: mixed — throughput better, latency worse (Fig 1c). *)
  let v = E2e.Batch_model.compare (E2e.Batch_model.figure1_params ~client_cost:3.0) in
  Alcotest.(check bool) "latency worse" false v.batching_improves_latency;
  Alcotest.(check bool) "throughput better" true v.batching_improves_throughput

let test_figure1_exact_times () =
  let p = E2e.Batch_model.figure1_params ~client_cost:1.0 in
  let b = E2e.Batch_model.batched p in
  let u = E2e.Batch_model.unbatched p in
  (* server done at 3*2+4 = 10; client completions at 11,12,13. *)
  Alcotest.(check (array (float 1e-9))) "batched completions" [| 11.0; 12.0; 13.0 |]
    b.completions;
  (* responses at 6,12,18; completions 7,13,19. *)
  Alcotest.(check (array (float 1e-9))) "unbatched completions" [| 7.0; 13.0; 19.0 |]
    u.completions

let test_figure1_processing_totals () =
  (* Overall processing: n*alpha + beta batched, n*(alpha+beta) not. *)
  let p = E2e.Batch_model.figure1_params ~client_cost:0.0 in
  let b = E2e.Batch_model.batched p in
  let u = E2e.Batch_model.unbatched p in
  check_float "batched makespan" 10.0 b.makespan;
  check_float "unbatched makespan" 18.0 u.makespan

let test_scan_client_cost () =
  let scans =
    E2e.Batch_model.scan_client_cost ~alpha:2.0 ~beta:4.0 ~n:3
      ~costs:[ 1.0; 3.0; 5.0 ]
  in
  Alcotest.(check int) "three points" 3 (List.length scans)

let test_batch_model_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Batch_model: n must be positive")
    (fun () ->
      ignore
        (E2e.Batch_model.batched { alpha = 1.0; beta = 1.0; client_cost = 1.0; n = 0 }))

(* Property: with a free client (c = 0) and beta > 0, batching always
   improves throughput (makespan n*alpha + beta < n*(alpha+beta));
   average latency improves exactly when the amortizable cost dominates
   the per-request cost (beta > alpha). *)
let prop_batching_wins_without_client_cost =
  QCheck.Test.make ~name:"c=0 batching economics" ~count:200
    QCheck.(triple (float_range 0.1 10.0) (float_range 0.1 10.0) (int_range 2 20))
    (fun (alpha, beta, n) ->
      QCheck.assume (Float.abs (beta -. alpha) > 1e-6);
      let v = E2e.Batch_model.compare { alpha; beta; client_cost = 0.0; n } in
      v.batching_improves_throughput
      && v.batching_improves_latency = (beta > alpha))

(* {1 Units} *)

let test_units_roundtrip () =
  List.iter
    (fun u ->
      match E2e.Units.of_string (E2e.Units.to_string u) with
      | Ok u' when E2e.Units.equal u u' -> ()
      | _ -> Alcotest.failf "roundtrip failed for %s" (E2e.Units.to_string u))
    E2e.Units.all;
  match E2e.Units.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted nonsense"

let suite =
  [
    ( "core.ewma",
      [
        Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
        Alcotest.test_case "converges" `Quick test_ewma_converges;
        Alcotest.test_case "weights" `Quick test_ewma_weights;
        Alcotest.test_case "reset" `Quick test_ewma_reset;
        Alcotest.test_case "rejects bad alpha" `Quick test_ewma_bad_alpha;
        Alcotest.test_case "irregular sampling" `Quick test_ewma_irregular;
        QCheck_alcotest.to_alcotest prop_ewma_bounded;
      ] );
    ( "core.policy",
      [
        Alcotest.test_case "prefer latency" `Quick test_policy_latency;
        Alcotest.test_case "prefer throughput" `Quick test_policy_throughput;
        Alcotest.test_case "throughput under SLO" `Quick test_policy_slo;
        Alcotest.test_case "parse" `Quick test_policy_parse;
        Alcotest.test_case "roundtrip" `Quick test_policy_roundtrip;
      ] );
    ( "core.toggler",
      [
        Alcotest.test_case "explores unsampled arm" `Quick
          test_toggler_explores_unsampled_arm;
        Alcotest.test_case "exploits better arm" `Quick test_toggler_exploits_better_arm;
        Alcotest.test_case "adapts to change" `Quick
          test_toggler_switches_when_world_changes;
        Alcotest.test_case "epsilon exploration" `Quick test_toggler_epsilon_explores;
        Alcotest.test_case "observation counts" `Quick test_toggler_observation_counts;
        Alcotest.test_case "EWMA smoothing" `Quick test_toggler_smoothing;
        Alcotest.test_case "rejects bad epsilon" `Quick test_toggler_bad_epsilon;
        QCheck_alcotest.to_alcotest prop_decide_matches_explained;
      ] );
    ( "core.aimd",
      [
        Alcotest.test_case "additive increase" `Quick test_aimd_additive_increase;
        Alcotest.test_case "multiplicative decrease" `Quick
          test_aimd_multiplicative_decrease;
        Alcotest.test_case "clamping" `Quick test_aimd_clamping;
        Alcotest.test_case "counters and SLO adapter" `Quick
          test_aimd_counters_and_slo_adapter;
        Alcotest.test_case "rejects bad params" `Quick test_aimd_bad_params;
        QCheck_alcotest.to_alcotest prop_aimd_stays_in_range;
      ] );
    ( "core.batch_model",
      [
        Alcotest.test_case "Fig 1a: c=1 helps both" `Quick test_figure1_c1;
        Alcotest.test_case "Fig 1b: c=5 hurts both" `Quick test_figure1_c5;
        Alcotest.test_case "Fig 1c: c=3 mixed" `Quick test_figure1_c3;
        Alcotest.test_case "exact completion times" `Quick test_figure1_exact_times;
        Alcotest.test_case "processing totals" `Quick test_figure1_processing_totals;
        Alcotest.test_case "client-cost scan" `Quick test_scan_client_cost;
        Alcotest.test_case "validation" `Quick test_batch_model_validation;
        QCheck_alcotest.to_alcotest prop_batching_wins_without_client_cost;
      ] );
    ( "core.units",
      [ Alcotest.test_case "string roundtrip" `Quick test_units_roundtrip ] );
  ]
