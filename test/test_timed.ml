(* Tests for timed reachability: the state-class graph (Timed) and the
   frozen explicit-expansion oracle (Timed_explicit). *)

module Net = Pnut_core.Net
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder
module Timed = Pnut_reach.Timed
module Tx = Pnut_reach.Timed_explicit

let one_shot ~firing ~enabling =
  let b = B.create "oneshot" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let t = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] ~firing ~enabling in
  (B.build b, p, q, t)

(* -- state-class graph -- *)

let test_firing_time_states () =
  let net, _, q, t = one_shot ~firing:(Net.Const 2.0) ~enabling:Net.Zero in
  let g = Timed.build net in
  Alcotest.(check bool) "complete" true (Timed.complete g);
  (* classes: initial -> in flight -> done; the oracle's interpolated
     tick state collapses into the Complete edge *)
  Alcotest.(check int) "three classes" 3 (Timed.num_states g);
  Alcotest.(check int) "one deadlock" 1 (List.length (Timed.deadlocks g));
  Alcotest.(check int) "q bound" 1 (Timed.max_tokens g q);
  Alcotest.(check (option (float 0.0))) "t fires at 0" (Some 0.0)
    (Timed.min_cycle_time net t)

let test_enabling_time_states () =
  let net, _, _, t = one_shot ~firing:Net.Zero ~enabling:(Net.Const 3.0) in
  let g = Timed.build net in
  (* the leading wait normalizes away: pending at 0 in the initial class *)
  Alcotest.(check int) "two classes" 2 (Timed.num_states g);
  Alcotest.(check (option (float 0.0))) "t fires at 3" (Some 3.0)
    (Timed.min_cycle_time net t);
  Alcotest.(check int) "deadlocked at end" 1 (List.length (Timed.deadlocks g))

let test_conflict_branches () =
  (* two instant transitions compete: the graph must contain BOTH
     choices (the simulator picks probabilistically; the graph covers
     all) *)
  let b = B.create "branch" in
  let p = B.add_place b "p" ~initial:1 in
  let l = B.add_place b "l" in
  let r = B.add_place b "r" in
  let tl = B.add_transition b "left" ~inputs:[ (p, 1) ] ~outputs:[ (l, 1) ] in
  let tr_ = B.add_transition b "right" ~inputs:[ (p, 1) ] ~outputs:[ (r, 1) ] in
  let net = B.build b in
  let g = Timed.build net in
  let initial_succ = Timed.successors g 0 in
  Alcotest.(check int) "two branches" 2 (List.length initial_succ);
  let labels =
    List.map (fun e -> e.Timed.e_label) initial_succ
    |> List.sort compare
  in
  Alcotest.(check bool) "both fire labels" true
    (labels = [ Timed.Fire tl; Timed.Fire tr_ ] || labels = [ Timed.Fire tr_; Timed.Fire tl ])

let test_interval_domains () =
  (* enabling delays 2 and 5 pending together: the initial class's
     normalized domain pins 'fast' at 0 and 'slow' at 3 *)
  let b = B.create "mintick" in
  let p = B.add_place b "p" ~initial:2 in
  let x = B.add_place b "x" in
  let y = B.add_place b "y" in
  let fast =
    B.add_transition b "fast" ~inputs:[ (p, 1) ] ~outputs:[ (x, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  let slow =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (y, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let net = B.build b in
  let g = Timed.build net in
  let s0 = Timed.state g (Timed.initial g) in
  Alcotest.(check (list int)) "both pending" [ fast; slow ] s0.Timed.ts_pending;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "normalized domain" [ (0.0, 0.0); (3.0, 3.0) ]
    s0.Timed.ts_pending_iv;
  (* and the whole-graph domain arrays agree with the per-class view *)
  let off, sup, lo, hi = Timed.domain_arrays g in
  Alcotest.(check int) "two slots for class 0" 2 (off.(1) - off.(0));
  Alcotest.(check int) "slow's enabling slot" ((2 * slow) + 1) sup.(1);
  Alcotest.(check (float 0.0)) "slow lo" 3.0 lo.(1);
  Alcotest.(check (float 0.0)) "slow hi" 3.0 hi.(1)

let test_residual_enabling_preserved () =
  (* 'slow' (enabling 5) stays continuously enabled across 'fast' events
     that do not touch its tokens: it must fire at exactly 5, not 5 +
     restarts. *)
  let b = B.create "keepalive" in
  let p = B.add_place b "p" ~initial:1 in
  let other = B.add_place b "other" ~initial:1 in
  let sunk = B.add_place b "sunk" in
  let out = B.add_place b "out" in
  let _ =
    B.add_transition b "fast" ~inputs:[ (other, 1) ] ~outputs:[ (sunk, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  let slow =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (out, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let net = B.build b in
  Alcotest.(check (option (float 0.0))) "slow at 5 despite fast at 2" (Some 5.0)
    (Timed.min_cycle_time net slow)

let test_stochastic_rejected () =
  let net, _, _, _ = one_shot ~firing:(Net.Exponential 1.0) ~enabling:Net.Zero in
  Alcotest.check_raises "exponential rejected"
    (Invalid_argument "Reach.Timed: stochastic firing time on transition t")
    (fun () -> ignore (Timed.build net));
  let net2, _, _, _ =
    one_shot ~firing:Net.Zero ~enabling:(Net.Choice [ (1.0, 1.0); (2.0, 1.0) ])
  in
  Alcotest.check_raises "spread choice rejected"
    (Invalid_argument "Reach.Timed: stochastic enabling time on transition t")
    (fun () -> ignore (Timed.build net2))

let test_degenerate_durations_accepted () =
  let net, _, _, t =
    one_shot ~firing:(Net.Uniform (2.0, 2.0))
      ~enabling:(Net.Choice [ (3.0, 1.0); (3.0, 5.0) ])
  in
  Alcotest.(check (option (float 0.0))) "enabling 3 then firing" (Some 3.0)
    (Timed.min_cycle_time net t)

let test_interpreted_timed () =
  (* dynamic deterministic duration from a variable *)
  let b = B.create "dyn" ~variables:[ ("d", Value.Int 4) ] in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let t =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~enabling:(Net.Dynamic (Expr.var "d"))
  in
  let net = B.build b in
  Alcotest.(check (option (float 0.0))) "dynamic delay honoured" (Some 4.0)
    (Timed.min_cycle_time net t)

let test_never_fires () =
  let b = B.create "never" in
  let p = B.add_place b "p" in
  let q = B.add_place b "q" in
  let t = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] in
  let _ = B.add_place b "tok" in
  let net = B.build b in
  Alcotest.(check (option (float 0.0))) "unreachable firing" None
    (Timed.min_cycle_time net t)

let three_stage () =
  let b = B.create "3stage" in
  let a = B.add_place b "a" ~initial:1 in
  let bb = B.add_place b "b" in
  let c = B.add_place b "c" in
  let d = B.add_place b "d" in
  let _ = B.add_transition b "s1" ~inputs:[ (a, 1) ] ~outputs:[ (bb, 1) ] ~firing:(Net.Const 2.0) in
  let _ = B.add_transition b "s2" ~inputs:[ (bb, 1) ] ~outputs:[ (c, 1) ] ~enabling:(Net.Const 3.0) in
  let s3 = B.add_transition b "s3" ~inputs:[ (c, 1) ] ~outputs:[ (d, 1) ] ~firing:(Net.Const 1.0) in
  (B.build b, s3)

let test_agreement_with_simulator () =
  (* For a deterministic linear net, the simulator's event times must
     agree with the vector-space search: end-to-end latency of a 3-stage
     deterministic pipeline is the same in both. *)
  let net, s3 = three_stage () in
  Alcotest.(check (option (float 0.0))) "s3 starts at 5" (Some 5.0)
    (Timed.min_cycle_time net s3);
  let trace, _ = Pnut_sim.Simulator.trace ~until:100.0 net in
  let s3_starts =
    Array.to_list (Pnut_trace.Trace.deltas trace)
    |> List.filter (fun d ->
           d.Pnut_trace.Trace.d_kind = Pnut_trace.Trace.Fire_start
           && d.Pnut_trace.Trace.d_transition = s3)
    |> List.map (fun d -> d.Pnut_trace.Trace.d_time)
  in
  Alcotest.(check (list (float 0.0))) "simulator agrees" [ 5.0 ] s3_starts

let test_packed_build () =
  (* the classes pack into the store and decode to markings the
     untimed interpreted oracle reaches: every settled class (nothing
     in flight) sits on an oracle state, and the class deadlocks are
     the oracle's *)
  let net, _ = three_stage () in
  let g = Timed.build net in
  Alcotest.(check bool) "the store reports its footprint" true
    (Timed.packed_bytes_per_state g <> None);
  let o = Testutil.oracle_build ~max_states:1000 net in
  let reached = Array.to_list (Array.map fst o.Testutil.o_states) in
  for i = 0 to Timed.num_states g - 1 do
    let s = Timed.state g i in
    if s.Timed.ts_flight = [] then
      Alcotest.(check bool)
        (Printf.sprintf "class %d: settled marking reached untimed" i)
        true
        (List.mem s.Timed.ts_marking reached)
  done;
  let oracle_deadlocks =
    List.filteri
      (fun i _ -> not (List.exists (fun (j, _, _) -> j = i) o.Testutil.o_edges))
      reached
  in
  Alcotest.(check (list (array int))) "deadlock markings" oracle_deadlocks
    (List.map (fun i -> (Timed.state g i).Timed.ts_marking) (Timed.deadlocks g))

(* Vectors of a class dedup on a key that must agree with the "%.9g"
   rendering of every residual.  This net mixes residuals that render
   as integers (including 5.0000000001, which renders as "5") with ones
   that do not (0.1 + 0.2 sums, 1e-05); the pipeline with a fractional
   memory time drifts off the integers the same way.  The counts were
   measured with a key built from the full rendering. *)
let frac_net =
  {|net frac
place a init 2
place b
place c init 1
place d
transition t1 in a out b firing 0.1 enabling 0.2
transition t2 in b out a firing 0.3
transition t3 in c out d enabling 0.7 firing 0.1
transition t4 in d out c firing 0.2 enabling 5.0000000001
transition t5 in a, c out b, d firing 1e-5 enabling 0.30000000000000004
|}

let test_vector_dedup_counts () =
  let check name net (classes, edges, vectors) =
    let g = Timed.build net in
    let tag = name ^ ": " in
    Alcotest.(check int) (tag ^ "classes") classes (Timed.num_states g);
    Alcotest.(check int) (tag ^ "edges") edges (Timed.num_edges g);
    Alcotest.(check int) (tag ^ "vectors") vectors (Timed.num_vectors g)
  in
  check "frac" (Pnut_lang.Parser.parse_net frac_net) (20, 26, 100);
  check "memory_cycles 2.3"
    (Pnut_pipeline.Model.full
       { Pnut_pipeline.Config.default with Pnut_pipeline.Config.memory_cycles = 2.3 })
    (693, 1149, 7052)

(* -- frozen explicit-expansion oracle -- *)

let test_explicit_four_states () =
  let net, _, q, t = one_shot ~firing:(Net.Const 2.0) ~enabling:Net.Zero in
  let g = Tx.build net in
  Alcotest.(check bool) "complete" true (Tx.complete g);
  (* states: initial -> fired (in flight 2) -> tick -> complete *)
  Alcotest.(check int) "four states" 4 (Tx.num_states g);
  Alcotest.(check int) "one deadlock" 1 (List.length (Tx.deadlocks g));
  Alcotest.(check int) "q bound" 1 (Tx.max_tokens g q);
  Alcotest.(check (option (float 0.0))) "t fires at 0" (Some 0.0)
    (Tx.min_cycle_time g t)

let test_explicit_tick_minimum () =
  (* two pending enabling delays 2 and 5: tick must be 2 *)
  let b = B.create "mintick" in
  let p = B.add_place b "p" ~initial:2 in
  let x = B.add_place b "x" in
  let y = B.add_place b "y" in
  let _ =
    B.add_transition b "fast" ~inputs:[ (p, 1) ] ~outputs:[ (x, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  let _ =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (y, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let net = B.build b in
  let g = Tx.build net in
  let ticks =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun e -> match e.Tx.e_label with Tx.Tick d -> Some d | _ -> None)
          (Tx.successors g i))
      (List.init (Tx.num_states g) Fun.id)
  in
  Alcotest.(check bool) "first tick is 2" true (List.mem 2.0 ticks);
  Alcotest.(check bool) "no tick skips past a deadline" true
    (List.for_all (fun d -> d <= 5.0) ticks)

let test_explicit_horizon () =
  (* an infinite clock net explored up to a horizon stays finite even
     though states carry accumulated phase *)
  let b = B.create "clock" in
  let p = B.add_place b "p" ~initial:1 in
  let count = B.add_place b "ticks" in
  let _ =
    B.add_transition b "beat" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (count, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  let g = Tx.build ~horizon:4.0 ~max_states:1000 net in
  Alcotest.(check bool) "finite" true (Tx.num_states g < 50);
  Alcotest.(check bool) "ticks bounded by horizon" true
    (Tx.max_tokens g count <= 5)

let test_class_reduction () =
  (* the whole point: on a delay-heavy net the class graph is strictly
     smaller than the explicit expansion while agreeing on markings and
     deadlocks *)
  let net, _ = three_stage () in
  let g = Timed.build net in
  let x = Tx.build net in
  Alcotest.(check bool) "fewer classes than explicit states" true
    (Timed.num_states g < Tx.num_states x);
  let markings_of n state =
    List.init n state |> List.map Array.to_list |> List.sort_uniq compare
  in
  Alcotest.(check (list (list int))) "same reachable markings"
    (markings_of (Tx.num_states x) (fun i -> (Tx.state x i).Tx.ts_marking))
    (markings_of (Timed.num_states g) (fun i -> (Timed.state g i).Timed.ts_marking))

let test_summaries () =
  let net, _, _, _ = one_shot ~firing:(Net.Const 1.0) ~enabling:Net.Zero in
  let g = Timed.build net in
  let text = Format.asprintf "%a" Timed.pp_summary g in
  Testutil.check_contains "class summary" text "timed state-class graph";
  Testutil.check_contains "class summary" text "residual vectors:";
  let x = Tx.build net in
  let xtext = Format.asprintf "%a" Tx.pp_summary x in
  Testutil.check_contains "explicit summary" xtext "timed reachability graph"

(* -- steady-cycle analysis (RP84 performance evaluation) -- *)

let test_steady_cycle_clock () =
  (* a 1-cycle self-loop: period 1, one firing per cycle *)
  let b = B.create "clock" in
  let p = B.add_place b "p" ~initial:1 in
  let beat =
    B.add_transition b "beat" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  (match Timed.steady_cycle net with
  | Some c ->
    Alcotest.(check (float 1e-9)) "period 1" 1.0 c.Timed.cy_period;
    Alcotest.(check int) "one firing" 1 c.Timed.cy_firings.(beat)
  | None -> Alcotest.fail "expected a cycle")

let test_steady_cycle_pipeline_stages () =
  (* two stages in a ring with delays 2 and 3: the cycle takes 5 and each
     stage fires once *)
  let b = B.create "ring" in
  let a = B.add_place b "a" ~initial:1 in
  let bb = B.add_place b "b" in
  let s1 =
    B.add_transition b "s1" ~inputs:[ (a, 1) ] ~outputs:[ (bb, 1) ]
      ~firing:(Net.Const 2.0)
  in
  let s2 =
    B.add_transition b "s2" ~inputs:[ (bb, 1) ] ~outputs:[ (a, 1) ]
      ~enabling:(Net.Const 3.0)
  in
  let net = B.build b in
  (match Timed.steady_cycle net with
  | Some c ->
    Alcotest.(check (float 1e-9)) "period 5" 5.0 c.Timed.cy_period;
    Alcotest.(check int) "s1 once" 1 c.Timed.cy_firings.(s1);
    Alcotest.(check int) "s2 once" 1 c.Timed.cy_firings.(s2)
  | None -> Alcotest.fail "expected a cycle")

let test_steady_cycle_dead_net () =
  let b = B.create "oneshot" in
  let p = B.add_place b "p" ~initial:1 in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~firing:(Net.Const 1.0) in
  let net = B.build b in
  Alcotest.(check bool) "no cycle in a dying net" true
    (Timed.steady_cycle net = None)

let test_steady_cycle_matches_simulation () =
  (* the deterministic prefetch pipeline settles into a periodic regime;
     steady-cycle throughput must match the simulator's long-run rate *)
  let net = Pnut_pipeline.Model.prefetch_only Pnut_pipeline.Config.default in
  match Timed.steady_cycle net with
  | None -> Alcotest.fail "expected a steady cycle"
  | Some c ->
    let decode = Net.transition_id net "Decode" in
    let analytic_rate =
      float_of_int c.Timed.cy_firings.(decode) /. c.Timed.cy_period
    in
    let sink, get = Pnut_stat.Stat.sink () in
    let _ =
      Pnut_sim.Simulator.simulate ~seed:1 ~until:50_000.0 ~sink net
    in
    let sim_rate = Pnut_stat.Stat.throughput (get ()) "Decode" in
    Alcotest.(check bool)
      (Printf.sprintf "cycle rate %.4f vs simulated %.4f" analytic_rate sim_rate)
      true
      (Float.abs (analytic_rate -. sim_rate) < 0.01)

let () =
  Alcotest.run "timed-reach"
    [
      ( "construction",
        [
          Alcotest.test_case "firing time" `Quick test_firing_time_states;
          Alcotest.test_case "enabling time" `Quick test_enabling_time_states;
          Alcotest.test_case "conflict branches" `Quick test_conflict_branches;
          Alcotest.test_case "interval domains" `Quick test_interval_domains;
          Alcotest.test_case "residual enabling" `Quick
            test_residual_enabling_preserved;
          Alcotest.test_case "packed build" `Quick test_packed_build;
          Alcotest.test_case "vector dedup counts" `Quick
            test_vector_dedup_counts;
        ] );
      ( "durations",
        [
          Alcotest.test_case "stochastic rejected" `Quick test_stochastic_rejected;
          Alcotest.test_case "degenerate accepted" `Quick
            test_degenerate_durations_accepted;
          Alcotest.test_case "dynamic deterministic" `Quick test_interpreted_timed;
        ] );
      ( "queries",
        [
          Alcotest.test_case "never fires" `Quick test_never_fires;
          Alcotest.test_case "simulator agreement" `Quick
            test_agreement_with_simulator;
          Alcotest.test_case "summaries" `Quick test_summaries;
        ] );
      ( "explicit oracle",
        [
          Alcotest.test_case "four states" `Quick test_explicit_four_states;
          Alcotest.test_case "minimum tick" `Quick test_explicit_tick_minimum;
          Alcotest.test_case "horizon" `Quick test_explicit_horizon;
          Alcotest.test_case "class reduction" `Quick test_class_reduction;
        ] );
      ( "steady cycle",
        [
          Alcotest.test_case "self-loop clock" `Quick test_steady_cycle_clock;
          Alcotest.test_case "two-stage ring" `Quick
            test_steady_cycle_pipeline_stages;
          Alcotest.test_case "dead net" `Quick test_steady_cycle_dead_net;
          Alcotest.test_case "matches simulation" `Slow
            test_steady_cycle_matches_simulation;
        ] );
    ]
