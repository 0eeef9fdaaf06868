(* The determinism contract of the multicore layer: every parallel
   entry point returns bit-identical results for every [jobs] value. *)

module Net = Pnut_core.Net
module Value = Pnut_core.Value
module Expr = Pnut_core.Expr
module B = Net.Builder
module Graph = Pnut_reach.Graph
module Timed = Pnut_reach.Timed
module Stat = Pnut_stat.Stat
module Replication = Pnut_stat.Replication
module Campaign = Pnut_fault.Campaign

let pipeline () = Pnut_pipeline.Model.full Pnut_pipeline.Config.default

(* A deterministic interpreted net: variables and a table influence both
   a predicate and actions, so states differ in env as well as in
   marking. *)
let interpreted_net () =
  let b =
    B.create "interp"
      ~variables:[ ("n", Value.Int 0); ("mode", Value.Int 0) ]
      ~tables:[ ("hist", [| Value.Int 0; Value.Int 0 |]) ]
  in
  let p = B.add_place b "p" ~initial:2 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "step" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~predicate:Expr.(var "n" < int 4)
      ~action:
        [
          Expr.Assign ("n", Expr.(var "n" + int 1));
          Expr.Table_assign ("hist", Expr.var "mode", Expr.var "n");
        ]
  in
  let _ =
    B.add_transition b "flip" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ]
      ~action:[ Expr.Assign ("mode", Expr.(int 1 - var "mode")) ]
  in
  B.build b

(* -- reachability: the sweeps are serial --

   Graph and state-class builds take [?jobs] only as a shim for the
   frozen perfbench harness.  The graphs are checked against the
   interpreted oracle, and the shim against itself: [jobs] must reach
   nothing that changes the store. *)

let check_oracle name net =
  Alcotest.(check bool)
    (name ^ ": graph equals the interpreted oracle's")
    true
    (Testutil.matches_oracle (Graph.build net)
       (Testutil.oracle_build ~max_states:100_000 net))

let test_graph_pipeline () = check_oracle "pipeline" (pipeline ())
let test_graph_interpreted () = check_oracle "interpreted" (interpreted_net ())

let check_jobs_shim name net =
  let build jobs =
    Pnut_exec.Supervisor.value (Graph.build_supervised ~jobs net)
  in
  Alcotest.(check bool)
    (name ^ ": jobs=1 and jobs=2 store arrays byte-identical")
    true
    (Graph.packed_arrays (build 1) = Graph.packed_arrays (build 2))

let test_packed_pipeline () = check_jobs_shim "pipeline" (pipeline ())

let test_packed_interpreted () =
  check_jobs_shim "interpreted" (interpreted_net ())

let test_timed_parity () =
  let build jobs =
    Pnut_exec.Supervisor.value (Timed.build_supervised ~jobs (pipeline ()))
  in
  let g1 = build 1 and g2 = build 2 in
  Alcotest.(check bool) "timed class graph non-trivial" true
    (Timed.num_states g1 > 4);
  Alcotest.(check bool) "jobs=1 and jobs=2 class arrays byte-identical" true
    (Timed.packed_arrays g1 = Timed.packed_arrays g2
    && Timed.domain_arrays g1 = Timed.domain_arrays g2)

let test_replicate_parity () =
  let net = pipeline () in
  let estimate jobs =
    Replication.replicate ~seed:11 ~jobs ~runs:6 ~until:500.0 net (fun r ->
        Stat.throughput r "Issue")
  in
  let serial = estimate 1 in
  Alcotest.(check bool) "estimate non-degenerate" true (serial.Replication.mean > 0.0);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d estimate bit-identical" jobs)
        true
        (estimate jobs = serial))
    [ 2; 4 ]

let test_campaign_parity () =
  let net = pipeline () in
  let specs =
    Pnut_fault.Fault.parse "stuck End_prefetch from 50 until 150"
  in
  let report jobs =
    Campaign.render (Campaign.run ~seed:3 ~runs:4 ~until:500.0 ~jobs net specs)
  in
  let serial = report 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d report identical" jobs)
        serial (report jobs))
    [ 2; 4 ]

let () =
  Alcotest.run "parallel-determinism"
    [
      ( "reach",
        [
          Alcotest.test_case "pipeline graph parity" `Slow test_graph_pipeline;
          Alcotest.test_case "interpreted graph parity" `Quick
            test_graph_interpreted;
          Alcotest.test_case "packed sharded parity" `Slow test_packed_pipeline;
          Alcotest.test_case "packed fallback parity" `Quick
            test_packed_interpreted;
          Alcotest.test_case "timed graph parity" `Quick test_timed_parity;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "replicate parity" `Slow test_replicate_parity;
          Alcotest.test_case "campaign parity" `Slow test_campaign_parity;
        ] );
    ]
