(* Stubborn-set partial-order reduction: reduction factors on the indep
   benchmark family, differential agreement with the full build, jobs
   determinism, budget behavior and fragment rejection. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder
module Graph = Pnut_reach.Graph
module Stubborn = Pnut_reach.Stubborn
module Pool = Pnut_exec.Pool
module Supervisor = Pnut_exec.Supervisor

(* the single-core CI box would otherwise print a contention warning per
   distinct explicit --jobs value *)
let () = Pool.set_warning_printer (fun _ -> ())

let deadlock_markings g =
  Graph.deadlocks g
  |> List.map (fun i -> (Graph.state g i).Graph.s_marking)
  |> List.sort compare

let check_same_deadlocks what full reduced =
  Alcotest.(check (list (array int)))
    (what ^ ": deadlock marking sets")
    (deadlock_markings full) (deadlock_markings reduced)

let check_same_bounds what net full reduced =
  for p = 0 to Net.num_places net - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: bound of %s" what (Net.place net p).Net.p_name)
      (Graph.bound full p) (Graph.bound reduced p)
  done

(* -- indep<N>x<K>: the interleaving-explosion benchmark -- *)

let test_indep_reduction () =
  let net = Pnut_pipeline.Indep.net ~pipelines:6 ~stages:4 in
  let full = Graph.build net in
  let reduced = Graph.build ~por:true net in
  Alcotest.(check int) "full graph is 5^6" 15625 (Graph.num_states full);
  Alcotest.(check bool) "full graph equals the interpreted oracle's" true
    (Testutil.matches_oracle full
       (Testutil.oracle_build ~max_states:100_000 net));
  Alcotest.(check bool) "reduced visits >= 5x fewer states" true
    (Graph.num_states full >= 5 * Graph.num_states reduced);
  Alcotest.(check bool) "both complete" true
    (Graph.complete full && Graph.complete reduced);
  check_same_deadlocks "indep6x4" full reduced;
  check_same_bounds "indep6x4" net full reduced

let test_indep_deadlock_is_final_slots () =
  (* the unique deadlock has every token in its pipeline's last slot —
     in full and reduced builds alike *)
  let net = Pnut_pipeline.Indep.net ~pipelines:3 ~stages:2 in
  let expected = Array.make (Net.num_places net) 0 in
  for i = 0 to 2 do
    expected.(Net.place_id net (Printf.sprintf "P%d_s2" (i + 1))) <- 1
  done;
  List.iter
    (fun por ->
      let g = Graph.build ~por net in
      match deadlock_markings g with
      | [ m ] ->
        Alcotest.(check (array int))
          (Printf.sprintf "por=%b: all tokens in final slots" por)
          expected m
      | l ->
        Alcotest.failf "por=%b: expected 1 deadlock, got %d" por
          (List.length l))
    [ false; true ]

let test_indep_parse_name () =
  Alcotest.(check (option (pair int int)))
    "indep6x4" (Some (6, 4))
    (Pnut_pipeline.Indep.parse_name "indep6x4");
  List.iter
    (fun s ->
      Alcotest.(check (option (pair int int))) s None
        (Pnut_pipeline.Indep.parse_name s))
    [ "indep0x4"; "indep6x0"; "indep6x"; "indepx4"; "pipeline";
      "indep6x4b"; "indep-1x4" ]

(* -- jobs sweep: the reduced arrays are byte-identical --

   The sweep is serial; [?jobs] survives on [Graph.build_supervised]
   only as a shim for the frozen perfbench harness. *)

let test_jobs_sweep_identical () =
  let net = Pnut_pipeline.Indep.net ~pipelines:4 ~stages:3 in
  let arrays jobs =
    let g =
      Supervisor.value (Graph.build_supervised ~por:true ~jobs net)
    in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d complete" jobs)
      true (Graph.complete g);
    match Graph.packed_arrays g with
    | Some a -> a
    | None -> Alcotest.failf "jobs=%d: no store arrays" jobs
  in
  let a1, i1, o1, d1 = arrays 1 in
  List.iter
    (fun jobs ->
      let a, i, o, d = arrays jobs in
      let chk what x y =
        Alcotest.(check (array int))
          (Printf.sprintf "jobs=%d %s identical" jobs what)
          x y
      in
      chk "arena" a1 a;
      chk "index" i1 i;
      chk "succ_off" o1 o;
      chk "succ_dat" d1 d)
    [ 2; 4 ]

(* -- random terminating nets: differential full vs reduced -- *)

(* Layered forward nets: every transition consumes >= 1 token from its
   input places, and every output place sits strictly above every input
   place with at most as many output arcs as input arcs.  The potential
   sum of m(p) * 2^(np-1-p) then drops on every firing (each produced
   token is worth at most half the cheapest consumed one), so every run
   terminates — which is exactly the fragment where the coarse conflict
   relation preserves place bounds, not just deadlocks.  Inhibitor arcs
   are thrown in freely: they restrict enabling without moving tokens. *)
let random_terminating_net seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let np = 4 + int 5 in
  let nt = 2 + int 7 in
  let b = B.create (Printf.sprintf "rand%d" seed) in
  let places =
    Array.init np (fun i ->
        let initial = if i < (np + 1) / 2 then int 3 else 0 in
        B.add_place b (Printf.sprintf "p%d" i) ~initial)
  in
  for t = 0 to nt - 1 do
    let maxin = int (np - 1) in
    let ins =
      if int 2 = 1 && maxin > 0 then
        List.sort_uniq compare [ int maxin; maxin ]
      else [ maxin ]
    in
    let avail = List.init (np - 1 - maxin) (fun i -> maxin + 1 + i) in
    let no = min (int (List.length ins + 1)) (List.length avail) in
    let outs =
      List.map (fun p -> (Random.State.bits rng, p)) avail
      |> List.sort compare |> List.map snd
      |> List.filteri (fun i _ -> i < no)
    in
    let inhibitors =
      if int 10 < 3 then
        let p = int np in
        if List.mem p ins then [] else [ (places.(p), 1 + int 2) ]
      else []
    in
    ignore
      (B.add_transition b
         (Printf.sprintf "t%d" t)
         ~inputs:(List.map (fun p -> (places.(p), 1)) ins)
         ~inhibitors
         ~outputs:(List.map (fun p -> (places.(p), 1)) outs)
        : Net.transition_id)
  done;
  B.build b

let prop_differential =
  QCheck2.Test.make ~name:"reduced build agrees on deadlocks and bounds"
    ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let net = random_terminating_net seed in
      let full = Graph.build ~max_states:200_000 net in
      let reduced = Graph.build ~max_states:200_000 ~por:true net in
      if not (Graph.complete full && Graph.complete reduced) then
        QCheck2.Test.fail_report "unexpected truncation on a tiny net";
      if deadlock_markings full <> deadlock_markings reduced then
        QCheck2.Test.fail_report "deadlock marking sets differ";
      for p = 0 to Net.num_places net - 1 do
        if Graph.bound full p <> Graph.bound reduced p then
          QCheck2.Test.fail_reportf "bound of place %d differs: %d vs %d" p
            (Graph.bound full p) (Graph.bound reduced p)
      done;
      (* never more states than the full graph, and the full graph is
         the interpreted oracle's state-for-state *)
      if Graph.num_states reduced > Graph.num_states full then
        QCheck2.Test.fail_report "reduced graph larger than full";
      if
        not
          (Testutil.matches_oracle full
             (Testutil.oracle_build ~max_states:200_000 net))
      then QCheck2.Test.fail_report "full build differs from the oracle";
      true)

(* -- the fired-set memo: keyed by the threshold signature -- *)

(* Random nets with weighted input and inhibitor arcs.  With [~wide],
   transition t0 also carries inhibitor arcs of weight 2^30 on three
   places, so the signature needs more than 62 bits and [fired] skips
   the memo. *)
let random_weighted_net ~wide seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let np = 3 + int 6 in
  let nt = 2 + int 8 in
  let b = B.create (Printf.sprintf "weighted%d" seed) in
  let places =
    Array.init np (fun i -> B.add_place b (Printf.sprintf "p%d" i))
  in
  let arcs k w =
    List.sort_uniq compare (List.init k (fun _ -> int np))
    |> List.map (fun p -> (places.(p), 1 + int w))
  in
  for t = 0 to nt - 1 do
    let inhibitors =
      if wide && t = 0 then List.init 3 (fun p -> (places.(p), 1 lsl 30))
      else if int 3 = 0 then arcs 1 5
      else []
    in
    ignore
      (B.add_transition b
         (Printf.sprintf "t%d" t)
         ~inputs:(arcs (1 + int 2) 4) ~inhibitors
         ~outputs:(arcs (int 3) 3)
        : Net.transition_id)
  done;
  B.build b

(* K_p per place: the largest input or inhibitor weight on it, -1 when
   no such arc reads the place *)
let threshold_caps net =
  let cap = Array.make (Net.num_places net) (-1) in
  Array.iter
    (fun tr ->
      List.iter
        (fun a -> cap.(a.Net.a_place) <- max cap.(a.Net.a_place) a.Net.a_weight)
        (tr.Net.t_inputs @ tr.Net.t_inhibitors))
    (Net.transitions net);
  cap

(* A warmed scratch answers from its memo, a fresh one computes: they
   must agree.  Each round warms one scratch at a twin of [m] (same
   signature, different counts), then at [m]'s one-token neighbours,
   whose signatures differ from [m]'s exactly when a count crosses a
   threshold, and checks every answer, [m]'s last. *)
let prop_memo_signature =
  QCheck2.Test.make
    ~name:"fired on a warmed scratch equals fired on a fresh one"
    ~count:300 ~print:(Printf.sprintf "net seed %d")
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let wide = seed mod 5 = 0 in
      let net = random_weighted_net ~wide seed in
      let sb = Stubborn.create (Pnut_core.Kernel.of_net net) in
      let cap = threshold_caps net in
      let np = Array.length cap in
      let rng = Random.State.make [| seed; 1 |] in
      let marking () =
        Array.map
          (fun k -> Random.State.full_int rng (if k > 8 then k + 2 else 9))
          cap
      in
      (* same signature: clamped counts agree, unread places are free *)
      let twin m =
        Array.mapi
          (fun p v ->
            if cap.(p) < 0 then Random.State.int rng 9
            else if v >= cap.(p) then cap.(p) + Random.State.int rng 3
            else v)
          m
      in
      let neighbours m =
        List.concat_map
          (fun p ->
            List.filter_map
              (fun d ->
                let v = m.(p) + d in
                if v < 0 then None
                else begin
                  let m' = Array.copy m in
                  m'.(p) <- v;
                  Some m'
                end)
              [ -1; 1 ])
          (List.init np Fun.id)
      in
      let fired sc m = Stubborn.fired sb sc (Pnut_core.Marking.of_array m) in
      let show a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
      for round = 1 to 20 do
        let m = marking () in
        let warm = Stubborn.scratch sb in
        let m' = twin m in
        (* the twin twice: the second call is a memo hit *)
        List.iter
          (fun q ->
            let expected = fired (Stubborn.scratch sb) q in
            let got = fired warm q in
            if got <> expected then
              QCheck2.Test.fail_reportf
                "net seed %d (wide=%b), round %d, marking [%s]: fresh [%s] \
                 vs warmed [%s]"
                seed wide round (show q) (show expected) (show got))
          ((m' :: m' :: neighbours m) @ [ m' ; m ])
      done;
      true)

(* The returned arrays are shared through the memo: a warmed scratch
   hands back the same physical array for the same signature.  A net
   whose signature needs more than 62 bits never memoizes, so every
   call allocates afresh. *)
let test_memo_sharing () =
  let one_shot ~wide =
    (* the first seed whose net has an enabled transition at m *)
    let rec go seed =
      let net = random_weighted_net ~wide seed in
      let sb = Stubborn.create (Pnut_core.Kernel.of_net net) in
      let m = Pnut_core.Marking.of_array (Array.make (Net.num_places net) 4) in
      let sc = Stubborn.scratch sb in
      let a = Stubborn.fired sb sc m in
      if Array.length a = 0 then go (seed + 1)
      else
        let b = Stubborn.fired sb sc m in
        let c = Stubborn.fired sb sc m in
        (seed, a = b && b = c, b == c)
    in
    go 1
  in
  let seed, same, shared = one_shot ~wide:false in
  Alcotest.(check bool) (Printf.sprintf "seed %d: same set" seed) true same;
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: memoized array shared" seed)
    true shared;
  let seed, same, shared = one_shot ~wide:true in
  Alcotest.(check bool) (Printf.sprintf "wide seed %d: same set" seed) true same;
  Alcotest.(check bool)
    (Printf.sprintf "wide seed %d: over 62 signature bits, no memo" seed)
    false shared

(* -- budgets: truncation still degrades gracefully under por -- *)

let test_budget_truncation () =
  let net = Pnut_pipeline.Indep.net ~pipelines:6 ~stages:4 in
  match Graph.build_supervised ~max_states:10 ~por:true net with
  | Supervisor.Complete _ -> Alcotest.fail "expected truncation at 10 states"
  | Supervisor.Degraded { partial; reason; _ } ->
    (match reason with
    | Supervisor.States n -> Alcotest.(check int) "cap reported" 10 n
    | _ -> Alcotest.fail "expected a state-cap trip");
    Alcotest.(check bool) "partial flagged incomplete" false
      (Graph.complete partial);
    Alcotest.(check int) "prefix capped" 10 (Graph.num_states partial)

(* -- fragment rejection -- *)

let test_unsupported () =
  let variables = B.create ~variables:[ ("x", Value.Int 0) ] "vars" in
  let _ = B.add_place variables "p" ~initial:1 in
  (match Stubborn.unsupported (B.build variables) with
  | Some { Stubborn.r_feature = Stubborn.Variables; r_transition = None } ->
    ()
  | _ -> Alcotest.fail "variables should be rejected net-wide");
  let pred = B.create "pred" in
  let p = B.add_place pred "p" ~initial:1 in
  let _ =
    B.add_transition pred "guarded" ~inputs:[ (p, 1) ]
      ~predicate:(Expr.bool true)
  in
  (match Stubborn.unsupported (B.build pred) with
  | Some { Stubborn.r_feature = Stubborn.Predicate; r_transition = Some t } ->
    Alcotest.(check string) "names the transition" "guarded" t
  | _ -> Alcotest.fail "predicates should be rejected per-transition");
  let act = B.create ~variables:[ ("x", Value.Int 0) ] "act" in
  let q = B.add_place act "q" ~initial:1 in
  let _ =
    B.add_transition act "writer" ~inputs:[ (q, 1) ]
      ~action:[ Expr.Assign ("x", Expr.int 1) ]
  in
  let act_net = B.build act in
  Alcotest.(check bool) "action net rejected" true
    (Stubborn.unsupported act_net <> None);
  (match Graph.build ~por:true act_net with
  | exception Stubborn.Unsupported r ->
    Alcotest.(check bool) "message mentions --por off" true
      (Testutil.contains (Stubborn.rejection_message r) "--por off")
  | _ -> Alcotest.fail "build ~por must raise Unsupported");
  (* the plain pipeline benchmark family is inside the fragment *)
  Alcotest.(check bool) "indep nets supported" true
    (Stubborn.unsupported (Pnut_pipeline.Indep.net ~pipelines:2 ~stages:2)
    = None)

(* the untimed paper model is plain: reduction applies and agrees *)
let test_prefetch_model_differential () =
  let net = Pnut_pipeline.Model.prefetch_only Pnut_pipeline.Config.default in
  Alcotest.(check bool) "prefetch net supported" true
    (Stubborn.unsupported net = None);
  let full = Graph.build net in
  let reduced = Graph.build ~por:true net in
  check_same_deadlocks "prefetch" full reduced;
  Alcotest.(check bool) "no more states than full" true
    (Graph.num_states reduced <= Graph.num_states full)

let () =
  Alcotest.run "por"
    [
      ( "indep",
        [
          Alcotest.test_case "reduction >= 5x with identical deadlocks"
            `Quick test_indep_reduction;
          Alcotest.test_case "deadlock is the final-slot marking" `Quick
            test_indep_deadlock_is_final_slots;
          Alcotest.test_case "name parsing" `Quick test_indep_parse_name;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "packed arrays identical across jobs" `Quick
            test_jobs_sweep_identical;
        ] );
      ( "budget",
        [ Alcotest.test_case "state cap degrades" `Quick test_budget_truncation ] );
      ( "fragment",
        [
          Alcotest.test_case "unsupported features rejected" `Quick
            test_unsupported;
          Alcotest.test_case "prefetch model agrees" `Quick
            test_prefetch_model_differential;
        ] );
      ( "memo",
        [
          Alcotest.test_case "memoized arrays are shared" `Quick
            test_memo_sharing;
          QCheck_alcotest.to_alcotest prop_memo_signature;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_differential ]);
    ]
