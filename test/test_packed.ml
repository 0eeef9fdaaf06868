(* The compact state store.  Packing must be invisible: the same state
   numbering, edge order, truncation and budget behaviour as the boxed
   interpreted oracle ([Testutil.oracle_build]), on every class of net
   the codec handles — variable-free bounded nets (the zero-env fast
   path), env-bearing interpreted nets (the side table), nets with
   lying declared capacities and unbounded growth (the checked widen
   path), and frontiers forced through the disk spill. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Graph = Pnut_reach.Graph
module Packed = Pnut_reach.Packed
module Store = Pnut_reach.Store
module Statekey = Pnut_reach.Statekey

(* -- fixed nets -- *)

let ring ?capacity ?(tokens = 4) () =
  let b = B.create "ring" in
  let ps =
    Array.init 5 (fun i ->
        B.add_place b
          (Printf.sprintf "p%d" i)
          ~initial:(if i = 0 then tokens else 0)
          ?capacity)
  in
  for i = 0 to 4 do
    ignore
      (B.add_transition b
         (Printf.sprintf "t%d" i)
         ~inputs:[ (ps.(i), 1) ]
         ~outputs:[ (ps.((i + 1) mod 5), 1) ]
        : Net.transition_id)
  done;
  B.build b

let counter_net () =
  (* env-bearing: the action path interns fresh environments *)
  let b = B.create "counter" ~variables:[ ("n", Value.Int 0) ] in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  ignore
    (B.add_transition b "bump" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
       ~action:[ Expr.Assign ("n", Expr.(var "n" + int 1)) ]
      : Net.transition_id);
  ignore
    (B.add_transition b "back" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ]
       ~predicate:Expr.(var "n" < int 20)
      : Net.transition_id);
  B.build b

let pump_net () =
  (* q grows without bound: exercises the unknown-bound guess width and
     the widen path once q passes 15 *)
  let b = B.create "pump" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  ignore
    (B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ]
      : Net.transition_id);
  B.build b

(* The packed build and the oracle under the same state cap. *)
let build_matches_oracle ?(max_states = 100_000) ?frontier_spill net =
  let g =
    Pnut_exec.Supervisor.value
      (Graph.build_supervised ~max_states ?frontier_spill net)
  in
  Testutil.matches_oracle g (Testutil.oracle_build ~max_states net)

let check_identical ?max_states ?frontier_spill net () =
  Alcotest.(check bool) "packed graph equals the oracle's" true
    (build_matches_oracle ?max_states ?frontier_spill net)

(* -- identity on fixed nets -- *)

let test_ring_identical = check_identical (ring ())
let test_counter_identical = check_identical (counter_net ())

let test_pump_widen_identical =
  (* truncation at the cap after q has outgrown the initial 4-bit
     field: the widen path must re-encode the arena mid-sweep *)
  check_identical ~max_states:400 (pump_net ())

let test_lying_capacity_identical () =
  (* capacities are declarative, not enforced at firing: the sink
     declares capacity 1 yet accumulates 5 tokens, so its 1-bit field
     overflows and the store must recover via widen *)
  let b = B.create "liar" in
  let p = B.add_place b "p" ~initial:5 ~capacity:5 in
  let s = B.add_place b "sink" ~capacity:1 in
  ignore
    (B.add_transition b "drain" ~inputs:[ (p, 1) ] ~outputs:[ (s, 1) ]
      : Net.transition_id);
  let net = B.build b in
  Alcotest.(check int) "sink really exceeds its declared capacity" 5
    (Graph.bound (Graph.build net) 1);
  check_identical net ()

let test_spill_identical =
  (* threshold 0 forces every full frontier chunk through the temp
     file; the graph must come out byte-identical *)
  check_identical ~frontier_spill:0 (ring ~tokens:6 ())

let test_budget_trip_identical () =
  (* a tripped state budget degrades the build where the oracle's cap
     stops *)
  let net = ring ~tokens:6 () in
  let budget = { Pnut_exec.Budget.none with max_states = Some 50 } in
  match Graph.build_supervised ~budget net with
  | Pnut_exec.Supervisor.Degraded { partial; _ } ->
    Alcotest.(check bool) "partial graph equals the capped oracle's" true
      (Testutil.matches_oracle partial
         (Testutil.oracle_build ~max_states:50 net))
  | Pnut_exec.Supervisor.Complete _ ->
    Alcotest.fail "expected the build to degrade at the state cap"

let test_bytes_per_state () =
  (* 17 tokens over 5 ring places: C(21,4) = 5985 states, enough for
     the fixed index floor to amortize below the 32-bytes/state target
     (one arena word per state for this net) *)
  let net = ring ~tokens:17 () in
  match Graph.packed_bytes_per_state (Graph.build ~max_states:10_000 net) with
  | None -> Alcotest.fail "the store must report its footprint"
  | Some b ->
    Alcotest.(check bool)
      (Printf.sprintf "bytes/state %.1f within 32" b)
      true (b <= 32.0)

let test_bounds_known () =
  Alcotest.(check bool) "ring invariant gives bounds" true
    (Packed.bounds_known (ring ()));
  Alcotest.(check bool) "pump q is unbounded" false
    (Packed.bounds_known (pump_net ()))

(* -- [jobs] leaves the build unchanged -- *)

(* The sweep is serial; [Graph.build_supervised ?jobs] survives only as
   a shim for the frozen perfbench harness.  These checks pin that the
   value reaches nothing that changes the store. *)

(* [places]-place token ring with [tokens] tokens in place 0:
   C(tokens + places - 1, places - 1) reachable states, variable-free,
   with P-invariant bounds. *)
let big_ring ~places ~tokens () =
  let b = B.create "bigring" in
  let ps =
    Array.init places (fun i ->
        B.add_place b
          (Printf.sprintf "r%d" i)
          ~initial:(if i = 0 then tokens else 0))
  in
  for i = 0 to places - 1 do
    ignore
      (B.add_transition b
         (Printf.sprintf "t%d" i)
         ~inputs:[ (ps.(i), 1) ]
         ~outputs:[ (ps.((i + 1) mod places), 1) ]
        : Net.transition_id)
  done;
  B.build b

let test_ring9_bytes_per_state () =
  (* the bench's quick reach.packed model: 10 tokens on the 9-place
     ring, C(18,8) = 43,758 states, packed within 32 bytes/state *)
  let g = Graph.build ~max_states:2_000_000 (big_ring ~places:9 ~tokens:10 ()) in
  Alcotest.(check int) "C(18,8) states" 43_758 (Graph.num_states g);
  Alcotest.(check bool) "complete" true (Graph.complete g);
  match Graph.packed_bytes_per_state g with
  | None -> Alcotest.fail "the store must report its footprint"
  | Some b ->
    Alcotest.(check bool)
      (Printf.sprintf "bytes/state %.1f within 32" b)
      true (b <= 32.0)

(* Byte-for-byte equality of the stores' physical arrays — the arena,
   the open-addressing index and both CSR arrays. *)
let arrays_identical ga gb =
  match (Graph.packed_arrays ga, Graph.packed_arrays gb) with
  | Some (a1, i1, o1, d1), Some (a2, i2, o2, d2) ->
    a1 = a2 && i1 = i2 && o1 = o2 && d1 = d2
  | _ -> false

let build_jobs ~max_states ~jobs net =
  Pnut_exec.Supervisor.value (Graph.build_supervised ~max_states ~jobs net)

(* "boxed" is the boxed interpreted oracle *)
let test_sharded_equals_oracle () =
  let net = ring ~tokens:6 () in
  let o = Testutil.oracle_build ~max_states:1000 net in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals the oracle" jobs)
        true
        (Testutil.matches_oracle (build_jobs ~max_states:1000 ~jobs net) o))
    [ 2; 4 ]

let test_jobs_sweep_identity () =
  (* 9-place ring with 12 tokens: C(20,8) = 125,970 states — past the
     10^5 mark, so the sweep crosses many index and arena growths *)
  let net = big_ring ~places:9 ~tokens:12 () in
  let base = build_jobs ~max_states:200_000 ~jobs:1 net in
  Alcotest.(check int) "expected state count" 125_970 (Graph.num_states base);
  Alcotest.(check bool) "complete" true (Graph.complete base);
  List.iter
    (fun jobs ->
      let g = build_jobs ~max_states:200_000 ~jobs net in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d arrays byte-identical to serial" jobs)
        true (arrays_identical base g))
    [ 2; 4; 8 ]

let test_jobs_sweep_capped_identity () =
  (* under a states budget the degraded prefix must also be identical *)
  let net = big_ring ~places:9 ~tokens:12 () in
  let build jobs =
    match
      Graph.build_supervised ~max_states:40_000 ~jobs net
    with
    | Pnut_exec.Supervisor.Degraded { partial; _ } -> partial
    | Pnut_exec.Supervisor.Complete _ ->
      Alcotest.fail "expected the state cap to trip"
  in
  let base = build 1 in
  Alcotest.(check int) "capped at the budget" 40_000 (Graph.num_states base);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d capped arrays byte-identical" jobs)
        true
        (arrays_identical base (build jobs)))
    [ 2; 4; 8 ]

(* -- spill-file lifetime -- *)

(* Run [f] with temp files redirected into a private directory, so the
   leak counts cannot race other tests or stale files in the shared
   temp dir. *)
let with_private_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pnut-spill-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let old = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name old;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let spill_files dir =
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter (fun f ->
         String.length f >= 13 && String.sub f 0 13 = "pnut-frontier")

let test_no_spill_file_leak () =
  with_private_tmpdir (fun dir ->
      (* widen mid-sweep (Field_overflow re-encodes the arena) plus cap
         truncation, with every chunk forced through the file *)
      ignore
        (Graph.build_supervised ~frontier_spill:0 ~max_states:400
           (pump_net ())
          : Graph.t Pnut_exec.Supervisor.outcome);
      Alcotest.(check (list string))
        "widen + truncation leaves no spill file" [] (spill_files dir);
      (* budget trip mid-drain: a pre-cancelled token fires at the first
         256-pop check, aborting the sweep while chunks sit on disk *)
      let tok = Pnut_exec.Budget.token () in
      Pnut_exec.Budget.cancel tok;
      (match
         Graph.build_supervised
           ~budget:(Pnut_exec.Budget.make ~cancel:tok ())
           ~frontier_spill:0 ~max_states:10_000
           (ring ~tokens:17 ())
       with
      | Pnut_exec.Supervisor.Degraded _ -> ()
      | Pnut_exec.Supervisor.Complete _ ->
        Alcotest.fail "expected the cancellation to trip");
      Alcotest.(check (list string))
        "budget trip mid-drain leaves no spill file" [] (spill_files dir))

let test_frontier_close_idempotent () =
  with_private_tmpdir (fun dir ->
      let f = Store.Frontier.create ~threshold:0 () in
      for i = 0 to 99 do
        Store.Frontier.push f i
      done;
      Alcotest.(check bool) "chunks spilled to disk" true
        (Store.Frontier.spilled_chunks f > 0);
      Alcotest.(check bool) "spill file exists while open" true
        (spill_files dir <> []);
      Store.Frontier.close f;
      Alcotest.(check (list string)) "close removes the file" []
        (spill_files dir);
      (* closing again must be a no-op, not an exception or a stray
         recreation *)
      Store.Frontier.close f;
      Alcotest.(check (list string)) "second close is a no-op" []
        (spill_files dir))

(* -- the sweep engine, driven by a toy expander: state [k] holds [k]
      tokens in [q] and expands to [2k+1] and [2k+2] below [limit], so
      the BFS numbering is [k] itself -- *)

module Bfs = Pnut_reach.Bfs

type toy = { mutable pushed : int list; mutable popped : int list }

let toy_run ?(budget = Pnut_exec.Budget.none) ?(max_states = max_int)
    ?(limit = 2000) ?(fail_after = max_int)
    ?(fail = fun () -> failwith "expander failed") ~spill_threshold () =
  let net = pump_net () in
  let store = Store.create (Packed.create net) ~num_transitions:1 in
  let log = { pushed = []; popped = [] } in
  let visit bfs k =
    match Bfs.intern bfs [| 1; k |] ~extra:0 with
    | `Added i ->
      Bfs.push bfs i;
      log.pushed <- i :: log.pushed
    | `Found _ -> ()
    | `Capped ->
      let n = Store.num_states store in
      (* a capped intern leaves the store as it was *)
      assert (Bfs.intern bfs [| 1; k |] ~extra:0 = `Capped);
      assert (Store.num_states store = n)
  in
  let expand bfs i =
    if List.length log.popped >= fail_after then fail ();
    log.popped <- i :: log.popped;
    List.iter (fun k -> if k < limit then visit bfs k) [ (2 * i) + 1; (2 * i) + 2 ]
  in
  let monitor = Pnut_exec.Supervisor.start budget in
  let r =
    Bfs.run ~monitor ~max_states ~spill_threshold store
      ~seed:(fun bfs -> visit bfs 0)
      ~expand
  in
  (r, store, log)

let test_bfs_fifo_order () =
  List.iter
    (fun spill_threshold ->
      let r, store, log = toy_run ~spill_threshold () in
      let what = Printf.sprintf "threshold %d" spill_threshold in
      Alcotest.(check (list int)) (what ^ ": pops in push order")
        (List.rev log.pushed) (List.rev log.popped);
      Alcotest.(check (list int)) (what ^ ": BFS numbering")
        (List.init 2000 Fun.id) (List.rev log.popped);
      Alcotest.(check bool) (what ^ ": complete") true (Bfs.complete r);
      Alcotest.(check (pair int int)) (what ^ ": visited, frontier")
        (2000, 0) (r.Bfs.visited, r.Bfs.frontier);
      Alcotest.(check int) (what ^ ": store") 2000 (Store.num_states store))
    [ 0; Pnut_exec.Budget.spill_threshold_bytes Pnut_exec.Budget.none ]

let test_bfs_capped () =
  let r, store, log = toy_run ~max_states:100 ~spill_threshold:0 () in
  Alcotest.(check int) "store holds the cap" 100 (Store.num_states store);
  Alcotest.(check bool) "capped" true r.Bfs.capped;
  Alcotest.(check bool) "incomplete" false (Bfs.complete r);
  Alcotest.(check (pair int int)) "visited, frontier" (100, 0)
    (r.Bfs.visited, r.Bfs.frontier);
  Alcotest.(check int) "every admitted state expanded" 100
    (List.length log.popped);
  match Pnut_exec.Supervisor.(Bfs.verdict (start Pnut_exec.Budget.none) r ()) with
  | Pnut_exec.Supervisor.Degraded { reason = Pnut_exec.Supervisor.States 100; _ }
    -> ()
  | _ -> Alcotest.fail "a capped run must be Degraded (States 100)"

let test_bfs_budget_frontier () =
  let tok = Pnut_exec.Budget.token () in
  Pnut_exec.Budget.cancel tok;
  let r, _, log =
    toy_run ~budget:(Pnut_exec.Budget.make ~cancel:tok ()) ~spill_threshold:0 ()
  in
  Alcotest.(check bool) "stopped by the budget" true
    (r.Bfs.stop = Some Pnut_exec.Supervisor.Cancelled);
  Alcotest.(check int) "trip at the 256th dequeue" 255 (List.length log.popped);
  Alcotest.(check int) "frontier = pushed - popped"
    (List.length log.pushed - List.length log.popped)
    r.Bfs.frontier;
  Alcotest.(check bool) "frontier non-empty" true (r.Bfs.frontier > 0)

let test_bfs_expander_raises () =
  with_private_tmpdir (fun dir ->
      let spilled = ref false in
      let fail () =
        spilled := spill_files dir <> [];
        failwith "expander failed"
      in
      (match
         toy_run ~spill_threshold:0 ~limit:100_000 ~fail_after:600 ~fail ()
       with
      | _ -> Alcotest.fail "the expander's exception must propagate"
      | exception Failure _ -> ());
      Alcotest.(check bool) "the frontier had spilled" true !spilled;
      Alcotest.(check (list string)) "no spill file left" []
        (spill_files dir))

(* -- the frontier in isolation -- *)

let test_frontier_fifo_spill () =
  List.iter
    (fun threshold ->
      let f = Store.Frontier.create ~threshold () in
      Fun.protect
        ~finally:(fun () -> Store.Frontier.close f)
        (fun () ->
          let pushed = ref 0 and next = ref 0 in
          let push () =
            Store.Frontier.push f !pushed;
            incr pushed
          in
          let pop () =
            Alcotest.(check int) "fifo order" !next (Store.Frontier.pop f);
            incr next
          in
          (* a frontier that drains at every pop, as on a small graph *)
          for _ = 1 to 300 do
            push ();
            pop ()
          done;
          (* interleave pushes and pops the way the BFS does *)
          for i = 0 to 9999 do
            push ();
            if i land 3 = 0 then pop ()
          done;
          if threshold = 0 then
            Alcotest.(check bool) "threshold 0 spilled chunks to disk" true
              (Store.Frontier.spilled_chunks f > 0);
          while not (Store.Frontier.is_empty f) do
            pop ()
          done;
          Alcotest.(check int) "drained everything" 10_300 !next))
    [ 0; 64 * 1024 * 1024 ]

(* -- side table -- *)

let test_intern_extra_clocks () =
  let net = counter_net () in
  let codec = Packed.create net in
  let env = Net.initial_env net in
  let a = Packed.intern_extra codec env in
  let b = Packed.intern_extra codec ~clocks:"t0@1.5" env in
  let c = Packed.intern_extra codec ~clocks:"t0@2.5" env in
  Alcotest.(check bool) "clock renderings distinguish ids" true
    (a <> b && b <> c && a <> c);
  Alcotest.(check int) "same pair, same id" a (Packed.intern_extra codec env);
  Alcotest.(check int) "same clocks, same id" b
    (Packed.intern_extra codec ~clocks:"t0@1.5" env);
  Alcotest.(check string) "key keeps the clocks" "t0@1.5"
    (Packed.extra_key codec b).Statekey.k_clocks

(* -- qcheck: codec round trip and key agreement -- *)

(* a net is only a carrier for the layout here: np places with the
   given bounds *)
let carrier_net bounds =
  let b = B.create "carrier" in
  Array.iteri
    (fun i _ ->
      ignore (B.add_place b (Printf.sprintf "p%d" i) : Net.place_id))
    bounds;
  ignore (B.add_transition b "t" : Net.transition_id);
  B.build b

let gen_bounds_and_markings =
  QCheck2.Gen.(
    let* np = int_range 1 12 in
    let* bounds = list_size (return np) (int_range 1 300) in
    let bounds = Array.of_list bounds in
    let gen_marking =
      Array.to_list bounds
      |> List.map (fun b -> int_range 0 b)
      |> flatten_l |> map Array.of_list
    in
    let* a = gen_marking in
    let* b = gen_marking in
    let* equal_pair = bool in
    return (bounds, a, (if equal_pair then Array.copy a else b)))

let prop_roundtrip_and_agreement =
  QCheck2.Test.make
    ~name:"packed encode/decode round-trips and agrees with key equality"
    ~count:300 gen_bounds_and_markings (fun (bounds, ma, mb) ->
      let net = carrier_net bounds in
      let codec =
        Packed.create ~bounds:(Array.map (fun b -> Some b) bounds) net
      in
      let lay = Packed.layout codec in
      let w = Packed.words lay in
      let buf = Array.make (2 * w) 0 in
      Packed.encode lay buf ~pos:0 ma ~extra:0;
      Packed.encode lay buf ~pos:w mb ~extra:0;
      let same_marking = ma = mb in
      Packed.decode lay buf ~pos:0 = ma
      && Packed.decode lay buf ~pos:w = mb
      && Packed.equal lay buf ~pos:0 buf w = same_marking
      && ((not same_marking)
         || Packed.hash lay buf ~pos:0 = Packed.hash lay buf ~pos:w))

(* -- qcheck: the packed build equals the boxed interpreted oracle on
      random interpreted nets (variables, tables, predicates, actions) -- *)

type spec = {
  sp_tokens : int list;
  sp_trans : ((int * int) list * (int * int) list * int * int) list;
      (* inputs, outputs, predicate code, action code *)
}

let gen_spec =
  QCheck2.Gen.(
    let* np = int_range 2 5 in
    let* tokens = list_size (return np) (int_range 0 3) in
    let tokens =
      if List.for_all (fun t -> t = 0) tokens then 2 :: List.tl tokens
      else tokens
    in
    let gen_arcs =
      list_size (int_range 1 2) (pair (int_range 0 (np - 1)) (int_range 1 2))
    in
    let gen_tr =
      let* inputs = gen_arcs in
      let* outputs = gen_arcs in
      let* p = int_range 0 3 in
      let* a = int_range 0 2 in
      return (inputs, outputs, p, a)
    in
    let* ntr = int_range 1 5 in
    let* sp_trans = list_size (return ntr) gen_tr in
    return { sp_tokens = tokens; sp_trans })

let emod a b = Expr.Binop (Expr.Mod, a, b)

let predicate_of_code = function
  | 1 -> Some Expr.(emod (var "n") (int 2) = int 0)
  | 2 -> Some Expr.(var "n" < int 15)
  | 3 -> Some Expr.(index "tbl" (emod (var "n") (int 3)) <= int 4)
  | _ -> None

let action_of_code = function
  | 1 -> [ Expr.Assign ("n", Expr.(var "n" + int 1)) ]
  | 2 ->
    [ Expr.Assign ("n", Expr.(var "n" + int 1));
      Expr.Table_assign
        ( "tbl",
          emod (Expr.var "n") (Expr.int 3),
          Expr.(index "tbl" (emod (var "n") (int 3)) + int 1) ) ]
  | _ -> []

let build_spec_net spec =
  let b =
    B.create "random"
      ~variables:[ ("n", Value.Int 0) ]
      ~tables:[ ("tbl", Array.make 3 (Value.Int 0)) ]
  in
  let np = List.length spec.sp_tokens in
  let places =
    List.mapi
      (fun i tokens -> B.add_place b (Printf.sprintf "p%d" i) ~initial:tokens)
      spec.sp_tokens
  in
  let arcs l =
    List.sort_uniq compare l
    |> List.map (fun (i, w) -> (List.nth places (i mod np), w))
    |> List.fold_left
         (fun acc (p, w) ->
           match acc with
           | (p', w') :: rest when p' = p -> (p, max w w') :: rest
           | _ -> (p, w) :: acc)
         []
    |> List.rev
  in
  List.iteri
    (fun ti (inputs, outputs, p, a) ->
      ignore
        (B.add_transition b
           (Printf.sprintf "t%d" ti)
           ~inputs:(arcs inputs) ~outputs:(arcs outputs)
           ?predicate:(predicate_of_code p) ~action:(action_of_code a)
          : Net.transition_id))
    spec.sp_trans;
  B.build b

(* random variable-free nets: arcs only, no predicates, no actions *)
let build_varfree_net spec =
  let b = B.create "plain" in
  let np = List.length spec.sp_tokens in
  let places =
    List.mapi
      (fun i tokens -> B.add_place b (Printf.sprintf "p%d" i) ~initial:tokens)
      spec.sp_tokens
  in
  let arcs l =
    List.sort_uniq compare l
    |> List.map (fun (i, w) -> (List.nth places (i mod np), w))
    |> List.fold_left
         (fun acc (p, w) ->
           match acc with
           | (p', w') :: rest when p' = p -> (p, max w w') :: rest
           | _ -> (p, w) :: acc)
         []
    |> List.rev
  in
  List.iteri
    (fun ti (inputs, outputs, _, _) ->
      ignore
        (B.add_transition b
           (Printf.sprintf "t%d" ti)
           ~inputs:(arcs inputs) ~outputs:(arcs outputs)
          : Net.transition_id))
    spec.sp_trans;
  B.build b

let prop_sharded_equals_serial =
  QCheck2.Test.make
    ~name:"sharded packed builder equals serial on random variable-free nets"
    ~count:60 gen_spec (fun spec ->
      let net = build_varfree_net spec in
      let serial = build_jobs ~max_states:2000 ~jobs:1 net in
      let sharded = build_jobs ~max_states:2000 ~jobs:4 net in
      arrays_identical serial sharded)

let prop_packed_equals_oracle =
  QCheck2.Test.make
    ~name:"packed builder equals boxed builder on random interpreted nets"
    ~count:120 gen_spec (fun spec ->
      build_matches_oracle ~max_states:300 (build_spec_net spec))

let prop_packed_spill_equals_oracle =
  QCheck2.Test.make
    ~name:"forced frontier spill changes nothing"
    ~count:40 gen_spec (fun spec ->
      build_matches_oracle ~max_states:300 ~frontier_spill:0
        (build_spec_net spec))

let () =
  Alcotest.run "packed"
    [
      ( "identity",
        [
          Alcotest.test_case "ring" `Quick test_ring_identical;
          Alcotest.test_case "counter env" `Quick test_counter_identical;
          Alcotest.test_case "pump widen + truncation" `Quick
            test_pump_widen_identical;
          Alcotest.test_case "lying capacity widen" `Quick
            test_lying_capacity_identical;
          Alcotest.test_case "forced spill" `Quick test_spill_identical;
          Alcotest.test_case "budget trip partial" `Quick
            test_budget_trip_identical;
          Alcotest.test_case "bytes per state" `Quick test_bytes_per_state;
          Alcotest.test_case "ring9 bytes per state" `Quick
            test_ring9_bytes_per_state;
          Alcotest.test_case "bounds known" `Quick test_bounds_known;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "equals boxed" `Quick test_sharded_equals_oracle;
          Alcotest.test_case "jobs sweep byte-identity (125k states)" `Slow
            test_jobs_sweep_identity;
          Alcotest.test_case "jobs sweep capped byte-identity" `Slow
            test_jobs_sweep_capped_identity;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "fifo + spill" `Quick test_frontier_fifo_spill;
          Alcotest.test_case "no spill-file leak on failures" `Quick
            test_no_spill_file_leak;
          Alcotest.test_case "close idempotent" `Quick
            test_frontier_close_idempotent;
        ] );
      ( "bfs engine",
        [
          Alcotest.test_case "pops in push order" `Quick test_bfs_fifo_order;
          Alcotest.test_case "capped" `Quick test_bfs_capped;
          Alcotest.test_case "budget trip frontier" `Quick
            test_bfs_budget_frontier;
          Alcotest.test_case "expander raises" `Quick test_bfs_expander_raises;
        ] );
      ( "side table",
        [ Alcotest.test_case "env and clocks" `Quick test_intern_extra_clocks ]
      );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_and_agreement;
          QCheck_alcotest.to_alcotest prop_packed_equals_oracle;
          QCheck_alcotest.to_alcotest prop_packed_spill_equals_oracle;
          QCheck_alcotest.to_alcotest prop_sharded_equals_serial;
        ] );
    ]
