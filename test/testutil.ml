(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S" what needle)
    true (contains haystack needle)

(* Is |actual - expected| within tolerance? *)
let close ?(tolerance = 1e-9) expected actual =
  Float.abs (expected -. actual) <= tolerance

let check_close what ?tolerance expected actual =
  if not (close ?tolerance expected actual) then
    Alcotest.failf "%s: expected %g, got %g" what expected actual

(* -- the untimed reachability oracle, interpreted end to end --

   The reference every [Reach.Graph] build is checked against.  Same
   BFS discipline as [Graph.build] (FIFO interning, ascending
   transition order, cap drops edges into would-be-fresh states) but
   every semantic decision goes through the pre-kernel interpreted
   entry points: [Net.enabled], [Net.consume], [Net.produce],
   [Expr.run_stmts].  States are keyed structurally on marking,
   bindings and table contents. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value

type oracle = {
  o_states : (int array * (string * Value.t) list) array;
  o_edges : (int * int * int) list;  (* from, transition, to *)
  o_complete : bool;
}

let oracle_build ~max_states net =
  let key m env =
    ( Marking.to_array m,
      Env.bindings env,
      List.map (fun (n, a) -> (n, Array.to_list a)) (Env.tables env) )
  in
  let index = Hashtbl.create 256 in
  let states = ref [] in
  let n = ref 0 in
  let truncated = ref false in
  let edges = ref [] in
  let queue = Queue.create () in
  let intern m env =
    let k = key m env in
    match Hashtbl.find_opt index k with
    | Some i -> Some i
    | None ->
      if !n >= max_states then begin
        truncated := true;
        None
      end
      else begin
        let i = !n in
        incr n;
        Hashtbl.replace index k i;
        states := (Marking.to_array m, Env.bindings env) :: !states;
        Queue.add (i, m, env) queue;
        Some i
      end
  in
  let m0 = Net.initial_marking net in
  let env0 = Net.initial_env net in
  ignore (intern m0 env0 : int option);
  while not (Queue.is_empty queue) do
    let i, m, env = Queue.pop queue in
    Array.iter
      (fun tr ->
        if Net.enabled net m env tr then begin
          let m' = Marking.copy m in
          Net.consume net m' tr;
          Net.produce net m' tr;
          let env' = Env.copy env in
          Expr.run_stmts env' tr.Net.t_action;
          match intern m' env' with
          | Some j -> edges := (i, tr.Net.t_id, j) :: !edges
          | None -> ()
        end)
      (Net.transitions net)
  done;
  { o_states = Array.of_list (List.rev !states);
    o_edges = List.rev !edges;
    o_complete = not !truncated }

(* Does [g] equal the oracle's graph?  The same truncation flag, the
   same states (marking and scalar bindings) under the same numbering,
   the same global edge list, and per state the same successor list in
   emission order and predecessor list in reverse sweep order. *)
let matches_oracle g o =
  let module G = Pnut_reach.Graph in
  let triple (e : G.edge) = (e.G.e_from, e.G.e_transition, e.G.e_to) in
  let n = Array.length o.o_states in
  G.complete g = o.o_complete
  && G.num_states g = n
  && G.num_edges g = List.length o.o_edges
  && List.map triple (G.edges g) = o.o_edges
  &&
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun ((i, _, j) as e) ->
      succ.(i) <- e :: succ.(i);
      pred.(j) <- e :: pred.(j))
    (List.rev o.o_edges);
  let pred = Array.map List.rev pred in
  let rec go i =
    i >= n
    || (let s = G.state g i in
        let om, oe = o.o_states.(i) in
        s.G.s_marking = om && s.G.s_env = oe
        && List.map triple (G.successors g i) = succ.(i)
        && List.map triple (G.predecessors g i) = pred.(i)
        && go (i + 1))
  in
  go 0
