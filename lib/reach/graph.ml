module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Value = Pnut_core.Value
module Kernel = Pnut_core.Kernel

type state = {
  s_index : int;
  s_marking : int array;
  s_env : (string * Value.t) list;
}

type edge = {
  e_from : int;
  e_transition : Net.transition_id;
  e_to : int;
}

(* Every graph lives in the {!Store} arena: states bit-packed, edges
   CSR-encoded; accessors decode on the fly. *)
type t = {
  net : Net.t;
  store : Store.t;
  complete : bool;
}

let net g = g.net
let complete g = g.complete
let num_states g = Store.num_states g.store
let num_edges g = Store.num_edges g.store

let state g i =
  let st = g.store in
  let codec = Store.codec st in
  let m = Array.make (Packed.places (Packed.layout codec)) 0 in
  Store.marking_into st i m;
  {
    s_index = i;
    s_marking = m;
    s_env = Packed.extra_bindings codec (Store.extra st i);
  }

let initial _ = 0

let successors g i =
  List.map
    (fun (tid, tgt) -> { e_from = i; e_transition = tid; e_to = tgt })
    (Store.successors g.store i)

let predecessors g j =
  List.map
    (fun (src, tid) -> { e_from = src; e_transition = tid; e_to = j })
    (Store.predecessors g.store j)

let edges g =
  let acc = ref [] in
  Store.iter_edges g.store (fun src tid tgt ->
      acc := { e_from = src; e_transition = tid; e_to = tgt } :: !acc);
  List.rev !acc

let packed_bytes_per_state g = Some (Store.bytes_per_state g.store)
let packed_arrays g = Some (Store.internal_arrays g.store)

let build_supervised ?(max_states = 100_000) ?jobs
    ?(budget = Pnut_exec.Budget.none) ?packed:_ ?frontier_spill
    ?(por = false) net =
  (match Pnut_core.Duration.stochastic_parts ~durations:false net with
  | [] -> ()
  | bad ->
    invalid_arg
      ("Reach.Graph.build: stochastic predicate/action on transitions: "
      ^ String.concat ", " (List.sort_uniq String.compare (List.map snd bad))));
  let monitor = Pnut_exec.Supervisor.start budget in
  let kernel = Kernel.of_net net in
  (* Raises Stubborn.Unsupported when the net falls outside the
     reduction's fragment — callers choosing [por] must catch it or
     pre-check with Stubborn.unsupported. *)
  let stubborn =
    if por then
      let sb = Stubborn.create kernel in
      Some (sb, Stubborn.scratch sb)
    else None
  in
  (* Validated (and warned about when oversubscribed), but unused: the
     sweep is serial. *)
  ignore (Pnut_exec.Pool.resolve ?jobs () : int);
  let codec = Packed.create net in
  let store = Store.create codec ~num_transitions:(Net.num_transitions net) in
  let np = Net.num_places net in
  let parent = Array.make np 0 and child = Array.make np 0 in
  let parent_mk = Marking.unsafe_wrap parent
  and child_mk = Marking.unsafe_wrap child in
  let trans = Kernel.transitions kernel in
  let seed bfs =
    let id0 = Packed.intern_extra codec (Net.initial_env net) in
    match
      Bfs.intern bfs (Marking.to_array (Net.initial_marking net)) ~extra:id0
    with
    | `Added i -> Bfs.push bfs i
    | `Found _ | `Capped -> assert false
  in
  (* The popped state is decoded into a scratch array once; each
     enabled transition fires on a second scratch (blit + kernel apply —
     no per-edge allocation for variable-free nets) and interns straight
     into the arena.  Pop order is interning order, so begin_source sees
     ascending sources and the CSR offsets append in one pass. *)
  let expand bfs i =
    Store.begin_source store i;
    Store.marking_into store i parent;
    let ex = Store.extra store i in
    let env = Packed.extra_env codec ex in
    let fire (c : Kernel.ctrans) =
      Array.blit parent 0 child 0 np;
      Kernel.apply c child_mk;
      let ex' =
        if c.Kernel.s_has_action then begin
          let env' = Env.copy env in
          Kernel.run_action env' c;
          Packed.intern_extra codec env'
        end
        else ex
      in
      match Bfs.intern bfs child ~extra:ex' with
      | `Capped -> ()
      | `Found j -> Store.add_edge store ~tid:c.Kernel.s_id ~target:j
      | `Added j ->
        Store.add_edge store ~tid:c.Kernel.s_id ~target:j;
        Bfs.push bfs j
    in
    match stubborn with
    | Some (sb, sc) ->
      Array.iter (fun tid -> fire trans.(tid)) (Stubborn.fired sb sc parent_mk)
    | None ->
      Array.iter
        (fun (c : Kernel.ctrans) -> if Kernel.enabled c parent_mk env then fire c)
        trans
  in
  let spill_threshold =
    Option.value frontier_spill
      ~default:(Pnut_exec.Budget.spill_threshold_bytes budget)
  in
  let run = Bfs.run ~monitor ~max_states ~spill_threshold store ~seed ~expand in
  Store.finalize store;
  Bfs.verdict monitor run { net; store; complete = Bfs.complete run }

let build ?max_states ?por net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states ?por net)

(* monomorphic int-array comparison — [find_state] and friends sit on
   user-facing query paths over millions of states *)
let marking_eq (a : int array) b =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
     go 0)

let find_state g marking =
  let st = g.store in
  let np = Net.num_places g.net in
  if Array.length marking <> np then None
  else begin
    let scratch = Array.make np 0 in
    let n = Store.num_states st in
    let rec go i =
      if i >= n then None
      else begin
        Store.marking_into st i scratch;
        if marking_eq scratch marking then Some i else go (i + 1)
      end
    in
    go 0
  end

let deadlocks g = Store.deadlocks g.store
let bound g p = Store.max_tokens g.store p

let is_safe g =
  let st = g.store in
  let scratch = Array.make (Net.num_places g.net) 0 in
  let n = Store.num_states st in
  let rec go i =
    i >= n
    || (Store.marking_into st i scratch;
        Array.for_all (fun c -> c <= 1) scratch && go (i + 1))
  in
  go 0

(* One pass over the edges marks fired transitions; both liveness
   queries read the same bool array instead of the old O(T^2)
   list-membership scan. *)
let transition_fired g =
  let seen = Array.make (Net.num_transitions g.net) false in
  Store.iter_edges g.store (fun _ tid _ -> seen.(tid) <- true);
  seen

let live_transitions g =
  let seen = transition_fired g in
  let acc = ref [] in
  for i = Array.length seen - 1 downto 0 do
    if seen.(i) then acc := i :: !acc
  done;
  !acc

let dead_transitions g =
  let seen = transition_fired g in
  let acc = ref [] in
  for i = Array.length seen - 1 downto 0 do
    if not seen.(i) then acc := i :: !acc
  done;
  !acc

let iter_pred_sources g i f = Store.iter_pred_sources g.store i f

(* States from which [targets] is reachable: backward closure. *)
let backward_closure g targets =
  let marked = Array.make (num_states g) false in
  let stack = ref targets in
  List.iter (fun i -> marked.(i) <- true) targets;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
      stack := rest;
      iter_pred_sources g i (fun src ->
          if not marked.(src) then begin
            marked.(src) <- true;
            stack := src :: !stack
          end)
  done;
  marked

let is_reversible g =
  let can_return = backward_closure g [ 0 ] in
  Array.for_all (fun b -> b) can_return

let home_states g =
  let n = num_states g in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let reach_i = backward_closure g [ i ] in
    if Array.for_all (fun b -> b) reach_i then acc := i :: !acc
  done;
  !acc

let check_invariant g p =
  let n = num_states g in
  let rec go i =
    if i >= n then None else if not (p (state g i)) then Some i else go (i + 1)
  in
  go 0

let pp_summary ppf g =
  Format.fprintf ppf
    "@[<v>reachability graph of %s@,states: %d%s@,edges: %d@,deadlocks: %d@,\
     safe: %b@,reversible: %b@,dead transitions: %s@]"
    (Net.name g.net) (num_states g)
    (if g.complete then "" else " (truncated)")
    (num_edges g)
    (List.length (deadlocks g))
    (is_safe g) (is_reversible g)
    (match dead_transitions g with
    | [] -> "none"
    | l ->
      String.concat ", "
        (List.map (fun i -> (Net.transition g.net i).Net.t_name) l))
