(* Deadlock-preserving stubborn-set reduction.

   At a marking [m] a set S of transitions is stubborn when (D1) no
   sequence of transitions outside S can change whether or how a member
   fires — outside transitions commute with every member — and (D2)
   some enabled member stays enabled under any outside sequence.
   Firing only the enabled members of a stubborn set at every state
   then reaches exactly the deadlock markings of the full graph: any
   full run into a deadlock can be reordered, stubborn set by stubborn
   set, into a run the reduced graph contains.

   The static closure rules implement D1/D2 through the relations
   precomputed by {!Pnut_core.Incidence}:

   - an {e enabled} member pulls in its [conflicts] — every transition
     touching a common place.  Whatever is left outside S shares no
     place with any enabled member, so it can neither disable one
     (consume its inputs, feed its inhibitor places) nor race it to a
     shared place; the coarse any-shared-place relation additionally
     keeps both interleavings of every place-sharing pair, which is
     what preserves exact place bounds on terminating nets (see
     PERFORMANCE.md for what is and is not preserved).
   - a {e disabled} member pulls in the [enablers] of one insufficient
     input place, or the [consumers] of one over-threshold inhibitor
     place (the first such place in arc order — deterministic).  No
     outside sequence can then enable it, so it commutes vacuously.

   The seed is always enabled, giving D2's key transition.  Determinism
   matters more than cleverness here: the chosen set is a function of
   the marking alone (fixed seed candidates, fixed scapegoat choice,
   fixed iteration order), so the reduced graph is deterministic, and
   [fired] may memoize its answers per scratch. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Kernel = Pnut_core.Kernel
module Incidence = Pnut_core.Incidence

type unsupported_feature =
  | Predicate
  | Action
  | Variables

type rejection = {
  r_transition : string option;
  r_feature : unsupported_feature;
}

exception Unsupported of rejection

let feature_name = function
  | Predicate -> "a predicate"
  | Action -> "an action"
  | Variables -> "variables or tables"

let rejection_message r =
  match r.r_transition with
  | Some t ->
    Printf.sprintf
      "partial-order reduction: transition %s carries %s, which makes \
       firings visible beyond the marking; rerun with --por off"
      t (feature_name r.r_feature)
  | None ->
    Printf.sprintf
      "partial-order reduction: the net declares %s, which make state \
       identity richer than the marking; rerun with --por off"
      (feature_name r.r_feature)

(* The reduction reasons about markings only, so anything that makes a
   firing visible beyond the marking — a predicate reading the
   environment, an action writing it, or declared variables/tables that
   become part of state identity — is out of fragment. *)
let unsupported net =
  if Net.variables net <> [] || Net.tables net <> [] then
    Some { r_transition = None; r_feature = Variables }
  else
    Array.fold_left
      (fun acc tr ->
        match acc with
        | Some _ -> acc
        | None ->
          if tr.Net.t_predicate <> None then
            Some { r_transition = Some tr.Net.t_name; r_feature = Predicate }
          else if tr.Net.t_action <> [] then
            Some { r_transition = Some tr.Net.t_name; r_feature = Action }
          else None)
      None (Net.transitions net)

type t = {
  trans : Kernel.ctrans array;
  nt : int;
  conflicts : int array array;
  producers : int array array;  (* per place: net-delta > 0 *)
  consumers : int array array;  (* per place: net-delta < 0 *)
  sig_place : int array;  (* places read by an input or inhibitor arc *)
  sig_cap : int array;    (* K_p: the largest such arc weight on the place *)
  sig_shift : int array;  (* bit offset of the clamped count in the signature *)
  memo_size : int;        (* memo slots; 0 when the signature needs > 62 bits *)
  memo_hashed : bool;     (* signatures outnumber the slots, so hash them *)
}

(* The memo holds at most [1 lsl memo_bits] entries. *)
let memo_bits = 12

let bits_for v =
  let b = ref 0 in
  while v lsr !b <> 0 do
    incr b
  done;
  !b

(* Every marking read [fired] makes is a threshold test [m(p) >= w]
   (input arc) or [m(p) < w] (inhibitor arc) with [w <= K_p], so
   clamping each read place to [min (m p) K_p] keeps every answer: the
   clamped counts, packed side by side, are a key under which [fired]
   is a pure function. *)
let signature_layout trans np =
  let cap = Array.make np (-1) in
  let note places weights =
    Array.iteri (fun k p -> cap.(p) <- max cap.(p) weights.(k)) places
  in
  Array.iter
    (fun (c : Kernel.ctrans) ->
      note c.Kernel.s_in_place c.Kernel.s_in_weight;
      note c.Kernel.s_inh_place c.Kernel.s_inh_weight)
    trans;
  let read = List.filter (fun p -> cap.(p) >= 0) (List.init np Fun.id) in
  let sig_place = Array.of_list read in
  let sig_cap = Array.map (fun p -> cap.(p)) sig_place in
  let sig_shift = Array.make (Array.length sig_place) 0 in
  let bits = ref 0 in
  Array.iteri
    (fun k c ->
      sig_shift.(k) <- !bits;
      bits := !bits + bits_for c)
    sig_cap;
  (sig_place, sig_cap, sig_shift, !bits)

let create kernel =
  let net = Kernel.net kernel in
  (match unsupported net with
  | None -> ()
  | Some r -> raise (Unsupported r));
  let trans = Kernel.transitions kernel in
  let sig_place, sig_cap, sig_shift, sig_bits =
    signature_layout trans (Net.num_places net)
  in
  {
    trans;
    nt = Kernel.num_transitions kernel;
    conflicts = Incidence.conflicts net;
    producers = Incidence.enablers net;
    consumers = Incidence.consumers net;
    sig_place;
    sig_cap;
    sig_shift;
    memo_size =
      (if sig_bits > 62 then 0 else 1 lsl min sig_bits memo_bits);
    memo_hashed = sig_bits > memo_bits;
  }

(* Mutable per-worker workspace: closures stamp membership with a round
   counter instead of clearing, so one [fired] call is O(|S| + |E|)
   beyond the enabling scan.  The memo maps a signature to the array
   [fired] returned for it. *)
type scratch = {
  enabled : int array;  (* enabled tids, ascending, prefix of length n *)
  stamp : int array;    (* stamp.(t) = round when t joined that round's S *)
  stack : int array;    (* closure worklist; each tid pushed once per round *)
  mutable round : int;
  memo_key : int array;  (* signature per slot, -1 = empty *)
  memo_val : int array array;
}

let scratch t =
  let n = max 1 t.nt in
  { enabled = Array.make n 0; stamp = Array.make n 0; stack = Array.make n 0;
    round = 0; memo_key = Array.make t.memo_size (-1);
    memo_val = Array.make t.memo_size [||] }

(* The disabling condition the closure commits to for a disabled
   transition: the first insufficient input place in arc order, else the
   first over-threshold inhibitor place.  One of the two exists, or the
   transition would be enabled. *)
let scapegoat_relation t (c : Kernel.ctrans) m =
  let ins = c.Kernel.s_in_place and inw = c.Kernel.s_in_weight in
  let n = Array.length ins in
  let i = ref 0 in
  while !i < n && Marking.get m ins.(!i) >= inw.(!i) do
    incr i
  done;
  if !i < n then t.producers.(ins.(!i))
  else begin
    let inh = c.Kernel.s_inh_place and inhw = c.Kernel.s_inh_weight in
    let ni = Array.length inh in
    let j = ref 0 in
    while !j < ni && Marking.get m inh.(!j) < inhw.(!j) do
      incr j
    done;
    if !j < ni then t.consumers.(inh.(!j)) else [||]
  end

(* Close one seed under the relations; returns how many of the [ne]
   enabled transitions its stubborn set captured.  Membership in round
   [r] is [stamp.(tid) = r], so successive closures need no clearing. *)
let closure t sc m ne seed =
  sc.round <- sc.round + 1;
  let round = sc.round in
  sc.stamp.(seed) <- round;
  sc.stack.(0) <- seed;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let tid = sc.stack.(!sp) in
    let c = t.trans.(tid) in
    let rel =
      if Kernel.token_enabled c m then t.conflicts.(tid)
      else scapegoat_relation t c m
    in
    for k = 0 to Array.length rel - 1 do
      let u = rel.(k) in
      if sc.stamp.(u) <> round then begin
        sc.stamp.(u) <- round;
        sc.stack.(!sp) <- u;
        incr sp
      end
    done
  done;
  let cnt = ref 0 in
  for i = 0 to ne - 1 do
    if sc.stamp.(sc.enabled.(i)) = round then incr cnt
  done;
  !cnt

let select t sc m =
  let ne = ref 0 in
  for tid = 0 to t.nt - 1 do
    if Kernel.token_enabled t.trans.(tid) m then begin
      sc.enabled.(!ne) <- tid;
      incr ne
    end
  done;
  let ne = !ne in
  if ne <= 1 then Array.sub sc.enabled 0 ne
  else begin
    (* Smallest-result heuristic over a few spread-out seeds (positions
       0, ne-1, ne/2 and, past three, ne/4); stop early on a singleton,
       the best any stubborn set can do. *)
    let best_cnt = ref max_int in
    let best_seed = ref (-1) in
    let n_seeds = if ne > 3 then 4 else 3 in
    let k = ref 0 in
    while !k < n_seeds && !best_cnt > 1 do
      let i =
        match !k with 0 -> 0 | 1 -> ne - 1 | 2 -> ne / 2 | _ -> ne / 4
      in
      let seed = sc.enabled.(i) in
      let cnt = closure t sc m ne seed in
      if cnt < !best_cnt then begin
        best_cnt := cnt;
        best_seed := seed
      end;
      incr k
    done;
    if !best_cnt >= ne then Array.sub sc.enabled 0 ne
    else begin
      (* Later closures stamped over earlier rounds, so membership of
         the winning set must be recomputed: re-close the best seed
         (deterministic, same count) and collect that round's stamps. *)
      let cnt = closure t sc m ne !best_seed in
      assert (cnt = !best_cnt);
      let round = sc.round in
      let out = Array.make cnt 0 in
      let k = ref 0 in
      for i = 0 to ne - 1 do
        let tid = sc.enabled.(i) in
        if sc.stamp.(tid) = round then begin
          out.(!k) <- tid;
          incr k
        end
      done;
      out
    end
  end

let signature t m =
  let s = ref 0 in
  for k = 0 to Array.length t.sig_place - 1 do
    let v = Marking.get m t.sig_place.(k) in
    let cap = t.sig_cap.(k) in
    s := !s lor ((if v < cap then v else cap) lsl t.sig_shift.(k))
  done;
  !s

(* Fibonacci hashing: the top [memo_bits] bits of the product. *)
let memo_slot t s =
  if t.memo_hashed then (s * 0x2545F4914F6CDD1D) lsr (63 - memo_bits) else s

let fired t sc m =
  if t.memo_size = 0 then select t sc m
  else begin
    let s = signature t m in
    let slot = memo_slot t s in
    if sc.memo_key.(slot) = s then sc.memo_val.(slot)
    else begin
      let r = select t sc m in
      sc.memo_key.(slot) <- s;
      sc.memo_val.(slot) <- r;
      r
    end
  end
