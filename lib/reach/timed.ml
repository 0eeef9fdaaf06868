(* State-class timed reachability.

   The old builder enumerated concrete clock valuations — every residual
   combination its own state, every time advance its own Tick edge.  On
   the paper's pipeline models that explodes linearly in the delay
   constants: a 10-cycle memory stage drags thousands of interpolated
   tick states through the graph without changing a single marking.
   This builder computes {e state classes} instead, in the
   Berthomieu/Menasche tradition adapted to Razouk's two-phase firing
   rule: a class is a marking, an environment, and the multiset of
   transition ids currently in flight, together with a canonical
   firing-interval domain — the per-timer [lo, hi] envelope of every
   residual vector reaching the class.

   The facts that make the class graph exact for the analyses we run:

   - Vectors are {e shift-normalized} at creation: when no timer is at
     zero, the minimum residual is subtracted from every clock — the
     explicit builder's Tick, folded into the edge that created the
     vector.  Tick edges therefore vanish entirely; every class edge is
     a [Fire] or a [Complete].
   - The pending (enabling) timer support is a function of (marking,
     env) — the refresh rule keeps exactly the enabled transitions — so
     class identity only needs the in-flight multiset on top of the
     {!Statekey}; all vectors of a class agree on both supports and
     differ only in residual values.
   - Reachable (marking, env) pairs, the deadlock set and per-place
     bounds all coincide with the explicit expansion's (a class is dead
     iff it has no timers and nothing enabled, which is a per-class
     property, not a per-vector one).  Per-path time is the one thing
     folded away; {!min_cycle_time} recovers it with a uniform-cost
     search over normalized vectors where the edge weight is the
     normalization shift.

   The construction is layered onto the one graph stack: classes intern
   via {!Statekey}, pack into the {!Store} arena (marking fields plus
   the interned (env, in-flight) domain in the extra-id field), run
   under {!Pnut_exec.Supervisor} budgets, and shard across domains
   with a deterministic merge, so the packed class graph is
   byte-identical for any [jobs].
   {!Timed_explicit} keeps the old semantics frozen as the differential
   oracle. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Value = Pnut_core.Value
module Kernel = Pnut_core.Kernel
module Duration = Pnut_core.Duration

type label =
  | Fire of Net.transition_id
  | Complete of Net.transition_id

type state = {
  ts_index : int;
  ts_marking : int array;
  ts_flight : Net.transition_id list;
  ts_pending : Net.transition_id list;
  ts_flight_iv : (float * float) list;
  ts_pending_iv : (float * float) list;
  ts_env : (string * Value.t) list;
}

type edge = {
  e_from : int;
  e_label : label;
  e_to : int;
}

(* Same two physical layouts as {!Graph}: [Boxed] keeps per-class
   records and edge lists, [Compact] is the packed arena with CSR
   edges.  The timer supports and interval envelopes live in flat side
   arrays shared by both layouts (they are small — one slot per timer
   per class — and have no packed encoding). *)
type repr =
  | Boxed of {
      markings : int array array;
      envs : Env.t array;
      succ : edge list array;
      pred : edge list array;
    }
  | Compact of Store.t

type t = {
  net : Net.t;
  repr : repr;
  complete : bool;
  n_edges : int;
  n_vectors : int;  (* residual vectors explored to close the classes *)
  sup_off : int array;  (* class -> start into sup/iv; length n+1 *)
  sup : int array;  (* 2*tid = in-flight slot, 2*tid+1 = pending slot *)
  iv_lo : float array;
  iv_hi : float array;
}

let net g = g.net
let complete g = g.complete
let num_vectors g = g.n_vectors
let num_edges g = g.n_edges

let num_states g =
  match g.repr with
  | Boxed b -> Array.length b.markings
  | Compact st -> Store.num_states st

(* Fire and Complete edges share the store's transition-id field:
   even codes fire, odd codes complete. *)
let label_of_code c = if c land 1 = 0 then Fire (c asr 1) else Complete (c asr 1)

let state g i =
  let marking, env_bindings =
    match g.repr with
    | Boxed b -> (b.markings.(i), Env.bindings b.envs.(i))
    | Compact st ->
      let codec = Store.codec st in
      let np = Packed.places (Packed.layout codec) in
      let m = Array.make np 0 in
      Store.marking_into st i m;
      (m, Packed.extra_bindings codec (Store.extra st i))
  in
  let lo = g.sup_off.(i) and hi = g.sup_off.(i + 1) in
  let flight = ref [] and pending = ref [] in
  let flight_iv = ref [] and pending_iv = ref [] in
  for k = hi - 1 downto lo do
    let s = g.sup.(k) in
    let iv = (g.iv_lo.(k), g.iv_hi.(k)) in
    if s land 1 = 0 then begin
      flight := (s asr 1) :: !flight;
      flight_iv := iv :: !flight_iv
    end
    else begin
      pending := (s asr 1) :: !pending;
      pending_iv := iv :: !pending_iv
    end
  done;
  {
    ts_index = i;
    ts_marking = marking;
    ts_flight = !flight;
    ts_pending = !pending;
    ts_flight_iv = !flight_iv;
    ts_pending_iv = !pending_iv;
    ts_env = env_bindings;
  }

let initial _ = 0

let successors g i =
  match g.repr with
  | Boxed b -> b.succ.(i)
  | Compact st ->
    List.map
      (fun (code, tgt) -> { e_from = i; e_label = label_of_code code; e_to = tgt })
      (Store.successors st i)

let predecessors g j =
  match g.repr with
  | Boxed b -> b.pred.(j)
  | Compact st ->
    List.map
      (fun (src, code) -> { e_from = src; e_label = label_of_code code; e_to = j })
      (Store.predecessors st j)

let packed_bytes_per_state g =
  match g.repr with
  | Boxed _ -> None
  | Compact st -> Some (Store.bytes_per_state st)

let packed_arrays g =
  match g.repr with
  | Boxed _ -> None
  | Compact st -> Some (Store.internal_arrays st)

let domain_arrays g = (g.sup_off, g.sup, g.iv_lo, g.iv_hi)

(* -- shared timed-semantics helpers (Razouk's two-phase rule) -- *)

let det_duration env d = Duration.det ~who:"Reach.Timed" env d

(* Recompute the pending (enabling) list after a state change: enabled
   transitions keep their old residual, newly enabled ones start at
   their full enabling delay, [restart] names transitions whose clock
   restarts regardless (the just-fired one).  Identical to the frozen
   oracle's rule — the differential suite depends on it. *)
let refresh_pending kernel marking env old_pending ~restart =
  Array.to_list (Kernel.transitions kernel)
  |> List.filter_map (fun (c : Kernel.ctrans) ->
         if Kernel.enabled c marking env then
           let residual =
             match List.assoc_opt c.s_id old_pending with
             | Some r when not (List.mem c.s_id restart) -> r
             | Some _ | None -> det_duration env c.s_tr.Net.t_enabling
           in
           Some (c.s_id, residual)
         else None)

let float_key f = Printf.sprintf "%.9g" f

(* Canonical rendering of one residual vector (both timer lists must be
   sorted) — the per-class vector-dedup key. *)
let clocks_repr in_flight pending =
  let buf = Buffer.create 32 in
  List.iter
    (fun (t, r) -> Buffer.add_string buf (Printf.sprintf "%d:%s;" t (float_key r)))
    in_flight;
  Buffer.add_char buf '|';
  List.iter
    (fun (t, r) -> Buffer.add_string buf (Printf.sprintf "%d:%s;" t (float_key r)))
    pending;
  Buffer.contents buf

(* Canonical rendering of the in-flight transition multiset (sorted) —
   the clock component of class identity, and the [clocks] string under
   which the class's domain is interned into the packed extra table. *)
let flight_repr flight =
  let buf = Buffer.create 16 in
  List.iter
    (fun (t, _) ->
      Buffer.add_string buf (string_of_int t);
      Buffer.add_char buf ';')
    flight;
  Buffer.contents buf

let sort_flight l =
  List.sort
    (fun (t1, r1) (t2, r2) ->
      match compare t1 t2 with 0 -> Float.compare r1 r2 | c -> c)
    l

(* Shift-normalize a vector: when no clock is at zero, subtract the
   minimum residual from every clock — the oracle's Tick, performed
   eagerly with the same float operations so residual values match it
   bit for bit.  Returns the shift (the Tick duration folded into the
   incoming edge); 0 when the vector was already normal. *)
let normalize flight pending =
  let has_zero = List.exists (fun (_, r) -> Float.equal r 0.0) in
  if has_zero flight || has_zero pending then (flight, pending, 0.0)
  else begin
    let residuals =
      List.map snd flight
      @ List.filter_map (fun (_, r) -> if r > 0.0 then Some r else None) pending
    in
    match residuals with
    | [] -> (flight, pending, 0.0)
    | first :: rest ->
      let d = List.fold_left Float.min first rest in
      let tick l = List.map (fun (t, r) -> (t, Float.max 0.0 (r -. d))) l in
      (tick flight, tick pending, d)
  end

(* One candidate successor vector, already sorted and normalized. *)
type cand = {
  c_code : int;
  c_marking : Marking.t;
  c_flight : (Net.transition_id * float) list;
  c_pending : (Net.transition_id * float) list;
  c_env : Env.t;
  c_shift : float;  (* normalization shift = folded Tick duration *)
}

(* All successor vectors of one vector, in the fixed completion-then-
   firing order.  Normal vectors always have a zero clock (or none at
   all), so the oracle's third branch — the explicit tick — never
   applies here; it is absorbed into [normalize].  Pure with respect to
   shared state, so shard workers can expand concurrently. *)
let successors_of kernel (marking, flight, pending, env) =
  let acc = ref [] in
  let visit code marking' flight' pending' env' =
    let flight', pending', shift =
      normalize (sort_flight flight') (sort_flight pending')
    in
    acc :=
      { c_code = code; c_marking = marking'; c_flight = flight';
        c_pending = pending'; c_env = env'; c_shift = shift }
      :: !acc
  in
  let completable = List.filter (fun (_, r) -> Float.equal r 0.0) flight in
  List.iter
    (fun (tid, _) ->
      let c = Kernel.transition kernel tid in
      let m' = Marking.copy marking in
      Kernel.produce c m';
      let env' =
        if c.Kernel.s_has_action then begin
          let env' = Env.copy env in
          Kernel.run_action env' c;
          env'
        end
        else env
      in
      let remove l =
        let rec go = function
          | [] -> []
          | (t, r) :: rest when t = tid && Float.equal r 0.0 -> rest
          | x :: rest -> x :: go rest
        in
        go l
      in
      let flight' = remove flight in
      let pending' = refresh_pending kernel m' env' pending ~restart:[] in
      visit ((2 * tid) + 1) m' flight' pending' env')
    (List.sort_uniq compare completable);
  let fireable =
    List.filter
      (fun (tid, r) ->
        Float.equal r 0.0
        && Kernel.enabled (Kernel.transition kernel tid) marking env)
      pending
  in
  List.iter
    (fun (tid, _) ->
      let c = Kernel.transition kernel tid in
      let m' = Marking.copy marking in
      Kernel.consume c m';
      let d = det_duration env c.Kernel.s_tr.Net.t_firing in
      if Float.equal d 0.0 then begin
        Kernel.produce c m';
        let env' =
          if c.Kernel.s_has_action then begin
            let env' = Env.copy env in
            Kernel.run_action env' c;
            env'
          end
          else env
        in
        let pending' = refresh_pending kernel m' env' pending ~restart:[ tid ] in
        visit (2 * tid) m' flight pending' env'
      end
      else begin
        let flight' = (tid, d) :: flight in
        let pending' = refresh_pending kernel m' env pending ~restart:[ tid ] in
        visit (2 * tid) m' flight' pending' env
      end)
    fireable;
  List.rev !acc

(* The initial vector: empty flight, full enabling delays pending,
   normalized (the oracle reaches the same point through leading
   Ticks). *)
let initial_vector kernel net =
  let m0 = Net.initial_marking net in
  let env0 = Net.initial_env net in
  let pending0 = sort_flight (refresh_pending kernel m0 env0 [] ~restart:[]) in
  let flight0, pending0, shift0 = normalize [] pending0 in
  (m0, flight0, pending0, env0, shift0)

(* Widen a class's per-slot interval envelope with one more residual
   vector (flight slots first, then pending). *)
let widen_ranges lo hi flight pending =
  let nf = List.length flight in
  List.iteri
    (fun k (_, r) ->
      if r < lo.(k) then lo.(k) <- r;
      if r > hi.(k) then hi.(k) <- r)
    flight;
  List.iteri
    (fun k (_, r) ->
      if r < lo.(nf + k) then lo.(nf + k) <- r;
      if r > hi.(nf + k) then hi.(nf + k) <- r)
    pending

(* -- class records shared by the serial builder and the sharded
      merge; [cl_edges] is in reverse emission order -- *)

type cls = {
  cl_index : int;
  cl_marking : int array;
  cl_env : Env.t;
  cl_flight : int list;  (* in-flight tid multiset, sorted *)
  cl_pending : int list;  (* enabled tids, sorted *)
  cl_flight_repr : string;
  cl_lo : float array;  (* per timer slot: flight entries, then pending *)
  cl_hi : float array;
  mutable cl_edges : (int * int) list;  (* (code, target class) *)
  cl_eseen : (int * int, unit) Hashtbl.t;
  cl_vecs : (string, unit) Hashtbl.t;  (* serial builder only *)
}

let fresh_cls ~index ~key ~env ~flight ~pending ~frepr =
  let n = List.length flight + List.length pending in
  {
    cl_index = index;
    cl_marking = key.Statekey.k_marking;
    cl_env = env;
    cl_flight = List.map fst flight;
    cl_pending = List.map fst pending;
    cl_flight_repr = frepr;
    cl_lo = Array.make n infinity;
    cl_hi = Array.make n neg_infinity;
    cl_edges = [];
    cl_eseen = Hashtbl.create 8;
    cl_vecs = Hashtbl.create 8;
  }

let add_class_edge cl code target =
  if not (Hashtbl.mem cl.cl_eseen (code, target)) then begin
    Hashtbl.add cl.cl_eseen (code, target) ();
    cl.cl_edges <- (code, target) :: cl.cl_edges
  end

(* -- serial class fixpoint: a FIFO over residual vectors; classes
      intern via Statekey, vectors dedup per class by their canonical
      rendering -- *)

let build_serial ~max_states ~monitor ~monitored kernel net =
  let index : cls Statekey.Tbl.t = Statekey.Tbl.create 1024 in
  let classes_rev = ref [] in
  let n_classes = ref 0 in
  let n_vectors = ref 0 in
  let truncated = ref false in
  let budget_stop = ref None in
  let frontier_left = ref 0 in
  let q = Queue.create () in
  (* Intern one normalized vector: find or create its class, then dedup
     the vector inside it.  [None] means the class would be fresh
     beyond the cap — the edge is dropped and the graph flagged
     incomplete, exactly like {!Graph}'s builders (edges into existing
     classes are still recorded at the cap). *)
  let intern_vec marking flight pending env =
    let frepr = flight_repr flight in
    let key = Statekey.make ~clocks:frepr marking env in
    let cl =
      match Statekey.Tbl.find_opt index key with
      | Some cl -> Some cl
      | None ->
        if !n_classes >= max_states then begin
          truncated := true;
          None
        end
        else begin
          let cl =
            fresh_cls ~index:!n_classes ~key ~env ~flight ~pending ~frepr
          in
          incr n_classes;
          Statekey.Tbl.replace index key cl;
          classes_rev := cl :: !classes_rev;
          Some cl
        end
    in
    match cl with
    | None -> None
    | Some cl ->
      let vkey = clocks_repr flight pending in
      if not (Hashtbl.mem cl.cl_vecs vkey) then begin
        Hashtbl.add cl.cl_vecs vkey ();
        incr n_vectors;
        widen_ranges cl.cl_lo cl.cl_hi flight pending;
        Queue.add (cl, marking, flight, pending, env) q
      end;
      Some cl
  in
  let m0, flight0, pending0, env0, _ = initial_vector kernel net in
  (match intern_vec m0 flight0 pending0 env0 with
  | Some cl -> assert (cl.cl_index = 0)
  | None -> assert false);
  let pops = ref 0 in
  (* Budget checks ride the dequeue boundary every 256 vectors — the
     cadence of every other builder in the stack. *)
  (try
     while not (Queue.is_empty q) do
       incr pops;
       if monitored && !pops land 255 = 0 then begin
         match Pnut_exec.Supervisor.check monitor with
         | Some r ->
           budget_stop := Some r;
           frontier_left := Queue.length q;
           raise_notrace Exit
         | None -> ()
       end;
       let cl, marking, flight, pending, env = Queue.pop q in
       List.iter
         (fun c ->
           match intern_vec c.c_marking c.c_flight c.c_pending c.c_env with
           | None -> ()
           | Some cl' -> add_class_edge cl c.c_code cl'.cl_index)
         (successors_of kernel (marking, flight, pending, env))
     done
   with Exit -> ());
  let classes = Array.make !n_classes None in
  List.iter (fun cl -> classes.(cl.cl_index) <- Some cl) !classes_rev;
  let classes = Array.map Option.get classes in
  (classes, !n_vectors, !truncated, !budget_stop, !frontier_left)

(* -- the sharded parallel class sweep --

   A hash-sharded sweep over residual vectors.  Each team member owns the
   classes whose {!Statekey} hash lands in its shard (hash mod team)
   and interns both classes and vectors into private tables — no locks
   on the hot path, and no packing at all during discovery (a class is
   only encoded once, at merge time, so widening cannot occur
   mid-sweep).  Candidate vectors hashing into another shard travel
   through per-ordered-pair SPSC channels as plain records, published
   by an [Atomic.set] on the channel's send counter and acquired by the
   consumer's [Atomic.get].  Edges are recorded per-vector as
   (ref, code) words, where a ref names the target vector either
   directly (owner shard + local vid) or as a message index resolved
   through the consumer's reply slots.

   Termination is a single shared pending counter — interned but
   unexpanded vectors plus in-flight messages; the sweep ends when it
   drops to zero.  [stop] (budget trip, polled by member 0 on the
   serial cadence) drains and merges the expanded prefix; [abort]
   (class cap, busy pool, a member raising) discards everything and
   the caller rebuilds serially, keeping the exact serial truncation
   semantics.

   The merge replays the serial vector FIFO over the recorded per-vector
   edge lists: vectors are visited in exactly the order the serial
   sweep pops them, so classes are numbered in first-reference order
   and per-class edges dedup in first-emission order — the class list
   fed to the shared assembly is identical to the serial builder's, and
   the packed store that comes out is byte-identical for any team
   size. *)

type lcls = {
  l_index : int;  (* shard-local class id *)
  l_marking : int array;
  l_env : Env.t;
  l_flight : int list;
  l_pending : int list;
  l_flight_repr : string;
  l_lo : float array;
  l_hi : float array;
}

type svec = {
  v_cls : lcls;
  v_marking : Marking.t;
  v_flight : (Net.transition_id * float) list;
  v_pending : (Net.transition_id * float) list;
  v_env : Env.t;
}

type msg = {
  g_key : Statekey.t;
  g_marking : Marking.t;
  g_flight : (Net.transition_id * float) list;
  g_pending : (Net.transition_id * float) list;
  g_env : Env.t;
}

type chan = {
  mutable msg : msg array;
  sent : int Atomic.t;
  (* The producer's plain writes into [msg] (including a grown
     replacement array) happen before its [Atomic.set sent]; the
     consumer's [Atomic.get sent] acquires them.  [replies] is written
     by the consumer only and read at merge time, after the team join
     has synchronized everything. *)
  mutable consumed : int;
  mutable replies : int array;  (* consumer's local vid per message *)
}

type shard = {
  cls_tbl : lcls Statekey.Tbl.t;
  mutable n_cls : int;
  mutable vecs : svec array;
  mutable n_vecs : int;
  mutable vkeys : (string, int) Hashtbl.t array;  (* per local class *)
  mutable cursor : int;  (* local vids below this are expanded *)
  mutable e_off : int array;  (* per expanded vid: start into e_dat *)
  mutable e_dat : int array;  (* (ref lsl code_bits) lor code *)
  mutable e_n : int;
  out_count : int array;  (* messages sent so far, per destination *)
}

let bits_for v =
  let rec go w = if v lsr w = 0 then w else go (w + 1) in
  max 1 (go 0)

let build_sharded ~max_states ~monitor ~monitored ~team kernel net =
  let nt = Net.num_transitions net in
  let code_bits = bits_for (max 1 ((2 * nt) - 1)) in
  let code_mask = (1 lsl code_bits) - 1 in
  let m0, flight0, pending0, env0, _ = initial_vector kernel net in
  let frepr0 = flight_repr flight0 in
  let key0 = Statekey.make ~clocks:frepr0 m0 env0 in
  let cls0 =
    {
      l_index = 0;
      l_marking = key0.Statekey.k_marking;
      l_env = env0;
      l_flight = List.map fst flight0;
      l_pending = List.map fst pending0;
      l_flight_repr = frepr0;
      l_lo = [||];
      l_hi = [||];
    }
  in
  let dummy_vec =
    { v_cls = cls0; v_marking = m0; v_flight = []; v_pending = []; v_env = env0 }
  in
  let dummy_msg =
    { g_key = key0; g_marking = m0; g_flight = []; g_pending = []; g_env = env0 }
  in
  let shards =
    Array.init team (fun _ ->
        {
          cls_tbl = Statekey.Tbl.create 256;
          n_cls = 0;
          vecs = Array.make 64 dummy_vec;
          n_vecs = 0;
          vkeys = Array.make 64 (Hashtbl.create 0);
          cursor = 0;
          e_off = Array.make 64 0;
          e_dat = Array.make 64 0;
          e_n = 0;
          out_count = Array.make team 0;
        })
  in
  let chans =
    Array.init team (fun _ ->
        Array.init team (fun _ ->
            { msg = Array.make 16 dummy_msg; sent = Atomic.make 0;
              consumed = 0; replies = [||] }))
  in
  let pending_ct = Atomic.make 0 in
  let total = Atomic.make 0 in
  let stop = Atomic.make false in
  let abort = Atomic.make false in
  let trip = ref None in
  (* Intern one normalized vector into shard [sh] (which must own
     [key]).  Only the owning domain ever touches a shard's tables, so
     class records and interval envelopes have a single writer. *)
  let intern_local sh key marking flight pending env frepr =
    let cl =
      match Statekey.Tbl.find_opt sh.cls_tbl key with
      | Some cl -> cl
      | None ->
        if Atomic.fetch_and_add total 1 >= max_states then
          Atomic.set abort true;
        let n = List.length flight + List.length pending in
        let cl =
          {
            l_index = sh.n_cls;
            l_marking = key.Statekey.k_marking;
            l_env = env;
            l_flight = List.map fst flight;
            l_pending = List.map fst pending;
            l_flight_repr = frepr;
            l_lo = Array.make n infinity;
            l_hi = Array.make n neg_infinity;
          }
        in
        if sh.n_cls >= Array.length sh.vkeys then begin
          let a = Array.make (2 * Array.length sh.vkeys) (Hashtbl.create 0) in
          Array.blit sh.vkeys 0 a 0 sh.n_cls;
          sh.vkeys <- a
        end;
        sh.vkeys.(sh.n_cls) <- Hashtbl.create 8;
        sh.n_cls <- sh.n_cls + 1;
        Statekey.Tbl.replace sh.cls_tbl key cl;
        cl
    in
    let vk = sh.vkeys.(cl.l_index) in
    let vkey = clocks_repr flight pending in
    match Hashtbl.find_opt vk vkey with
    | Some vid -> (vid, false)
    | None ->
      let vid = sh.n_vecs in
      Hashtbl.add vk vkey vid;
      widen_ranges cl.l_lo cl.l_hi flight pending;
      if vid >= Array.length sh.vecs then begin
        let a = Array.make (2 * Array.length sh.vecs) dummy_vec in
        Array.blit sh.vecs 0 a 0 vid;
        sh.vecs <- a
      end;
      sh.vecs.(vid) <-
        { v_cls = cl; v_marking = marking; v_flight = flight;
          v_pending = pending; v_env = env };
      sh.n_vecs <- vid + 1;
      (vid, true)
  in
  let s0 = key0.Statekey.k_hash mod team in
  (match intern_local shards.(s0) key0 m0 flight0 pending0 env0 frepr0 with
  | 0, true -> ()
  | _ -> assert false);
  Atomic.set pending_ct 1;
  let member_body me =
    let sh = shards.(me) in
    let pops = ref 0 in
    let spins = ref 0 in
    let draining = ref false in
    let running = ref true in
    let consume_all () =
      let progress = ref false in
      for src = 0 to team - 1 do
        if src <> me then begin
          let c = chans.(src).(me) in
          let n = Atomic.get c.sent in
          if c.consumed < n then begin
            progress := true;
            let buf = c.msg in
            if Array.length c.replies < n then begin
              let r = Array.make (max n (2 * Array.length c.replies)) 0 in
              Array.blit c.replies 0 r 0 c.consumed;
              c.replies <- r
            end;
            while c.consumed < n do
              let k = c.consumed in
              let m = buf.(k) in
              let vid, fresh =
                intern_local sh m.g_key m.g_marking m.g_flight m.g_pending
                  m.g_env m.g_key.Statekey.k_clocks
              in
              c.replies.(k) <- vid;
              (* a known vector just drops the message's pending count;
                 a fresh one converts it into its own (net zero) unless
                 this shard is draining and will never expand it *)
              if (not fresh) || !draining then Atomic.decr pending_ct;
              c.consumed <- k + 1
            done
          end
        end
      done;
      !progress
    in
    let expand_one vid =
      let sv = sh.vecs.(vid) in
      if vid >= Array.length sh.e_off then begin
        let a = Array.make (2 * Array.length sh.e_off) 0 in
        Array.blit sh.e_off 0 a 0 vid;
        sh.e_off <- a
      end;
      sh.e_off.(vid) <- sh.e_n;
      List.iter
        (fun c ->
          let frepr = flight_repr c.c_flight in
          let key = Statekey.make ~clocks:frepr c.c_marking c.c_env in
          let t_shard = key.Statekey.k_hash mod team in
          let ref_ =
            if t_shard = me then begin
              let vid', fresh =
                intern_local sh key c.c_marking c.c_flight c.c_pending c.c_env
                  frepr
              in
              if fresh then Atomic.incr pending_ct;
              ((vid' * team) + me) * 2
            end
            else begin
              let ch = chans.(me).(t_shard) in
              let k = sh.out_count.(t_shard) in
              if k >= Array.length ch.msg then begin
                let m =
                  Array.make (max (k + 1) (2 * Array.length ch.msg)) dummy_msg
                in
                Array.blit ch.msg 0 m 0 k;
                ch.msg <- m
              end;
              ch.msg.(k) <-
                { g_key = key; g_marking = c.c_marking; g_flight = c.c_flight;
                  g_pending = c.c_pending; g_env = c.c_env };
              sh.out_count.(t_shard) <- k + 1;
              Atomic.incr pending_ct;
              Atomic.set ch.sent (k + 1);
              (((k * team) + t_shard) * 2) + 1
            end
          in
          if sh.e_n >= Array.length sh.e_dat then begin
            let a = Array.make (2 * Array.length sh.e_dat) 0 in
            Array.blit sh.e_dat 0 a 0 sh.e_n;
            sh.e_dat <- a
          end;
          sh.e_dat.(sh.e_n) <- (ref_ lsl code_bits) lor c.c_code;
          sh.e_n <- sh.e_n + 1)
        (successors_of kernel (sv.v_marking, sv.v_flight, sv.v_pending, sv.v_env))
    in
    while !running do
      if Atomic.get abort then running := false
      else begin
        if (not !draining) && Atomic.get stop then begin
          (* un-count the vectors this shard will now never expand;
             exactly once, before any drain-mode consumption *)
          let unexp = sh.n_vecs - sh.cursor in
          if unexp > 0 then
            ignore (Atomic.fetch_and_add pending_ct (-unexp) : int);
          draining := true
        end;
        let progress = ref (consume_all ()) in
        if not !draining then begin
          let batch = ref 0 in
          while
            !batch < 64
            && sh.cursor < sh.n_vecs
            && (not (Atomic.get abort))
            && not (Atomic.get stop)
          do
            incr pops;
            (if me = 0 && monitored && !pops land 255 = 0 then
               match Pnut_exec.Supervisor.check monitor with
               | Some r ->
                 trip := Some r;
                 Atomic.set stop true
               | None -> ());
            if not (Atomic.get stop) then begin
              let vid = sh.cursor in
              expand_one vid;
              sh.cursor <- vid + 1;
              Atomic.decr pending_ct;
              progress := true;
              incr batch
            end
          done
        end;
        if !progress then spins := 0
        else if Atomic.get pending_ct = 0 then running := false
        else begin
          (* idle: the wall/heap budget must still trip even if this
             member has nothing left to do *)
          (if me = 0 && monitored && not (Atomic.get stop) then
             match Pnut_exec.Supervisor.check monitor with
             | Some r ->
               trip := Some r;
               Atomic.set stop true
             | None -> ());
          incr spins;
          Pnut_exec.Pool.relax !spins
        end
      end
    done
  in
  let member me =
    try member_body me
    with e ->
      (* unblock the other members before propagating, or the team
         would spin on a pending count that can no longer drop *)
      Atomic.set abort true;
      raise e
  in
  if not (Pnut_exec.Pool.run_team team member) then None
  else if Atomic.get abort then None
  else begin
    (* -- deterministic merge: replay the serial vector FIFO over the
          recorded edges, numbering classes in first-reference order -- *)
    let total_vecs = Array.fold_left (fun a sh -> a + sh.n_vecs) 0 shards in
    let vseen =
      Array.map (fun sh -> Array.make (max 1 sh.n_vecs) false) shards
    in
    let gmap = Array.map (fun sh -> Array.make (max 1 sh.n_cls) (-1)) shards in
    let classes_rev = ref [] in
    let n_classes = ref 0 in
    let by_g = Hashtbl.create 1024 in
    let get_cl s (lc : lcls) =
      match gmap.(s).(lc.l_index) with
      | -1 ->
        let g = !n_classes in
        gmap.(s).(lc.l_index) <- g;
        incr n_classes;
        let cl =
          {
            cl_index = g;
            cl_marking = lc.l_marking;
            cl_env = lc.l_env;
            cl_flight = lc.l_flight;
            cl_pending = lc.l_pending;
            cl_flight_repr = lc.l_flight_repr;
            cl_lo = lc.l_lo;
            cl_hi = lc.l_hi;
            cl_edges = [];
            cl_eseen = Hashtbl.create 8;
            cl_vecs = Hashtbl.create 0;
          }
        in
        classes_rev := cl :: !classes_rev;
        Hashtbl.replace by_g g cl;
        cl
      | g -> Hashtbl.find by_g g
    in
    let q = Array.make (max 1 total_vecs) (0, 0) in
    let qn = ref 0 in
    let push s vid =
      vseen.(s).(vid) <- true;
      q.(!qn) <- (s, vid);
      incr qn
    in
    let cl0 = get_cl s0 shards.(s0).vecs.(0).v_cls in
    assert (cl0.cl_index = 0);
    push s0 0;
    let gp = ref 0 in
    while !gp < !qn do
      let s, vid = q.(!gp) in
      let sh = shards.(s) in
      if vid < sh.cursor then begin
        let src_cl = get_cl s sh.vecs.(vid).v_cls in
        let e_end = if vid + 1 < sh.cursor then sh.e_off.(vid + 1) else sh.e_n in
        for k = sh.e_off.(vid) to e_end - 1 do
          let word = sh.e_dat.(k) in
          let code = word land code_mask in
          let r = word lsr code_bits in
          let t_shard, t_vid =
            let v = r lsr 1 in
            if r land 1 = 0 then (v mod team, v / team)
            else
              let t = v mod team in
              (t, chans.(s).(t).replies.(v / team))
          in
          let tgt_cl = get_cl t_shard shards.(t_shard).vecs.(t_vid).v_cls in
          add_class_edge src_cl code tgt_cl.cl_index;
          if not vseen.(t_shard).(t_vid) then push t_shard t_vid
        done
      end;
      incr gp
    done;
    let classes = Array.make !n_classes None in
    List.iter (fun cl -> classes.(cl.cl_index) <- Some cl) !classes_rev;
    let classes = Array.map Option.get classes in
    let expanded = Array.fold_left (fun a sh -> a + sh.cursor) 0 shards in
    Some (classes, total_vecs, false, !trip, total_vecs - expanded)
  end

(* -- shared final assembly: the one place classes are packed.  Classes
      are appended in canonical discovery order and their (env,
      in-flight domain) snapshots are interned in class order, so the
      arena, index, CSR and side-table contents depend only on the
      class list — the serial and sharded builders produce the same
      one, hence byte-identical stores for any [jobs]. -- *)

let assemble_store net classes =
  let codec = Packed.create ~with_extra:true net in
  let nt = max 1 (Net.num_transitions net) in
  let store = Store.create codec ~num_transitions:(2 * nt) in
  Array.iter
    (fun cl ->
      let ex = Packed.intern_extra codec ~clocks:cl.cl_flight_repr cl.cl_env in
      match Store.intern store cl.cl_marking ~extra:ex ~max_states:max_int with
      | `Added _ -> ()
      | `Found _ | `Capped ->
        (* class identity is exactly (marking, env, in-flight domain) =
           (marking fields, extra id) — duplicates are impossible *)
        assert false)
    classes;
  Array.iteri
    (fun i cl ->
      Store.begin_source store i;
      List.iter
        (fun (code, j) -> Store.add_edge store ~tid:code ~target:j)
        (List.rev cl.cl_edges))
    classes;
  Store.finalize store;
  store

let assemble_domains classes =
  let n = Array.length classes in
  let sup_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    sup_off.(i + 1) <-
      sup_off.(i)
      + List.length classes.(i).cl_flight
      + List.length classes.(i).cl_pending
  done;
  let m = sup_off.(n) in
  let sup = Array.make m 0 in
  let lo = Array.make m 0.0 in
  let hi = Array.make m 0.0 in
  Array.iteri
    (fun i cl ->
      let base = sup_off.(i) in
      let k = ref 0 in
      List.iter
        (fun t ->
          sup.(base + !k) <- 2 * t;
          lo.(base + !k) <- cl.cl_lo.(!k);
          hi.(base + !k) <- cl.cl_hi.(!k);
          incr k)
        cl.cl_flight;
      List.iter
        (fun t ->
          sup.(base + !k) <- (2 * t) + 1;
          lo.(base + !k) <- cl.cl_lo.(!k);
          hi.(base + !k) <- cl.cl_hi.(!k);
          incr k)
        cl.cl_pending)
    classes;
  (sup_off, sup, lo, hi)

let assemble_boxed classes =
  let n = Array.length classes in
  let markings = Array.map (fun cl -> cl.cl_marking) classes in
  let envs = Array.map (fun cl -> cl.cl_env) classes in
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  Array.iteri
    (fun i cl ->
      succ.(i) <-
        List.rev_map
          (fun (code, j) -> { e_from = i; e_label = label_of_code code; e_to = j })
          cl.cl_edges)
    classes;
  Array.iter
    (fun l -> List.iter (fun e -> pred.(e.e_to) <- e :: pred.(e.e_to)) l)
    succ;
  Boxed { markings; envs; succ; pred }

let count_edges classes =
  Array.fold_left (fun a cl -> a + List.length cl.cl_edges) 0 classes

let build_supervised ?(max_states = 50_000) ?jobs ?(packed = false)
    ?(budget = Pnut_exec.Budget.none) net =
  Duration.check_net ~who:"Reach.Timed" net;
  let monitor = Pnut_exec.Supervisor.start budget in
  let monitored = Pnut_exec.Supervisor.active monitor in
  let max_states = Pnut_exec.Supervisor.state_cap monitor max_states in
  let kernel = Kernel.of_net net in
  let finish ~classes ~repr ~n_vectors ~truncated ~budget_stop ~frontier_left =
    let sup_off, sup, iv_lo, iv_hi = assemble_domains classes in
    let complete = (not truncated) && budget_stop = None in
    Pnut_exec.Supervisor.verdict monitor ~stop:budget_stop ~capped:truncated
      ~visited:(Array.length classes) ~frontier:frontier_left
      { net; repr; complete; n_edges = count_edges classes; n_vectors;
        sup_off; sup; iv_lo; iv_hi }
  in
  if packed then begin
    (* Sharded first when more than one domain is available; any abort
       — class cap, busy pool — falls back to the serial sweep, which
       owns the exact truncation semantics.  Either way the store is
       byte-identical for every [jobs]. *)
    let sharded =
      let team = Pnut_exec.Pool.team_size ?jobs () in
      if team > 1 then
        build_sharded ~max_states ~monitor ~monitored ~team kernel net
      else None
    in
    let classes, n_vectors, truncated, budget_stop, frontier_left =
      match sharded with
      | Some r -> r
      | None -> build_serial ~max_states ~monitor ~monitored kernel net
    in
    let store = assemble_store net classes in
    finish ~classes ~repr:(Compact store) ~n_vectors ~truncated ~budget_stop
      ~frontier_left
  end
  else begin
    let classes, n_vectors, truncated, budget_stop, frontier_left =
      build_serial ~max_states ~monitor ~monitored kernel net
    in
    finish ~classes ~repr:(assemble_boxed classes) ~n_vectors ~truncated
      ~budget_stop ~frontier_left
  end

let build ?max_states ?jobs ?packed net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states ?jobs ?packed net)

let deadlocks g =
  let acc = ref [] in
  (match g.repr with
  | Boxed b ->
    for i = Array.length b.succ - 1 downto 0 do
      if b.succ.(i) = [] then acc := i :: !acc
    done
  | Compact st ->
    for i = Store.num_states st - 1 downto 0 do
      if Store.out_degree st i = 0 then acc := i :: !acc
    done);
  !acc

let max_tokens g p =
  match g.repr with
  | Boxed b -> Array.fold_left (fun acc m -> max acc m.(p)) 0 b.markings
  | Compact st ->
    let scratch = Array.make (Net.num_places g.net) 0 in
    let acc = ref 0 in
    for i = 0 to Store.num_states st - 1 do
      Store.marking_into st i scratch;
      if scratch.(p) > !acc then acc := scratch.(p)
    done;
    !acc

(* Earliest time before [tid] first starts firing: a uniform-cost
   search over normalized vectors where an edge costs its normalization
   shift (the folded Tick).  The class graph cannot answer this — it
   merges vectors reached at different times — so the search runs over
   the vector space directly. *)
let min_cycle_time ?(max_states = 50_000) net tid =
  Duration.check_net ~who:"Reach.Timed" net;
  let kernel = Kernel.of_net net in
  let module Pq = Set.Make (struct
    type t = float * int

    let compare = compare
  end) in
  let vkey marking flight pending env =
    Statekey.make ~clocks:(clocks_repr flight pending) marking env
  in
  let data = Hashtbl.create 256 in
  let seq = ref 0 in
  let pq = ref Pq.empty in
  let push d vec =
    let s = !seq in
    incr seq;
    Hashtbl.replace data s vec;
    pq := Pq.add (d, s) !pq
  in
  let settled = Statekey.Tbl.create 256 in
  let m0, flight0, pending0, env0, shift0 = initial_vector kernel net in
  push shift0 (m0, flight0, pending0, env0);
  let result = ref None in
  (try
     while not (Pq.is_empty !pq) do
       let ((d, s) as top) = Pq.min_elt !pq in
       pq := Pq.remove top !pq;
       let ((marking, flight, pending, env) as vec) = Hashtbl.find data s in
       Hashtbl.remove data s;
       let key = vkey marking flight pending env in
       if not (Statekey.Tbl.mem settled key) then begin
         Statekey.Tbl.replace settled key ();
         if Statekey.Tbl.length settled > max_states then raise_notrace Exit;
         if List.exists (fun (t, r) -> t = tid && Float.equal r 0.0) pending
         then begin
           result := Some d;
           raise_notrace Exit
         end;
         List.iter
           (fun c ->
             let k' = vkey c.c_marking c.c_flight c.c_pending c.c_env in
             if not (Statekey.Tbl.mem settled k') then
               push (d +. c.c_shift)
                 (c.c_marking, c.c_flight, c.c_pending, c.c_env))
           (successors_of kernel vec)
       end
     done
   with Exit -> ());
  !result

type cycle = {
  cy_transient : float;
  cy_period : float;
  cy_firings : int array;
}

(* Deterministic walk: complete the lowest-id finished firing, else fire
   the lowest-id fireable transition, else advance time by the minimum
   residual; detect a repeated (marking, in-flight, pending) state. *)
let steady_cycle ?(max_steps = 100_000) net =
  Duration.check_net ~who:"Reach.Timed" net;
  let kernel = Kernel.of_net net in
  let nt = Net.num_transitions net in
  let counts = Array.make nt 0 in
  let seen = Statekey.Tbl.create 256 in
  let env = Net.initial_env net in
  let marking = ref (Net.initial_marking net) in
  let in_flight = ref ([] : (int * float) list) in
  let pending = ref (refresh_pending kernel !marking env [] ~restart:[]) in
  let clock = ref 0.0 in
  let result = ref None in
  let step = ref 0 in
  (try
     while !result = None && !step < max_steps do
       incr step;
       let completable =
         List.filter (fun (_, r) -> Float.equal r 0.0) !in_flight
       in
       let fireable =
         List.filter
           (fun (tid, r) ->
             Float.equal r 0.0
             && Kernel.enabled (Kernel.transition kernel tid) !marking env)
           !pending
       in
       match completable, fireable with
       | (tid, _) :: _, _ ->
         let c = Kernel.transition kernel tid in
         Kernel.produce c !marking;
         let rec remove = function
           | [] -> []
           | (t, r) :: rest when t = tid && Float.equal r 0.0 -> rest
           | x :: rest -> x :: remove rest
         in
         in_flight := remove !in_flight;
         pending := refresh_pending kernel !marking env !pending ~restart:[]
       | [], (tid, _) :: _ ->
         let c = Kernel.transition kernel tid in
         Kernel.consume c !marking;
         counts.(tid) <- counts.(tid) + 1;
         let d = det_duration env c.Kernel.s_tr.Net.t_firing in
         if d > 0.0 then in_flight := (tid, d) :: !in_flight;
         pending := refresh_pending kernel !marking env !pending ~restart:[ tid ];
         if Float.equal d 0.0 then begin
           Kernel.produce c !marking;
           pending := refresh_pending kernel !marking env !pending ~restart:[ tid ]
         end
       | [], [] -> (
         let residuals =
           List.map snd !in_flight
           @ List.filter_map
               (fun (_, r) -> if r > 0.0 then Some r else None)
               !pending
         in
         match residuals with
         | [] -> raise Exit (* dead *)
         | first :: rest ->
           (* stable instant: check for a repeat before ticking *)
           let key =
             Statekey.make
               ~clocks:
                 (clocks_repr (sort_flight !in_flight) (sort_flight !pending))
               !marking env
           in
           (match Statekey.Tbl.find_opt seen key with
           | Some (t0, counts0) ->
             result :=
               Some
                 {
                   cy_transient = t0;
                   cy_period = !clock -. t0;
                   cy_firings =
                     Array.init nt (fun i -> counts.(i) - counts0.(i));
                 }
           | None ->
             Statekey.Tbl.replace seen key (!clock, Array.copy counts);
             let d = List.fold_left Float.min first rest in
             clock := !clock +. d;
             let tick l =
               List.map (fun (t, r) -> (t, Float.max 0.0 (r -. d))) l
             in
             in_flight := tick !in_flight;
             pending := tick !pending))
     done
   with Exit -> ());
  !result

let pp_summary ppf g =
  Format.fprintf ppf
    "@[<v>timed state-class graph of %s@,states: %d%s@,edges: %d@,residual \
     vectors: %d@,timed deadlocks: %d@]"
    (Net.name g.net) (num_states g)
    (if g.complete then "" else " (truncated)")
    (num_edges g) (num_vectors g)
    (List.length (deadlocks g))
