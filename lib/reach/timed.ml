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
     class identity only needs the in-flight multiset on top of
     (marking, env); all vectors of a class agree on both supports and
     differ only in residual values.
   - Reachable (marking, env) pairs, the deadlock set and per-place
     bounds all coincide with the explicit expansion's (a class is dead
     iff it has no timers and nothing enabled, which is a per-class
     property, not a per-vector one).  Per-path time is the one thing
     folded away; {!min_cycle_time} recovers it with a uniform-cost
     search over normalized vectors where the edge weight is the
     normalization shift.

   The construction is an expander on the one {!Bfs} sweep: a class is
   interned into the {!Store} arena the moment it is found (marking
   fields, plus the interned (env, in-flight multiset) as its extra
   id), the frontier queues residual-vector ids and spills like
   {!Graph}'s, and budgets are polled on its dequeue cadence.  Vectors
   dedup on {!vec_key}, which matches the ["%.9g"] rendering of every
   residual without formatting the integral ones.  {!Timed_explicit}
   keeps the old semantics frozen as the differential oracle. *)

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

(* Classes live in the {!Store} arena with CSR edges, as in {!Graph}.
   The timer supports and interval envelopes live in flat side arrays
   (they are small — one slot per timer per class — and have no packed
   encoding). *)
type t = {
  net : Net.t;
  store : Store.t;
  complete : bool;
  n_vectors : int;  (* residual vectors explored to close the classes *)
  sup_off : int array;  (* class -> start into sup/iv; at least n+1 long *)
  sup : int array;  (* 2*tid = in-flight slot, 2*tid+1 = pending slot *)
  iv_lo : float array;
  iv_hi : float array;
}

let net g = g.net
let complete g = g.complete
let num_vectors g = g.n_vectors
let num_edges g = Store.num_edges g.store
let num_states g = Store.num_states g.store

(* Fire and Complete edges share the store's transition-id field:
   even codes fire, odd codes complete. *)
let label_of_code c = if c land 1 = 0 then Fire (c asr 1) else Complete (c asr 1)

(* A class's timers from its support tags and one value per slot: the
   in-flight ones, then the pending ones, each in slot order. *)
let split_slots tags values =
  let slots = List.init (Array.length tags) (fun k -> (tags.(k), values.(k))) in
  let flight, pending = List.partition (fun (s, _) -> s land 1 = 0) slots in
  let untag = List.map (fun (s, x) -> (s asr 1, x)) in
  (untag flight, untag pending)

let state g i =
  let st = g.store in
  let codec = Store.codec st in
  let marking = Array.make (Packed.places (Packed.layout codec)) 0 in
  Store.marking_into st i marking;
  let base = g.sup_off.(i) and n = g.sup_off.(i + 1) - g.sup_off.(i) in
  let flight, pending =
    split_slots (Array.sub g.sup base n)
      (Array.init n (fun k -> (g.iv_lo.(base + k), g.iv_hi.(base + k))))
  in
  {
    ts_index = i;
    ts_marking = marking;
    ts_flight = List.map fst flight;
    ts_pending = List.map fst pending;
    ts_flight_iv = List.map snd flight;
    ts_pending_iv = List.map snd pending;
    ts_env = Packed.extra_bindings codec (Store.extra st i);
  }

let initial _ = 0

let successors g i =
  List.map
    (fun (code, tgt) -> { e_from = i; e_label = label_of_code code; e_to = tgt })
    (Store.successors g.store i)

let predecessors g j =
  List.map
    (fun (src, code) -> { e_from = src; e_label = label_of_code code; e_to = j })
    (Store.predecessors g.store j)

let packed_bytes_per_state g = Some (Store.bytes_per_state g.store)
let packed_arrays g = Some (Store.internal_arrays g.store)

let domain_arrays g =
  let n = num_states g in
  let m = g.sup_off.(n) in
  ( Array.sub g.sup_off 0 (n + 1), Array.sub g.sup 0 m, Array.sub g.iv_lo 0 m,
    Array.sub g.iv_hi 0 m )

(* -- shared timed-semantics helpers (Razouk's two-phase rule) -- *)

let det_duration env d = Duration.det ~who:"Reach.Timed" env d

(* Recompute the pending (enabling) list after a state change: enabled
   transitions keep their old residual, newly enabled ones start at
   their full enabling delay, [restart] names transitions whose clock
   restarts regardless (the just-fired one).  Identical to the frozen
   oracle's rule — the differential suite depends on it.  The result is
   sorted by tid, each tid once. *)
let refresh_pending kernel marking env old_pending ~restart =
  let ts = Kernel.transitions kernel in
  let n = Array.length ts in
  let rec go i =
    if i = n then []
    else begin
      let (c : Kernel.ctrans) = ts.(i) in
      if Kernel.enabled c marking env then begin
        let residual =
          match List.assoc_opt c.s_id old_pending with
          | Some r when not (List.mem c.s_id restart) -> r
          | Some _ | None -> det_duration env c.s_tr.Net.t_enabling
        in
        (c.s_id, residual) :: go (i + 1)
      end
      else go (i + 1)
    end
  in
  go 0

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

let add_varint = Pnut_trace.Binary.add_varint

(* ["0"] or digits without a leading zero: the only renderings that are
   the decimal digits of a non-negative integer. *)
let canonical_int s =
  let n = String.length s in
  if n = 0 || (n > 1 && s.[0] = '0')
     || not (String.for_all (fun ch -> ch >= '0' && ch <= '9') s)
  then None
  else Some (int_of_string s)

(* The vector-dedup key of a vector of class [c]: two vectors get equal
   keys exactly when they share a class and their {!clocks_repr}
   strings are equal.  The key opens with [c] as a varint.  Inside a
   class the timer tids are fixed — the in-flight multiset is part of
   the class and the pending support follows from (marking, env) — so
   only the residuals are keyed, as NUL-tagged varints of the integers
   their ["%.9g"] renderings spell.  An integral residual in [0, 1e9)
   other than -0.0 renders as its own digits, so it is never formatted.
   When some rendering is not a canonical integer, the class varint is
   followed by the whole {!clocks_repr} text, which holds no NUL and so
   never equals a varint key.  [buf] is scratch owned by the caller. *)
let vec_key buf c flight pending =
  Buffer.clear buf;
  add_varint buf c;
  let cut = Buffer.length buf in
  Buffer.add_char buf '\000';
  let add (_, r) =
    if Float.is_integer r && r < 1e9 && not (Float.sign_bit r) then
      add_varint buf (int_of_float r)
    else
      match canonical_int (float_key r) with
      | Some n -> add_varint buf n
      | None -> raise_notrace Exit
  in
  (try
     List.iter add flight;
     List.iter add pending
   with Exit ->
     Buffer.truncate buf cut;
     Buffer.add_string buf (clocks_repr flight pending));
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
   applies here; it is absorbed into [normalize].  [refresh_pending]
   already returns the pending list sorted, so only the flight list is
   sorted here. *)
let successors_of kernel (marking, flight, pending, env) =
  let acc = ref [] in
  let visit code marking' flight' pending' env' =
    let flight', pending', shift =
      normalize (sort_flight flight') pending'
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
  let pending0 = refresh_pending kernel m0 env0 [] ~restart:[] in
  let flight0, pending0, shift0 = normalize [] pending0 in
  (m0, flight0, pending0, env0, shift0)

(* -- the class sweep: an expander on {!Bfs}.  A class interns into the
      store when it is first reached, with its (env, in-flight multiset)
      as the extra id; its timer support, interval envelope and edges
      go to side arrays indexed by class.  The frontier queues
      residual-vector ids. -- *)

(* [a] with room for index [i], new slots set to [fill] *)
let ensure a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (i + 1) (Array.length a * 3 / 2)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The queued vectors wait on a flat tape, in the order the frontier
   pops their ids: each one's class id (exact as a float), then its
   residuals.  The live part slides down over the drained prefix before
   the tape grows. *)
type tape = { mutable buf : float array; mutable head : int; mutable tail : int }

let tape_add q x =
  if q.tail = Array.length q.buf && 2 * q.head >= q.tail then begin
    Array.blit q.buf q.head q.buf 0 (q.tail - q.head);
    q.tail <- q.tail - q.head;
    q.head <- 0
  end;
  q.buf <- ensure q.buf q.tail 0.0;
  q.buf.(q.tail) <- x;
  q.tail <- q.tail + 1

let tape_take q =
  q.head <- q.head + 1;
  q.buf.(q.head - 1)

let build_supervised ?(max_states = 50_000) ?jobs ?packed:_
    ?(budget = Pnut_exec.Budget.none) net =
  Duration.check_net ~who:"Reach.Timed" net;
  let monitor = Pnut_exec.Supervisor.start budget in
  let kernel = Kernel.of_net net in
  (* Validated (and warned about when oversubscribed), but unused: the
     sweep is serial. *)
  ignore (Pnut_exec.Pool.resolve ?jobs () : int);
  let spill_threshold = Pnut_exec.Budget.spill_threshold_bytes budget in
  let codec = Packed.create ~with_extra:true net in
  let ncodes = 2 * max 1 (Net.num_transitions net) in
  let store = Store.create codec ~num_transitions:ncodes in
  let key = Array.make (Net.num_places net) 0 in
  (* per class [c]: timer slots [sup_off.(c)] .. [sup_off.(c+1) - 1] of
     [sup]/[lo]/[hi], and its distinct edges, newest first, each coded
     [target * ncodes + label code] *)
  let sup_off = ref [| 0 |] and sup = ref [||] in
  let lo = ref [||] and hi = ref [||] in
  let edges = ref [||] and n_edges = ref 0 in
  let tape = { buf = [||]; head = 0; tail = 0 } and n_vectors = ref 0 in
  let vecs = Hashtbl.create 1024 and vbuf = Buffer.create 64 in
  (* a vector new to class [c] widens its envelope and is queued *)
  let add_vector bfs c flight pending timers =
    let vk = vec_key vbuf c flight pending in
    if not (Hashtbl.mem vecs vk) then begin
      Hashtbl.add vecs vk ();
      tape_add tape (float_of_int c);
      List.iteri
        (fun k (_, r) ->
          let i = !sup_off.(c) + k in
          if r < !lo.(i) then !lo.(i) <- r;
          if r > !hi.(i) then !hi.(i) <- r;
          tape_add tape r)
        timers;
      Bfs.push bfs !n_vectors;
      incr n_vectors
    end;
    Some c
  in
  (* The class of one normalized vector.  [None] when the class would be
     fresh beyond the cap — the edge is dropped and the graph flagged
     incomplete, exactly like {!Graph} (edges into existing classes are
     still recorded at the cap). *)
  let intern_vector bfs marking flight pending env =
    let extra = Packed.intern_extra codec ~clocks:(flight_repr flight) env in
    Array.iteri (fun p _ -> key.(p) <- Marking.get marking p) key;
    let timers = flight @ pending in
    match Bfs.intern bfs key ~extra with
    | `Capped -> None
    | `Found c -> add_vector bfs c flight pending timers
    | `Added c ->
      let base = !sup_off.(c) and nf = List.length flight in
      let n = base + List.length timers in
      sup_off := ensure !sup_off (c + 1) 0;
      !sup_off.(c + 1) <- n;
      sup := ensure !sup n 0;
      List.iteri
        (fun k (t, _) -> !sup.(base + k) <- (2 * t) + if k < nf then 0 else 1)
        timers;
      lo := ensure !lo n infinity;
      hi := ensure !hi n neg_infinity;
      edges := ensure !edges c [];
      add_vector bfs c flight pending timers
  in
  let seed bfs =
    let m0, flight0, pending0, env0, _ = initial_vector kernel net in
    ignore (intern_vector bfs m0 flight0 pending0 env0 : int option)
  in
  let scratch = Array.copy key in
  let expand bfs _vector =
    let c = int_of_float (tape_take tape) in
    let base = !sup_off.(c) in
    let res = Array.init (!sup_off.(c + 1) - base) (fun _ -> tape_take tape) in
    let flight, pending = split_slots (Array.sub !sup base (Array.length res)) res in
    Store.marking_into store c scratch;
    let env = Packed.extra_env codec (Store.extra store c) in
    List.iter
      (fun cand ->
        match
          intern_vector bfs cand.c_marking cand.c_flight cand.c_pending
            cand.c_env
        with
        | None -> ()
        | Some c' ->
          let e = (c' * ncodes) + cand.c_code in
          if not (List.memq e !edges.(c)) then begin
            !edges.(c) <- e :: !edges.(c);
            incr n_edges
          end)
      (successors_of kernel (Marking.unsafe_wrap scratch, flight, pending, env))
  in
  let run = Bfs.run ~monitor ~max_states ~spill_threshold store ~seed ~expand in
  Store.reserve_edges store !n_edges;
  for c = 0 to Store.num_states store - 1 do
    Store.begin_source store c;
    List.iter
      (fun e -> Store.add_edge store ~tid:(e mod ncodes) ~target:(e / ncodes))
      (List.rev !edges.(c))
  done;
  Store.finalize store;
  Bfs.verdict monitor run
    { net; store; complete = Bfs.complete run; n_vectors = !n_vectors;
      sup_off = !sup_off; sup = !sup; iv_lo = !lo; iv_hi = !hi }

let build ?max_states net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states net)

let deadlocks g = Store.deadlocks g.store
let max_tokens g p = Store.max_tokens g.store p

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
