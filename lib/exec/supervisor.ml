type reason =
  | Wall of float
  | Heap of int
  | States of int
  | Events of int
  | Cancelled

type progress = {
  elapsed_s : float;
  heap_words : int;
  visited : int;
  frontier : int;
}

type 'a outcome =
  | Complete of 'a
  | Degraded of { reason : reason; partial : 'a; progress : progress }

let value = function Complete v -> v | Degraded { partial; _ } -> partial

let map f = function
  | Complete v -> Complete (f v)
  | Degraded { reason; partial; progress } ->
    Degraded { reason; partial = f partial; progress }

let degraded = function Complete _ -> false | Degraded _ -> true

let reason_message = function
  | Wall s -> Printf.sprintf "wall-clock budget exhausted after %.3f s" s
  | Heap w ->
    Printf.sprintf "heap budget exhausted at %.1f Mw (%d MB)"
      (float_of_int w /. 1e6)
      (w * (Sys.word_size / 8) / 1024 / 1024)
  | States n -> Printf.sprintf "state budget exhausted at %d states" n
  | Events n -> Printf.sprintf "event budget exhausted at %d events" n
  | Cancelled -> "cancelled"

let pp_progress ppf p =
  Format.fprintf ppf "visited %d (frontier %d) in %.3f s, heap %.1f Mw"
    p.visited p.frontier p.elapsed_s
    (float_of_int p.heap_words /. 1e6)

type monitor = { budget : Budget.t; started : float; is_active : bool }

(* The start time is taken even without a budget: a build's own
   state cap still degrades, and its progress must report a real
   elapsed time.  One [gettimeofday] per run; [check] stays a no-op. *)
let start budget =
  let is_active = not (Budget.is_none budget) in
  { budget; started = Unix.gettimeofday (); is_active }

let active m = m.is_active

let elapsed m = Unix.gettimeofday () -. m.started

let check m =
  if not m.is_active then None
  else
    let b = m.budget in
    match b.Budget.cancel with
    | Some tok when Budget.cancelled tok -> Some Cancelled
    | _ -> (
      let wall_hit =
        match b.Budget.wall_s with
        | Some limit ->
          let e = Unix.gettimeofday () -. m.started in
          if e >= limit then Some (Wall e) else None
        | None -> None
      in
      match wall_hit with
      | Some _ as r -> r
      | None -> (
        match b.Budget.heap_words with
        | Some limit ->
          let w = (Gc.quick_stat ()).Gc.heap_words in
          if w >= limit then Some (Heap w) else None
        | None -> None))

let max_states m = m.budget.Budget.max_states
let max_events m = m.budget.Budget.max_events

let state_cap m default =
  match m.budget.Budget.max_states with
  | Some cap -> min cap default
  | None -> default

let states_over m n =
  match m.budget.Budget.max_states with
  | Some cap when n >= cap -> Some (States n)
  | _ -> None

let events_over m n =
  match m.budget.Budget.max_events with
  | Some cap when n >= cap -> Some (Events n)
  | _ -> None

let snapshot m ~visited ~frontier =
  {
    elapsed_s = elapsed m;
    heap_words = (Gc.quick_stat ()).Gc.heap_words;
    visited;
    frontier;
  }

let verdict m ~stop ~capped ~visited ~frontier partial =
  let degraded reason =
    Degraded { reason; partial; progress = snapshot m ~visited ~frontier }
  in
  match stop with
  | Some reason -> degraded reason
  | None -> if capped then degraded (States visited) else Complete partial
