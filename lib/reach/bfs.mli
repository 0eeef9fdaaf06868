(** The breadth-first sweep of every reachability builder.  It owns a
    {!Store}'s spillable {!Store.Frontier} (closed on every exit,
    exceptions from [expand] included), the budget poll every 256
    dequeues, the state cap and the values of the verdict.  Builders
    supply [seed] and [expand] and write their edges themselves. *)

type t

val max_states : t -> int
(** The cap in force: the caller's, tightened by the budget's. *)

val intern :
  t -> int array -> extra:int -> [ `Found of int | `Added of int | `Capped ]
(** {!Store.intern} under the cap; [`Capped] marks the run incomplete. *)

val push : t -> int -> unit
(** Queue a non-negative item (a state, or a residual vector of the
    timed builder); items pop in push order. *)

type run = {
  capped : bool;
  stop : Pnut_exec.Supervisor.reason option;  (** a budget trip *)
  visited : int;  (** states in the store *)
  frontier : int;  (** items left unexpanded *)
}

val run :
  monitor:Pnut_exec.Supervisor.monitor ->
  max_states:int ->
  spill_threshold:int ->
  Store.t ->
  seed:(t -> unit) ->
  expand:(t -> int -> unit) ->
  run
(** [seed], then [expand] each item until the frontier drains or the
    budget trips.  The store is left unfinalized. *)

val complete : run -> bool

val verdict :
  Pnut_exec.Supervisor.monitor -> run -> 'a -> 'a Pnut_exec.Supervisor.outcome
