(** Hashconsed state identity for the reachability explorers.

    A key captures a (marking, environment) pair — plus, for timed
    graphs, a pre-rendered clock component — structurally: the marking
    as an int array, the environment as its sorted scalar bindings and
    tables, everything hashed up front.  Interning a key into {!Tbl}
    maps each distinct state to a dense int id without ever building
    the old [Marking.to_key m ^ "|" ^ Env.snapshot env] strings, which
    were both slow and unsound (separator characters inside variable
    names could collide two distinct states). *)

type t = private {
  k_hash : int;
  k_marking : int array;
  k_bindings : (string * Pnut_core.Value.t) list;
  k_tables : (string * Pnut_core.Value.t array) list;
  k_clocks : string;
      (** timer component ([""] for untimed graphs).  For {!Timed}
          state classes it is the sorted in-flight tid multiset.  For
          {!Timed_explicit} states and the residual-vector searches of
          {!Timed.min_cycle_time} and {!Timed.steady_cycle} it is the
          canonical rendering of the timer residuals, kept as text so
          the 9-significant-digit rounding that merges nearly equal
          clock valuations is preserved *)
}

val make : ?clocks:string -> Pnut_core.Marking.t -> Pnut_core.Env.t -> t
(** Snapshot a live (marking, env) pair into a key.  Pure: copies the
    marking and environment views, so the caller may keep mutating the
    originals. *)

val equal : t -> t -> bool

val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed structurally on states; the interning table of the
    graph builders. *)
