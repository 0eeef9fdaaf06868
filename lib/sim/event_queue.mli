(** Future-event list: a binary min-heap keyed by (time, insertion order).

    Events with equal timestamps pop in insertion (FIFO) order, which makes
    simulation runs deterministic for a given random seed. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q time payload] schedules [payload] at [time]. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, if any. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the earliest event (FIFO among equal times). *)

(** {2 Allocation-free access}

    The simulator's per-event loop reads the head through these: no
    option or tuple is built per event. *)

val top_time : 'a t -> float
(** Earliest scheduled time, or [infinity] when the queue is empty. *)

val pop_top : 'a t -> 'a
(** Removes the earliest event (as {!pop}) and returns its payload.
    Raises [Invalid_argument] on an empty queue. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** All pending events in pop order, without disturbing the queue.
    Re-pushing them in this order into a fresh queue preserves the FIFO
    tie-breaking — the basis of checkpoint/restore. *)

val clear : 'a t -> unit
(** Drops all entries (releasing their payloads) and resets the
    insertion counter, restoring the queue to its freshly-created
    state. *)
