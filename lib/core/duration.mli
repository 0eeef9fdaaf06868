(** Deterministic-delay helpers for the timed reachability builders.

    Timed state-space constructions only terminate when every delay
    resolves to a single concrete value in a given environment.  These
    helpers classify {!Net.duration} values once, so every timed
    builder accepts exactly the same nets and rejects the rest with
    identical error text. *)

val det : who:string -> Env.t -> Net.duration -> float
(** Resolve a duration to its unique value in [env]: [Zero], [Const],
    degenerate [Uniform]/[Choice], and deterministic [Dynamic]
    expressions.  Raises [Invalid_argument] ("[who]: stochastic
    duration in a timed reachability net") on genuinely random
    kinds. *)

val deterministic : Net.duration -> bool
(** Whether {!det} would accept the duration (environment-independent
    check; [Dynamic] counts as deterministic when its expression
    is). *)

val stochastic_parts : ?durations:bool -> Net.t -> (string * string) list
(** Every stochastic part as [(kind, transition name)], in net order:
    ["firing time"], ["enabling time"] (skipped when [durations] is
    [false]; default [true]), ["predicate"], ["action"]. *)

val check_net : who:string -> Net.t -> unit
(** Raise [Invalid_argument] (messages prefixed with [who]) naming
    every stochastic firing time, enabling time, predicate and action
    of the net, one ["stochastic <kind> on transition <name>"] clause
    each, joined by ["; "]. *)
