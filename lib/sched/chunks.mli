(** Unified dispatch sequences: the chunk stream each policy produces over
    the coalesced space [1..n], as one closed-form description.

    The parallel executor serves dynamic policies from exactly these
    sequences, and the tracing layer checks measured dispatch behaviour
    against them — the analytic side and the measured side of the paper's
    overhead argument share this one definition.

    Every function takes a minimum chunk [k >= 1] for the three decaying
    policies ([Gss], [Factoring], [Trapezoid]): each chunk is the
    policy's own size raised to [k] and cut to what remains, so every
    chunk but the last covers at least [k] iterations — GSS(k), the
    [schedule(guided, k)] of OpenMP. [k = 1] gives the plain sequences
    of {!Gss}, {!Factoring} and {!Trapezoid}. The executor derives [k]
    per plan (lib/runtime/exec.ml): one lane pass for a body
    without a serial loop, else 1. [Self_sched] and the static policies
    ignore [k]. *)

val dynamic_sizes : Policy.t -> k:int -> n:int -> p:int -> int list option
(** The dispatch-order chunk-size sequence of a dynamic policy
    ([Self_sched], [Gss], [Factoring], [Trapezoid]); sums to [n].
    [None] for static policies, whose chunks are per-processor
    ownership, not a shared stream. [n >= 0], [p >= 1]. *)

val dynamic_sequence :
  Policy.t -> k:int -> n:int -> p:int -> (int * int) array option
(** [dynamic_sizes] as [(start, len)] pairs, starts ascending from 1. *)

val count : Policy.t -> k:int -> n:int -> p:int -> int
(** Total chunks dispatched when [p] processors execute [1..n]:
    the sequence length for dynamic policies; for [Static_block] the
    number of non-empty shares ([min p n]); for [Static_cyclic] the
    number of maximal contiguous runs across processors ([n] when
    [p > 1], since cyclic ownership makes every run a singleton). *)

val sync_ops : Policy.t -> k:int -> n:int -> p:int -> int
(** Shared-counter atomic operations performed by the executor's
    [p]-worker dispatch loop: [count + p] for dynamic policies (every
    dispatch is one fetch-and-add, plus each worker's final failed
    claim), [0] for static policies, which touch no shared state after
    the fork. [0] when [n = 0] (the runtime skips the fork entirely). *)

val per_worker_bound : Policy.t -> k:int -> n:int -> p:int -> int
(** An upper bound on the chunks any single worker can execute — the
    tracing layer's per-worker buffer preallocation size. *)
