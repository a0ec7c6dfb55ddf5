(** Fork-join pool over OCaml 5 domains.

    A pool of size [p] owns [p - 1] spawned worker domains; the caller of
    {!run} participates as worker [0], so a parallel region occupies
    exactly [p] domains. Workers persist across {!run} calls, so a
    parallel region costs one fork-join — the single fork-join the
    paper's coalesced loops are scheduled with.

    Idle workers and the joining caller spin for about 50 us before they
    park on a condition variable: back-to-back regions wake and join
    without a kernel round trip, and a pool idle for longer sleeps. A
    pool larger than [Domain.recommended_domain_count ()] never spins,
    since a spinning domain would take the core a working one needs.
    Every park is counted in the [pool.parks] registry counter. *)

type t

val create : int -> t
(** [create p] spawns [p - 1] workers. Raises [Invalid_argument] for
    [p < 1]. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f q] for every worker id [q] in [0 .. size-1]
    concurrently and returns when all have finished. If any worker
    raises, the exception of the lowest worker id is re-raised after the
    join (all workers still complete, and the pool stays usable).
    Raises [Invalid_argument] on a pool that has been shut down. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. A second call does nothing;
    {!run} raises afterwards. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool p f] runs [f] with a fresh pool and always shuts it down. *)

type backoff = {
  quiet : int;  (** forks left that park at once *)
  backoff : int;  (** [quiet] after the next spin that runs out *)
}

val next_backoff :
  backoff -> idle_spun:bool -> woke:bool -> join_window:bool -> joined:bool ->
  backoff
(** The pool's back-off rule, as {!run} applies it after each join.
    [quiet] is the value at the fork's start (positive: the fork parked
    at once). [idle_spun]: the workers spun since the previous fork;
    [woke]: publishing had to wake a parked worker; [join_window]: the
    join spun; [joined]: that spin saw every worker finish. A spin that
    ran out ([idle_spun && woke], or [join_window && not joined]) sets
    [quiet] and [backoff] to [2 * backoff + 1], capped at 1024; else
    [quiet] counts down, and [backoff] halves when some spin ran and
    stays when none did. Pure; exposed for its tests. *)
