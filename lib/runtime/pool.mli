(** Fork-join pool over OCaml 5 domains.

    A pool of size [p] owns [p - 1] spawned worker domains; the caller of
    {!run} participates as worker [0], so a parallel region occupies at
    most [p] domains. Workers persist across {!run} calls, so a parallel
    region costs one fork-join — the single fork-join the paper's
    coalesced loops are scheduled with.

    A {e share} is the job applied to one worker id. Worker [q] claims
    share [q] when it sees the fork; every participant, the caller
    first, then claims any share still unclaimed, lowest id first. So a
    fork never waits for a worker that is asleep or still waking: the
    caller runs that worker's share itself. Shares run by a domain other
    than their own worker are counted in the [pool.steals] registry
    counter.

    Idle workers and the joining caller spin for about 50 us before they
    park on a condition variable: back-to-back regions wake and join
    without a kernel round trip, and a pool idle for longer sleeps. A
    pool larger than [Domain.recommended_domain_count ()] never spins,
    since a spinning domain would take the core a working one needs.
    Every park is counted in the [pool.parks] registry counter. *)

type t

val create : int -> t
(** [create p] spawns [p - 1] workers, counted once in the
    [pool.created] registry counter. Raises [Invalid_argument] for
    [p < 1]. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] runs [f q] exactly once for each worker id [q] in
    [0 .. size-1], each on some domain of the pool, and returns when all
    have finished. Shares may run concurrently or one after another on
    the same domain, so [f] must keep any per-share state keyed by [q],
    and a share must not wait for another share to start unless every
    share does (then each runs on a domain of its own). If any share
    raises, the exception of the lowest id is re-raised after the join
    (all shares still complete, and the pool stays usable). Raises
    [Invalid_argument] on a pool that has been shut down. *)

val inline : (unit -> unit) -> unit
(** [inline f] runs [f ()] on the caller as one fork that needs no
    other domain: counted and timed in [pool.forks] and
    [pool.fork_join_ns] like a {!run}, whether or not a pool exists. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. A second call does nothing;
    {!run} raises afterwards. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool p f] runs [f] with a fresh pool and always shuts it down. *)
