(** Low-overhead runtime tracing for the parallel executor.

    A {!collector} owns one preallocated structure-of-arrays buffer per
    worker domain. The executor stamps each dispatched chunk with
    monotonic nanosecond timestamps and appends it to the worker's own
    buffer — no locking, no shared mutation, and no allocation on the hot
    path until a buffer doubles (amortized, worker-private). Tracing that
    is off costs nothing: the executor selects the untraced code path at
    fork time, so no probe ever runs.

    Fork-join regions are numbered by {e epoch}; every chunk carries the
    epoch it ran under, so one trace can cover a whole program with many
    parallel nests and still be checked nest by nest. *)

module Policy := Loopcoal_sched.Policy

val now : unit -> int
(** Monotonic clock, nanoseconds (CLOCK_MONOTONIC via the bechamel
    stub). Timestamps are only meaningfully compared within a process. *)

(** {1 Completed traces} *)

type chunk = {
  worker : int;  (** domain that executed the chunk, 0-based *)
  epoch : int;  (** fork-join region the chunk belongs to *)
  start : int;  (** first coalesced iteration, 1-based *)
  len : int;
  t0 : int;  (** ns, chunk body started *)
  t1 : int;  (** ns, chunk body finished *)
}

type fork = {
  f_epoch : int;
  f_policy : Policy.t;
  f_k : int;
      (** the plan's minimum chunk under a decaying policy
          ({!Loopcoal_sched.Chunks}) *)
  f_n : int;  (** coalesced iterations of the region *)
  f_p : int;  (** workers forked *)
  f_t0 : int;  (** ns, fork began (before workers start) *)
  f_t1 : int;  (** ns, join completed *)
}

type t = {
  p : int;  (** worker slots of the collector *)
  chunks : chunk array;  (** sorted by (epoch, t0, worker) *)
  forks : fork array;  (** by epoch *)
}

(** {1 Collecting} *)

type collector

val create : ?capacity:int -> p:int -> unit -> collector
(** A collector for up to [p] workers. [capacity] (default 1024) is the
    initial per-worker chunk capacity; buffers double when exceeded. *)

val fork_begin :
  collector -> policy:Policy.t -> k:int -> n:int -> p:int -> unit
(** Open the next fork-join region of [n] iterations on [p] workers,
    dispatched under [policy] with minimum chunk [k]. Must not be called while a region is
    open (the executor never nests traced forks: inner parallel loops of
    a parallel region run sequentially inside chunks). *)

val fork_end : collector -> unit
(** Close the open region, stamping the join time. *)

val record : collector -> worker:int -> start:int -> len:int -> t0:int -> t1:int -> unit
(** Append a chunk to [worker]'s buffer under the open epoch. Safe to
    call concurrently from distinct workers. *)

val snapshot : collector -> t
(** The trace so far. Call after all forks have ended. *)
