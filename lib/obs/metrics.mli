(** Scheduler metrics derived from a completed trace — the quantities the
    paper reasons about analytically (dispatches, synchronization per
    iteration, load balance, fork-join overhead), measured.

    All times are nanoseconds from the trace's monotonic clock. *)

module Policy := Loopcoal_sched.Policy

type fork_metrics = {
  epoch : int;
  policy : Policy.t;
  n : int;  (** coalesced iterations of the region *)
  p : int;  (** workers forked *)
  chunks_dispatched : int;
  chunks_per_worker : int array;
  iterations : int;  (** sum of traced chunk lengths; equals [n] iff the
                         chunks cover the space *)
  wall_ns : int;  (** join end - fork begin *)
  busy_ns : int array;  (** per worker: sum of chunk execution spans *)
  idle_ns : int array;  (** per worker: wall - busy, clamped at 0 *)
  imbalance : float;
      (** max busy / mean busy over all [p] workers; 1.0 = perfectly
          balanced, [p] = one worker did everything *)
  sync_ops : int;
      (** shared-counter atomic operations, from the policy's closed form
          ({!Loopcoal_sched.Chunks.sync_ops}, at the fork record's
          minimum chunk [f_k]) — one per dispatch plus one
          failed final claim per worker for dynamic policies, 0 for
          static *)
  sync_ops_per_iter : float;
  fork_latency_ns : int;
      (** earliest chunk start - fork begin: the cost of publishing the
          job and waking the workers *)
  join_latency_ns : int;  (** join end - latest chunk end *)
  dispatch_wait_ns : int array;
      (** per worker: time inside the region not spent executing chunks
          before its last chunk ends — dispatch acquisition plus queue
          contention *)
}

type t = {
  forks : fork_metrics list;  (** by epoch *)
  total_chunks : int;
  total_iters : int;
  total_wall_ns : int;  (** sum over regions *)
  total_sync_ops : int;
  imbalance : float;  (** of the largest region (by iterations) *)
}

val of_trace : Trace.t -> t

val check_partition : Trace.t -> (unit, string) result
(** Every fork region's chunks must exactly tile [1..n]: no gap, no
    overlap, lengths positive. The executor's dispatch loops are correct
    iff this holds for every policy. *)
