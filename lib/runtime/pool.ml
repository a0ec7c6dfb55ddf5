(* A small spin-then-park, share-claiming fork-join pool over OCaml 5
   domains.

   The pool spawns [size - 1] worker domains once; the calling domain
   itself acts as worker 0, so a pool of size p uses exactly p domains.
   [run] publishes one job by bumping an atomic generation. The job
   applied to one worker id q is share q. Each share is claimed exactly
   once per fork, by a compare-and-set of its stamp from the previous
   generation to this one: worker q claims its own share when it sees
   the fork, and every participant, the caller first, then claims any
   share still unclaimed, lowest id first. So the caller has claimed
   every share by the time it joins, and the join waits only for shares
   another domain claimed and is running — never for a worker that is
   asleep or still waking. An atomic countdown of unfinished shares
   ends the fork.

   Both waits spin first and park second, as OpenMP runtimes do
   (libgomp's GOMP_SPINCOUNT, the LLVM runtime's KMP_BLOCKTIME). An idle
   worker spins on [generation] and the joining caller on [remaining]
   for [spin_window_ns] of wall time; back-to-back forks therefore cost
   two cache-line transfers instead of two kernel sleep/wake round
   trips. After the window a waiter parks on a condition variable and
   says so ([sleepers], [caller_parked]); the other side takes the mutex
   and signals only when someone has parked. Every flag is a
   sequentially consistent atomic and each parker registers before it
   re-checks its condition under the mutex, so a wake-up is never lost:
   either the parker sees the new value, or the signaller sees the
   parker and must wait for the mutex until the parker is asleep. A pool
   larger than the recommended domain count never spins: a spinner
   would hold the core that the domain it waits for needs.

   Why claiming (measured on a 2-vCPU Xeon VM). When share q ran only on
   worker q, a fork that woke a parked worker waited in its join for
   that wake-up, which outlasted the worker's own spin window after the
   fork, so the next fork found it asleep again; a back-off that then
   parked on purpose for up to 1024 forks kept the pool there. In 40
   fresh processes of relax (n = 4096, 400 sweeps, -p 2, both engines)
   22 ran above 0.5 parks per fork. With claiming the caller runs a
   parked worker's share itself and the woken worker spins again: the
   same 40 runs read at most 0.28 parks per fork, and perfbench's
   fork_heavy native_run_vs_hand fell 0.357 -> 0.296 (10 pairs).
   The back-off is gone: on top of claiming it read 0.320 there (worse
   in 10 of 10 pairs), and beside one busy process (relax n = 512, 2000
   sweeps) 13.2 ms against 14.0 ms without it, inside the noise
   (quartiles 12.5-16.6 and 12.3-18.0 ms). *)

module Registry = Loopcoal_obs.Registry
module Trace = Loopcoal_obs.Trace

(* One observation per fork-join, covering publish -> all shares done.
   Size-1 pools run inline and are counted too: the histogram then shows
   the pure job cost, which is the useful baseline. *)
let c_forks = Registry.counter "pool.forks"
let h_fork_join_ns = Registry.histogram "pool.fork_join_ns"

(* Pools created: a run that never splits a fork creates none. *)
let c_created = Registry.counter "pool.created"

(* Parks by an idle worker or by the joining caller: waits that went
   to sleep in the kernel, after their spin ran out or without one. *)
let c_parks = Registry.counter "pool.parks"

(* Shares run by a domain other than their own worker. *)
let c_steals = Registry.counter "pool.steals"

(* How long a waiter spins before it parks. About 50 us covers the
   serial code between the forks of a typical nest sweep; bounding by
   time rather than by an iteration count keeps the window the same on
   CPUs whose pause instruction costs 10 ns or 150 ns. *)
let spin_window_ns = 50_000

type t = {
  size : int;
  window_ns : int;  (* 0 for an oversubscribed pool *)
  mutex : Mutex.t;
  cond_job : Condition.t;
  cond_done : Condition.t;
  mutable job : int -> unit;
  generation : int Atomic.t;
  claims : int Atomic.t array;  (* per share: the last fork that claimed it *)
  remaining : int Atomic.t;  (* shares of this fork not finished *)
  sleepers : int Atomic.t;  (* workers parked on [cond_job] *)
  caller_parked : bool Atomic.t;  (* caller parked on [cond_done] *)
  mutable stop : bool;
  errors : exn option array;
  mutable workers : unit Domain.t list;
}

let size t = t.size
let no_job (_ : int) = ()

(* Spin until [ready ()] or until [window_ns] has passed; [ready ()]'s
   final value. The clock is read every 64 relaxes only. *)
let spin window_ns ready =
  if ready () then true
  else if window_ns = 0 then false
  else begin
    let deadline = Trace.now () + window_ns in
    let rec go i =
      Domain.cpu_relax ();
      if ready () then true
      else if i land 63 = 0 && Trace.now () >= deadline then false
      else go (i + 1)
    in
    go 1
  end

(* Claim share [q] of fork [g] and run it on worker [self]; whether the
   claim succeeded. A claim of a fork that has already ended fails, so a
   late worker never runs a share twice. [job] is read only after a
   claim: the fork cannot end, and so cannot reset it, before the share
   finishes. *)
let run_share t g ~self q =
  let c = t.claims.(q) in
  Atomic.get c = g - 1
  && Atomic.compare_and_set c (g - 1) g
  && begin
       if q <> self then Registry.incr c_steals;
       t.errors.(q) <- (match t.job q with () -> None | exception e -> Some e);
       if
         Atomic.fetch_and_add t.remaining (-1) = 1
         && Atomic.get t.caller_parked
       then begin
         Mutex.lock t.mutex;
         Condition.signal t.cond_done;
         Mutex.unlock t.mutex
       end;
       true
     end

(* Worker [self]'s part of fork [g]: its own share, then every share
   still unclaimed, lowest id first. *)
let claim_shares t g ~self =
  ignore (run_share t g ~self self : bool);
  for q = 0 to t.size - 1 do
    ignore (run_share t g ~self q : bool)
  done

let worker_loop t self =
  let seen = ref 0 in
  let published () = Atomic.get t.generation <> !seen in
  while not t.stop do
    if not (spin t.window_ns published) then begin
      Mutex.lock t.mutex;
      Atomic.incr t.sleepers;
      Registry.incr c_parks;
      while Atomic.get t.generation = !seen do
        Condition.wait t.cond_job t.mutex
      done;
      Atomic.decr t.sleepers;
      Mutex.unlock t.mutex
    end;
    seen := Atomic.get t.generation;
    (* [stop] was written before the generation bump we saw. *)
    if not t.stop then claim_shares t !seen ~self
  done

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  Registry.incr c_created;
  let t =
    {
      size;
      window_ns =
        (if size > Domain.recommended_domain_count () then 0
         else spin_window_ns);
      mutex = Mutex.create ();
      cond_job = Condition.create ();
      cond_done = Condition.create ();
      job = no_job;
      generation = Atomic.make 0;
      claims = Array.init size (fun _ -> Atomic.make 0);
      remaining = Atomic.make 0;
      sleepers = Atomic.make 0;
      caller_parked = Atomic.make false;
      stop = false;
      errors = Array.make size None;
      workers = [];
    }
  in
  t.workers <-
    List.init (size - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

(* Bump the generation and wake any parked worker; the new generation. *)
let publish t =
  let g = Atomic.fetch_and_add t.generation 1 + 1 in
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.cond_job;
    Mutex.unlock t.mutex
  end;
  g

(* Wait for the shares other domains claimed and still run. *)
let join t =
  if not (spin t.window_ns (fun () -> Atomic.get t.remaining = 0)) then begin
    Mutex.lock t.mutex;
    Atomic.set t.caller_parked true;
    Registry.incr c_parks;
    while Atomic.get t.remaining > 0 do
      Condition.wait t.cond_done t.mutex
    done;
    Atomic.set t.caller_parked false;
    Mutex.unlock t.mutex
  end

let inline f =
  Registry.incr c_forks;
  Registry.time h_fork_join_ns f

let run t f =
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  inline @@ fun () ->
  if t.size = 1 then f 0
  else begin
    Array.fill t.errors 0 t.size None;
    t.job <- f;
    Atomic.set t.remaining t.size;
    (* The caller is worker 0. *)
    claim_shares t (publish t) ~self:0;
    join t;
    t.job <- no_job;
    (* Re-raise the lowest-id failure for determinism. *)
    Array.iter (function Some e -> raise e | None -> ()) t.errors
  end

let shutdown t =
  if not t.stop then begin
    t.stop <- true;
    ignore (publish t : int);
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool size f =
  let t = create size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
