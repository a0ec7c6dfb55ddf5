(* A small spin-then-park fork-join pool over OCaml 5 domains.

   The pool spawns [size - 1] worker domains once; the calling domain
   itself acts as worker 0, so a pool of size p uses exactly p domains.
   [run] publishes one job (a function of the worker id) by bumping an
   atomic generation, participates, and waits for an atomic countdown
   to reach zero — one fork-join, which is precisely the synchronization
   shape the coalescing transformation reduces a nest to.

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
   parker and must wait for the mutex until the parker is asleep.

   Spinning pays only while every domain has a core and the waits are
   short. A pool larger than the recommended domain count never spins.
   Other load on the machine is invisible to that rule, and there a
   spinner holds the core that the domain it waits for needs: with one
   busy process beside a 2-domain pool on a 2-core VM, back-to-back
   forks cost 60 us instead of the 9 us of parking. Forks further apart
   than the window gain nothing from the spin either. Both show as a
   spin that ran out — a worker that had to be woken, or a join that
   parked — so after one the pool parks at once for [backoff] forks,
   doubling up to [max_backoff] while spins keep running out and halving
   on each fork whose spins all succeed. A join also skips its spin when
   [publish] had to wake a worker: the woken domain needs a scheduler
   decision and perhaps the caller's own core. [next_backoff] is that
   rule as a pure transition, unit-tested against scripted outcomes.

   Known lock-in, not yet fixed (measured on a 2-vCPU Xeon VM). A
   long-lived pool that forks back to back mostly spins: perfbench's
   native legs park 0.33-0.43 times per fork. In a fresh process the
   pool can instead lock into 1.5 parks per fork with both domains
   sharing one CPU: worker 1 finds no chunks left, and [publish] calls
   take 17 us. Pinning the caller and the workers to distinct CPUs
   removes the lock-in in that probe (a 2048-element reduce, 300 forks:
   1.5 -> 0.002-0.02 parks per fork, 4.4-4.9 -> 2.2-2.8 ms); pinning the
   workers alone does not. Pinning the caller at [create] made
   perfbench's fork_heavy native_run_vs_hand worse, 0.48 -> 0.81-0.97,
   so naive affinity is ruled out. The cause is not isolated; one
   candidate is that child processes inherit a one-CPU mask. *)

module Registry = Loopcoal_obs.Registry
module Trace = Loopcoal_obs.Trace

(* One observation per fork-join, covering publish -> all workers done.
   Size-1 pools run inline and are counted too: the histogram then shows
   the pure job cost, which is the useful baseline. *)
let c_forks = Registry.counter "pool.forks"
let h_fork_join_ns = Registry.histogram "pool.fork_join_ns"

(* Parks by an idle worker or by the joining caller: waits that went
   to sleep in the kernel, after their spin ran out or without one. *)
let c_parks = Registry.counter "pool.parks"

(* How long a waiter spins before it parks. About 50 us covers the
   serial code between the forks of a typical nest sweep; bounding by
   time rather than by an iteration count keeps the window the same on
   CPUs whose pause instruction costs 10 ns or 150 ns. *)
let spin_window_ns = 50_000

(* Longest run of parking-only forks: a failed probe every 1024 parked
   forks (10-20 ms) costs at most one spin window, under 1%. *)
let max_backoff = 1024

type backoff = { quiet : int; backoff : int }

(* One fork's back-off update. [quiet] is read at the fork's start: a
   positive one made the fork park at once and counts down. A spin that
   ran out — an idle worker that had to be woken, or a join window that
   closed before the join — sets [quiet] to the doubled [backoff]; a
   fork whose spins all succeeded halves [backoff]; a fork with no spin
   at all leaves it. *)
let next_backoff s ~idle_spun ~woke ~join_window ~joined =
  if (idle_spun && woke) || (join_window && not joined) then
    let b = min max_backoff ((2 * s.backoff) + 1) in
    { quiet = b; backoff = b }
  else
    let quiet = max 0 (s.quiet - 1) in
    let backoff =
      if idle_spun || join_window then s.backoff / 2 else s.backoff
    in
    if quiet = s.quiet && backoff = s.backoff then s else { quiet; backoff }

type t = {
  size : int;
  window_ns : int;  (* 0 for an oversubscribed pool *)
  mutex : Mutex.t;
  cond_job : Condition.t;
  cond_done : Condition.t;
  mutable job : int -> unit;
  mutable job_window_ns : int;  (* spin window of the published fork *)
  mutable boff : backoff;  (* see [next_backoff] *)
  generation : int Atomic.t;
  remaining : int Atomic.t;
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

let worker_loop t q =
  let seen = ref 0 and window_ns = ref 0 in
  let published () = Atomic.get t.generation <> !seen in
  while not t.stop do
    if not (spin !window_ns published) then begin
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
    (* [stop], [job] and [job_window_ns] were written before the
       generation bump we saw. *)
    if not t.stop then begin
      window_ns := t.job_window_ns;
      let err = match t.job q with () -> None | exception e -> Some e in
      t.errors.(q) <- err;
      if
        Atomic.fetch_and_add t.remaining (-1) = 1
        && Atomic.get t.caller_parked
      then begin
        Mutex.lock t.mutex;
        Condition.signal t.cond_done;
        Mutex.unlock t.mutex
      end
    end
  done

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
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
      job_window_ns = 0;
      boff = { quiet = 0; backoff = 0 };
      generation = Atomic.make 0;
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

(* Bump the generation and wake any parked worker; whether one was. *)
let publish t =
  Atomic.incr t.generation;
  Atomic.get t.sleepers > 0
  && begin
       Mutex.lock t.mutex;
       Condition.broadcast t.cond_job;
       Mutex.unlock t.mutex;
       true
     end

(* Wait for every worker; whether a spin of [window_ns] sufficed. *)
let join t ~window_ns =
  spin window_ns (fun () -> Atomic.get t.remaining = 0)
  || begin
       Mutex.lock t.mutex;
       Atomic.set t.caller_parked true;
       Registry.incr c_parks;
       while Atomic.get t.remaining > 0 do
         Condition.wait t.cond_done t.mutex
       done;
       Atomic.set t.caller_parked false;
       Mutex.unlock t.mutex;
       false
     end

let run t f =
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  Registry.incr c_forks;
  Registry.time h_fork_join_ns @@ fun () ->
  if t.size = 1 then f 0
  else begin
    Array.fill t.errors 0 t.size None;
    t.job <- f;
    (* Workers have spun since the last fork iff its window was open. *)
    let idle_spun = t.job_window_ns > 0 in
    t.job_window_ns <- (if t.boff.quiet > 0 then 0 else t.window_ns);
    Atomic.set t.remaining (t.size - 1);
    let woke = publish t in
    (* The caller is worker 0. *)
    (match f 0 with () -> () | exception e -> t.errors.(0) <- Some e);
    (* A woken worker needs a scheduler decision and maybe our core, so
       the join spins only when every worker was already spinning. *)
    let join_window_ns = if woke then 0 else t.job_window_ns in
    let joined = join t ~window_ns:join_window_ns in
    t.boff <-
      next_backoff t.boff ~idle_spun ~woke ~join_window:(join_window_ns > 0)
        ~joined;
    t.job <- no_job;
    (* Re-raise the lowest-id failure for determinism. *)
    Array.iter (function Some e -> raise e | None -> ()) t.errors
  end

let shutdown t =
  if not t.stop then begin
    t.stop <- true;
    ignore (publish t : bool);
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool size f =
  let t = create size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
