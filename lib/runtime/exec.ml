(* Parallel executor for compiled programs.

   A {!Compile.plan} is one coalesced iteration space [1..N] (the product
   of the flattened nest's trip counts). This module runs plans either
   sequentially or across OCaml 5 domains under the paper's scheduling
   policies, reusing the chunk formulas of [lib/sched] as live
   dispatchers:

   - [Static_block] / [Static_cyclic]: ownership from [Static.block] /
     [Static.cyclic], no synchronization at all after the fork;
   - [Self_sched c]: one [Atomic.fetch_and_add] on the coalesced index
     per dispatch — the paper's "single synchronized access to the shared
     loop index" claim, executed for real;
   - [Gss] / [Factoring] / [Trapezoid]: the chunk-size sequences from
     [Gss.chunk_sizes] etc., served from an atomic chunk queue.

   Within a chunk, the multi-index is recovered once by div/mod and then
   advanced with the O(1) odometer step of [Index_recovery]'s incremental
   strategy — no per-iteration division.

   Per-domain state: each domain gets a private copy of the scalar store
   (arrays are shared; DOALL iterations write disjoint elements by
   assumption of the [Parallel] annotation). After the join, recognized
   reductions are merged in domain order from their identity-initialized
   partials, and the remaining scalars are adopted from the domain that
   executed the highest coalesced iteration, matching the sequential
   last-iteration semantics for privatizable scalars. *)

module Policy = Loopcoal_sched.Policy
module Static = Loopcoal_sched.Static
module Chunks = Loopcoal_sched.Chunks
module Reduction = Loopcoal_analysis.Reduction
module Trace = Loopcoal_obs.Trace
module Registry = Loopcoal_obs.Registry
open Loopcoal_ir
open Compile

let c_runs = Registry.counter "exec.runs"
let h_run_ns = Registry.histogram "exec.run_ns"

let error fmt = Printf.ksprintf (fun s -> raise (Compile.Error s)) fmt

(* ---------- plan geometry ---------- *)

type space = {
  sizes : int array;  (** per-level trip counts *)
  los : int array;
  his : int array;
  step0 : int;  (** outermost step *)
  total : int;
}

let space_of (plan : plan) env =
  let depth = plan.depth in
  let los = Array.map (fun f -> f env) plan.lo_x in
  let his = Array.map (fun f -> f env) plan.hi_x in
  let step0 = plan.step_x env in
  if step0 <= 0 then
    error "loop %s: step must be positive" plan.index_names.(0);
  (* A wrapped trip count would silently run the wrong number of
     iterations, so overflow is a runtime fault naming the nest. *)
  let overflow () =
    error "loop %s: coalesced trip count exceeds the int range"
      (String.concat "." (Array.to_list plan.index_names))
  in
  let trip lo hi step =
    if hi < lo then 0
    else
      let d = hi - lo in
      if d < 0 || d / step = max_int then overflow () else (d / step) + 1
  in
  let sizes =
    Array.init depth (fun k ->
        trip los.(k) his.(k) (if k = 0 then step0 else 1))
  in
  let total =
    try Array.fold_left Loopcoal_util.Intmath.checked_mul 1 sizes
    with Invalid_argument _ -> overflow ()
  in
  { sizes; los; his; step0; total }

(* Set the nest indexes for coalesced iteration [t] (1-based): one round
   of div/mod, used once per chunk. *)
let set_cursor (plan : plan) sp env t =
  let rem = ref (t - 1) in
  for k = plan.depth - 1 downto 1 do
    env.ints.(plan.index_slots.(k)) <- sp.los.(k) + (!rem mod sp.sizes.(k));
    rem := !rem / sp.sizes.(k)
  done;
  env.ints.(plan.index_slots.(0)) <- sp.los.(0) + (!rem * sp.step0)

(* Odometer advance: increment the innermost index, carry outward on
   overflow. O(1) amortized; no division. *)
let advance (plan : plan) sp env =
  let rec bump k =
    if k = 0 then
      env.ints.(plan.index_slots.(0)) <-
        env.ints.(plan.index_slots.(0)) + sp.step0
    else begin
      let v = env.ints.(plan.index_slots.(k)) + 1 in
      if v > sp.his.(k) then begin
        env.ints.(plan.index_slots.(k)) <- sp.los.(k);
        bump (k - 1)
      end
      else env.ints.(plan.index_slots.(k)) <- v
    end
  in
  bump (plan.depth - 1)

(* Run the contiguous chunk [t0 .. t0+len-1] of the coalesced space. The
   environment's [iter_id] tracks the running coalesced iteration so
   sanitizer-instrumented bodies can attribute their accesses. *)
let run_chunk (plan : plan) sp env t0 len =
  if len > 0 then begin
    set_cursor plan sp env t0;
    env.iter_id <- t0;
    plan.body env;
    for k = 2 to len do
      advance plan sp env;
      env.iter_id <- t0 + k - 1;
      plan.body env
    done
  end

(* ---------- engines ---------- *)

type engine = Closure | Bytecode | Native

let c_native_fallbacks = Registry.counter "native.fallbacks"

(* Strip runner: decompose each chunk into maximal runs over the
   innermost coalesced digit (see [Bytecode.strip_bounds]) and execute
   each run as one strip — outer indexes set once by div/mod, the inner
   index advanced by a constant increment. [strip j0 jstep len iter0]
   runs one strip: the tape interpreter, on the plan's tape or on a
   profiler's counting copy of it, or a native runner — chosen once per
   binding, the loop itself is shared. Chunk boundaries are exactly
   those of the closure engine, so traces and metrics are unchanged.
   Tape faults and native runners' [Failure]s carry interpreter-identical
   messages. *)
let run_strips (plan : plan) sp env strip =
  let depth = plan.depth in
  let inner = sp.sizes.(depth - 1) in
  let jlo = sp.los.(depth - 1) in
  let jstep = if depth = 1 then sp.step0 else 1 in
  fun t0 len ->
    let tlast = t0 + len - 1 in
    let t = ref t0 in
    try
      while !t <= tlast do
        let pos = (!t - 1) mod inner in
        let slen = min (tlast - !t + 1) (inner - pos) in
        if depth > 1 then set_cursor plan sp env !t;
        env.iter_id <- !t;
        strip (jlo + (pos * jstep)) jstep slen !t;
        t := !t + slen
      done
    with Bytecode.Error m | Failure m -> raise (Compile.Error m)

(* Per-fork bytecode preparation: the checked-vs-unsafe decision is made
   once against the fork's whole iteration space, so it is valid for
   every chunk any domain will dispatch. *)
let bytecode_prep (plan : plan) sp env =
  match plan.tape with
  | Some tape when sp.total > 0 ->
      let hi =
        Array.init plan.depth (fun k ->
            if k = 0 then sp.los.(0) + ((sp.sizes.(0) - 1) * sp.step0)
            else sp.his.(k))
      in
      Some (tape, Bytecode.prepare tape ~ints:env.ints ~lo:sp.los ~hi)
  | _ -> None

(* Per-fork engine decision, on top of [bytecode_prep]: the native
   engine uses a plan's runner only when the runner exists, profiling is
   off (the profiler attributes per-opcode dispatches, which native code
   does not perform) and every access proved in bounds for this fork —
   generated code only has the unsafe path. Anything else falls back to
   the bytecode tier for this fork, counted under [native.fallbacks]. *)
let fork_prep ?profile engine (plan : plan) sp env =
  match engine with
  | Closure -> None
  | Bytecode -> (
      match bytecode_prep plan sp env with
      | None -> None
      | Some (tape, pr) -> Some (tape, pr, None))
  | Native -> (
      match bytecode_prep plan sp env with
      | None ->
          if sp.total > 0 then Registry.incr c_native_fallbacks;
          None
      | Some (tape, pr) ->
          let nr =
            match (plan.native, profile) with
            | Some nr, None
              when Array.for_all Fun.id (Bytecode.unsafe_flags pr) ->
                Some nr
            | _ ->
                Registry.incr c_native_fallbacks;
                None
          in
          Some (tape, pr, nr))

(* Bind the chunk runner for one (engine, plan, env): native strips
   when the fork got a runner, tape strips when the plan lowered,
   closure dispatch otherwise. The scratch is per-binding, so every
   domain hoists (and counts) into its own. Like the trace probe, the
   profiled-vs-plain decision is made here, once per binding: a plain
   binding runs the plan's tape with no counting at all, a profiled one
   runs the profiler's counting copy and brackets each chunk with two
   clock reads. *)
let chunk_runner ?profile (plan : plan) sp prep env : int -> int -> unit =
  match prep with
  | None -> run_chunk plan sp env
  | Some (_, _, Some nr) ->
      run_strips plan sp env (fun j0 jstep len _ ->
          nr env.ints env.reals env.arrays j0 jstep len)
  | Some (tape, pr, None) -> (
      let jslot = plan.index_slots.(plan.depth - 1) in
      let shadow = if Bytecode.sanitized tape then env.shadow else None in
      let exec tape inv j0 jstep len iter0 =
        Bytecode.exec_strip tape pr ~ints:env.ints ~reals:env.reals
          ~arrays:env.arrays ~shadow ~inv ~jslot ~j0 ~jstep ~len ~iter0
      in
      match profile with
      | None -> run_strips plan sp env (exec tape (Bytecode.make_scratch tape))
      | Some pc ->
          let b = Profile.bind pc tape in
          let exec = exec (Profile.instrumented b) (Profile.scratch b) in
          let run =
            run_strips plan sp env (fun j0 jstep len iter0 ->
                exec j0 jstep len iter0;
                Profile.count_strip b ~len)
          in
          fun t0 len ->
            let clk0 = Trace.now () in
            run t0 len;
            Profile.add_ns b (Trace.now () - clk0))

(* A new fork is a new sanitizer epoch: conflicts are only races between
   iterations of the {e same} fork. Called from the forking thread,
   before any domain starts. *)
let new_epoch env =
  match env.shadow with Some sh -> Sanitize.new_epoch sh | None -> ()

(* ---------- sequential execution ---------- *)

(* The whole space is one chunk. Traced, it is recorded on worker 0 as
   a static block (which it literally is); nested parallel loops inside
   the region run — and are timed — within this chunk, so only the
   outermost fork hook traces. *)
let rec seq_fork_e engine ?profile ?trace (plan : plan) env =
  let saved_fork = env.fork in
  env.fork <- seq_fork_e engine ?profile ?trace:None;
  new_epoch env;
  let sp = space_of plan env in
  let prep = fork_prep ?profile engine plan sp env in
  let run = chunk_runner ?profile plan sp prep env in
  (match trace with
  | None -> run 1 sp.total
  | Some tracer ->
      Trace.fork_begin tracer ~policy:Policy.Static_block ~n:sp.total ~p:1;
      let a = Trace.now () in
      run 1 sp.total;
      let b = Trace.now () in
      if sp.total > 0 then
        Trace.record tracer ~worker:0 ~start:1 ~len:sp.total ~t0:a ~t1:b;
      Trace.fork_end tracer);
  env.iter_id <- 0;
  env.fork <- saved_fork

let seq_fork plan env = seq_fork_e Bytecode plan env

(* ---------- reduction merge ---------- *)

let identity_of (r : red) =
  match r.r_op with Reduction.Sum -> 0.0 | Reduction.Product -> 1.0

let reset_partials (plan : plan) env =
  Array.iter
    (fun r ->
      if r.r_real then env.reals.(r.r_slot) <- identity_of r
      else
        env.ints.(r.r_slot) <-
          (match r.r_op with Reduction.Sum -> 0 | Reduction.Product -> 1))
    plan.reductions

let merge_reductions (plan : plan) master clones =
  Array.iter
    (fun r ->
      if r.r_real then begin
        let acc = ref master.reals.(r.r_slot) in
        Array.iter
          (fun c ->
            let partial = c.reals.(r.r_slot) in
            acc :=
              (match r.r_op with
              | Reduction.Sum -> !acc +. partial
              | Reduction.Product -> !acc *. partial))
          clones;
        master.reals.(r.r_slot) <- !acc
      end
      else begin
        let acc = ref master.ints.(r.r_slot) in
        Array.iter
          (fun c ->
            let partial = c.ints.(r.r_slot) in
            acc :=
              (match r.r_op with
              | Reduction.Sum -> !acc + partial
              | Reduction.Product -> !acc * partial))
          clones;
        master.ints.(r.r_slot) <- !acc
      end)
    plan.reductions

(* ---------- parallel execution ---------- *)

(* Per-domain dispatch loop for one policy over [1..n]. [run] receives
   (t0, len) chunks; must be called with ascending t0 within a domain. *)
let dispatch policy ~n ~p ~(q : int) ~run =
  match (policy : Policy.t) with
  | Static_block -> (
      (* Contiguous blocks, identical to Static.block ownership. *)
      match Static.block_chunk ~n ~p q with
      | Some (t0, len) -> run t0 len
      | None -> ())
  | Static_cyclic ->
      let t = ref (q + 1) in
      while !t <= n do
        run !t 1;
        t := !t + p
      done
  | Self_sched _ | Gss | Factoring | Trapezoid ->
      assert false (* dynamic policies are dispatched from shared state *)

let parallel_fork_e engine ?trace ?profile pool policy (plan : plan) master =
  let p = Pool.size pool in
  let sp = space_of plan master in
  let n = sp.total in
  if n = 0 then ()
  else if p = 1 || n = 1 then seq_fork_e engine ?profile ?trace plan master
  else begin
    (match trace with
    | None -> ()
    | Some tracer -> Trace.fork_begin tracer ~policy ~n ~p);
    new_epoch master;
    (* The unsafe/checked decision is shared (it covers the whole
       space); each domain's runner hoists into private scratch. *)
    let prep = fork_prep ?profile engine plan sp master in
    let clones =
      Array.init p (fun _ ->
          let c = clone_env master in
          c.fork <- seq_fork_e engine ?profile ?trace:None;
          reset_partials plan c;
          c)
    in
    (* The domain that runs the chunk holding iteration [n] supplies
       every non-reduction scalar after the join. It starts that chunk
       from the fork-entry scalars (keeping its reduction partials), so
       what it hands over depends on that chunk alone — not on which
       earlier chunks a dynamic schedule gave it, which a scalar the
       last chunk leaves unassigned would otherwise expose. *)
    let restart c =
      let ints = Array.copy c.ints and reals = Array.copy c.reals in
      Array.blit master.ints 0 c.ints 0 (Array.length c.ints);
      Array.blit master.reals 0 c.reals 0 (Array.length c.reals);
      Array.iter
        (fun r ->
          if r.r_real then c.reals.(r.r_slot) <- reals.(r.r_slot)
          else c.ints.(r.r_slot) <- ints.(r.r_slot))
        plan.reductions
    in
    let runners =
      Array.map
        (fun c ->
          let run = chunk_runner ?profile plan sp prep c in
          fun t0 len ->
            if t0 + len - 1 = n then restart c;
            run t0 len)
        clones
    in
    let hi_t = Array.make p 0 in
    (* The probe is selected here, once per fork: with tracing off the
       executed closure is exactly the untraced one — no timestamp, no
       branch, no write on the chunk path. *)
    let run_on =
      match trace with
      | None ->
          fun q t0 len ->
            runners.(q) t0 len;
            if t0 + len - 1 > hi_t.(q) then hi_t.(q) <- t0 + len - 1
      | Some tracer ->
          fun q t0 len ->
            let a = Trace.now () in
            runners.(q) t0 len;
            let b = Trace.now () in
            Trace.record tracer ~worker:q ~start:t0 ~len ~t0:a ~t1:b;
            if t0 + len - 1 > hi_t.(q) then hi_t.(q) <- t0 + len - 1
    in
    let worker : int -> unit =
      match (policy : Policy.t) with
      | Static_block | Static_cyclic ->
          fun q -> dispatch policy ~n ~p ~q ~run:(run_on q)
      | Self_sched c ->
          (* The paper's self-scheduling: a single shared coalesced index,
             advanced with one atomic fetch-and-add per dispatch. *)
          let next = Atomic.make 1 in
          fun q ->
            let continue_ = ref true in
            while !continue_ do
              let t0 = Atomic.fetch_and_add next c in
              if t0 > n then continue_ := false
              else run_on q t0 (min c (n - t0 + 1))
            done
      | Gss | Factoring | Trapezoid ->
          (* The policy's closed-form chunk sequence (a function of n and
             p only), served from an atomic queue: one fetch-and-add per
             dispatch, chunks in dispatch order. *)
          let chunks = Option.get (Chunks.dynamic_sequence policy ~n ~p) in
          let next = Atomic.make 0 in
          fun q ->
            let continue_ = ref true in
            while !continue_ do
              let k = Atomic.fetch_and_add next 1 in
              if k >= Array.length chunks then continue_ := false
              else begin
                let t0, len = chunks.(k) in
                run_on q t0 len
              end
            done
    in
    (* Save the master's pre-loop reduction values: they are the base of
       the merge and must survive the wholesale scalar adoption below. *)
    let saved_ints =
      Array.map
        (fun r -> if r.r_real then 0 else master.ints.(r.r_slot))
        plan.reductions
    in
    let saved_reals =
      Array.map
        (fun r -> if r.r_real then master.reals.(r.r_slot) else 0.0)
        plan.reductions
    in
    Pool.run pool worker;
    (* Merge: adopt scalars from the domain that ran the highest
       iteration (sequential last-iteration-wins semantics for
       privatized scalars), then fold reduction partials in domain
       order on top of the master's pre-loop value. *)
    let qlast = ref (-1) in
    Array.iteri
      (fun q t -> if t > 0 && (!qlast < 0 || t > hi_t.(!qlast)) then qlast := q)
      hi_t;
    if !qlast >= 0 then begin
      Array.blit clones.(!qlast).ints 0 master.ints 0 (Array.length master.ints);
      Array.blit clones.(!qlast).reals 0 master.reals 0
        (Array.length master.reals)
    end;
    Array.iteri
      (fun k (r : red) ->
        if r.r_real then master.reals.(r.r_slot) <- saved_reals.(k)
        else master.ints.(r.r_slot) <- saved_ints.(k))
      plan.reductions;
    merge_reductions plan master clones;
    (* The traced region closes after the merge: its wall time is the
       full fork-to-usable-result span, so join latency includes the
       barrier wait and the serial reduction fold. *)
    match trace with
    | None -> ()
    | Some tracer -> Trace.fork_end tracer
  end

let parallel_fork ?trace pool policy plan master =
  parallel_fork_e Bytecode ?trace pool policy plan master

(* ---------- whole-program entry points ---------- *)

type outcome = {
  arrays : (string * float array) list;
  scalars : (string * Eval.value) list;
}

let outcome_of t env =
  { arrays = Compile.read_arrays t env; scalars = Compile.read_scalars t env }

let run_compiled ?(array_init = 0.0) ?pool ?(policy = Policy.Static_block)
    ?(domains = 1) ?(engine = Bytecode) ?trace ?profile ?shadow
    (t : Compile.t) =
  if domains < 1 then invalid_arg "Exec.run_compiled: domains must be >= 1";
  (match Policy.validate policy with
  | Ok () -> ()
  | Error m -> invalid_arg ("Exec.run_compiled: " ^ m));
  (* The native engine needs runners attached before the first fork;
     callers that want the artifact-hit report (or a custom cache key)
     call [Natgen.prepare] themselves — this is the catch-all for direct
     [run ~engine:Native] uses, and a no-op once a prepare ran. An
     unavailable toolchain simply leaves every [plan.native] at [None],
     so each fork falls back to the bytecode tier. *)
  (if engine = Native then
     match Compile.native_state t with
     | `Untried -> ignore (Natgen.prepare t : Natgen.status)
     | `Ready | `Unavailable _ -> ());
  let go pool =
    Registry.incr c_runs;
    Registry.time h_run_ns @@ fun () ->
    let fork =
      match pool with
      | None -> seq_fork_e engine ?profile ?trace
      | Some pool -> parallel_fork_e engine ?trace ?profile pool policy
    in
    let env = Compile.make_env ~array_init ?shadow t ~fork in
    Compile.run_code t env;
    outcome_of t env
  in
  match pool with
  | Some p -> go (if Pool.size p > 1 then Some p else None)
  | None ->
      if domains = 1 then go None
      else Pool.with_pool domains (fun p -> go (Some p))

let run ?array_init ?pool ?policy ?domains ?engine ?trace ?profile ?opt_level
    (p : Loopcoal_ir.Ast.program) =
  run_compiled ?array_init ?pool ?policy ?domains ?engine ?trace ?profile
    (Compile.compile ?opt_level p)

(* Compile with shadow instrumentation, run, and return the observed
   conflicts alongside the outcome. *)
let run_sanitized ?array_init ?pool ?policy ?domains ?engine ?limit ?opt_level
    (p : Loopcoal_ir.Ast.program) =
  let t = Compile.compile ~sanitize:true ?opt_level p in
  let sh = Sanitize.create ?limit (Compile.shadow_layout t) in
  let outcome =
    run_compiled ?array_init ?pool ?policy ?domains ?engine ~shadow:sh t
  in
  (outcome, sh)

(* Differential check against the reference interpreter: arrays must be
   exactly equal; scalar comparison is optional because non-reduction
   scalars assigned inside a parallel loop follow privatization (not
   interleaving) semantics. *)
let agrees_with_interpreter ?(compare_scalars = false) (outcome : outcome)
    (st : Eval.state) =
  let arrays, scalars = Eval.dump st in
  List.length arrays = List.length outcome.arrays
  && List.for_all2
       (fun (n1, d1) (n2, d2) -> String.equal n1 n2 && d1 = d2)
       arrays outcome.arrays
  && ((not compare_scalars)
     || List.length scalars = List.length outcome.scalars
        && List.for_all2
             (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && v1 = v2)
             scalars outcome.scalars)
