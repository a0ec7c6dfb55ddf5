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

   A chunk runs as strips: maximal runs over the innermost coalesced
   digit, each one call of the plan's tape (or its native runner) with
   the outer indexes recovered once by div/mod and the inner index
   advanced by a constant increment — no per-iteration division and no
   odometer carry.

   Per-domain state: each domain gets a private copy of the scalar store
   (arrays are shared; DOALL iterations write disjoint elements by
   assumption of the [Parallel] annotation). After the join, recognized
   reductions are merged in domain order from their identity-initialized
   partials, and the remaining scalars are adopted from the domain that
   executed the highest coalesced iteration, matching the sequential
   last-iteration semantics for privatizable scalars.

   A plan keeps those clones, its chunk sequence and its range proof in
   a fork state ([Compile.fork_state]) that its later forks refresh
   instead of rebuilding; see [claim] and [fork_on]. *)

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

(* A wrapped trip count would silently run the wrong number of
   iterations, so overflow is a runtime fault naming the nest. *)
let overflow (plan : plan) =
  error "loop %s: coalesced trip count exceeds the int range"
    (String.concat "." (Array.to_list plan.index_names))

let trip plan lo hi step =
  if hi < lo then 0
  else
    let d = hi - lo in
    if d < 0 || d / step = max_int then overflow plan else (d / step) + 1

(* Evaluate the plan's bounds under [env] into [sp], in the
   interpreter's order: lo, hi and step (checked) of the outer level,
   then each inner level's lo and hi, stopping at the first empty level
   — the interpreter never evaluates the bounds of a loop nested in one
   that runs no iteration. Levels past it keep stale bounds, which
   nothing reads when [total = 0]. *)
let fill_space (plan : plan) sp env =
  let depth = plan.depth in
  let total = ref 1 and k = ref 0 in
  while !k < depth && !total > 0 do
    let lo = plan.lo_x.(!k) env in
    let hi = plan.hi_x.(!k) env in
    let step =
      if !k > 0 then 1
      else begin
        let s = plan.step_x env in
        if s <= 0 then
          error "loop %s: step must be positive" plan.index_names.(0);
        sp.step0 <- s;
        s
      end
    in
    sp.los.(!k) <- lo;
    sp.his.(!k) <- hi;
    sp.sizes.(!k) <- trip plan lo hi step;
    (total :=
       try Loopcoal_util.Intmath.checked_mul !total sp.sizes.(!k)
       with Invalid_argument _ -> overflow plan);
    incr k
  done;
  sp.total <- !total

let new_space depth =
  {
    sizes = Array.make depth 0;
    los = Array.make depth 0;
    his = Array.make depth 0;
    step0 = 0;
    total = 0;
  }

(* Set the nest indexes for coalesced iteration [t] (1-based): one round
   of div/mod, used once per strip. *)
let set_cursor (plan : plan) sp env t =
  let rem = ref (t - 1) in
  for k = plan.depth - 1 downto 1 do
    env.ints.(plan.index_slots.(k)) <- sp.los.(k) + (!rem mod sp.sizes.(k));
    rem := !rem / sp.sizes.(k)
  done;
  env.ints.(plan.index_slots.(0)) <- sp.los.(0) + (!rem * sp.step0)

(* ---------- engines ---------- *)

type engine = Closure | Bytecode | Native

let c_native_fallbacks = Registry.counter "native.fallbacks"
let c_lane_forks = Registry.counter "exec.lane_forks"

(* Strip runner: decompose each chunk into maximal runs over the
   innermost coalesced digit (see [Bytecode.strip_bounds]) and execute
   each run as one strip — outer indexes set once by div/mod, the inner
   index advanced by a constant increment. [strip x j0 jstep len iter0]
   runs one strip: the tape interpreter under proof [x], on the plan's
   tape or on a profiler's counting copy of it, the lane path over lane
   program [x], or native runner [x]. The space is read per chunk, so
   one binding serves every fork of a fork state. Chunk boundaries are
   the schedule's, whatever the engine, so traces and metrics do not
   depend on it. Tape faults and native runners' [Failure]s carry
   interpreter-identical messages. *)
let run_strips (plan : plan) sp env strip x t0 len =
  let depth = plan.depth in
  let inner = sp.sizes.(depth - 1) in
  let jlo = sp.los.(depth - 1) in
  let jstep = if depth = 1 then sp.step0 else 1 in
  let tlast = t0 + len - 1 in
  let t = ref t0 in
  try
    while !t <= tlast do
      let pos = (!t - 1) mod inner in
      let slen = min (tlast - !t + 1) (inner - pos) in
      if depth > 1 then set_cursor plan sp env !t;
      strip x (jlo + (pos * jstep)) jstep slen !t;
      t := !t + slen
    done
  with Bytecode.Error m | Failure m -> raise (Compile.Error m)

(* The checked-vs-unsafe decision is made once against the fork's whole
   iteration space, so it is valid for every chunk any domain will
   dispatch. [hi] receives the attained upper bound of each level. *)
let attained_hi (plan : plan) sp hi =
  for k = 0 to plan.depth - 1 do
    hi.(k) <-
      (if k = 0 then sp.los.(0) + ((sp.sizes.(0) - 1) * sp.step0)
       else sp.his.(k))
  done

(* The engine decision of a tape fork under proof [pr]: the native
   engine uses a plan's runner only when the runner exists, profiling is
   off (the profiler attributes per-opcode dispatches, which native code
   does not perform) and every access proved in bounds for this fork —
   generated code only has the unsafe path. Anything else falls back to
   the bytecode tier for this fork, counted under [native.fallbacks].
   The bytecode tier runs the fork on the lane path when the body has a
   lane program, every access proved in bounds and profiling is off
   (sanitized tapes have no lane program), counted under
   [exec.lane_forks]; else on the scalar interpreter. *)
let tape_mode ?profile engine (plan : plan) lanes pr ~all_unsafe =
  match (engine, plan.native, profile) with
  | Native, Some nr, None when all_unsafe -> Fork_native nr
  | _ -> (
      if engine = Native then Registry.incr c_native_fallbacks;
      match (lanes, profile) with
      | Ok _, None when all_unsafe ->
          Registry.incr c_lane_forks;
          Fork_lanes pr
      | _ -> Fork_tape pr)

(* Bind the chunk runner of one domain's environment: it runs a chunk
   under the fork's decision, passed per call, so one binding serves
   every fork that shares [sp]. The scratch is per-binding and [lanes]
   (the body's lane program and lane arrays) per domain, so every
   domain hoists (and counts) into its own. Like the trace probe, the
   profiled-vs-plain decision is made here, once per binding: a plain
   binding runs the plan's tape with no counting at all, a profiled one
   runs the profiler's counting copy and brackets each chunk with two
   clock reads. A profiled binding registers the tape with the
   collector. *)
let chunk_runner ?profile ?lanes (plan : plan) sp env :
    fork_mode -> int -> int -> unit =
  let native_strip nr j0 jstep len _ =
    nr env.ints env.reals env.arrays j0 jstep len
  in
  let tape = plan.tape in
  let jslot = plan.index_slots.(plan.depth - 1) in
  let inv = Bytecode.make_scratch tape in
  let shadow = if Bytecode.sanitized tape then env.shadow else None in
  let exec tape inv pr j0 jstep len iter0 =
    Bytecode.exec_strip tape pr ~ints:env.ints ~reals:env.reals
      ~arrays:env.arrays ~shadow ~inv ~jslot ~j0 ~jstep ~len ~iter0
  in
  let run_tape =
    match profile with
    | None -> run_strips plan sp env (exec tape inv)
    | Some pc ->
        let b = Profile.bind pc tape in
        let exec = exec (Profile.instrumented b) (Profile.scratch b) in
        let strip pr j0 jstep len iter0 =
          exec pr j0 jstep len iter0;
          Profile.count_strip b ~len
        in
        fun pr t0 len ->
          let clk0 = Trace.now () in
          run_strips plan sp env strip pr t0 len;
          Profile.add_ns b (Trace.now () - clk0)
  in
  (* made at the binding's first lane fork *)
  let run_lanes = ref None in
  let lane_chunks ln ls =
    let run =
      Bytecode.lane_runner tape ln ls ~ints:env.ints ~reals:env.reals
        ~arrays:env.arrays ~inv ~jslot
    in
    (* a one-iteration strip gains nothing from lanes *)
    let strip pr j0 jstep len iter0 =
      if len > 1 then run j0 jstep len else exec tape inv pr j0 jstep len iter0
    in
    run_strips plan sp env strip
  in
  fun mode t0 len ->
    match mode with
    | Fork_tape pr -> run_tape pr t0 len
    | Fork_lanes pr -> (
        match (!run_lanes, lanes) with
        | Some f, _ -> f pr t0 len
        | None, Some (ln, ls) ->
            let f = lane_chunks ln ls in
            run_lanes := Some f;
            f pr t0 len
        | None, None -> run_tape pr t0 len)
    | Fork_native nr -> run_strips plan sp env native_strip nr t0 len

(* A new fork is a new sanitizer epoch: conflicts are only races between
   iterations of the {e same} fork. Called from the forking thread,
   before any domain starts. *)
let new_epoch env =
  match env.shadow with Some sh -> Sanitize.new_epoch sh | None -> ()

(* ---------- reduction merge ---------- *)

let reset_partials (plan : plan) env =
  let reds = plan.reductions in
  for i = 0 to Array.length reds - 1 do
    let r = reds.(i) in
    match r.r_op with
    | Reduction.Sum ->
        if r.r_real then env.reals.(r.r_slot) <- 0.0 else env.ints.(r.r_slot) <- 0
    | Reduction.Product ->
        if r.r_real then env.reals.(r.r_slot) <- 1.0 else env.ints.(r.r_slot) <- 1
  done

(* Fold the domains' partials, in domain order, onto the master's value. *)
let merge_reductions (plan : plan) master clones =
  let reds = plan.reductions in
  for i = 0 to Array.length reds - 1 do
    let r = reds.(i) in
    let s = r.r_slot in
    if r.r_real then begin
      let acc = ref master.reals.(s) in
      for q = 0 to Array.length clones - 1 do
        let x = clones.(q).reals.(s) in
        acc :=
          match r.r_op with
          | Reduction.Sum -> !acc +. x
          | Reduction.Product -> !acc *. x
      done;
      master.reals.(s) <- !acc
    end
    else begin
      let acc = ref master.ints.(s) in
      for q = 0 to Array.length clones - 1 do
        let x = clones.(q).ints.(s) in
        acc :=
          match r.r_op with
          | Reduction.Sum -> !acc + x
          | Reduction.Product -> !acc * x
      done;
      master.ints.(s) <- !acc
    end
  done

(* Copy [env]'s reduction slots into [ints]/[reals], by reduction
   index; [restore_reductions] copies them back. *)
let save_reductions (plan : plan) env ints reals =
  let reds = plan.reductions in
  for i = 0 to Array.length reds - 1 do
    let r = reds.(i) in
    if r.r_real then reals.(i) <- env.reals.(r.r_slot)
    else ints.(i) <- env.ints.(r.r_slot)
  done

let restore_reductions (plan : plan) env ints reals =
  let reds = plan.reductions in
  for i = 0 to Array.length reds - 1 do
    let r = reds.(i) in
    if r.r_real then env.reals.(r.r_slot) <- reals.(i)
    else env.ints.(r.r_slot) <- ints.(i)
  done

let copy_scalars ~src ~dst =
  Array.blit src.ints 0 dst.ints 0 (Array.length dst.ints);
  Array.blit src.reals 0 dst.reals 0 (Array.length dst.reals)

(* ---------- fork state ---------- *)

let c_fork_states = Registry.counter "exec.fork_states"

let new_state (plan : plan) =
  Registry.incr c_fork_states;
  let depth = plan.depth and nred = Array.length plan.reductions in
  let inputs = Bytecode.proof_inputs plan.tape in
  {
    fs_busy = Atomic.make true;
    fs_space = new_space depth;
    fs_inputs = inputs;
    fs_key = Array.make (Array.length inputs + (2 * depth)) 0;
    fs_hi = Array.make depth 0;
    fs_prep = None;
    fs_all_unsafe = false;
    fs_mode = None;
    fs_seq_key = (Policy.Static_block, -1, 0);
    fs_seq = [||];
    fs_next = Atomic.make 0;
    fs_saved_ints = Array.make nred 0;
    fs_saved_reals = Array.make nred 0.0;
    fs_part_ints = Array.make nred 0;
    fs_part_reals = Array.make nred 0.0;
    fs_bound = None;
    fs_solo = None;
    fs_lanes =
      Bytecode.lanes ~jslot:plan.index_slots.(depth - 1) plan.tape;
    fs_lane_states = [||];
  }

(* The plan's fork state, held for this fork: the kept one if it is
   free, else a private fresh one (another domain is forking the same
   plan). The first fork of a plan keeps what it builds. *)
let claim (plan : plan) =
  match plan.fork_state with
  | Some st when Atomic.compare_and_set st.fs_busy false true -> st
  | Some _ -> new_state plan
  | None ->
      let st = new_state plan in
      plan.fork_state <- Some st;
      st

let release st = Atomic.set st.fs_busy false

(* What the chunk runner of domain [q] needs for lane forks: the body's
   lane program and the state's lane arrays for [q], made on the
   forking thread when first needed and kept across runs. A profiled
   binding never runs lanes. *)
let lanes_for ?profile st q =
  match (st.fs_lanes, profile) with
  | Ok ln, None ->
      let have = st.fs_lane_states in
      if q >= Array.length have then
        st.fs_lane_states <-
          Array.init (q + 1) (fun i ->
              if i < Array.length have then have.(i)
              else Bytecode.make_lane_state ln);
      Some (ln, st.fs_lane_states.(q))
  | _ -> None

(* Drop a finished run's bindings (and with them its environment and
   arrays), unless another fork holds the state. *)
let unbind env (plan : plan) =
  match plan.fork_state with
  | Some st when Atomic.compare_and_set st.fs_busy false true ->
      (match st.fs_bound with
      | Some b when b.b_master == env -> st.fs_bound <- None
      | _ -> ());
      (match st.fs_solo with
      | Some so when so.so_env == env -> st.fs_solo <- None
      | _ -> ());
      release st
  | _ -> ()

(* Store [v] at [key.(i)]; whether it differed. *)
let rekey key i v = key.(i) <> v && (key.(i) <- v; true)

(* The fork's range proof: the one on record when its inputs repeat —
   the [Rreg] slots' values and the fork's lo and attained hi, with
   profiling off — else a fresh one, recorded. *)
let prove ?profile st (plan : plan) master =
  let sp = st.fs_space and key = st.fs_key and inputs = st.fs_inputs in
  let depth = plan.depth and ni = Array.length inputs in
  attained_hi plan sp st.fs_hi;
  let changed = ref false in
  for i = 0 to ni - 1 do
    if rekey key i master.ints.(inputs.(i)) then changed := true
  done;
  for k = 0 to depth - 1 do
    if rekey key (ni + k) sp.los.(k) then changed := true;
    if rekey key (ni + depth + k) st.fs_hi.(k) then changed := true
  done;
  match st.fs_prep with
  | Some pr when (not !changed) && Option.is_none profile -> pr
  | _ ->
      (* The key is already the new one: no stale proof may sit under
         it if [prepare] raises. *)
      st.fs_prep <- None;
      let pr =
        Bytecode.prepare plan.tape ~ints:master.ints ~lo:sp.los ~hi:st.fs_hi
      in
      st.fs_all_unsafe <- Array.for_all Fun.id (Bytecode.unsafe_flags pr);
      st.fs_prep <- Some pr;
      pr

(* A fork's decision, on the state's proof. *)
let decide ?profile engine st (plan : plan) master =
  let pr = prove ?profile st plan master in
  tape_mode ?profile engine plan st.fs_lanes pr ~all_unsafe:st.fs_all_unsafe

let same_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | _ -> false

(* ---------- sequential execution ---------- *)

(* The chunk runner of [env] itself: the kept one when it was bound for
   the same environment and profiler — every sequential fork of a run
   after its first — else a new one. *)
let solo ?profile st (plan : plan) env =
  match st.fs_solo with
  | Some so when so.so_env == env && same_opt so.so_profile profile ->
      so.so_run
  | _ ->
      let lanes = lanes_for ?profile st 0 in
      let run = chunk_runner ?profile ?lanes plan st.fs_space env in
      st.fs_solo <- Some { so_env = env; so_profile = profile; so_run = run };
      run

(* One sequential fork on a held state whose space is filled: the whole
   space is one chunk. Traced, it is recorded on worker 0 as a static
   block (which it literally is); a zero-trip space runs nothing but
   still opens and closes its region. *)
let seq_on st engine ?profile ?trace (plan : plan) env =
  new_epoch env;
  let sp = st.fs_space in
  let run () =
    if sp.total > 0 then
      solo ?profile st plan env
        (decide ?profile engine st plan env)
        1 sp.total
  in
  match trace with
  | None -> run ()
  | Some tracer ->
      Trace.fork_begin tracer ~policy:Policy.Static_block ~n:sp.total ~p:1;
      let a = Trace.now () in
      run ();
      let b = Trace.now () in
      if sp.total > 0 then
        Trace.record tracer ~worker:0 ~start:1 ~len:sp.total ~t0:a ~t1:b;
      Trace.fork_end tracer

(* Run [f] on the plan's fork state, held for the call. *)
let holding (plan : plan) f =
  let st = claim plan in
  match f st with
  | () -> release st
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release st;
      Printexc.raise_with_backtrace e bt

let seq_fork_e engine ?profile ?trace (plan : plan) env =
  holding plan (fun st ->
      fill_space plan st.fs_space env;
      seq_on st engine ?profile ?trace plan env)

let seq_fork plan env = seq_fork_e Bytecode plan env

(* Highest-iteration marks sit this many ints apart: one cache line
   and the one the adjacent-line prefetcher pairs with it. *)
let mark_stride = 16

(* The domain that runs the chunk holding iteration [n] supplies every
   non-reduction scalar after the join. It starts that chunk from the
   fork-entry scalars (keeping its reduction partials), so what it hands
   over depends on that chunk alone — not on which earlier chunks a
   dynamic schedule gave it, which a scalar the last chunk leaves
   unassigned would otherwise expose. *)
let restart st (plan : plan) master c =
  save_reductions plan c st.fs_part_ints st.fs_part_reals;
  copy_scalars ~src:master ~dst:c;
  restore_reductions plan c st.fs_part_ints st.fs_part_reals

(* Clone [master] once per domain and bind each clone's chunk runner and
   the pool job over them. Everything a fork changes is read from [st]
   per call: the space, the engine decision, the chunk sequence. *)
let bind ?profile ~trace ~policy ~p st (plan : plan) master =
  let sp = st.fs_space in
  let clones = Array.init p (fun _ -> clone_env master) in
  let runners =
    Array.mapi
      (fun q c ->
        let lanes = lanes_for ?profile st q in
        let run = chunk_runner ?profile ?lanes plan sp c in
        fun mode t0 len ->
          if t0 + len - 1 = sp.total then restart st plan master c;
          run mode t0 len)
      clones
  in
  let marks = Array.make (p * mark_stride) 0 in
  (* The probe is selected here, once per binding: with tracing off the
     executed closure is exactly the untraced one — no timestamp, no
     branch, no write on the chunk path. *)
  let run_on =
    match trace with
    | None ->
        fun q mode t0 len ->
          runners.(q) mode t0 len;
          let m = q * mark_stride in
          if t0 + len - 1 > marks.(m) then marks.(m) <- t0 + len - 1
    | Some tracer ->
        fun q mode t0 len ->
          let a = Trace.now () in
          runners.(q) mode t0 len;
          let b = Trace.now () in
          Trace.record tracer ~worker:q ~start:t0 ~len ~t0:a ~t1:b;
          let m = q * mark_stride in
          if t0 + len - 1 > marks.(m) then marks.(m) <- t0 + len - 1
  in
  let worker : int -> unit =
    match (policy : Policy.t) with
    | Static_block ->
        (* Contiguous blocks, identical to Static.block ownership. *)
        fun q ->
          (match Static.block_chunk ~n:sp.total ~p q with
          | Some (t0, len) -> run_on q (Option.get st.fs_mode) t0 len
          | None -> ())
    | Static_cyclic ->
        fun q ->
          let mode = Option.get st.fs_mode and n = sp.total in
          let t = ref (q + 1) in
          while !t <= n do
            run_on q mode !t 1;
            t := !t + p
          done
    | Self_sched c ->
        (* The paper's self-scheduling: a single shared coalesced index,
           advanced with one atomic fetch-and-add per dispatch. *)
        fun q ->
          let mode = Option.get st.fs_mode and n = sp.total in
          let continue_ = ref true in
          while !continue_ do
            let t0 = Atomic.fetch_and_add st.fs_next c in
            if t0 > n then continue_ := false
            else run_on q mode t0 (min c (n - t0 + 1))
          done
    | Gss | Factoring | Trapezoid ->
        (* The policy's closed-form chunk sequence (a function of n and
           p only), served from an atomic queue: one fetch-and-add per
           dispatch, chunks in dispatch order. *)
        fun q ->
          let mode = Option.get st.fs_mode and chunks = st.fs_seq in
          let continue_ = ref true in
          while !continue_ do
            let k = Atomic.fetch_and_add st.fs_next 1 in
            if k >= Array.length chunks then continue_ := false
            else begin
              let t0, len = chunks.(k) in
              run_on q mode t0 len
            end
          done
  in
  {
    b_master = master;
    b_p = p;
    b_policy = policy;
    b_trace = trace;
    b_profile = profile;
    b_clones = clones;
    b_marks = marks;
    b_worker = worker;
  }

(* The state's binding for this fork: the kept one when it was bound for
   the same master, domains, policy, tracer and profiler — every fork of
   a run after its first — else a new one. *)
let binding ?profile ~trace ~policy ~p st plan master =
  match st.fs_bound with
  | Some b
    when b.b_master == master && b.b_p = p && b.b_policy = policy
         && same_opt b.b_trace trace && same_opt b.b_profile profile ->
      b
  | _ ->
      let b = bind ?profile ~trace ~policy ~p st plan master in
      st.fs_bound <- Some b;
      b

(* ---------- parallel execution ---------- *)

(* One parallel fork on a held state. Per fork it only refreshes: the
   space in place, the proof when its inputs changed, the clones'
   scalars and partials, the chunk sequence when (policy, n, p) changed,
   the dispatch index and the marks. *)
let fork_on st engine ?trace ?profile pool policy (plan : plan) master =
  let p = Pool.size pool in
  let sp = st.fs_space in
  fill_space plan sp master;
  let n = sp.total in
  if n = 0 then ()
  else if p = 1 || n = 1 then seq_on st engine ?profile ?trace plan master
  else begin
    (match trace with
    | None -> ()
    | Some tracer -> Trace.fork_begin tracer ~policy ~n ~p);
    new_epoch master;
    (* The unsafe/checked decision is shared (it covers the whole
       space); each domain's runner hoists into private scratch. *)
    st.fs_mode <- Some (decide ?profile engine st plan master);
    let b = binding ?profile ~trace ~policy ~p st plan master in
    let clones = b.b_clones in
    for q = 0 to p - 1 do
      let c = clones.(q) in
      copy_scalars ~src:master ~dst:c;
      reset_partials plan c;
      b.b_marks.(q * mark_stride) <- 0
    done;
    (match (policy : Policy.t) with
    | Static_block | Static_cyclic -> ()
    | Self_sched _ -> Atomic.set st.fs_next 1
    | Gss | Factoring | Trapezoid ->
        let kpol, kn, kp = st.fs_seq_key in
        if not (kn = n && kp = p && kpol = policy) then begin
          st.fs_seq <- Option.get (Chunks.dynamic_sequence policy ~n ~p);
          st.fs_seq_key <- (policy, n, p)
        end;
        Atomic.set st.fs_next 0);
    (* Save the master's pre-loop reduction values: they are the base of
       the merge and must survive the wholesale scalar adoption below. *)
    save_reductions plan master st.fs_saved_ints st.fs_saved_reals;
    Pool.run pool b.b_worker;
    (* Merge: adopt scalars from the domain that ran the highest
       iteration (sequential last-iteration-wins semantics for
       privatized scalars), then fold reduction partials in domain
       order on top of the master's pre-loop value. *)
    let qlast = ref (-1) and tlast = ref 0 in
    for q = 0 to p - 1 do
      let t = b.b_marks.(q * mark_stride) in
      if t > !tlast then begin
        tlast := t;
        qlast := q
      end
    done;
    if !qlast >= 0 then copy_scalars ~src:clones.(!qlast) ~dst:master;
    restore_reductions plan master st.fs_saved_ints st.fs_saved_reals;
    merge_reductions plan master clones;
    (* The traced region closes after the merge: its wall time is the
       full fork-to-usable-result span, so join latency includes the
       barrier wait and the serial reduction fold. *)
    match trace with
    | None -> ()
    | Some tracer -> Trace.fork_end tracer
  end

let parallel_fork_e engine ?trace ?profile pool policy (plan : plan) master =
  holding plan (fun st ->
      fork_on st engine ?trace ?profile pool policy plan master)

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
  (* [Closure] is a synonym for [Bytecode]: plan bodies run only on their
     tapes. *)
  let engine = match engine with Closure -> Bytecode | e -> e in
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
    (* Plans keep their fork states across runs, but not this run's
       environment and arrays. *)
    Fun.protect
      ~finally:(fun () -> List.iter (unbind env) (Compile.plans t))
      (fun () -> Compile.run_code t env);
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
