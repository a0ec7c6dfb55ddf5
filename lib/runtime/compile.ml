(* Staging compiler: AST -> closure tree for serial code, tapes for plan
   bodies.

   The reference interpreter ([Loopcoal_ir.Eval]) re-resolves every name
   through hash tables, walks subscript lists with folds, and boxes every
   value in [Vint]/[Vreal] on every single operation. This module pays
   all of that exactly once, at staging time:

   - every scalar and loop index is resolved to a slot in a flat [int
     array] or [float array];
   - every array reference is resolved to a slot in a [float array
     array] with its dimensions and row-major strides captured in the
     closure (1-d and 2-d references are specialized to straight-line
     index arithmetic);
   - expression kinds (int vs real) are inferred statically, so the
     compiled closures are monomorphic [env -> int] / [env -> float]
     functions with no tag dispatch;
   - a [For] loop annotated [Parallel] that is not already inside a
     parallel region is compiled to a {!plan}: the maximal rectangular
     perfectly-nested parallel prefix is flattened into one coalesced
     iteration space whose body is lowered to a bytecode tape
     ({!Bytecode.lower}), executed through the [env]'s [fork] hook. The
     executor ([Exec]) decides whether a plan runs sequentially or
     across domains. Only the serial code around the plans stays a
     closure tree.

   Bounds checks and the interpreter's runtime error conditions
   (division by zero, non-positive steps, subscripts out of range) are
   preserved; operation counters and fuel are not — the compiled runtime
   exists to measure wall-clock time, not abstract op counts. *)

open Loopcoal_ir
module Reduction = Loopcoal_analysis.Reduction
module Registry = Loopcoal_obs.Registry

(* Wall-time histograms for the two staging phases that dominate compile
   cost, plus the whole-program total. Cache hits skip both phases, so
   [compile.lower_ns]'s count is also the number of cold plan compiles. *)
let h_compile_ns = Registry.histogram "compile.ns"
let h_lower_ns = Registry.histogram "compile.lower_ns"
let h_opt_ns = Registry.histogram "compile.opt_ns"

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---------- runtime representation ---------- *)

type env = {
  ints : int array;  (** loop indexes and integer scalars *)
  reals : float array;  (** real scalars *)
  arrays : float array array;  (** shared array data, one slot per decl *)
  fork : plan -> env -> unit;
      (** how to execute a parallel plan encountered in this context *)
  shadow : Sanitize.t option;
      (** race-sanitizer shadow state, shared across clones *)
}

and plan = {
  depth : int;  (** flattened nest depth, >= 1 *)
  index_slots : int array;  (** int slots of the nest indexes, outer first *)
  index_names : string array;
  lo_x : (env -> int) array;  (** per-level lower bounds *)
  hi_x : (env -> int) array;  (** per-level upper bounds (inclusive) *)
  step_x : env -> int;  (** outermost step; inner levels are unit-step *)
  reductions : red array;
  tape : Bytecode.tape;
      (** the body lowered to the bytecode tier: the executor dispatches
          strips over it *)
  mutable native : Natapi.runner option;
      (** Natgen's Dynlink-loaded strip runner, attached after the fact;
          the native engine falls back to the tape when [None] *)
  mutable fork_state : fork_state option;
      (** the executor's state for parallel forks of this plan, built on
          the first one *)
}

(* A fork's coalesced iteration space; refilled in place per fork. *)
and space = {
  sizes : int array;  (** per-level trip counts *)
  los : int array;
  his : int array;
  mutable step0 : int;  (** outermost step *)
  mutable total : int;
}

(* What one fork of a plan leaves for the next, so that a fork
   refreshes only what changed. Owned by [Exec]: one fork at a time
   holds it, through [fs_busy]; a fork that finds it held builds a
   private one. *)
and fork_state = {
  fs_busy : bool Atomic.t;
  fs_space : space;
  fs_inputs : int array;  (** the int slots the range proof reads *)
  fs_key : int array;
      (** the inputs' values, then each level's lo, then its attained hi,
          of the proof on record *)
  fs_hi : int array;  (** scratch: attained hi per level *)
  mutable fs_prep : Bytecode.prep option;  (** the proof on record *)
  mutable fs_all_unsafe : bool;  (** every access of [fs_prep] unchecked *)
  mutable fs_mode : fork_mode option;
      (** the running fork's engine decision; [None] before the first *)
  mutable fs_seq_key : Loopcoal_sched.Policy.t * int * int;
      (** policy, n and p of [fs_seq] *)
  mutable fs_seq : (int * int) array;  (** dynamic policy's chunk sequence *)
  fs_next : int Atomic.t;  (** shared dispatch index *)
  fs_saved_ints : int array;  (** master's pre-fork reduction values *)
  fs_saved_reals : float array;
  fs_part_ints : int array;  (** reduction partials across a restart *)
  fs_part_reals : float array;
  mutable fs_bound : binding option;
  mutable fs_solo : solo option;
  fs_lanes : (Bytecode.lanes, string) result;
      (** the body's lane program, or the lane rule it fails *)
  mutable fs_lane_states : Bytecode.lane_state array;  (** per domain *)
}

and fork_mode =
  | Fork_tape of Bytecode.prep
  | Fork_lanes of Bytecode.prep
  | Fork_native of Natapi.runner

(* The master environment's own chunk runner, for sequential forks. *)
and solo = {
  so_env : env;
  so_profile : Profile.collector option;
  so_run : fork_mode -> int -> int -> unit;
}

(* Per-domain clones and the closures that run them, bound for one
   master environment: the forks of one run share them. *)
and binding = {
  b_master : env;
  b_p : int;
  b_policy : Loopcoal_sched.Policy.t;
  b_trace : Loopcoal_obs.Trace.collector option;
  b_profile : Profile.collector option;
  b_clones : env array;
  b_marks : int array;  (** highest iteration per domain, padded apart *)
  b_worker : int -> unit;
}

and red = {
  r_name : string;
  r_slot : int;
  r_real : bool;  (** slot lives in [reals] (else [ints]) *)
  r_op : Reduction.op;
}

type iexp = env -> int
type rexp = env -> float
type code = env -> unit
type cexp = I of iexp | R of rexp

(* ---------- compile-time context ---------- *)

type slot = Si of int | Sr of int

type array_info = {
  a_slot : int;
  a_dims : int array;
  a_strides : int array;
  a_size : int;
}

type ctx = {
  arr_tbl : (string, array_info) Hashtbl.t;
  sc_tbl : (string, slot) Hashtbl.t;
  mutable scope : (string * int) list;  (** loop index -> int slot *)
  mutable n_ints : int;
  mutable n_reals : int;
  mutable plans : plan list;  (** compiled parallel plans, reversed *)
  sanitize : bool;  (** lower tapes that drive the shadow cells *)
  opt_level : int;  (** tape optimizer level (0 = lowering output) *)
  tape_dump : (plan:int -> pass:string -> Bytecode.tape -> unit) option;
      (** per-pass observer threaded into {!Tapeopt.optimize} *)
  validate :
    (plan:int -> pass:string -> Loopcoal_verify.Diag.t list -> unit) option;
      (** per-pass {!Tapecheck} observer; receives each pass's findings *)
  mutable tape_reuse : (Bytecode.tape * int * int) list option;
      (** plan-cache hit: per-plan tapes + register deltas to replay *)
  mutable tape_log : (Bytecode.tape * int * int) list;
      (** what this compile lowered, reversed — stored on a cache miss *)
}

let fresh_int ctx =
  let s = ctx.n_ints in
  ctx.n_ints <- s + 1;
  s

let fresh_real ctx =
  let s = ctx.n_reals in
  ctx.n_reals <- s + 1;
  s

(* ---------- kind-directed expression compilation ---------- *)

let to_i what = function
  | I f -> f
  | R _ -> error "%s: expected an integer value" what

let to_r = function
  | R f -> f
  | I f -> fun env -> float_of_int (f env)

let compile_load ctx a subs_c : rexp =
  match Hashtbl.find_opt ctx.arr_tbl a with
  | None -> error "unbound array %s" a
  | Some info ->
      if List.length subs_c <> Array.length info.a_dims then
        error "array %s: %d subscripts for %d dimensions" a
          (List.length subs_c)
          (Array.length info.a_dims);
      let subs = List.map (to_i "subscript") subs_c in
      let slot = info.a_slot in
      let oob s d = error "array %s: subscript %d out of bounds 1..%d" a s d in
      (match (subs, info.a_dims) with
      | [ s1 ], [| d1 |] ->
          fun env ->
            let i1 = s1 env in
            if i1 < 1 || i1 > d1 then oob i1 d1;
            env.arrays.(slot).(i1 - 1)
      | [ s1; s2 ], [| d1; d2 |] ->
          fun env ->
            let i1 = s1 env in
            if i1 < 1 || i1 > d1 then oob i1 d1;
            let i2 = s2 env in
            if i2 < 1 || i2 > d2 then oob i2 d2;
            env.arrays.(slot).(((i1 - 1) * d2) + (i2 - 1))
      | subs, dims ->
          let subs = Array.of_list subs in
          let strides = info.a_strides in
          fun env ->
            let off = ref 0 in
            for k = 0 to Array.length subs - 1 do
              let s = subs.(k) env in
              if s < 1 || s > dims.(k) then oob s dims.(k);
              off := !off + ((s - 1) * strides.(k))
            done;
            env.arrays.(slot).(!off))

let compile_store ctx a subs_c (value : rexp) : code =
  match Hashtbl.find_opt ctx.arr_tbl a with
  | None -> error "unbound array %s" a
  | Some info ->
      if List.length subs_c <> Array.length info.a_dims then
        error "array %s: %d subscripts for %d dimensions" a
          (List.length subs_c)
          (Array.length info.a_dims);
      let subs = List.map (to_i "subscript") subs_c in
      let slot = info.a_slot in
      let oob s d = error "array %s: subscript %d out of bounds 1..%d" a s d in
      (match (subs, info.a_dims) with
      | [ s1 ], [| d1 |] ->
          fun env ->
            let i1 = s1 env in
            if i1 < 1 || i1 > d1 then oob i1 d1;
            env.arrays.(slot).(i1 - 1) <- value env
      | [ s1; s2 ], [| d1; d2 |] ->
          fun env ->
            let i1 = s1 env in
            if i1 < 1 || i1 > d1 then oob i1 d1;
            let i2 = s2 env in
            if i2 < 1 || i2 > d2 then oob i2 d2;
            env.arrays.(slot).(((i1 - 1) * d2) + (i2 - 1)) <- value env
      | subs, dims ->
          let subs = Array.of_list subs in
          let strides = info.a_strides in
          fun env ->
            let off = ref 0 in
            for k = 0 to Array.length subs - 1 do
              let s = subs.(k) env in
              if s < 1 || s > dims.(k) then oob s dims.(k);
              off := !off + ((s - 1) * strides.(k))
            done;
            env.arrays.(slot).(!off) <- value env)

let rec compile_expr ctx (e : Ast.expr) : cexp =
  match e with
  | Int n -> I (fun _ -> n)
  | Real x -> R (fun _ -> x)
  | Var v -> (
      match List.assoc_opt v ctx.scope with
      | Some s -> I (fun env -> env.ints.(s))
      | None -> (
          match Hashtbl.find_opt ctx.sc_tbl v with
          | Some (Si s) -> I (fun env -> env.ints.(s))
          | Some (Sr s) -> R (fun env -> env.reals.(s))
          | None -> error "unbound variable %s" v))
  | Neg a -> (
      match compile_expr ctx a with
      | I f -> I (fun env -> -f env)
      | R f -> R (fun env -> -.f env))
  | Load (a, subs) ->
      R (compile_load ctx a (List.map (compile_expr ctx) subs))
  | Bin (op, a, b) -> compile_bin ctx op (compile_expr ctx a) (compile_expr ctx b)

and compile_bin _ctx op ca cb : cexp =
  let arith fint freal =
    match (ca, cb) with
    | I fa, I fb -> I (fun env -> fint (fa env) (fb env))
    | _ ->
        let fa = to_r ca and fb = to_r cb in
        R (fun env -> freal (fa env) (fb env))
  in
  match (op : Ast.binop) with
  | Add -> arith ( + ) ( +. )
  | Sub -> arith ( - ) ( -. )
  | Mul -> arith ( * ) ( *. )
  | Min -> arith min min
  | Max -> arith max max
  | Div -> (
      match (ca, cb) with
      | I fa, I fb ->
          I
            (fun env ->
              let b = fb env in
              if b = 0 then error "integer division by zero";
              (* Fortran-style truncating division. *)
              fa env / b)
      | _ ->
          let fa = to_r ca and fb = to_r cb in
          R (fun env -> fa env /. fb env))
  | Mod ->
      let fa = to_i "mod" ca and fb = to_i "mod" cb in
      I
        (fun env ->
          let b = fb env in
          if b = 0 then error "mod by zero";
          fa env mod b)
  | Cdiv ->
      let fa = to_i "ceildiv" ca and fb = to_i "ceildiv" cb in
      I
        (fun env ->
          let b = fb env in
          if b <= 0 then error "ceildiv: non-positive divisor %d" b;
          Loopcoal_util.Intmath.cdiv (fa env) b)

let compile_cmp (op : Ast.relop) ca cb : env -> bool =
  match (ca, cb) with
  | I fa, I fb -> (
      match op with
      | Eq -> fun env -> fa env = fb env
      | Ne -> fun env -> fa env <> fb env
      | Lt -> fun env -> fa env < fb env
      | Le -> fun env -> fa env <= fb env
      | Gt -> fun env -> fa env > fb env
      | Ge -> fun env -> fa env >= fb env)
  | _ -> (
      let fa = to_r ca and fb = to_r cb in
      match op with
      | Eq -> fun env -> fa env = fb env
      | Ne -> fun env -> fa env <> fb env
      | Lt -> fun env -> fa env < fb env
      | Le -> fun env -> fa env <= fb env
      | Gt -> fun env -> fa env > fb env
      | Ge -> fun env -> fa env >= fb env)

let rec compile_cond ctx (c : Ast.cond) : env -> bool =
  match c with
  | True -> fun _ -> true
  | Cmp (op, a, b) ->
      compile_cmp op (compile_expr ctx a) (compile_expr ctx b)
  | And (a, b) ->
      let fa = compile_cond ctx a and fb = compile_cond ctx b in
      fun env -> fa env && fb env
  | Or (a, b) ->
      let fa = compile_cond ctx a and fb = compile_cond ctx b in
      fun env -> fa env || fb env
  | Not a ->
      let fa = compile_cond ctx a in
      fun env -> not (fa env)

(* ---------- statement compilation ---------- *)

let seq (codes : code list) : code =
  match codes with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | [ a; b ] ->
      fun env ->
        a env;
        b env
  | l ->
      let arr = Array.of_list l in
      fun env ->
        for k = 0 to Array.length arr - 1 do
          arr.(k) env
        done

(* Scalar names assigned anywhere in a block (used to reject flattening a
   nest whose inner bounds could be mutated by the body — the interpreter
   re-evaluates bounds per outer iteration, a flattened plan does not). *)
let rec assigned_scalars (b : Ast.block) =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s with
      | Assign (Scalar v, _) -> [ v ]
      | Assign (Elem _, _) -> []
      | If (_, t, f) -> assigned_scalars t @ assigned_scalars f
      | For l -> assigned_scalars l.body)
    b

let rec compile_stmt ctx (s : Ast.stmt) : code =
  match s with
  | Assign (Scalar v, e) -> (
      if List.mem_assoc v ctx.scope then
        error "cannot assign to loop index %s" v;
      let ce = compile_expr ctx e in
      match Hashtbl.find_opt ctx.sc_tbl v with
      | None -> error "unbound scalar %s" v
      | Some (Si slot) -> (
          match ce with
          | I f -> fun env -> env.ints.(slot) <- f env
          | R _ -> error "assigning real to int scalar %s" v)
      | Some (Sr slot) ->
          let f = to_r ce in
          fun env -> env.reals.(slot) <- f env)
  | Assign (Elem (a, subs), e) ->
      compile_store ctx a
        (List.map (compile_expr ctx) subs)
        (to_r (compile_expr ctx e))
  | If (c, t, f) ->
      let fc = compile_cond ctx c in
      let ft = compile_block ctx t in
      let ff = compile_block ctx f in
      fun env -> if fc env then ft env else ff env
  | For l when l.par = Parallel -> compile_parallel_nest ctx l
  | For l -> compile_serial_loop ctx l

and compile_serial_loop ctx (l : Ast.loop) : code =
  let flo = to_i "loop bound" (compile_expr ctx l.lo) in
  let fhi = to_i "loop bound" (compile_expr ctx l.hi) in
  let fstep = to_i "loop step" (compile_expr ctx l.step) in
  let slot = fresh_int ctx in
  let saved = ctx.scope in
  ctx.scope <- (l.index, slot) :: saved;
  let body = compile_block ctx l.body in
  ctx.scope <- saved;
  let index = l.index in
  fun env ->
    let lo = flo env and hi = fhi env and step = fstep env in
    if step <= 0 then error "loop %s: step must be positive" index;
    let i = ref lo in
    while !i <= hi do
      env.ints.(slot) <- !i;
      body env;
      i := !i + step
    done

(* Flatten the maximal rectangular perfectly-nested parallel prefix rooted
   at [l] into a single plan, mirroring [Nest.check_coalescible]: every
   extended level must be a singleton-body [Parallel] loop with syntactic
   unit step, distinct index, and bounds free of outer nest indexes. The
   body must not assign scalars that the inner bounds read. *)
and compile_parallel_nest ctx (l : Ast.loop) : code =
  let rec collect acc (cur : Ast.loop) =
    let names = List.map (fun (x : Ast.loop) -> x.index) (List.rev (cur :: acc)) in
    match cur.body with
    | [ For inner ]
      when inner.par = Parallel
           && Ast.equal_expr inner.step (Ast.Int 1)
           && (not (List.mem inner.index names))
           && (let bound_vars =
                 Ast.expr_vars inner.lo @ Ast.expr_vars inner.hi
               in
               (not (List.exists (fun v -> List.mem v names) bound_vars))
               && not
                    (List.exists
                       (fun v -> List.mem v (assigned_scalars inner.body))
                       bound_vars)) ->
        collect (cur :: acc) inner
    | _ -> (List.rev (cur :: acc), cur.body)
  in
  let loops, inner_body = collect [] l in
  let depth = List.length loops in
  let lo_x =
    Array.of_list
      (List.map
         (fun (x : Ast.loop) -> to_i "loop bound" (compile_expr ctx x.lo))
         loops)
  in
  let hi_x =
    Array.of_list
      (List.map
         (fun (x : Ast.loop) -> to_i "loop bound" (compile_expr ctx x.hi))
         loops)
  in
  let step_x = to_i "loop step" (compile_expr ctx (List.hd loops).step) in
  let index_names =
    Array.of_list (List.map (fun (x : Ast.loop) -> x.index) loops)
  in
  let saved = ctx.scope in
  let index_slots =
    Array.map
      (fun name ->
        let slot = fresh_int ctx in
        ctx.scope <- (name, slot) :: ctx.scope;
        slot)
      index_names
  in
  (* Recognized scalar reductions in the flattened body get per-domain
     partial results and an ordered merge in the executor. *)
  let reductions =
    Reduction.detect inner_body
    |> List.filter_map (fun (r : Reduction.t) ->
           if List.mem_assoc r.Reduction.scalar ctx.scope then None
           else
             match Hashtbl.find_opt ctx.sc_tbl r.Reduction.scalar with
             | Some (Si s) ->
                 Some
                   {
                     r_name = r.Reduction.scalar;
                     r_slot = s;
                     r_real = false;
                     r_op = r.Reduction.op;
                   }
             | Some (Sr s) ->
                 Some
                   {
                     r_name = r.Reduction.scalar;
                     r_slot = s;
                     r_real = true;
                     r_op = r.Reduction.op;
                   }
             | None -> None)
    |> Array.of_list
  in
  (* Lower the body to a tape while the nest indexes are still in scope:
     names resolve as in the serial code around it, and temporaries come
     from the same slot counters, so [make_env] sizes one set of register
     files for both. Lowering's static errors are staging errors. On a
     plan-cache hit the stored tape and its register-counter deltas are
     replayed instead, which reproduces the cold compile's numbering
     exactly. *)
  let tape =
    match ctx.tape_reuse with
    | Some ((t, d_ints, d_reals) :: rest) ->
        ctx.tape_reuse <- Some rest;
        ctx.n_ints <- ctx.n_ints + d_ints;
        ctx.n_reals <- ctx.n_reals + d_reals;
        t
    | _ ->
        let int_base = ctx.n_ints and real_base = ctx.n_reals in
        let scope_now = ctx.scope in
        let lookup v =
          match List.assoc_opt v scope_now with
          | Some s -> Some (Bytecode.Bindex s)
          | None -> (
              match Hashtbl.find_opt ctx.sc_tbl v with
              | Some (Si s) -> Some (Bytecode.Bint s)
              | Some (Sr s) -> Some (Bytecode.Breal s)
              | None -> None)
        in
        let array_ref a =
          Option.map
            (fun info ->
              {
                Bytecode.ba_slot = info.a_slot;
                ba_name = a;
                ba_dims = info.a_dims;
                ba_strides = info.a_strides;
              })
            (Hashtbl.find_opt ctx.arr_tbl a)
        in
        let t =
          Registry.time h_lower_ns (fun () ->
              try
                Bytecode.lower ~lookup ~array_ref
                  ~fresh_int:(fun () -> fresh_int ctx)
                  ~fresh_real:(fun () -> fresh_real ctx)
                  ~assigned:(assigned_scalars inner_body)
                  ~plan_names:index_names ~plan_slots:index_slots
                  ~sanitize:ctx.sanitize inner_body
              with Bytecode.Error m -> raise (Error m))
        in
        let plan_ord = List.length ctx.plans in
        let user_dump =
          Option.map
            (fun f -> fun ~pass tape -> f ~plan:plan_ord ~pass tape)
            ctx.tape_dump
        in
        (* Validation composes into the same per-pass hook: every stage
           of the pipeline — including the plain "lower" output that
           sanitized and -O0 compiles stop at — is checked against the
           deep-copied lowering baseline, and findings name the pass
           that produced the tape they were found on. *)
        let dump =
          match ctx.validate with
          | None -> user_dump
          | Some vf ->
              let baseline = ref None in
              Some
                (fun ~pass tape ->
                  (match user_dump with
                  | Some f -> f ~pass tape
                  | None -> ());
                  let ds =
                    Tapecheck.check ?baseline:!baseline ~pass
                      ~region:(plan_ord + 1) ~int_base ~real_base
                      ~n_ints:ctx.n_ints ~n_reals:ctx.n_reals
                      ~plan_slots:index_slots tape
                  in
                  if pass = "lower" then
                    baseline :=
                      Some
                        (Marshal.from_string
                           (Marshal.to_string (tape : Bytecode.tape) [])
                           0);
                  vf ~plan:plan_ord ~pass ds)
        in
        let t =
          Registry.time h_opt_ns (fun () ->
              Tapeopt.optimize ?dump ~level:ctx.opt_level
                ~jslot:index_slots.(depth - 1) ~int_base ~real_base
                ~fresh_int:(fun () -> fresh_int ctx)
                ~fresh_real:(fun () -> fresh_real ctx)
                t)
        in
        ctx.tape_log <-
          (t, ctx.n_ints - int_base, ctx.n_reals - real_base) :: ctx.tape_log;
        t
  in
  ctx.scope <- saved;
  let plan =
    {
      depth;
      index_slots;
      index_names;
      lo_x;
      hi_x;
      step_x;
      reductions;
      tape;
      native = None;
      fork_state = None;
    }
  in
  ctx.plans <- plan :: ctx.plans;
  fun env -> env.fork plan env

and compile_block ctx (b : Ast.block) : code =
  seq (List.map (compile_stmt ctx) b)

(* ---------- program compilation ---------- *)

type t = {
  prog_code : code;
  n_ints : int;
  n_reals : int;
  int_init : (int * int) list;  (** (slot, value) for int scalars *)
  real_init : (int * float) list;
  array_decls : (string * int * int) array;  (** name, slot, flat size *)
  scalar_slots : (string * slot) list;  (** declared scalars, by name *)
  prog_plans : plan list;  (** parallel plans, in compilation order *)
  mutable nat_state : [ `Untried | `Ready | `Unavailable of string ];
      (** Natgen attachment status, so prepare attempts are idempotent *)
}

let compile ?(sanitize = false) ?(opt_level = 2) ?cache ?(cache_salt = "")
    ?tape_dump ?validate (p : Ast.program) : t =
  Registry.time h_compile_ns @@ fun () ->
  let cached, cache_key =
    match cache with
    | None -> (None, None)
    | Some c ->
        let k = Plancache.key ~sanitize ~opt_level ~salt:cache_salt p in
        (* Entries from the in-memory layer were produced (or already
           re-validated) by this process; entries read back from disk
           are untrusted bytes that would otherwise flow straight to
           the unsafe execution path. Run the structural validator over
           every deserialized tape and treat any finding as a miss: the
           recompile overwrites the bad entry. *)
        let e =
          match Plancache.find_origin c k with
          | Some (e, `Mem) -> Some e
          | Some (e, `Disk) ->
              let bad = ref false in
              List.iteri
                (fun i (t, _, _) ->
                  if Tapecheck.check_entry ~region:(i + 1) t <> [] then
                    bad := true)
                e.e_plans;
              if !bad then begin
                Plancache.reject c k;
                None
              end
              else Some e
          | None -> None
        in
        (match e with
        | Some _ -> Loopcoal_obs.Counters.plan_cache_hit ()
        | None -> Loopcoal_obs.Counters.plan_cache_miss ());
        (e, Some (c, k))
  in
  let ctx =
    {
      arr_tbl = Hashtbl.create 16;
      sc_tbl = Hashtbl.create 16;
      scope = [];
      n_ints = 0;
      n_reals = 0;
      plans = [];
      sanitize;
      opt_level;
      tape_dump;
      validate;
      tape_reuse = Option.map (fun (e : Plancache.entry) -> e.e_plans) cached;
      tape_log = [];
    }
  in
  List.iteri
    (fun slot (a : Ast.array_decl) ->
      if Hashtbl.mem ctx.arr_tbl a.arr_name then
        error "duplicate array %s" a.arr_name;
      if a.dims = [] || List.exists (fun d -> d < 1) a.dims then
        error "array %s: dimensions must be positive" a.arr_name;
      Hashtbl.add ctx.arr_tbl a.arr_name
        {
          a_slot = slot;
          a_dims = Array.of_list a.dims;
          a_strides =
            Array.of_list (Loopcoal_util.Intmath.suffix_products a.dims);
          a_size = Loopcoal_util.Intmath.product a.dims;
        })
    p.arrays;
  let int_init = ref [] and real_init = ref [] in
  List.iter
    (fun (s : Ast.scalar_decl) ->
      if Hashtbl.mem ctx.sc_tbl s.sc_name || Hashtbl.mem ctx.arr_tbl s.sc_name
      then error "duplicate declaration %s" s.sc_name;
      match s.sc_kind with
      | Kint ->
          let slot = fresh_int ctx in
          int_init := (slot, int_of_float s.sc_init) :: !int_init;
          Hashtbl.add ctx.sc_tbl s.sc_name (Si slot)
      | Kreal ->
          let slot = fresh_real ctx in
          real_init := (slot, s.sc_init) :: !real_init;
          Hashtbl.add ctx.sc_tbl s.sc_name (Sr slot))
    p.scalars;
  let prog_code = compile_block ctx p.body in
  (match (cache_key, cached) with
  | Some (c, k), None ->
      Plancache.store c k { Plancache.e_plans = List.rev ctx.tape_log }
  | _ -> ());
  {
    prog_code;
    n_ints = ctx.n_ints;
    n_reals = ctx.n_reals;
    int_init = !int_init;
    real_init = !real_init;
    array_decls =
      Array.of_list
        (List.map
           (fun (a : Ast.array_decl) ->
             let info = Hashtbl.find ctx.arr_tbl a.arr_name in
             (a.arr_name, info.a_slot, info.a_size))
           p.arrays);
    scalar_slots =
      List.map
        (fun (s : Ast.scalar_decl) ->
          (s.sc_name, Hashtbl.find ctx.sc_tbl s.sc_name))
        p.scalars;
    prog_plans = List.rev ctx.plans;
    nat_state = `Untried;
  }

let compile_result ?sanitize ?opt_level ?cache ?cache_salt ?tape_dump
    ?validate p =
  match
    compile ?sanitize ?opt_level ?cache ?cache_salt ?tape_dump ?validate p
  with
  | t -> Ok t
  | exception Error m -> Error m

let shadow_layout t = Array.map (fun (name, _, size) -> (name, size)) t.array_decls
let plans t = t.prog_plans
let native_state t = t.nat_state
let set_native_state t s = t.nat_state <- s

(* ---------- environments ---------- *)

let make_env ?(array_init = 0.0) ?shadow t ~fork =
  let env =
    {
      ints = Array.make (max 1 t.n_ints) 0;
      reals = Array.make (max 1 t.n_reals) 0.0;
      arrays =
        Array.map (fun (_, _, size) -> Array.make size array_init) t.array_decls;
      fork;
      shadow;
    }
  in
  List.iter (fun (slot, v) -> env.ints.(slot) <- v) t.int_init;
  List.iter (fun (slot, v) -> env.reals.(slot) <- v) t.real_init;
  env

let clone_env env =
  {
    ints = Array.copy env.ints;
    reals = Array.copy env.reals;
    arrays = env.arrays;
    (* shared *)
    fork = env.fork;
    shadow = env.shadow;
    (* shared *)
  }

let run_code t env = t.prog_code env

(* ---------- result readback ---------- *)

let read_arrays t env =
  Array.to_list t.array_decls
  |> List.map (fun (name, slot, _) -> (name, env.arrays.(slot)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let read_scalars t env =
  t.scalar_slots
  |> List.map (fun (name, slot) ->
         match slot with
         | Si s -> (name, Eval.Vint env.ints.(s))
         | Sr s -> (name, Eval.Vreal env.reals.(s)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
