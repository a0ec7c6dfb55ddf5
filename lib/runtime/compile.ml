(* Staging compiler: AST -> bytecode tapes.

   The reference interpreter ([Loopcoal_ir.Eval]) re-resolves every name
   through hash tables, walks subscript lists with folds, and boxes every
   value in [Vint]/[Vreal] on every single operation. This module pays
   all of that exactly once, at staging time, by lowering the program to
   register tapes ({!Bytecode.lower}):

   - every scalar and loop index resolves to a register: a slot in a
     flat [int array] or [float array];
   - every array reference resolves to a slot in a [float array array]
     with its dimensions and row-major strides;
   - expression kinds (int vs real) are inferred statically.

   The program body lowers to one top-level tape. Each loop annotated
   [Parallel] in it is a {!plan}: the maximal rectangular
   perfectly-nested parallel prefix is flattened into one coalesced
   iteration space whose body lowers to a tape of its own, and the
   top-level tape evaluates the nest's bounds into registers and forks
   the plan ([Bytecode.Ifork]) through the [fork] hook {!run_code} is
   given. The executor ([Exec]) decides whether a plan runs sequentially
   or across domains. Staging itself only builds the plans the lowering
   meets.

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

(* Each compile that consults a plan cache bumps one of these. *)
let c_cache_hit = Registry.counter "plan_cache.hit"
let c_cache_miss = Registry.counter "plan_cache.miss"

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---------- runtime representation ---------- *)

type env = {
  ints : int array;  (** loop indexes and integer scalars *)
  reals : float array;  (** real scalars *)
  arrays : float array array;  (** shared array data, one slot per decl *)
  shadow : Sanitize.t option;
      (** race-sanitizer shadow state, shared across clones *)
}

and plan = {
  depth : int;  (** flattened nest depth, >= 1 *)
  index_slots : int array;  (** int slots of the nest indexes, outer first *)
  index_names : string array;
  lo_regs : int array;  (** per-level lower-bound registers *)
  hi_regs : int array;  (** per-level upper-bound registers (inclusive) *)
  step_reg : int;  (** outermost step register; inner levels are unit-step *)
  scalar_ints : int;
      (** int scalar slots, a prefix of the int registers; with
          [scope_regs], every int register the body reads and does not
          write first *)
  scalar_reals : int;
      (** real scalar slots, a prefix of the float registers: every
          float register the body reads and does not write first *)
  scope_regs : int array;  (** the enclosing serial loops' index registers *)
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
  fs_min_chunk : int;
      (** minimum chunk of a decaying policy's sequence: a lane pass
          when the body has no serial loop, else 1 *)
  mutable fs_seq_key : Loopcoal_sched.Policy.t * int * int;
      (** policy, n and p of [fs_seq] *)
  mutable fs_seq : (int * int) array;  (** dynamic policy's chunk sequence *)
  fs_next : int Atomic.t;  (** shared dispatch index *)
  fs_saved_ints : int array;  (** master's pre-fork reduction values *)
  fs_saved_reals : float array;
  mutable fs_chunk_ints : int array;
      (** reduction partials by row, merged in row order: one row per
          chunk, by chunk number, or per domain under static block *)
  mutable fs_chunk_reals : float array;
  mutable fs_bound : binding option;
  mutable fs_solo : solo option;
  fs_lanes : (Bytecode.lanes, string) result;
      (** the body's lane program, or the lane rule it fails *)
  mutable fs_lane_states : Bytecode.lane_state array;  (** per domain *)
  fs_tiled : bool;
      (** its lane and native forks walk whole rows in row groups
          ([Exec.run_tiled]) *)
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
  r_acc_left : bool;  (** the update is [s = s op e], else [s = e op s] *)
}

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

let array_ref ctx a =
  Option.map
    (fun info ->
      {
        Bytecode.ba_slot = info.a_slot;
        ba_name = a;
        ba_dims = info.a_dims;
        ba_strides = info.a_strides;
      })
    (Hashtbl.find_opt ctx.arr_tbl a)

let lookup_scalar ctx v =
  match Hashtbl.find_opt ctx.sc_tbl v with
  | Some (Si s) -> Some (Bytecode.Bint s)
  | Some (Sr s) -> Some (Bytecode.Breal s)
  | None -> None

(* ---------- plans ---------- *)

(* The plan of one fork site of the top-level tape. Its body lowers to
   its own tape, scoped like the code around the fork: the enclosing
   serial loops' indexes, then the declared scalars. Temporaries come
   from the same slot counters, so [make_env] sizes one set of register
   files for every tape. On a plan-cache hit the stored tape and its
   register-counter deltas are replayed instead, which reproduces the
   cold compile's numbering exactly. The scalars, declared first, hold
   the first [scalar_ints] int and [scalar_reals] float registers.
   Returns the plan's number. *)
let plan_of_site ctx ~scalar_ints ~scalar_reals (site : Bytecode.fork_site) =
  let index_names =
    Array.of_list (List.map (fun (x : Ast.loop) -> x.index) site.fk_loops)
  in
  let depth = Array.length index_names in
  let index_slots = Array.map (fun _ -> fresh_int ctx) index_names in
  (* Recognized scalar reductions in the flattened body get per-domain
     partial results and an ordered merge in the executor. *)
  let reductions =
    Reduction.detect site.fk_body
    |> List.filter_map (fun (r : Reduction.t) ->
           let v = r.Reduction.scalar in
           if List.mem_assoc v site.fk_scope || Array.mem v index_names then
             None
           else
             let red slot real =
               {
                 r_name = v;
                 r_slot = slot;
                 r_real = real;
                 r_op = r.Reduction.op;
                 r_acc_left = r.Reduction.acc_left;
               }
             in
             match Hashtbl.find_opt ctx.sc_tbl v with
             | Some (Si s) -> Some (red s false)
             | Some (Sr s) -> Some (red s true)
             | None -> None)
    |> Array.of_list
  in
  let tape =
    match ctx.tape_reuse with
    | Some ((t, d_ints, d_reals) :: rest) ->
        ctx.tape_reuse <- Some rest;
        ctx.n_ints <- ctx.n_ints + d_ints;
        ctx.n_reals <- ctx.n_reals + d_reals;
        t
    | _ ->
        let int_base = ctx.n_ints and real_base = ctx.n_reals in
        let lookup v =
          match List.assoc_opt v site.fk_scope with
          | Some s -> Some (Bytecode.Bindex s)
          | None -> lookup_scalar ctx v
        in
        let t =
          Registry.time h_lower_ns (fun () ->
              Bytecode.lower ~lookup ~array_ref:(array_ref ctx)
                ~fresh_int:(fun () -> fresh_int ctx)
                ~fresh_real:(fun () -> fresh_real ctx)
                ~plan_names:index_names ~plan_slots:index_slots
                ~sanitize:ctx.sanitize site.fk_body)
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
                ~jslot:index_slots.(depth - 1) ~int_base ~real_base t)
        in
        ctx.tape_log <-
          (t, ctx.n_ints - int_base, ctx.n_reals - real_base) :: ctx.tape_log;
        t
  in
  let plan =
    {
      depth;
      index_slots;
      index_names;
      lo_regs = site.fk_lo;
      hi_regs = site.fk_hi;
      step_reg = site.fk_step;
      scalar_ints;
      scalar_reals;
      scope_regs = Array.of_list (List.map snd site.fk_scope);
      reductions;
      tape;
      native = None;
      fork_state = None;
    }
  in
  ctx.plans <- plan :: ctx.plans;
  List.length ctx.plans - 1

(* ---------- program compilation ---------- *)

type t = {
  top : Bytecode.tape;  (** the program body; forks by plan number *)
  n_ints : int;
  n_reals : int;
  int_init : (int * int) list;  (** (slot, value) for int scalars *)
  real_init : (int * float) list;
  array_decls : (string * int * int) array;  (** name, slot, flat size *)
  array_dims : int array array;  (** extents, by slot *)
  array_boxes : (int * int) array array;
      (** by slot: the box of elements the array's first mention
          overwrites ({!Loopcoal_analysis.First_touch}), clipped to the
          extents; an empty box is [(1, 0)] in every dimension *)
  scalar_slots : (string * slot) list;  (** declared scalars, by name *)
  prog_plans : plan array;  (** parallel plans, by number *)
  mutable nat_state : [ `Untried | `Ready | `Unavailable of string ];
      (** Natgen attachment status, so prepare attempts are idempotent *)
}

(* A box no element lies in: [fill_outside] fills the whole array. *)
let empty_box dims = Array.map (fun _ -> (1, 0)) dims

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
        | Some _ -> Registry.incr c_cache_hit
        | None -> Registry.incr c_cache_miss);
        (e, Some (c, k))
  in
  let ctx =
    {
      arr_tbl = Hashtbl.create 16;
      sc_tbl = Hashtbl.create 16;
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
  (* Top-level code is lowering output: moving code across a fork
     would be wrong, so no optimizer pass runs on it. *)
  let top =
    try
      Bytecode.lower
        ~fork:
          (plan_of_site ctx ~scalar_ints:ctx.n_ints ~scalar_reals:ctx.n_reals)
        ~lookup:(lookup_scalar ctx)
        ~array_ref:(array_ref ctx)
        ~fresh_int:(fun () -> fresh_int ctx)
        ~fresh_real:(fun () -> fresh_real ctx)
        ~plan_names:[||] ~plan_slots:[||] ~sanitize:false p.body
    with Bytecode.Error m -> raise (Error m)
  in
  (match (cache_key, cached) with
  | Some (c, k), None ->
      Plancache.store c k { Plancache.e_plans = List.rev ctx.tape_log }
  | _ -> ());
  let array_dims =
    Array.of_list
      (List.map (fun (a : Ast.array_decl) -> Array.of_list a.dims) p.arrays)
  in
  let covered = Loopcoal_analysis.First_touch.boxes p in
  let array_boxes =
    Array.of_list
      (List.mapi
         (fun slot (a : Ast.array_decl) ->
           let dims = array_dims.(slot) in
           let box =
             match List.assoc_opt a.arr_name covered with
             | None -> empty_box dims
             | Some box ->
                 Array.mapi (fun k (lo, hi) -> (max lo 1, min hi dims.(k))) box
           in
           if Array.exists (fun (lo, hi) -> lo > hi) box then empty_box dims
           else box)
         p.arrays)
  in
  {
    top;
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
    array_dims;
    array_boxes;
    scalar_slots =
      List.map
        (fun (s : Ast.scalar_decl) ->
          (s.sc_name, Hashtbl.find ctx.sc_tbl s.sc_name))
        p.scalars;
    prog_plans = Array.of_list (List.rev ctx.plans);
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
let plans t = Array.to_list t.prog_plans

let fill_elided t =
  Array.fold_left
    (fun acc box ->
      acc + Array.fold_left (fun n (lo, hi) -> n * (hi - lo + 1)) 1 box)
    0 t.array_boxes

let native_state t = t.nat_state
let set_native_state t s = t.nat_state <- s

(* ---------- environments ---------- *)

(* Write [v] into every element of the row-major array [a] with
   extents [dims] that lies outside [box], a box within the extents:
   along dimension [k] of the block of [size] elements at [base], the
   slices before and after the box, then each slice in it, one
   dimension down. *)
let fill_outside a dims box v =
  let m = Array.length dims in
  let rec go k base size =
    let lo, hi = box.(k) and stride = size / dims.(k) in
    Array.fill a base ((lo - 1) * stride) v;
    Array.fill a (base + (hi * stride)) ((dims.(k) - hi) * stride) v;
    if k < m - 1 then
      for s = lo to hi do
        go (k + 1) (base + ((s - 1) * stride)) stride
      done
  in
  go 0 0 (Array.length a)

let make_env ?(array_init = 0.0) ?unfilled ?shadow t =
  let array slot (_, _, size) =
    let a =
      match unfilled with
      | None -> Array.create_float size
      | Some v -> Array.make size v
    in
    fill_outside a t.array_dims.(slot) t.array_boxes.(slot) array_init;
    a
  in
  let env =
    {
      ints = Array.make (max 1 t.n_ints) 0;
      reals = Array.make (max 1 t.n_reals) 0.0;
      arrays = Array.mapi array t.array_decls;
      shadow;
    }
  in
  List.iter (fun (slot, v) -> env.ints.(slot) <- v) t.int_init;
  List.iter (fun (slot, v) -> env.reals.(slot) <- v) t.real_init;
  env

let clone_env env =
  let pad = Bytecode.domain_pad in
  {
    ints = Array.append env.ints (Array.make pad 0);
    reals = Array.append env.reals (Array.make pad 0.0);
    arrays = env.arrays;
    (* shared *)
    shadow = env.shadow;
    (* shared *)
  }

let run_code t env ~fork =
  try
    Bytecode.exec_top t.top ~ints:env.ints ~reals:env.reals ~arrays:env.arrays
      ~fork:(fun k -> fork t.prog_plans.(k))
  with Bytecode.Error m -> raise (Error m)

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
