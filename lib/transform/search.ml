(* Model-guided transformation search.

   Enumerate a bounded set of recipes, gate each through the static race
   verifier (a candidate may never degrade the verification verdict of
   the input program), score the survivors with the machine model's
   event simulator over a weighted static op count, and return the
   winner.  An optional measurement mode re-times the top predicted
   finalists (plus the identity baseline) on the real engine and lets
   the measured medians decide.

   The scoring walk mirrors how the runtime executes programs: maximal
   parallel prefixes (exactly the regions [Verify.collect_nest] / the
   runtime compiler discover) run on the bytecode tape at [tape_op_ns]
   per weighted op and are scheduled by {!Event_sim}; everything outside
   a region runs as serial host code (the top-level tape, every access
   checked) at [closure_op_ns], one op of serial host code.  Trip
   counts come from integer bound evaluation under a midpoint
   environment, falling back to a default extent when bounds are
   symbolic — the model only has to rank recipes, not predict wall
   clock. *)

open Loopcoal_ir
module Machine = Loopcoal_machine.Machine
module Event_sim = Loopcoal_machine.Event_sim
module Policy = Loopcoal_sched.Policy
module Verify = Loopcoal_verify.Verify
module Diag = Loopcoal_verify.Diag
module Reduction = Loopcoal_analysis.Reduction
module Registry = Loopcoal_obs.Registry

type ctx = { sx_p : int; sx_policy : Policy.t; sx_cal : Machine.calibration }

let default_ctx ?(policy = Policy.Static_block)
    ?(cal = Machine.default_calibration) ~p () =
  { sx_p = max 1 p; sx_policy = policy; sx_cal = cal }

let m_candidates = Registry.counter "search.candidates"
let m_pruned = Registry.counter "search.pruned"
let m_win_ns = Registry.histogram "search.win_ns"

(* ---------- small helpers ---------- *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* ---------- weighted static op counts ---------- *)

let sum_ops f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let rec expr_ops (e : Ast.expr) : float =
  match e with
  | Int _ | Real _ -> 0.0
  | Var _ -> 0.25
  | Neg a -> 0.5 +. expr_ops a
  | Bin ((Div | Mod | Cdiv), a, b) -> 4.0 +. expr_ops a +. expr_ops b
  | Bin (_, a, b) -> 1.0 +. expr_ops a +. expr_ops b
  | Load (_, subs) -> 2.0 +. sum_ops expr_ops subs

let rec cond_ops (c : Ast.cond) : float =
  match c with
  | True -> 0.0
  | Cmp (_, a, b) -> 1.0 +. expr_ops a +. expr_ops b
  | And (a, b) | Or (a, b) -> 0.5 +. cond_ops a +. cond_ops b
  | Not a -> 0.25 +. cond_ops a

(* ---------- integer bound evaluation under a midpoint environment ---------- *)

let rec ieval env (e : Ast.expr) : int option =
  match e with
  | Ast.Int n -> Some n
  | Real _ | Load _ -> None
  | Var v -> Hashtbl.find_opt env v
  | Neg a -> Option.map (fun x -> -x) (ieval env a)
  | Bin (op, a, b) -> (
      match (ieval env a, ieval env b) with
      | Some x, Some y -> (
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div -> if y = 0 then None else Some (x / y)
          | Mod -> if y = 0 then None else Some (x mod y)
          | Cdiv -> if y = 0 then None else Some ((x + y - 1) / y)
          | Min -> Some (min x y)
          | Max -> Some (max x y))
      | _ -> None)

let default_trip = 8

(* Trip count and the index value of the middle iteration; [default_trip]
   with an unknown midpoint when the bounds are symbolic. *)
let trip_and_mid env (l : Ast.loop) =
  match (ieval env l.Ast.lo, ieval env l.Ast.hi, ieval env l.Ast.step) with
  | Some lo, Some hi, Some st when st >= 1 ->
      let n = if hi < lo then 0 else ((hi - lo) / st) + 1 in
      (n, if n = 0 then None else Some (lo + ((n - 1) / 2 * st)))
  | _ -> (default_trip, None)

let with_binding env v mv f =
  let old = Hashtbl.find_opt env v in
  (match mv with
  | Some x -> Hashtbl.replace env v x
  | None -> Hashtbl.remove env v);
  let r = f () in
  (match old with
  | Some o -> Hashtbl.replace env v o
  | None -> Hashtbl.remove env v);
  r

(* ---------- the cost walk ---------- *)

type tier = Host | Tape

let per_op (cal : Machine.calibration) = function
  | Host -> cal.Machine.closure_op_ns
  | Tape -> cal.Machine.tape_op_ns

(* [sim = Some (machine, policy)] turns host-level parallel loops into
   simulated fork-join regions; [None] costs everything serially (used
   for per-iteration region body profiles). *)
let rec block_ns ~cal ~sim env ~tier (b : Ast.block) : float =
  List.fold_left (fun acc s -> acc +. stmt_ns ~cal ~sim env ~tier s) 0.0 b

and stmt_ns ~cal ~sim env ~tier (s : Ast.stmt) : float =
  match s with
  | Assign (Scalar _, e) -> per_op cal tier *. (1.0 +. expr_ops e)
  | Assign (Elem (_, subs), e) ->
      per_op cal tier *. (2.0 +. sum_ops expr_ops subs +. expr_ops e)
  | If (c, t, f) ->
      (per_op cal tier *. (0.5 +. cond_ops c))
      +. Float.max (block_ns ~cal ~sim env ~tier t) (block_ns ~cal ~sim env ~tier f)
  | For l when tier = Host && l.par = Parallel && sim <> None ->
      region_ns ~cal ~sim env l
  | For l -> serial_ns ~cal ~sim env ~tier l

and serial_ns ~cal ~sim env ~tier (l : Ast.loop) : float =
  let n, mid = trip_and_mid env l in
  let body =
    with_binding env l.index mid (fun () -> block_ns ~cal ~sim env ~tier l.body)
  in
  let bounds = expr_ops l.lo +. expr_ops l.hi +. expr_ops l.step in
  (per_op cal tier *. bounds)
  +. (float_of_int n *. (per_op cal tier +. body))

and region_ns ~cal ~sim env (l : Ast.loop) : float =
  let machine, policy =
    match sim with Some mp -> mp | None -> assert false
  in
  let loops, inner = Verify.collect_nest l in
  (* collect_nest guarantees inner bounds reference no outer nest index,
     so the extents are independent and the flat count is their product *)
  let extents = List.map (trip_and_mid env) loops in
  let n = List.fold_left (fun acc (e, _) -> acc * e) 1 extents in
  if n <= 0 then 0.0
  else
    let rec bind ls es k =
      match (ls, es) with
      | (lp : Ast.loop) :: ls', (_, mid) :: es' ->
          with_binding env lp.Ast.index mid (fun () -> bind ls' es' k)
      | _ -> k ()
    in
    let body_ns =
      bind loops extents (fun () -> block_ns ~cal ~sim:None env ~tier:Tape inner)
    in
    let depth = List.length loops in
    (* The bytecode tier dispatches chunks as contiguous strips over the
       innermost coalesced digit, with index recovery and invariant
       address parts hoisted out of the element loop: recovery and strip
       setup are per-strip costs, and each element pays only its body
       plus one odometer/control op. Charging recovery per element
       (the naive reading) made any transformation that deepens the nest
       look like it amortizes a cost the flat tape never pays — the
       searcher then tiled kernels it should have left alone. *)
    let recovery =
      (if depth > 1 then 2.0 else 1.0) *. cal.Machine.tape_op_ns
    in
    let innermost =
      match List.rev extents with (e, _) :: _ -> max 1 e | [] -> 1
    in
    let strip_over = recovery +. (2.0 *. cal.Machine.tape_op_ns) in
    let per_iter = body_ns +. cal.Machine.tape_op_ns in
    let chunk_cost ~start:_ ~len =
      let strips = (len + innermost - 1) / innermost in
      (float_of_int len *. per_iter) +. (float_of_int strips *. strip_over)
    in
    (Event_sim.simulate ~machine ~policy ~n ~chunk_cost).Event_sim.completion

let cost ~ctx (p : Ast.program) : float =
  let machine = Machine.machine_of_calibration ~p:ctx.sx_p ctx.sx_cal in
  block_ns ~cal:ctx.sx_cal
    ~sim:(Some (machine, ctx.sx_policy))
    (Hashtbl.create 16) ~tier:Host p.Ast.body

(* Iteration count and per-iteration weighted ops (body + index recovery
   + loop control) of the first region the runtime would fork — what
   [loopc calibrate] divides its measured per-iteration nanoseconds by. *)
let first_region_profile (p : Ast.program) : (int * float) option =
  let rec find (b : Ast.block) =
    List.find_map
      (fun (s : Ast.stmt) ->
        match s with
        | Assign _ -> None
        | If (_, t, f) -> ( match find t with Some _ as x -> x | None -> find f)
        | For l when l.par = Parallel -> Some l
        | For l -> find l.body)
      b
  in
  match find p.Ast.body with
  | None -> None
  | Some l ->
      let loops, inner = Verify.collect_nest l in
      let env = Hashtbl.create 8 in
      let extents = List.map (trip_and_mid env) loops in
      let n = List.fold_left (fun acc (e, _) -> acc * e) 1 extents in
      if n <= 0 then None
      else
        let unit_cal =
          { Machine.default_calibration with tape_op_ns = 1.0; closure_op_ns = 1.0 }
        in
        let rec bind ls es k =
          match (ls, es) with
          | (lp : Ast.loop) :: ls', (_, mid) :: es' ->
              with_binding env lp.Ast.index mid (fun () -> bind ls' es' k)
          | _ -> k ()
        in
        let ops =
          bind loops extents (fun () ->
              block_ns ~cal:unit_cal ~sim:None env ~tier:Tape inner)
        in
        let depth = List.length loops in
        let innermost =
          match List.rev extents with (e, _) :: _ -> max 1 e | [] -> 1
        in
        (* Per-iteration ops under the strip model [region_ns] uses:
           body + one odometer/control op, plus the per-strip recovery
           and setup amortized over the strip length. *)
        let strip_over = (if depth > 1 then 2.0 else 1.0) +. 2.0 in
        Some (n, ops +. 1.0 +. (strip_over /. float_of_int innermost))

(* ---------- candidate enumeration ---------- *)

(* Host-level serial loops whose body is a recognized reduction into a
   declared real scalar: parallel_reduce sites. *)
let reduction_sites (p : Ast.program) =
  let is_real s =
    List.exists
      (fun (d : Ast.scalar_decl) -> d.sc_name = s && d.sc_kind = Kreal)
      p.Ast.scalars
  in
  let sites = ref [] in
  let rec blk b = List.iter stmt b
  and stmt (s : Ast.stmt) =
    match s with
    | Ast.Assign _ -> ()
    | Ast.If (_, t, f) ->
        blk t;
        blk f
    | Ast.For l when l.par = Parallel -> ()  (* no host-level loop inside *)
    | Ast.For l ->
        List.iter
          (fun (r : Reduction.t) ->
            if is_real r.Reduction.scalar then
              sites := (l.index, r.Reduction.scalar) :: !sites)
          (Reduction.detect l.body);
        blk l.body
  in
  blk p.Ast.body;
  List.rev !sites

let enumerate ?(fp_reassoc = false) ~procs ~budget (p : Ast.program) :
    Recipe.t list =
  let preduces =
    if fp_reassoc then
      List.map
        (fun (i, s) ->
          [ Recipe.Preduce { pr_index = i; pr_scalar = s; pr_procs = procs } ])
        (take 2 (dedup (reduction_sites p)))
    else []
  in
  let base =
    [
      [];
      [ Recipe.Hoist ];
      [ Recipe.Interchange ];
      [ Recipe.Fuse ];
      [ Recipe.Distribute ];
    ]
    @ preduces
    @ [
        [ Recipe.Tile (4, 4) ];
        [ Recipe.Tile (8, 8) ];
        [ Recipe.Tile (16, 16) ];
        [ Recipe.Tile (32, 32) ];
        [ Recipe.Distribute; Recipe.Interchange ];
        [ Recipe.Interchange; Recipe.Tile (8, 8) ];
        [ Recipe.Fuse; Recipe.Hoist ];
        [ Recipe.Coalesce Index_recovery.Ceiling ];
        [ Recipe.Coalesce Index_recovery.Div_mod ];
        [ Recipe.Chunked 16 ];
        [ Recipe.Chunked 64 ];
      ]
  in
  take (max 1 budget) (dedup base)

(* ---------- verification gate ---------- *)

let verdict_rank (res : Verify.result) =
  List.fold_left
    (fun acc (r : Verify.region) ->
      max acc
        (match r.Verify.verdict with
        | Verify.Race_free -> 0
        | Verify.Unverified -> 1
        | Verify.Racy -> 2))
    0 res.Verify.regions

let prune_reason (res : Verify.result) =
  let all =
    List.concat_map (fun (r : Verify.region) -> r.Verify.diags)
      res.Verify.regions
    @ res.Verify.diags
  in
  let first sev =
    List.find_opt (fun (d : Diag.t) -> d.Diag.severity = sev) all
  in
  match
    (match first Diag.Error with Some _ as d -> d | None -> first Diag.Warning)
  with
  | Some d ->
      if d.Diag.subject = "" then d.Diag.code
      else d.Diag.code ^ " " ^ d.Diag.subject
  | None -> "verifier verdict degraded"

(* ---------- search ---------- *)

type status = Winner | Scored | Pruned of string | Inapplicable of string

type candidate = {
  cd_recipe : Recipe.t;
  cd_status : status;
  cd_predicted_ns : float option;
  cd_measured_ns : float option;
}

type mode = Model | Measure of int

type report = {
  rp_label : string;
  rp_budget : int;
  rp_mode : mode;
  rp_p : int;
  rp_policy : Policy.t;
  rp_winner : Recipe.t;
  rp_program : Ast.program;
  rp_candidates : candidate list;
  rp_considered : int;
  rp_pruned : int;
}

let median xs =
  match List.sort Float.compare xs with
  | [] -> infinity
  | l -> List.nth l (List.length l / 2)

let best_by key = function
  | [] -> None
  | x :: xs ->
      Some (List.fold_left (fun b y -> if key y < key b then y else b) x xs)

let measure_rounds = 3

let run ?(budget = 16) ?(mode = Model) ?(fp_reassoc = false) ?measure
    ?(label = "program") ~ctx (p : Ast.program) : report =
  Registry.time m_win_ns @@ fun () ->
  let budget = max 1 budget in
  let procs = max ctx.sx_p 4 in
  let recipes = enumerate ~fp_reassoc ~procs ~budget p in
  let base_rank = verdict_rank (Verify.check_program p) in
  let evaluated =
    List.map
      (fun r ->
        Registry.incr m_candidates;
        if Recipe.is_identity r then `Ok (r, p, cost ~ctx p)
        else
          match Recipe.apply r p with
          | Error m -> `Inapplicable (r, m)
          | Ok p' when Ast.equal_program p' p -> `Inapplicable (r, "no effect")
          | Ok p' ->
              let res = Verify.check_program p' in
              if verdict_rank res > base_rank then (
                Registry.incr m_pruned;
                `Pruned (r, prune_reason res))
              else `Ok (r, p', cost ~ctx p'))
      recipes
  in
  (* identity is always a survivor: it is never inapplicable and its
     verdict rank equals the baseline by construction *)
  let survivors =
    List.filter_map
      (function `Ok (r, p', c) -> Some (r, p', c) | _ -> None)
      evaluated
  in
  (* measurement: identity plus the top-k predicted, interleaved rounds,
     median per finalist *)
  let measured =
    match (mode, measure) with
    | Measure k, Some time_ns when k >= 1 ->
        let ranked =
          List.stable_sort
            (fun (_, _, a) (_, _, b) -> Float.compare a b)
            survivors
        in
        let finalists =
          List.filter (fun (r, _, _) -> Recipe.is_identity r) survivors
          @ List.filter
              (fun (r, _, _) -> not (Recipe.is_identity r))
              (take k ranked)
        in
        let samples = List.map (fun f -> (f, ref [])) finalists in
        for _round = 1 to measure_rounds do
          List.iter
            (fun ((_, p', _), acc) -> acc := time_ns p' :: !acc)
            samples
        done;
        List.map
          (fun ((r, _, _), acc) -> (Recipe.to_string r, median !acc))
          samples
    | _ -> []
  in
  let measured_of r = List.assoc_opt (Recipe.to_string r) measured in
  let winner_r, winner_p =
    let fallback () =
      match best_by (fun (_, _, pred) -> pred) survivors with
      | Some (r, p', _) -> (r, p')
      | None -> (Recipe.identity, p)
    in
    if measured = [] then fallback ()
    else
      (* strict < with identity listed first: ties keep the baseline *)
      match
        best_by
          (fun (r, _, _) ->
            match measured_of r with Some m -> m | None -> infinity)
          (List.filter (fun (r, _, _) -> measured_of r <> None) survivors)
      with
      | Some (r, p', _) -> (r, p')
      | None -> fallback ()
  in
  let candidates =
    List.map
      (function
        | `Ok (r, _, pred) ->
            {
              cd_recipe = r;
              cd_status = (if r = winner_r then Winner else Scored);
              cd_predicted_ns = Some pred;
              cd_measured_ns = measured_of r;
            }
        | `Pruned (r, why) ->
            {
              cd_recipe = r;
              cd_status = Pruned why;
              cd_predicted_ns = None;
              cd_measured_ns = None;
            }
        | `Inapplicable (r, why) ->
            {
              cd_recipe = r;
              cd_status = Inapplicable why;
              cd_predicted_ns = None;
              cd_measured_ns = None;
            })
      evaluated
  in
  let pruned =
    List.length
      (List.filter (function `Pruned _ -> true | _ -> false) evaluated)
  in
  {
    rp_label = label;
    rp_budget = budget;
    rp_mode = mode;
    rp_p = ctx.sx_p;
    rp_policy = ctx.sx_policy;
    rp_winner = winner_r;
    rp_program = winner_p;
    rp_candidates = candidates;
    rp_considered = List.length evaluated;
    rp_pruned = pruned;
  }

(* ---------- explain renderers ---------- *)

let mode_string = function
  | Model -> "model"
  | Measure k -> Printf.sprintf "measure(%d)" k

let status_word = function
  | Winner -> "winner"
  | Scored -> "scored"
  | Pruned _ -> "pruned"
  | Inapplicable _ -> "inapplicable"

let status_reason = function
  | Pruned why | Inapplicable why -> Some why
  | Winner | Scored -> None

let fmt_ns = function
  | None -> "-"
  | Some ns -> Printf.sprintf "%.0f" ns

let explain_to_string (rp : report) =
  let buf = Buffer.create 512 in
  let outf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  outf "search(%s): budget=%d mode=%s p=%d policy=%s" rp.rp_label rp.rp_budget
    (mode_string rp.rp_mode) rp.rp_p (Policy.name rp.rp_policy);
  outf "  %-28s %14s %14s  %s" "candidate" "predicted_ns" "measured_ns"
    "status";
  List.iter
    (fun c ->
      let status =
        match status_reason c.cd_status with
        | Some why -> Printf.sprintf "%s: %s" (status_word c.cd_status) why
        | None -> status_word c.cd_status
      in
      outf "  %-28s %14s %14s  %s"
        (Recipe.to_string c.cd_recipe)
        (fmt_ns c.cd_predicted_ns) (fmt_ns c.cd_measured_ns) status)
    rp.rp_candidates;
  outf "  considered=%d pruned=%d winner=%s" rp.rp_considered rp.rp_pruned
    (Recipe.to_string rp.rp_winner);
  Buffer.contents buf
