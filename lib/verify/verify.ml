(* Whole-program static race detection for the parallel regions the
   runtime actually forks.

   Region discovery mirrors [Loopcoal_runtime.Compile.compile_parallel_nest]
   exactly: a [Parallel] loop not already inside a parallel region roots a
   region, extended by the maximal rectangular perfectly-nested parallel
   prefix; everything below (including nested [Parallel] loops, which the
   runtime executes serially) is the region body. The question asked per
   region is the DOALL legality question for the *flattened* iteration
   space: can two distinct iteration vectors conflict?

   Two distinct vectors differ first at some level k — equal before it,
   unrelated after it — so the region races iff some level k admits a
   solution with [Ceq] coupling at levels < k, [Clt]/[Cgt] at k, and
   [Cany] at levels > k. That is exactly {!Depend.carried} with a
   [classify_rest] built from the level positions.

   Coalesced regions are first put in quotient/remainder normal form
   ({!Qnf}): the leading index-recovery definitions become bounded
   pseudo-indices playing the role of the original nest levels, and the
   test above applies unchanged. Since the coalesced body is the original
   body verbatim (the recovered scalars keep the original index names),
   the dependence problems before and after coalescing are literally
   identical — which is the paper's legality claim, discharged
   statically. *)

open Loopcoal_ir
module Affine = Loopcoal_analysis.Affine
module Depend = Loopcoal_analysis.Depend
module Loop_class = Loopcoal_analysis.Loop_class
module Privatize = Loopcoal_analysis.Privatize
module Qnf = Loopcoal_analysis.Qnf
module Reduction = Loopcoal_analysis.Reduction
module Usedef = Loopcoal_analysis.Usedef
module Vset = Usedef.Vset

type hint = { h_coalesced : Ast.var; h_digits : (Ast.var * int) list }

type verdict = Race_free | Unverified | Racy

type region = {
  ordinal : int;
  indices : Ast.var list;  (** analysis levels: nest or pseudo indices *)
  label : string;
  iterations : int option;
  verdict : verdict;
  diags : Diag.t list;
}

type result = { regions : region list; diags : Diag.t list }

(* ---------- region discovery (mirrors the runtime compiler) ---------- *)

let collect_nest (l : Ast.loop) =
  let rec collect acc (cur : Ast.loop) =
    let names =
      List.map (fun (x : Ast.loop) -> x.Ast.index) (List.rev (cur :: acc))
    in
    match cur.Ast.body with
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
                       (fun v -> Vset.mem v (Usedef.scalar_writes inner.body))
                       bound_vars)) ->
        collect (cur :: acc) inner
    | _ -> (List.rev (cur :: acc), cur.Ast.body)
  in
  collect [] l

let rec regions_of_block acc (b : Ast.block) =
  List.fold_left regions_of_stmt acc b

and regions_of_stmt acc (s : Ast.stmt) =
  match s with
  | Assign _ -> acc
  | If (_, t, f) -> regions_of_block (regions_of_block acc t) f
  | For l when l.par = Parallel ->
      (* The runtime lowers the whole region body to one tape: no
         further forks happen inside, so discovery does not descend. *)
      collect_nest l :: acc
  | For l -> regions_of_block acc l.body

(* ---------- coalesced-index recovery recognition ---------- *)

(* Longest leading run of scalar definitions over the coalesced index
   [j] and variables [reads] accepts — the shape of generated recovery
   code. *)
let recovery_prefix ?(reads = fun _ -> false) ~j (body : Ast.block) =
  let rec go acc rest =
    match rest with
    | Ast.Assign (Ast.Scalar v, e) :: tl
      when (not (String.equal v j))
           && (not (List.exists (fun (w, _) -> String.equal v w) acc))
           && List.for_all
                (fun w -> String.equal j w || reads w)
                (Ast.expr_vars e) ->
        go ((v, e) :: acc) tl
    | _ -> (List.rev acc, rest)
  in
  go [] body

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec drop n = function
  | xs when n = 0 -> xs
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

type qnf_outcome =
  | Plain  (** nothing resembling recovery arithmetic *)
  | Unrecognized  (** division of the index, but no decomposition found *)
  | Recovered of Qnf.t * Ast.block
      (** decomposition plus the body with recognized definitions removed *)
  | Recovered_sizes of (Ast.var * int option) list * Ast.block
      (** digits of a trip that is not a literal, each with its size when
          that is one, and the body past the definitions, which does not
          read the coalesced index *)

(* Bounds like [10 - 1] are constant without being literal [Int]s: fold
   them through the affine machinery before giving up on a range. *)
let const_of e =
  match Affine.of_expr ~is_index:(fun _ -> false) e with
  | Some f when Affine.is_const f -> Some f.Affine.const
  | _ -> None

let fold_range (l : Ast.loop) =
  match Loop_class.const_range l with
  | Some r -> Some r
  | None -> (
      match (const_of l.Ast.lo, const_of l.Ast.hi) with
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> None)

(* A coalesced loop [j = 1, trip] whose trip is not a literal: its
   leading recovery definitions, which may also read variables the loop
   never writes, when {!Qnf.decompose_sizes} matches them and the rest
   of the body reads neither [j] nor rewrites a recovered name. *)
let try_qnf_sizes (l : Ast.loop) inner_body =
  let j = l.Ast.index in
  let writes = Usedef.scalar_writes inner_body in
  let invariant v =
    not (Vset.mem v writes || List.mem v (Ast.bound_indices_block inner_body))
  in
  let prefix, rest = recovery_prefix ~reads:invariant ~j inner_body in
  let non_affine (_, e) =
    Affine.of_expr ~is_index:(String.equal j) e = None
  in
  let rec search n =
    if n < 1 then Unrecognized
    else
      let rest =
        List.map (fun (v, e) -> Ast.Assign (Ast.Scalar v, e)) (drop n prefix)
        @ rest
      in
      let defs = take n prefix in
      if
        Vset.mem j (Usedef.scalar_reads rest)
        || List.exists
             (fun (v, _) -> Vset.mem v (Usedef.scalar_writes rest))
             defs
      then search (n - 1)
      else
        match
          Qnf.decompose_sizes ~coalesced:j ~trip:l.Ast.hi ~invariant defs
        with
        | Ok digits -> Recovered_sizes (digits, rest)
        | Error _ -> search (n - 1)
  in
  if prefix = [] || not (List.exists non_affine prefix) then Plain
  else if Vset.mem j writes then Unrecognized
  else search (List.length prefix)

let try_qnf ~hints (loops : Ast.loop list) (inner_body : Ast.block) =
  match loops with
  | [ l ] when const_of l.Ast.lo = Some 1 && const_of l.Ast.step = Some 1 -> (
      match const_of l.Ast.hi with
      | None -> try_qnf_sizes l inner_body
      | Some trip when trip >= 1 -> (
          let j = l.Ast.index in
          let prefix, rest = recovery_prefix ~j inner_body in
          let non_affine (_, e) =
            Affine.of_expr ~is_index:(fun v -> String.equal v j) e = None
          in
          if prefix = [] || not (List.exists non_affine prefix) then Plain
          else
            (* A recovered name rewritten or shadowed later in the body
               would make the pseudo-index substitution unsound. *)
            let later_writes = Usedef.scalar_writes rest in
            let later_bound = Ast.bound_indices_block rest in
            if
              List.exists
                (fun (v, _) ->
                  Vset.mem v later_writes || List.mem v later_bound)
                prefix
              || Vset.mem j later_writes
            then Unrecognized
            else
              let accept n q =
                let leftover =
                  List.map
                    (fun (v, e) -> Ast.Assign (Ast.Scalar v, e))
                    (drop n prefix)
                in
                Recovered (q, leftover @ rest)
              in
              let hinted =
                List.find_map
                  (fun h ->
                    if not (String.equal h.h_coalesced j) then None
                    else
                      let n = List.length h.h_digits in
                      let defs = take n prefix in
                      if List.length defs < n then None
                      else
                        match
                          Qnf.verify_hint ~coalesced:j ~trip
                            ~sizes:h.h_digits defs
                        with
                        | Ok q -> Some (accept n q)
                        | Error _ -> None)
                  hints
              in
              let rec search n =
                if n < 1 then Unrecognized
                else
                  match Qnf.decompose ~coalesced:j ~trip (take n prefix) with
                  | Ok q -> accept n q
                  | Error _ -> search (n - 1)
              in
              (match hinted with
              | Some r -> r
              | None -> search (List.length prefix)))
      | _ -> Plain)
  | _ -> Plain

(* ---------- per-region analysis ---------- *)

type level = { lv_var : Ast.var; lv_range : (int * int) option }

(* ---------- strip-mined serial loop recognition ----------

   Tiling, chunked coalescing and parallel reductions all emit the same
   shape inside a region body: a serial loop

     do d = c*v + b, min(c*v + b', H)   with b' <= b + c - 1

   over a region level [v] — each level iteration walks one width-<=c
   block of a larger space, and distinct [v] walk disjoint blocks. The
   analysis would otherwise see [d] as an opaque inner index with no
   range and report a may-dependence carried by [v]. Recognition is the
   exact dual of the Qnf recovery substitution: rewrite [d] in every
   subscript as [c*v + (b-1) + r] with a fresh remainder pseudo-variable
   [r in 1..c], after which the Banerjee interval for the [v]-carried
   query spans at most [b' - b - c .. -1] (for v < v') and the
   dependence is disproven. The substitution is information-preserving:
   it is sound for every coupling at every level, not just [v]'s. *)

type strip = {
  st_d : Ast.var;  (** the serial strip index *)
  st_v : Ast.var;  (** the region level it is mined from *)
  st_c : int;  (** block stride (= max width) *)
  st_b : int;  (** block base offset: d starts at c*v + b *)
  st_r : Ast.var;  (** fresh remainder pseudo-variable, 1..c *)
}

(* [e] as [c*v + b] for a single variable [v] drawn from [names]. *)
let single_level_affine ~names e =
  match Affine.of_expr ~is_index:(fun _ -> true) e with
  | Some { Affine.coeffs = [ (v, c) ]; const = b }
    when c >= 1 && List.mem v names ->
      Some (v, c, b)
  | _ -> None

let strip_shape ~level_names (l : Ast.loop) =
  if const_of l.Ast.step <> Some 1 then None
  else
    match single_level_affine ~names:level_names l.Ast.lo with
    | None -> None
    | Some (v, c, b) ->
        let qualifies e =
          match single_level_affine ~names:[ v ] e with
          | Some (_, c', b') -> c' = c && b' <= b + c - 1
          | None -> false
        in
        let hi_ok =
          match l.Ast.hi with
          | Ast.Bin (Ast.Min, e1, e2) -> qualifies e1 || qualifies e2
          | e -> qualifies e
        in
        if hi_ok then Some (v, c, b) else None

(* Does [d] occur (as a variable in any expression, or as a binder)
   anywhere in [b] outside the physical subtree [inside]? *)
let occurs_outside d ~inside (b : Ast.block) =
  let in_expr e = List.mem d (Ast.expr_vars e) in
  let rec in_cond (c : Ast.cond) =
    match c with
    | Ast.True -> false
    | Ast.Cmp (_, a, b) -> in_expr a || in_expr b
    | Ast.And (a, b) | Ast.Or (a, b) -> in_cond a || in_cond b
    | Ast.Not a -> in_cond a
  in
  let rec stmt (s : Ast.stmt) =
    match s with
    | _ when s == inside -> false
    | Ast.Assign (lv, e) ->
        in_expr e
        || (match lv with
           | Ast.Scalar v -> String.equal v d
           | Ast.Elem (_, subs) -> List.exists in_expr subs)
    | Ast.If (c, t, f) -> in_cond c || block t || block f
    | Ast.For l ->
        String.equal l.Ast.index d
        || in_expr l.Ast.lo || in_expr l.Ast.hi || in_expr l.Ast.step
        || block l.Ast.body
  and block b = List.exists stmt b in
  block b

let find_strips ~level_names (body : Ast.block) =
  let candidates = ref [] in
  let rec stmt (s : Ast.stmt) =
    (match s with
    | Ast.For l when not (List.mem l.Ast.index level_names) -> (
        match strip_shape ~level_names l with
        | Some (v, c, b) -> candidates := (l.Ast.index, v, c, b, s) :: !candidates
        | None -> ())
    | _ -> ());
    match s with
    | Ast.Assign _ -> ()
    | Ast.If (_, t, f) ->
        List.iter stmt t;
        List.iter stmt f
    | Ast.For l -> List.iter stmt l.Ast.body
  in
  List.iter stmt body;
  let writes = Usedef.scalar_writes body in
  !candidates
  |> List.filter (fun (d, _, _, _, subtree) ->
         (* Exactly one binder for [d], never written as a scalar, and no
            use of [d] escapes its own loop: then every subscript
            occurrence of [d] is governed by this strip. *)
         List.length
           (List.filter (fun (d', _, _, _, _) -> String.equal d d')
              !candidates)
         = 1
         && (not (Vset.mem d writes))
         && not (occurs_outside d ~inside:subtree body))
  |> List.map (fun (d, v, c, b, _) ->
         { st_d = d; st_v = v; st_c = c; st_b = b; st_r = d ^ "#r" })

let iter_count (l : Ast.loop) =
  match (const_of l.Ast.lo, const_of l.Ast.hi, const_of l.Ast.step) with
  | Some lo, Some hi, Some step when step >= 1 ->
      Some (max 0 (((hi - lo) / step) + 1))
  | _ -> None

let opt_product xs =
  List.fold_left
    (fun acc x ->
      match (acc, x) with Some a, Some b -> Some (a * b) | _ -> None)
    (Some 1) xs

let subs_to_string subs =
  "[" ^ String.concat ", " (List.map Pretty.expr_to_string subs) ^ "]"

let analyze_region ~hints ordinal ((loops : Ast.loop list), inner_body) =
  let rev_diags = ref [] in
  let emit code subject msg =
    let severity = Option.get (Diag.severity_of_code code) in
    rev_diags :=
      Diag.make ~code ~severity ~region:ordinal ~subject msg :: !rev_diags
  in
  let loop_names = List.map (fun (l : Ast.loop) -> l.Ast.index) loops in
  let label = "doall " ^ String.concat "." loop_names in
  let qnf = try_qnf ~hints loops inner_body in
  let levels, analyzed, iterations =
    match qnf with
    | Recovered (q, analyzed) ->
        emit "LC007" q.Qnf.q_coalesced
          (Printf.sprintf "recovery recognized: %s"
             (String.concat ", "
                (List.map
                   (fun (d : Qnf.digit) ->
                     let lo, hi = Qnf.digit_range d in
                     Printf.sprintf "%s in %d..%d stride %d" d.Qnf.d_var lo
                       hi d.Qnf.d_stride)
                   q.Qnf.q_digits)));
        ( List.map
            (fun (d : Qnf.digit) ->
              { lv_var = d.Qnf.d_var; lv_range = Some (Qnf.digit_range d) })
            q.Qnf.q_digits,
          analyzed,
          Some q.Qnf.q_trip )
    | Recovered_sizes (digits, analyzed) ->
        let range n = Option.map (fun n -> (1, n)) n in
        emit "LC007" (List.hd loop_names)
          (Printf.sprintf "recovery recognized: %s"
             (String.concat ", "
                (List.map
                   (fun (v, n) ->
                     match n with
                     | Some n -> Printf.sprintf "%s in 1..%d" v n
                     | None -> Printf.sprintf "%s in 1..(not a literal)" v)
                   digits)));
        ( List.map (fun (v, n) -> { lv_var = v; lv_range = range n }) digits,
          analyzed,
          None )
    | Unrecognized | Plain ->
        if qnf = Unrecognized then
          emit "LC005"
            (List.hd loop_names)
            "index-recovery arithmetic not recognized; recovered scalars \
             treated as opaque";
        ( List.map
            (fun (l : Ast.loop) ->
              { lv_var = l.Ast.index; lv_range = fold_range l })
            loops,
          inner_body,
          opt_product (List.map iter_count loops) )
  in
  let level_names = List.map (fun lv -> lv.lv_var) levels in
  let writes = Usedef.scalar_writes analyzed in
  let bound_inside = Ast.bound_indices_block analyzed in
  let shadowed =
    List.filter
      (fun v -> Vset.mem v writes || List.mem v bound_inside)
      level_names
  in
  if shadowed <> [] then
    List.iter
      (fun v ->
        emit "LC009" v "parallel index shadowed or reassigned in the region")
      shadowed
  else begin
    (* Scalars: written ones must be privatizable (the runtime gives every
       domain a private copy) or a recognized reduction (merged in domain
       order); anything else is a cross-iteration conflict. *)
    let privatizable = Privatize.privatizable analyzed in
    let reductions =
      Reduction.detect analyzed
      |> List.filter (fun (r : Reduction.t) ->
             not (List.mem r.Reduction.scalar level_names))
    in
    let red_names = List.map (fun (r : Reduction.t) -> r.Reduction.scalar) reductions in
    Vset.iter
      (fun v ->
        if List.mem v red_names then
          let op =
            match
              (List.find
                 (fun (r : Reduction.t) -> String.equal r.Reduction.scalar v)
                 reductions)
                .Reduction.op
            with
            | Reduction.Sum -> "sum"
            | Reduction.Product -> "product"
          in
          emit "LC008" v
            (Printf.sprintf
               "recognized %s reduction; the runtime merges per-domain \
                partials in domain order"
               op)
        else if not (Vset.mem v privatizable) then
          emit "LC003" v
            "scalar written in the parallel region is neither privatizable \
             nor a recognized reduction")
      writes;
    (* Arrays: every read/write and write/write pair across distinct
       iterations of the (coalesced) index space. *)
    let subst_sub =
      match qnf with
      | Recovered (q, _) ->
          let lin = Qnf.linear_of_coalesced q in
          fun e ->
            if List.mem q.Qnf.q_coalesced (Ast.expr_vars e) then
              Ast.subst_expr q.Qnf.q_coalesced lin e
            else e
      | Recovered_sizes _ | Plain | Unrecognized -> fun e -> e
    in
    let strips = find_strips ~level_names analyzed in
    let strip_rem = Hashtbl.create 4 in
    List.iter
      (fun st ->
        Hashtbl.replace strip_rem st.st_r st.st_c;
        emit "LC015" st.st_d
          (Printf.sprintf
             "strip-mined serial loop recognized: %s = %d*%s %c %d + (r in \
              1..%d)"
             st.st_d st.st_c st.st_v
             (if st.st_b - 1 < 0 then '-' else '+')
             (abs (st.st_b - 1))
             st.st_c))
      strips;
    let subst_strips e =
      List.fold_left
        (fun e st ->
          if List.mem st.st_d (Ast.expr_vars e) then
            (* d = c*v + (b-1) + r, with r the 1-based block offset. *)
            Ast.subst_expr st.st_d
              (Ast.Bin
                 ( Ast.Add,
                   Bin
                     ( Ast.Add,
                       Bin (Ast.Mul, Int st.st_c, Var st.st_v),
                       Int (st.st_b - 1) ),
                   Var st.st_r ))
              e
          else e)
        e strips
    in
    let refs =
      List.map
        (fun (r : Usedef.array_ref) ->
          {
            r with
            Usedef.subs = List.map (fun s -> subst_strips (subst_sub s)) r.Usedef.subs;
          })
        (Usedef.array_refs analyzed)
    in
    let inner_tbl = Loop_class.inner_ranges analyzed in
    let is_affine_ref (r : Usedef.array_ref) =
      List.for_all
        (fun s -> Affine.of_expr ~is_index:(fun _ -> true) s <> None)
        r.Usedef.subs
    in
    let non_affine_arrays =
      refs
      |> List.filter (fun r -> not (is_affine_ref r))
      |> List.map (fun (r : Usedef.array_ref) -> r.Usedef.arr)
      |> List.sort_uniq String.compare
    in
    List.iter
      (fun a -> emit "LC004" a "non-affine subscript; reference not analysed")
      non_affine_arrays;
    let good = Array.of_list (List.filter is_affine_ref refs) in
    let level_pos v =
      let rec go i = function
        | [] -> None
        | w :: _ when String.equal v w -> Some i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 level_names
    in
    let range_of v =
      match level_pos v with
      | Some p -> (List.nth levels p).lv_range
      | None -> (
          match Hashtbl.find_opt strip_rem v with
          | Some c -> Some (1, c)
          | None ->
              if Vset.mem v writes then None
              else Option.join (Hashtbl.find_opt inner_tbl v))
    in
    let classify_rest ~k v =
      match level_pos v with
      | Some p -> Depend.Coupled (if p < k then Depend.Ceq else Depend.Cany)
      | None ->
          if
            Hashtbl.mem strip_rem v
            || Vset.mem v writes
            || Hashtbl.mem inner_tbl v
          then Depend.Private1
          else Depend.Shared
    in
    let carried_level subs1 subs2 =
      let rec go k = function
        | [] -> None
        | lv :: rest ->
            if
              Depend.carried ~level:lv.lv_var ~range:lv.lv_range
                ~classify_rest:(classify_rest ~k) ~range_of subs1 subs2
            then Some lv.lv_var
            else go (k + 1) rest
      in
      go 0 levels
    in
    let n = Array.length good in
    let pairs = ref 0 in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        let r1 = good.(i) and r2 = good.(j) in
        if
          String.equal r1.Usedef.arr r2.Usedef.arr
          && (r1.Usedef.write || r2.Usedef.write)
        then begin
          incr pairs;
          match carried_level r1.Usedef.subs r2.Usedef.subs with
          | Some lvl ->
              let code =
                if r1.Usedef.write && r2.Usedef.write then "LC001" else "LC002"
              in
              let kind (r : Usedef.array_ref) =
                if r.Usedef.write then "write" else "read"
              in
              emit code r1.Usedef.arr
                (Printf.sprintf
                   "%s%s (%s) and %s%s (%s) can touch the same element in \
                    distinct iterations (carried by %s)"
                   r1.Usedef.arr
                   (subs_to_string r1.Usedef.subs)
                   (kind r1) r2.Usedef.arr
                   (subs_to_string r2.Usedef.subs)
                   (kind r2) lvl)
          | None -> ()
        end
      done
    done;
    let e, w, _ = Diag.counts !rev_diags in
    if e = 0 && w = 0 then
      emit "LC006" ""
        (Printf.sprintf "proven race-free (%d reference pair(s) checked)"
           !pairs)
  end;
  let diags = List.rev !rev_diags in
  let verdict =
    match Diag.worst diags with
    | Some Diag.Error -> Racy
    | Some Diag.Warning -> Unverified
    | Some Diag.Info | None -> Race_free
  in
  { ordinal; indices = level_names; label; iterations; verdict; diags }

(* ---------- whole program ---------- *)

let h_check_ns = Loopcoal_obs.Registry.histogram "verify.check_ns"

let check_program ?(hints = []) (p : Ast.program) =
  Loopcoal_obs.Registry.time h_check_ns @@ fun () ->
  let raw = List.rev (regions_of_block [] p.body) in
  let regions = List.mapi (fun i rg -> analyze_region ~hints (i + 1) rg) raw in
  { regions; diags = List.concat_map (fun (r : region) -> r.diags) regions }

let report ?(target = "<program>") res =
  {
    Diag.target;
    regions =
      List.map
        (fun r ->
          {
            Diag.ri_ordinal = r.ordinal;
            ri_label = r.label;
            ri_iters = r.iterations;
          })
        res.regions;
    diags = res.diags;
  }

let race_free res =
  List.for_all (fun r -> r.verdict = Race_free) res.regions
