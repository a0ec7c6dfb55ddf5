(* Tape-profile collection and reporting.

   Collection instruments the tape, so profiled runs go through the one
   tape interpreter. Once per (collector, tape), [instrument] copies the
   tape with an [Icount] at every basic-block leader of the body; the
   counters live in extra scratch slots past the tape's stream slots,
   and the access table is shared, so the fork's range proof on the
   original tape holds for the copy. The executor
   runs the copy through the ordinary [Bytecode.exec_strip], one
   {!binding} (private scratch, strip/iteration/time totals) per worker,
   fork and tape; registration takes the collector's mutex once, then
   the worker counts without synchronization.

   Nothing is merged during the run. {!tapes} rebuilds one per-position
   profile per distinct tape (physical equality — the same [tape] value
   is shared by every fork of a plan): a position runs exactly as often
   as its block's leader, and every prologue position once per strip.

   Reporting joins the per-position dispatch counts with the tape's
   instruction arrays and provenance side tables, giving two views:
   by source loop/statement (the paper-facing one: where did the
   machine actually spend its dispatches?) and by opcode (the
   interpreter-facing one: which handlers dominate?). *)

open Bytecode

type inst = {
  i_src : tape;  (** the tape as compiled *)
  i_tape : tape;  (** the counting copy *)
  i_ops : int array;  (** per [tp_ops] position: its block's counter slot *)
}

type binding = {
  b_inst : inst;
  b_scratch : int array;
  mutable b_strips : int;
  mutable b_iters : int;
  mutable b_ns : int;
}

type collector = {
  mutex : Mutex.t;
  mutable insts : inst list;  (** newest first *)
  mutable bindings : binding list;
}

let create () = { mutex = Mutex.create (); insts = []; bindings = [] }

(* Insert an [Icount] before every leader of [ops], counting block [k]
   into slot [next + k]. Unlike [Tapeopt.insert_at], a jump to a leader
   lands on its counter, so the counter runs on every entry to the
   block. Block [k] of instruction [i] has [k] counters before it plus
   its own, so [i] moves to [i + k + 1] and a jump to leader [t] (or to
   the exit, the last block) to [t + k]. Returns the counting section,
   its provenance, each position's counter slot and the counter count. *)
let instrument_ops ops src ~next =
  let cfg = build_cfg ops in
  let block_of = cfg.cf_block_of in
  let n = Array.length ops in
  let ncounters = block_of.(n) in
  let out = Array.make (n + ncounters) (Icount next) in
  let osrc = Array.make (n + ncounters) 0 in
  Array.iteri
    (fun i op ->
      let k = block_of.(i) in
      if cfg.cf_blocks.(k).bb_start = i then begin
        out.(i + k) <- Icount (next + k);
        osrc.(i + k) <- src.(i)
      end;
      out.(i + k + 1) <- map_targets (fun t -> t + block_of.(t)) op;
      osrc.(i + k + 1) <- src.(i))
    ops;
  (out, osrc, Array.init n (fun i -> next + block_of.(i)), ncounters)

let instrument (t : tape) =
  let base = Array.length t.tp_accs + t.tp_nstreams in
  let ops, src, i_ops, nops = instrument_ops t.tp_ops t.tp_src ~next:base in
  {
    i_src = t;
    i_tape =
      { t with tp_ops = ops; tp_src = src; tp_nstreams = t.tp_nstreams + nops };
    i_ops;
  }

let bind c tape =
  Mutex.lock c.mutex;
  let inst =
    match List.find_opt (fun i -> i.i_src == tape) c.insts with
    | Some i -> i
    | None ->
        let i = instrument tape in
        c.insts <- i :: c.insts;
        i
  in
  let b =
    {
      b_inst = inst;
      b_scratch = make_scratch inst.i_tape;
      b_strips = 0;
      b_iters = 0;
      b_ns = 0;
    }
  in
  c.bindings <- b :: c.bindings;
  Mutex.unlock c.mutex;
  b

let instrumented b = b.b_inst.i_tape
let scratch b = b.b_scratch

let count_strip b ~len =
  b.b_strips <- b.b_strips + 1;
  b.b_iters <- b.b_iters + len

let add_ns b ns = b.b_ns <- b.b_ns + ns

let tapes c =
  Mutex.lock c.mutex;
  let insts = List.rev c.insts and bindings = c.bindings in
  Mutex.unlock c.mutex;
  List.map
    (fun inst ->
      let mine = List.filter (fun b -> b.b_inst == inst) bindings in
      let sum f = List.fold_left (fun acc b -> acc + f b) 0 mine in
      let count slot = sum (fun b -> b.b_scratch.(slot)) in
      let strips = sum (fun b -> b.b_strips) in
      ( inst.i_src,
        {
          pf_pre = Array.make (Array.length inst.i_src.tp_pre) strips;
          pf_ops = Array.map count inst.i_ops;
          pf_strips = strips;
          pf_iters = sum (fun b -> b.b_iters);
          pf_ns = sum (fun b -> b.b_ns);
        } ))
    insts

(* ---------- aggregation ---------- *)

type loop_row = {
  lr_loop : string;  (** source loop path, e.g. ["i.j/k"] *)
  lr_stmt : string;
  lr_dispatches : int;
}

type summary = {
  sm_dispatches : int;
  sm_iters : int;  (** coalesced iterations executed *)
  sm_strips : int;
  sm_ns : int;  (** wall ns inside profiled strip execution *)
  sm_loops : loop_row list;  (** descending by dispatches *)
  sm_opcodes : (string * int) list;  (** descending by dispatches *)
}

let fold_sections (t : tape) (pf : profile) ~f =
  let sec ops src counts =
    Array.iteri
      (fun i c -> if c > 0 then f ops.(i) src.(i) c)
      counts
  in
  sec t.tp_ops t.tp_src pf.pf_ops;
  sec t.tp_pre t.tp_pre_src pf.pf_pre

let summarize c =
  let by_loop : (string * string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let by_op : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let bump tbl k n =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace tbl k (ref n)
  in
  let sum = Array.fold_left ( + ) 0 in
  let dispatches = ref 0 and iters = ref 0 and strips = ref 0 and ns = ref 0 in
  List.iter
    (fun ((t : tape), (pf : profile)) ->
      dispatches := !dispatches + sum pf.pf_pre + sum pf.pf_ops;
      iters := !iters + pf.pf_iters;
      strips := !strips + pf.pf_strips;
      ns := !ns + pf.pf_ns;
      fold_sections t pf ~f:(fun op tag n ->
          let loc = t.tp_tags.(tag) in
          bump by_loop (loc.sl_loop, loc.sl_stmt) n;
          bump by_op (instr_mnemonic op) n))
    (tapes c);
  let desc_rows =
    Hashtbl.fold
      (fun (l, s) n acc ->
        { lr_loop = l; lr_stmt = s; lr_dispatches = !n } :: acc)
      by_loop []
    |> List.sort (fun a b ->
           match compare b.lr_dispatches a.lr_dispatches with
           | 0 -> compare (a.lr_loop, a.lr_stmt) (b.lr_loop, b.lr_stmt)
           | c -> c)
  in
  let desc_ops =
    Hashtbl.fold (fun op n acc -> (op, !n) :: acc) by_op []
    |> List.sort (fun (a, m) (b, n) ->
           match compare n m with 0 -> compare a b | c -> c)
  in
  {
    sm_dispatches = !dispatches;
    sm_iters = !iters;
    sm_strips = !strips;
    sm_ns = !ns;
    sm_loops = desc_rows;
    sm_opcodes = desc_ops;
  }

(* Fraction of dispatches carrying a non-root tag, i.e. attributed to a
   concrete source statement or serial loop rather than to strip-level
   glue (strip-prologue stream inits). The acceptance bar for the
   provenance plumbing: >= 0.9 on real kernels at every opt level. *)
let attributed_fraction sm =
  if sm.sm_dispatches = 0 then 1.0
  else begin
    let root =
      List.fold_left
        (fun acc r -> if r.lr_stmt = "strip" then acc + r.lr_dispatches else acc)
        0 sm.sm_loops
    in
    float_of_int (sm.sm_dispatches - root) /. float_of_int sm.sm_dispatches
  end

(* ---------- rendering ---------- *)

module Table = Loopcoal_util.Table

let pct part whole =
  if whole = 0 then "0.0%"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int whole)

let render ?(top = 10) sm =
  let b = Buffer.create 1024 in
  let ns_per_iter =
    if sm.sm_iters = 0 then 0.0
    else float_of_int sm.sm_ns /. float_of_int sm.sm_iters
  in
  let disp_per_iter =
    if sm.sm_iters = 0 then 0.0
    else float_of_int sm.sm_dispatches /. float_of_int sm.sm_iters
  in
  Buffer.add_string b
    (Printf.sprintf
       "profile: %d dispatches, %d iterations, %d strips, %.1f ns/iter, %.2f \
        dispatches/iter\n\n"
       sm.sm_dispatches sm.sm_iters sm.sm_strips ns_per_iter disp_per_iter);
  let take n l = List.filteri (fun i _ -> i < n) l in
  let loops =
    Table.create ~title:"hot loops"
      [
        ("loop", Table.Left);
        ("stmt", Table.Left);
        ("dispatches", Table.Right);
        ("share", Table.Right);
        ("disp/iter", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row loops
        [
          r.lr_loop;
          r.lr_stmt;
          Table.cell_int r.lr_dispatches;
          pct r.lr_dispatches sm.sm_dispatches;
          (if sm.sm_iters = 0 then "-"
           else
             Printf.sprintf "%.2f"
               (float_of_int r.lr_dispatches /. float_of_int sm.sm_iters));
        ])
    (take top sm.sm_loops);
  Buffer.add_string b (Table.render loops);
  Buffer.add_string b "\n\n";
  let ops =
    Table.create ~title:"hot opcodes"
      [
        ("opcode", Table.Left);
        ("dispatches", Table.Right);
        ("share", Table.Right);
      ]
  in
  List.iter
    (fun (op, n) ->
      Table.add_row ops [ op; Table.cell_int n; pct n sm.sm_dispatches ])
    (take top sm.sm_opcodes);
  Buffer.add_string b (Table.render ops);
  Buffer.add_char b '\n';
  Buffer.contents b

(* Folded stacks, one line per (loop path, stmt): the coalesced root is
   one frame (it is one flattened loop at runtime), each nested serial
   loop a frame under it, the statement the leaf. Feed to any flamegraph
   renderer that takes Brendan Gregg's folded format. *)
let folded sm =
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      let frames =
        match String.index_opt r.lr_loop '/' with
        | None -> [ r.lr_loop ]
        | Some i ->
            String.sub r.lr_loop 0 i
            :: String.split_on_char '/'
                 (String.sub r.lr_loop (i + 1)
                    (String.length r.lr_loop - i - 1))
      in
      Buffer.add_string b
        (Printf.sprintf "%s %d\n"
           (String.concat ";" (frames @ [ r.lr_stmt ]))
           r.lr_dispatches))
    sm.sm_loops;
  Buffer.contents b
