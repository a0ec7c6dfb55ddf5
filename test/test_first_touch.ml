(* First-touch allocation: [Compile.make_env] leaves unfilled the box of
   each array that the array's first mention overwrites before any read
   ([First_touch]). Every test here fills those elements with a NaN of a
   distinctive payload ([Exec.run_compiled ~unfilled]), so an element
   the analysis wrongly leaves unfilled and the program then reads, or
   never writes, shows up in the arrays. Arrays must equal [Eval]'s bit
   for bit on bytecode and native, at 1 and 2 domains, under static
   block and GSS; a program [Eval] faults on must fault too. *)

open Loopcoal
module Exec = Runtime.Exec
module Compile = Runtime.Compile
module Natgen = Runtime.Natgen
module Registry = Loopcoal_obs.Registry

let poison = Int64.float_of_bits 0x7ff8_dead_beef_c0deL
let native = lazy (Natgen.available () = Ok ())

let engines ~native_too =
  Exec.Bytecode
  :: (if native_too && Lazy.force native then [ Exec.Native ] else [])

let engine_name = function Exec.Native -> "native" | _ -> "bytecode"

(* Run [p] on every configuration and compare with [Eval]. Arrays are
   compared always; scalars at 1 domain, where the last iteration is
   the sequentially last one. [domains] is [[1]] for programs whose
   parallel loops may race. With [exact], a fault must carry [Eval]'s
   message. A program that does not compile is skipped. *)
let check ?(array_init = 0.0) ?(domains = [ 1; 2 ]) ?(native_too = true)
    ?(exact = false) ~what p =
  let want =
    match Eval.run ~array_init p with
    | st -> Ok st
    | exception Eval.Runtime_error m -> Error m
  in
  match Compile.compile p with
  | exception Compile.Error _ -> ()
  | t ->
      List.iter
        (fun engine ->
          List.iter
            (fun d ->
              List.iter
                (fun policy ->
                  let fail fmt =
                    Printf.ksprintf
                      (fun m ->
                        Alcotest.failf
                          "%s (%s, %d domain(s), %s, init %g): %s\n%s" what
                          (engine_name engine) d (Policy.name policy)
                          array_init m
                          (Pretty.program_to_string p))
                      fmt
                  in
                  let got =
                    match
                      Exec.run_compiled ~array_init ~unfilled:poison ~domains:d
                        ~policy ~engine t
                    with
                    | o -> Ok o
                    | exception Compile.Error m -> Error m
                  in
                  match (want, got) with
                  | Ok st, Ok o ->
                      let arrays, _ = Eval.dump st in
                      let same (n1, a) (n2, b) =
                        String.equal n1 n2 && Test_bytecode.bits_equal a b
                      in
                      if not (List.equal same arrays o.Exec.arrays) then
                        fail "arrays differ from Eval"
                      else if
                        d = 1
                        && not
                             (Exec.agrees_with_interpreter ~compare_scalars:true
                                o st)
                      then fail "scalars differ from Eval"
                  | Error m, Error m' ->
                      if exact && not (String.equal m m') then
                        fail "raised %S, Eval raised %S" m' m
                  | Error m, Ok _ -> fail "ran, Eval raised %S" m
                  | Ok _, Error m -> fail "raised %S, Eval ran" m)
                [ Policy.Static_block; Policy.Gss ])
            domains)
        (engines ~native_too)

let parse what src =
  match Driver.load_string src with
  | Ok p -> p
  | Error m -> Alcotest.failf "%s: %s" what m

(* ---------- adversarial cases ---------- *)

(* Each case: a name, a program, and the boxes [First_touch] must find.
   Together they cover every condition of the rule, both ways. *)
let cases =
  [
    ( "covered 1-D, read after",
      {|program
 real X[8]
 real B[8]
begin
 doall i = 1, 8
  X[i] = i * 0.5
 end
 doall i = 1, 8
  B[i] = X[i] + 1.0
 end
end|},
      [ ("X", [ (1, 8) ]); ("B", [ (1, 8) ]) ] );
    ( "read before the nest",
      {|program
 real X[8]
 real B[8]
begin
 B[1] = X[2]
 doall i = 1, 8
  X[i] = i
 end
 do i = 2, 8
  B[i] = B[i - 1] + X[i]
 end
end|},
      [] );
    ( "read in an earlier condition",
      {|program
 real X[4]
 real s = 0.0
begin
 if X[3] = 0.0 then
  s = 1.0
 end
 doall i = 1, 4
  X[i] = s
 end
end|},
      [] );
    ( "nest under do",
      {|program
 real X[6]
begin
 do t = 1, 2
  doall i = 1, 6
   X[i] = X[i] + i * t
  end
 end
end|},
      [] );
    ( "nest under if, not taken",
      {|program
 real X[6]
 int n = 0
begin
 if n > 0 then
  doall i = 1, 6
   X[i] = 1.0
  end
 end
end|},
      [] );
    ( "store under if",
      {|program
 real X[6]
begin
 doall i = 1, 6
  if i > 3 then
   X[i] = 1.0
  end
 end
end|},
      [] );
    ( "second mention: X[i] = X[i] + 1",
      {|program
 real X[6]
begin
 doall i = 1, 6
  X[i] = X[i] + 1.0
 end
end|},
      [] );
    ( "second mention: B[i] = X[i + 1]",
      {|program
 real X[7]
 real B[6]
begin
 do i = 1, 6
  X[i] = 2.0
  B[i] = X[i + 1]
 end
end|},
      [ ("B", [ (1, 6) ]) ] );
    ( "second mention in a later nest statement",
      {|program
 real X[5, 5]
begin
 doall i = 1, 5
  doall j = 1, 5
   X[i, j] = i
  end
  X[i, 1] = X[i, 2] + 1.0
 end
end|},
      [] );
    ( "scalar bound",
      {|program
 real X[6]
 int n = 6
begin
 doall i = 1, n
  X[i] = 1.0
 end
end|},
      [] );
    ( "step 2",
      {|program
 real X[6]
begin
 doall i = 1, 6, 2
  X[i] = 1.0
 end
end|},
      [] );
    ( "step 2, one iteration",
      {|program
 real X[6]
begin
 doall i = 3, 4, 2
  X[i] = 1.0
 end
end|},
      [ ("X", [ (3, 3) ]) ] );
    ( "zero-trip nest",
      {|program
 real X[6]
 real Y[3, 4]
begin
 doall i = 1, 0
  X[i] = 1.0
 end
 doall i = 1, 3
  doall j = 5, 4
   Y[i, j] = 1.0
  end
 end
end|},
      [] );
    ( "box past the extents",
      {|program
 real X[8]
begin
 doall i = 1, 9
  X[i] = 1.0
 end
end|},
      [ ("X", [ (1, 9) ]) ] );
    ( "box before the extents",
      {|program
 real X[8]
begin
 doall i = 0, 4
  X[i] = 1.0
 end
end|},
      [ ("X", [ (0, 4) ]) ] );
    ( "fault before the store",
      {|program
 real X[4]
 int z = 0
 int n = 0
begin
 doall i = 1, 4
  n = 1 / z
  X[i] = 1.0
 end
end|},
      [ ("X", [ (1, 4) ]) ] );
    ( "permuted subscripts",
      {|program
 real Y[6, 4]
 real Z[4, 6]
begin
 doall i = 1, 4
  doall j = 1, 6
   Y[j, i] = i * 10 + j
  end
 end
 doall i = 1, 4
  do j = 1, 6
   Z[i, j] = Y[j, i]
  end
 end
end|},
      [ ("Y", [ (1, 6); (1, 4) ]); ("Z", [ (1, 4); (1, 6) ]) ] );
    ( "offset subscripts",
      {|program
 real X[8]
 real Y[8]
 real W[8]
begin
 doall i = 1, 5
  X[i + 1] = i
 end
 doall i = 2, 6
  Y[i - 1] = i
 end
 doall i = 3, 4
  W[2 + i] = i
 end
end|},
      [ ("X", [ (2, 6) ]); ("Y", [ (1, 5) ]); ("W", [ (5, 6) ]) ] );
    ( "interior box, border read",
      {|program
 real Y[6, 6]
 real Z[6, 6]
begin
 doall i = 2, 5
  doall j = 2, 5
   Y[i, j] = i + j
  end
 end
 doall i = 1, 6
  doall j = 1, 6
   Z[i, j] = Y[i, j] * 2.0
  end
 end
end|},
      [ ("Y", [ (2, 5); (2, 5) ]); ("Z", [ (1, 6); (1, 6) ]) ] );
    ( "index used twice",
      {|program
 real Y[4, 4]
begin
 do i = 1, 4
  do j = 1, 4
   Y[i, i] = j
  end
 end
end|},
      [] );
    ( "3-D, serial middle level",
      {|program
 real U[3, 4, 2]
begin
 doall i = 1, 3
  do j = 1, 4
   doall k = 1, 2
    U[i, j, k] = i * 100 + j * 10 + k
   end
  end
 end
end|},
      [ ("U", [ (1, 3); (1, 4); (1, 2) ]) ] );
  ]

let show_boxes bs =
  String.concat "; "
    (List.map
       (fun (x, b) ->
         Printf.sprintf "%s[%s]" x
           (String.concat ", "
              (List.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo hi) b)))
       bs)

let test_boxes () =
  List.iter
    (fun (what, src, want) ->
      let got =
        List.map
          (fun (x, b) -> (x, Array.to_list b))
          (First_touch.boxes (parse what src))
      in
      Alcotest.(check string) what (show_boxes want) (show_boxes got))
    cases

let test_adversarial () =
  List.iter
    (fun (what, src, _) ->
      let p = parse what src in
      List.iter
        (fun array_init -> check ~array_init ~exact:true ~what p)
        [ 0.0; 1.0 ])
    cases

(* The stencil kernel's B is filled only on its border, and each run
   counts the interior under [exec.fill_elided]. *)
let test_fill_elided () =
  let n = 7 in
  let t = Compile.compile (Kernels.stencil ~n) in
  let interior = (n - 2) * (n - 2) in
  let a_full = n * n in
  Alcotest.(check int) "elements left unfilled" (a_full + interior)
    (Compile.fill_elided t);
  let c = Registry.counter "exec.fill_elided" in
  let h = Registry.histogram "exec.alloc_ns" in
  let v0 = Registry.value c and n0 = (Registry.hstats h).Registry.count in
  ignore (Exec.run_compiled t : Exec.outcome);
  ignore (Exec.run_compiled t : Exec.outcome);
  Alcotest.(check int) "counter per run" (2 * (a_full + interior))
    (Registry.value c - v0);
  Alcotest.(check int) "one allocation sample per run" 2
    ((Registry.hstats h).Registry.count - n0);
  let env = Compile.make_env ~unfilled:poison t in
  let b = List.assoc "B" (Compile.read_arrays t env) in
  Array.iteri
    (fun k x ->
      let i = (k / n) + 1 and j = (k mod n) + 1 in
      let inside = i > 1 && i < n && j > 1 && j < n in
      if Test_bytecode.bits_equal [| x |] [| poison |] <> inside then
        Alcotest.failf "B[%d, %d] %s" i j
          (if inside then "filled" else "left unfilled"))
    b

(* ---------- corpora ---------- *)

let test_kernels () =
  List.iter
    (fun name ->
      let p = (Option.get (Kernels.by_name name)) () in
      check ~what:("kernel " ^ name) p)
    Kernels.all_names

let example_files () =
  let dir = "../examples/programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".loop")
  |> List.sort String.compare
  |> List.map (fun f -> (f, Filename.concat dir f))

let test_examples () =
  let files = example_files () in
  Alcotest.(check bool) "example corpus found" true (List.length files >= 10);
  List.iter
    (fun (f, path) ->
      let p = parse f (In_channel.with_open_bin path In_channel.input_all) in
      check ~what:f p)
    files

(* Random first-touch nests: a perfect nest of one to three levels,
   serial or doall, with small constant bounds (some levels empty, some
   boxes past the extents) and unit or step-2 levels, storing [X]
   through a random permutation of its indexes with random offsets.
   Sometimes a statement before the nest reads or writes [X], the nest
   mentions it a second time, or the store reads a private scalar. A
   last nest copies all of [X] to [Y], so every element of [X] reaches
   the result. *)
let first_touch_gen : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let* depth = int_range 1 3 in
  let idx = List.filteri (fun k _ -> k < depth) [ "i"; "j"; "k" ] in
  let* dims = list_repeat depth (int_range 2 5) in
  let* levels =
    flatten_l
      (List.map
         (fun d ->
           let* lo = int_range 0 3 in
           let* trips = frequency [ (1, return 0); (8, int_range 1 d) ] in
           let* step = frequency [ (6, return 1); (1, return 2) ] in
           let+ par = oneofl [ Ast.Serial; Ast.Parallel ] in
           (lo, lo + ((trips - 1) * step), step, par))
         dims)
  in
  let* order = shuffle_l idx in
  let* offsets =
    list_repeat depth (frequency [ (3, return 0); (2, int_range (-1) 2) ])
  in
  let subs =
    List.map2
      (fun v c -> if c = 0 then Ast.Var v else Ast.Bin (Add, Var v, Int c))
      order offsets
  in
  let ones = List.map (fun _ -> Ast.Int 1) idx in
  let* before =
    frequency
      [
        (4, return []);
        (1, return [ Ast.Assign (Scalar "s", Load ("X", ones)) ]);
        (1, return [ Ast.Assign (Elem ("X", ones), Real 3.0) ]);
      ]
  in
  let value = Ast.Bin (Add, Var (List.hd idx), Real 0.5) in
  let* body =
    frequency
      [
        (4, return [ Ast.Assign (Elem ("X", subs), value) ]);
        ( 1,
          return
            [
              Ast.Assign (Elem ("X", subs), Bin (Add, Load ("X", subs), value));
            ] );
        ( 1,
          return
            [
              Ast.Assign (Scalar "t", value);
              Ast.Assign (Elem ("X", subs), Var "t");
            ] );
      ]
  in
  let loop index (lo, hi, step, par) body =
    Ast.For { index; lo = Int lo; hi = Int hi; step = Int step; par; body }
  in
  let rec build = function
    | [] -> body
    | (v, level) :: rest -> [ loop v level (build rest) ]
  in
  let all = List.map (fun v -> Ast.Var v) idx in
  let rec copy = function
    | [] -> [ Ast.Assign (Elem ("Y", all), Load ("X", all)) ]
    | (v, d) :: rest -> [ loop v (1, d, 1, Ast.Parallel) (copy rest) ]
  in
  return
    {
      Ast.arrays =
        [ { Ast.arr_name = "X"; dims }; { Ast.arr_name = "Y"; dims } ];
      scalars =
        [
          { Ast.sc_name = "s"; sc_kind = Kreal; sc_init = 0.0 };
          { Ast.sc_name = "t"; sc_kind = Kreal; sc_init = 0.0 };
        ];
      body =
        before @ build (List.combine idx levels) @ copy (List.combine idx dims);
    }

(* Random programs: [Gen.program_gen] and [Gen.perfect_nest_gen] may
   race, so they run at one domain; the verifier's race-free
   [Gen.verifiable_program_gen] ones and [first_touch_gen]'s run at two
   as well. The first few of each also run natively. *)
let test_generated () =
  let rand = Random.State.make [| 0xF1257; 0x70C4 |] in
  let covered = ref 0 in
  let run ~what ~domains k p =
    if List.mem_assoc "X" (First_touch.boxes p) then incr covered;
    List.iter
      (fun array_init ->
        check ~array_init ~domains ~native_too:(k < 4) ~what p)
      [ 0.0; 1.0 ]
  in
  for k = 0 to 39 do
    run ~what:"program_gen" ~domains:[ 1 ] k (Gen.program_gen rand);
    run ~what:"perfect_nest_gen" ~domains:[ 1 ] k (Gen.perfect_nest_gen rand);
    let p = Gen.verifiable_program_gen rand in
    let domains =
      if Verify.race_free (Verify.check_program p) then [ 1; 2 ] else [ 1 ]
    in
    run ~what:"verifiable_program_gen" ~domains k p
  done;
  for k = 0 to 199 do
    run ~what:"first_touch_gen" ~domains:[ 1; 2 ] (k / 10)
      (first_touch_gen rand)
  done;
  if !covered < 50 then
    Alcotest.failf "only %d generated programs cover X" !covered

(* Every non-identity search candidate of every kernel: tiled, chunked
   and coalesced nests with their index recovery. Transpose's and
   stencil's also run natively. *)
let test_candidates () =
  let applied = ref 0 in
  List.iter
    (fun name ->
      let prog = (Option.get (Kernels.by_name name)) () in
      List.iter
        (fun r ->
          if not (Recipe.is_identity r) then
            match Recipe.apply r prog with
            | Error _ -> ()
            | Ok p ->
                incr applied;
                check
                  ~native_too:(name = "transpose" || name = "stencil")
                  ~what:(Printf.sprintf "%s [%s]" name (Recipe.to_string r))
                  p)
        (Search.enumerate ~procs:2 ~budget:16 prog))
    Kernels.all_names;
  if !applied < 50 then Alcotest.failf "only %d candidates applied" !applied


(* ---------- a store first in its iteration ---------- *)

(* The first mention of [X] in the innermost body is an unconditional
   top-level store, and every later mention in the iteration is at the
   same subscripts: matmul's [C]. A later mention at another subscript,
   a read before the store, the store under [if], and a loop rebinding a
   nest index each keep [X] filled. *)
let store_first_cases =
  let nest body =
    Printf.sprintf
      "program\n\
      \ real X[3, 5]\n\
      \ real A[3, 3]\n\
      \ real B[3, 4]\n\
       begin\n\
      \ doall i = 1, 3\n\
      \  doall k = 1, 3\n\
      \   A[i, k] = i - k * 0.5\n\
      \  end\n\
      \ end\n\
      \ doall i = 1, 3\n\
      \  doall j = 1, 4\n\
       %s\
      \  end\n\
      \ end\n\
       end\n"
      body
  in
  let a = ("A", [ (1, 3); (1, 3) ]) and b = ("B", [ (1, 3); (1, 4) ]) in
  let x = ("X", [ (1, 3); (1, 4) ]) in
  [
    ( "store, then a serial loop at the same subscripts",
      nest
        "   B[i, j] = j\n\
        \   X[i, j] = 0.0\n\
        \   do k = 1, 3\n\
        \    X[i, j] = X[i, j] + A[i, k] * B[i, j]\n\
        \   end\n",
      [ x; a; b ],
      [ 1; 2 ] );
    ( "a later mention at another subscript",
      nest
        "   X[i, j] = 0.0\n\
        \   do k = 1, 3\n\
        \    X[i, j] = X[i, j] + A[i, k]\n\
        \   end\n\
        \   B[i, j] = X[i, 5]\n",
      [ a; b ],
      [ 1; 2 ] );
    ( "a read before the store",
      nest
        "   B[i, j] = X[i, j]\n\
        \   X[i, j] = 1.0\n\
        \   X[i, j] = X[i, j] * 2.0\n",
      [ a; b ],
      [ 1; 2 ] );
    ( "the store reads the element",
      nest "   X[i, j] = X[i, j] + 1.0\n   B[i, j] = X[i, j]\n",
      [ a; b ],
      [ 1; 2 ] );
    ( "the store under if",
      nest
        "   if i > 1 then\n\
        \    X[i, j] = 0.0\n\
        \   end\n\
        \   X[i, j] = X[i, j] + 1.0\n\
        \   B[i, j] = 1.0\n",
      [ a; b ],
      [ 1; 2 ] );
    ( "a loop rebinding a nest index",
      nest
        "   X[i, j] = 0.0\n\
        \   do i = 1, 2\n\
        \    X[i, j] = X[i, j] + 1.0\n\
        \   end\n\
        \   B[i, j] = 1.0\n",
      [ a; b ],
      (* every [i] writes the rebound rows: racy *)
      [ 1 ] );
  ]

let test_store_first () =
  List.iter
    (fun (what, src, want, domains) ->
      let p = parse what src in
      Alcotest.(check string)
        what (show_boxes want)
        (show_boxes
           (List.map
              (fun (x, b) -> (x, Array.to_list b))
              (First_touch.boxes p)));
      List.iter
        (fun array_init -> check ~array_init ~domains ~exact:true ~what p)
        [ 0.0; 1.0 ])
    store_first_cases;
  let mm = Kernels.matmul ~ra:5 ~ca:4 ~cb:6 in
  Alcotest.(check (option (list (pair int int))))
    "matmul: C covered"
    (Some [ (1, 5); (1, 6) ])
    (Option.map Array.to_list (List.assoc_opt "C" (First_touch.boxes mm)));
  let env = Compile.make_env ~unfilled:poison (Compile.compile mm) in
  Alcotest.(check bool)
    "matmul: C left unfilled" true
    (Array.for_all
       (fun x -> Test_bytecode.bits_equal [| x |] [| poison |])
       env.Compile.arrays.(2));
  check ~exact:true ~what:"matmul" mm

let suite =
  [
    Alcotest.test_case "boxes of the adversarial cases" `Quick test_boxes;
    Alcotest.test_case "adversarial cases = Eval, init 0 and 1" `Quick
      test_adversarial;
    Alcotest.test_case "stencil: border filled, interior counted" `Quick
      test_fill_elided;
    Alcotest.test_case "kernels = Eval with unfilled poisoned" `Quick
      test_kernels;
    Alcotest.test_case "examples = Eval with unfilled poisoned" `Quick
      test_examples;
    Alcotest.test_case "generated programs = Eval with unfilled poisoned"
      `Quick test_generated;
    Alcotest.test_case "search candidates = Eval with unfilled poisoned"
      `Quick test_candidates;
    Alcotest.test_case "a store first in its iteration: matmul's C unfilled"
      `Quick test_store_first;
  ]
