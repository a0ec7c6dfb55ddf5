(* Unit and property tests for the util library. *)

open Loopcoal
module Im = Intmath

let check = Alcotest.check
let int_t = Alcotest.int

(* ---------- Intmath ---------- *)

let test_cdiv () =
  check int_t "cdiv 7 2" 4 (Im.cdiv 7 2);
  check int_t "cdiv 8 2" 4 (Im.cdiv 8 2);
  check int_t "cdiv 1 5" 1 (Im.cdiv 1 5);
  check int_t "cdiv 0 5" 0 (Im.cdiv 0 5);
  check int_t "cdiv (-7) 2" (-3) (Im.cdiv (-7) 2)

let test_fdiv_emod () =
  check int_t "fdiv 7 2" 3 (Im.fdiv 7 2);
  check int_t "fdiv (-7) 2" (-4) (Im.fdiv (-7) 2);
  check int_t "emod 7 3" 1 (Im.emod 7 3);
  check int_t "emod (-7) 3" 2 (Im.emod (-7) 3);
  check int_t "emod 0 3" 0 (Im.emod 0 3)

(* No intermediate may leave the int range: [a + b - 1] and [-min_int]
   both wrap. *)
let test_div_int_range () =
  check int_t "cdiv max_int 2" ((max_int / 2) + 1) (Im.cdiv max_int 2);
  check int_t "cdiv (max_int - 1) 2" (max_int / 2) (Im.cdiv (max_int - 1) 2);
  check int_t "cdiv max_int max_int" 1 (Im.cdiv max_int max_int);
  check int_t "cdiv min_int 3" (min_int / 3) (Im.cdiv min_int 3);
  check int_t "cdiv min_int 2" (min_int / 2) (Im.cdiv min_int 2);
  check int_t "cdiv min_int max_int" (-1) (Im.cdiv min_int max_int);
  check int_t "fdiv max_int 2" (max_int / 2) (Im.fdiv max_int 2);
  check int_t "fdiv min_int 3" ((min_int / 3) - 1) (Im.fdiv min_int 3);
  check int_t "fdiv min_int 2" (min_int / 2) (Im.fdiv min_int 2);
  check int_t "fdiv min_int max_int" (-2) (Im.fdiv min_int max_int);
  check int_t "fdiv (-1) max_int" (-1) (Im.fdiv (-1) max_int)

let test_cdiv_raises () =
  Alcotest.check_raises "cdiv by zero"
    (Invalid_argument "Intmath.cdiv: divisor must be positive") (fun () ->
      ignore (Im.cdiv 1 0))

let test_products () =
  check int_t "product empty" 1 (Im.product []);
  check int_t "product" 30 (Im.product [ 2; 3; 5 ]);
  Alcotest.(check (list int))
    "suffix products" [ 15; 5; 1 ]
    (Im.suffix_products [ 2; 3; 5 ]);
  Alcotest.(check (list int)) "suffix singleton" [ 1 ] (Im.suffix_products [ 9 ])

let test_pow_ilog2 () =
  check int_t "pow" 243 (Im.pow 3 5);
  check int_t "pow zero exp" 1 (Im.pow 7 0);
  check int_t "ilog2 1" 0 (Im.ilog2 1);
  check int_t "ilog2 31" 4 (Im.ilog2 31);
  check int_t "ilog2 32" 5 (Im.ilog2 32)

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Im.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Im.divisors 1);
  Alcotest.(check (list int)) "divisors 49" [ 1; 7; 49 ] (Im.divisors 49)

let test_factorizations () =
  let fs = Im.factorizations 12 2 in
  Alcotest.(check int) "count 12 into 2" 6 (List.length fs);
  assert (List.for_all (fun f -> Im.product f = 12) fs);
  let fs3 = Im.factorizations 8 3 in
  assert (List.for_all (fun f -> Im.product f = 8) fs3);
  Alcotest.(check int) "count 8 into 3" 10 (List.length fs3)

let prop_cdiv_fdiv =
  QCheck.Test.make ~name:"cdiv a b = -fdiv (-a) b" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) -> Im.cdiv a b = -Im.fdiv (-a) b)

let prop_cdiv_exact =
  QCheck.Test.make ~name:"cdiv is smallest q with q*b >= a" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) ->
      let q = Im.cdiv a b in
      (q * b >= a) && ((q - 1) * b < a))

let prop_emod_range =
  QCheck.Test.make ~name:"emod in [0, b)" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) ->
      let r = Im.emod a b in
      0 <= r && r < b && (a - r) mod b = 0)

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check int_t "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 10 in
    assert (v >= 0 && v < 10);
    let w = Prng.int_in t 5 9 in
    assert (w >= 5 && w <= 9);
    let f = Prng.float t 2.5 in
    assert (f >= 0.0 && f < 2.5)
  done

let test_prng_split_independent () =
  let parent = Prng.create 1 in
  let child = Prng.split parent in
  let xs = List.init 20 (fun _ -> Prng.int parent 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int child 1_000_000) in
  assert (xs <> ys)

let test_prng_shuffle_permutes () =
  let t = Prng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ---------- Stats ---------- *)

let feq = Alcotest.float 1e-9

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check feq "mean" 2.5 s.Stats.mean;
  check feq "min" 1.0 s.Stats.min;
  check feq "max" 4.0 s.Stats.max;
  check int_t "n" 4 s.Stats.n;
  check feq "stddev" (sqrt (5.0 /. 3.0)) s.Stats.stddev

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0; 50.0 ] in
  check feq "p0" 10.0 (Stats.percentile xs 0.0);
  check feq "p50" 30.0 (Stats.percentile xs 0.5);
  check feq "p100" 50.0 (Stats.percentile xs 1.0);
  check feq "p25" 20.0 (Stats.percentile xs 0.25)

let test_stats_imbalance () =
  check feq "balanced" 0.0 (Stats.imbalance [ 5.0; 5.0; 5.0 ]);
  check feq "imbalanced" 0.5 (Stats.imbalance [ 5.0; 10.0 ]);
  check feq "zero max" 0.0 (Stats.imbalance [ 0.0; 0.0 ])

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Stats.mean []))

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~title:"T" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  assert (String.length s > 0);
  (* right-aligned column: "22" should appear right-padded to width 2 *)
  assert (String.index_opt s 'T' = Some 0)

let test_table_wrong_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_ascii_plot () =
  let s =
    Ascii_plot.render ~width:20 ~height:5 ~x_label:"x" ~y_label:"y"
      [
        { Ascii_plot.label = "f"; glyph = '*'; points = [ (0.0, 0.0); (1.0, 1.0) ] };
      ]
  in
  assert (String.contains s '*')

let suite =
  [
    Alcotest.test_case "cdiv basics" `Quick test_cdiv;
    Alcotest.test_case "fdiv/emod" `Quick test_fdiv_emod;
    Alcotest.test_case "cdiv/fdiv at the int range edges" `Quick
      test_div_int_range;
    Alcotest.test_case "cdiv rejects zero divisor" `Quick test_cdiv_raises;
    Alcotest.test_case "products" `Quick test_products;
    Alcotest.test_case "pow/ilog2" `Quick test_pow_ilog2;
    Alcotest.test_case "divisors" `Quick test_divisors;
    Alcotest.test_case "factorizations" `Quick test_factorizations;
    Gen.to_alcotest prop_cdiv_fdiv;
    Gen.to_alcotest prop_cdiv_exact;
    Gen.to_alcotest prop_emod_range;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats imbalance" `Quick test_stats_imbalance;
    Alcotest.test_case "stats empty raises" `Quick test_stats_empty_raises;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_wrong_arity;
    Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
  ]

let test_table_csv () =
  let t = Table.create ~title:"T" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "with,comma"; "a\"b" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv"
    "# T\nname,v\nplain,1\n\"with,comma\",\"a\"\"b\"\n" csv

let suite = suite @ [ Alcotest.test_case "table csv" `Quick test_table_csv ]
