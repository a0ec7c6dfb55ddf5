(* [/] truncates toward zero, which is the floor for [a >= 0] and the
   ceiling for [a <= 0]; the other sign is shifted by one toward zero
   first, so no intermediate leaves the int range. *)
let fdiv a b =
  if b <= 0 then invalid_arg "Intmath.fdiv: divisor must be positive";
  if a >= 0 then a / b else ((a + 1) / b) - 1

let cdiv a b =
  if b <= 0 then invalid_arg "Intmath.cdiv: divisor must be positive";
  if a > 0 then ((a - 1) / b) + 1 else a / b

let emod a b =
  if b <= 0 then invalid_arg "Intmath.emod: divisor must be positive";
  let r = a mod b in
  if r < 0 then r + b else r

let checked_mul a b =
  if a < 0 || b < 0 then invalid_arg "Intmath.checked_mul: negative operand";
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / a <> b then invalid_arg "Intmath.checked_mul: overflow" else p

let product ns = List.fold_left checked_mul 1 ns

let suffix_products ns =
  (* Walk from the right, accumulating the running product. *)
  let _, ts =
    List.fold_right
      (fun n (acc, ts) -> (checked_mul n acc, acc :: ts))
      ns (1, [])
  in
  ts

let pow b e =
  if e < 0 then invalid_arg "Intmath.pow: negative exponent";
  let rec go acc e = if e = 0 then acc else go (checked_mul acc b) (e - 1) in
  go 1 e

let ilog2 n =
  if n < 1 then invalid_arg "Intmath.ilog2: argument must be >= 1";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let divisors n =
  if n < 1 then invalid_arg "Intmath.divisors: argument must be >= 1";
  let rec go d small large =
    if d * d > n then List.rev_append small large
    else if n mod d = 0 then
      let large = if d * d = n then large else (n / d) :: large in
      go (d + 1) (d :: small) large
    else go (d + 1) small large
  in
  go 1 [] []

let rec factorizations p m =
  if p < 1 || m < 1 then invalid_arg "Intmath.factorizations: bad arguments";
  if m = 1 then [ [ p ] ]
  else
    List.concat_map
      (fun d -> List.map (fun rest -> d :: rest) (factorizations (p / d) (m - 1)))
      (divisors p)

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x
