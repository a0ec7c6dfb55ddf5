type t = { n : int; p : int; proc_of : int -> int }

let check ~n ~p =
  if n < 0 then invalid_arg "Static: n must be >= 0";
  if p < 1 then invalid_arg "Static: p must be >= 1"

(* Balanced blocks: processors 0..r-1 own q+1 iterations, the rest q,
   where n = q*p + r. *)
let block ~n ~p =
  check ~n ~p;
  let q = n / p and r = n mod p in
  let proc_of j =
    if j < 1 || j > n then invalid_arg "Static.proc_of: out of range";
    let j0 = j - 1 in
    let big = r * (q + 1) in
    if j0 < big then j0 / (q + 1) else r + ((j0 - big) / max q 1)
  in
  { n; p; proc_of }

let block_chunk ~n ~p q =
  check ~n ~p;
  let b = n / p and r = n mod p in
  let len = if q < r then b + 1 else b in
  if q < 0 || q >= p || len = 0 then None
  else Some ((q * b) + min q r + 1, len)

let cyclic ~n ~p =
  check ~n ~p;
  let proc_of j =
    if j < 1 || j > n then invalid_arg "Static.proc_of: out of range";
    (j - 1) mod p
  in
  { n; p; proc_of }

let of_policy policy ~n ~p =
  match (policy : Policy.t) with
  | Static_block -> Some (block ~n ~p)
  | Static_cyclic -> Some (cyclic ~n ~p)
  | Self_sched _ | Gss | Factoring | Trapezoid -> None

let iterations_of t q =
  let acc = ref [] in
  for j = t.n downto 1 do
    if t.proc_of j = q then acc := j :: !acc
  done;
  !acc

let counts t =
  let c = Array.make t.p 0 in
  for j = 1 to t.n do
    let q = t.proc_of j in
    c.(q) <- c.(q) + 1
  done;
  c

let chunks_of t q =
  let runs = ref [] and start = ref 0 and len = ref 0 in
  let flush () =
    if !len > 0 then runs := (!start, !len) :: !runs;
    len := 0
  in
  for j = 1 to t.n do
    if t.proc_of j = q then
      if !len > 0 && !start + !len = j then incr len
      else begin
        flush ();
        start := j;
        len := 1
      end
  done;
  flush ();
  List.rev !runs

let is_partition t =
  let ok = ref true in
  for j = 1 to t.n do
    let q = t.proc_of j in
    if q < 0 || q >= t.p then ok := false
  done;
  (* proc_of is a function, so "exactly one owner" is structural; the
     range check is the real content. *)
  !ok
