module Im = Loopcoal_util.Intmath

let check ~n ~p =
  if n < 0 then invalid_arg "Trapezoid: n must be >= 0";
  if p < 1 then invalid_arg "Trapezoid: p must be >= 1"

let first_chunk ~n ~p =
  check ~n ~p;
  if n = 0 then 0 else max 1 (Im.cdiv n (2 * p))

let decrement ~n ~p =
  let f = first_chunk ~n ~p in
  (* Planned number of steps for a linear decay from f to 1. *)
  let steps = max 1 (Im.cdiv (2 * n) (f + 1)) in
  if n = 0 || steps <= 1 then 0 else (f - 1) / (steps - 1)

let chunk_sizes ~n ~p =
  check ~n ~p;
  let f = first_chunk ~n ~p and dec = decrement ~n ~p in
  let rec go k remaining acc =
    if remaining = 0 then List.rev acc
    else
      let size = min remaining (max 1 (f - (k * dec))) in
      go (k + 1) (remaining - size) (size :: acc)
  in
  go 0 n []

let dispatch_count ~n ~p = List.length (chunk_sizes ~n ~p)
