module Policy = Loopcoal_sched.Policy

let now () = Int64.to_int (Monotonic_clock.now ())

type chunk = {
  worker : int;
  epoch : int;
  start : int;
  len : int;
  t0 : int;
  t1 : int;
}

type fork = {
  f_epoch : int;
  f_policy : Policy.t;
  f_k : int;
  f_n : int;
  f_p : int;
  f_t0 : int;
  f_t1 : int;
}

type t = { p : int; chunks : chunk array; forks : fork array }

(* Worker-private structure-of-arrays buffer: appends touch only this
   worker's arrays, so recording is contention-free; ints (including the
   nanosecond stamps) keep the arrays unboxed. *)
type buf = {
  mutable cap : int;
  mutable count : int;
  mutable epochs : int array;
  mutable starts : int array;
  mutable lens : int array;
  mutable t0s : int array;
  mutable t1s : int array;
}

type open_fork = {
  o_epoch : int;
  o_policy : Policy.t;
  o_k : int;
  o_n : int;
  o_p : int;
  o_t0 : int;
}

type collector = {
  p : int;
  bufs : buf array;
  mutable forks_rev : fork list;
  mutable open_ : open_fork option;
  mutable next_epoch : int;
}

let make_buf capacity =
  {
    cap = capacity;
    count = 0;
    epochs = Array.make capacity 0;
    starts = Array.make capacity 0;
    lens = Array.make capacity 0;
    t0s = Array.make capacity 0;
    t1s = Array.make capacity 0;
  }

let create ?(capacity = 1024) ~p () =
  if p < 1 then invalid_arg "Trace.create: p must be >= 1";
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    p;
    bufs = Array.init p (fun _ -> make_buf capacity);
    forks_rev = [];
    open_ = None;
    next_epoch = 0;
  }

let fork_begin c ~policy ~k ~n ~p =
  (match c.open_ with
  | Some _ -> invalid_arg "Trace.fork_begin: a fork is already open"
  | None -> ());
  c.open_ <-
    Some
      {
        o_epoch = c.next_epoch;
        o_policy = policy;
        o_k = k;
        o_n = n;
        o_p = p;
        o_t0 = now ();
      };
  c.next_epoch <- c.next_epoch + 1

let fork_end c =
  match c.open_ with
  | None -> invalid_arg "Trace.fork_end: no open fork"
  | Some o ->
      c.forks_rev <-
        {
          f_epoch = o.o_epoch;
          f_policy = o.o_policy;
          f_k = o.o_k;
          f_n = o.o_n;
          f_p = o.o_p;
          f_t0 = o.o_t0;
          f_t1 = now ();
        }
        :: c.forks_rev;
      c.open_ <- None

let grow b =
  let cap = b.cap * 2 in
  let extend a = Array.append a (Array.make b.cap 0) in
  b.epochs <- extend b.epochs;
  b.starts <- extend b.starts;
  b.lens <- extend b.lens;
  b.t0s <- extend b.t0s;
  b.t1s <- extend b.t1s;
  b.cap <- cap

let record c ~worker ~start ~len ~t0 ~t1 =
  let epoch =
    match c.open_ with
    | Some o -> o.o_epoch
    | None -> invalid_arg "Trace.record: no open fork"
  in
  let b = c.bufs.(worker) in
  if b.count = b.cap then grow b;
  let k = b.count in
  b.epochs.(k) <- epoch;
  b.starts.(k) <- start;
  b.lens.(k) <- len;
  b.t0s.(k) <- t0;
  b.t1s.(k) <- t1;
  b.count <- k + 1

let snapshot c =
  let total = Array.fold_left (fun acc b -> acc + b.count) 0 c.bufs in
  let chunks = Array.make total { worker = 0; epoch = 0; start = 0; len = 0; t0 = 0; t1 = 0 } in
  let k = ref 0 in
  Array.iteri
    (fun w b ->
      for i = 0 to b.count - 1 do
        chunks.(!k) <-
          {
            worker = w;
            epoch = b.epochs.(i);
            start = b.starts.(i);
            len = b.lens.(i);
            t0 = b.t0s.(i);
            t1 = b.t1s.(i);
          };
        incr k
      done)
    c.bufs;
  Array.sort
    (fun a b ->
      match compare a.epoch b.epoch with
      | 0 -> ( match compare a.t0 b.t0 with 0 -> compare a.worker b.worker | c -> c)
      | c -> c)
    chunks;
  let forks = Array.of_list (List.rev c.forks_rev) in
  Array.sort (fun a b -> compare a.f_epoch b.f_epoch) forks;
  { p = c.p; chunks; forks }
