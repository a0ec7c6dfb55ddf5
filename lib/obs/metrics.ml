module Policy = Loopcoal_sched.Policy
module Chunks = Loopcoal_sched.Chunks

type fork_metrics = {
  epoch : int;
  policy : Policy.t;
  n : int;
  p : int;
  chunks_dispatched : int;
  chunks_per_worker : int array;
  iterations : int;
  wall_ns : int;
  busy_ns : int array;
  idle_ns : int array;
  imbalance : float;
  sync_ops : int;
  sync_ops_per_iter : float;
  fork_latency_ns : int;
  join_latency_ns : int;
  dispatch_wait_ns : int array;
}

type t = {
  forks : fork_metrics list;
  total_chunks : int;
  total_iters : int;
  total_wall_ns : int;
  total_sync_ops : int;
  imbalance : float;
}

let chunks_of_epoch (tr : Trace.t) epoch =
  Array.to_list tr.Trace.chunks
  |> List.filter (fun c -> c.Trace.epoch = epoch)

let fork_metrics_of (tr : Trace.t) (f : Trace.fork) =
  let chunks = chunks_of_epoch tr f.Trace.f_epoch in
  let p = f.Trace.f_p in
  let busy = Array.make p 0 in
  let per_worker = Array.make p 0 in
  let last_end = Array.make p f.Trace.f_t0 in
  let iterations = ref 0 in
  let first_start = ref max_int in
  let latest_end = ref f.Trace.f_t0 in
  List.iter
    (fun (c : Trace.chunk) ->
      let w = c.Trace.worker in
      if w < p then begin
        busy.(w) <- busy.(w) + (c.Trace.t1 - c.Trace.t0);
        per_worker.(w) <- per_worker.(w) + 1;
        if c.Trace.t1 > last_end.(w) then last_end.(w) <- c.Trace.t1
      end;
      iterations := !iterations + c.Trace.len;
      if c.Trace.t0 < !first_start then first_start := c.Trace.t0;
      if c.Trace.t1 > !latest_end then latest_end := c.Trace.t1)
    chunks;
  let wall_ns = f.Trace.f_t1 - f.Trace.f_t0 in
  let idle = Array.map (fun b -> max 0 (wall_ns - b)) busy in
  let dispatch_wait =
    Array.init p (fun w -> max 0 (last_end.(w) - f.Trace.f_t0 - busy.(w)))
  in
  let max_busy = Array.fold_left max 0 busy in
  let mean_busy =
    float_of_int (Array.fold_left ( + ) 0 busy) /. float_of_int (max 1 p)
  in
  let imbalance =
    if mean_busy <= 0.0 then 1.0 else float_of_int max_busy /. mean_busy
  in
  let sync_ops =
    Chunks.sync_ops f.Trace.f_policy ~k:f.Trace.f_k ~n:f.Trace.f_n ~p
  in
  {
    epoch = f.Trace.f_epoch;
    policy = f.Trace.f_policy;
    n = f.Trace.f_n;
    p;
    chunks_dispatched = List.length chunks;
    chunks_per_worker = per_worker;
    iterations = !iterations;
    wall_ns;
    busy_ns = busy;
    idle_ns = idle;
    imbalance;
    sync_ops;
    sync_ops_per_iter =
      (if f.Trace.f_n = 0 then 0.0
       else float_of_int sync_ops /. float_of_int f.Trace.f_n);
    fork_latency_ns =
      (if !first_start = max_int then wall_ns
       else max 0 (!first_start - f.Trace.f_t0));
    join_latency_ns = max 0 (f.Trace.f_t1 - !latest_end);
    dispatch_wait_ns = dispatch_wait;
  }

let of_trace (tr : Trace.t) =
  let forks = Array.to_list tr.Trace.forks |> List.map (fork_metrics_of tr) in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 forks in
  let imbalance =
    match
      List.fold_left
        (fun best m ->
          match best with
          | Some b when b.iterations >= m.iterations -> best
          | _ -> Some m)
        None forks
    with
    | Some m -> m.imbalance
    | None -> 1.0
  in
  {
    forks;
    total_chunks = sum (fun m -> m.chunks_dispatched);
    total_iters = sum (fun m -> m.iterations);
    total_wall_ns = sum (fun m -> m.wall_ns);
    total_sync_ops = sum (fun m -> m.sync_ops);
    imbalance;
  }

let check_partition (tr : Trace.t) =
  let check_fork (f : Trace.fork) =
    let chunks =
      chunks_of_epoch tr f.Trace.f_epoch
      |> List.sort (fun (a : Trace.chunk) b -> compare a.Trace.start b.Trace.start)
    in
    let rec walk expected = function
      | [] ->
          if expected = f.Trace.f_n + 1 then Ok ()
          else
            Error
              (Printf.sprintf
                 "epoch %d (%s, n=%d): chunks stop at iteration %d"
                 f.Trace.f_epoch
                 (Policy.name f.Trace.f_policy)
                 f.Trace.f_n (expected - 1))
      | (c : Trace.chunk) :: rest ->
          if c.Trace.len <= 0 then
            Error
              (Printf.sprintf "epoch %d: chunk at %d has length %d"
                 f.Trace.f_epoch c.Trace.start c.Trace.len)
          else if c.Trace.start < expected then
            Error
              (Printf.sprintf
                 "epoch %d: chunk at %d overlaps (expected start %d)"
                 f.Trace.f_epoch c.Trace.start expected)
          else if c.Trace.start > expected then
            Error
              (Printf.sprintf
                 "epoch %d: gap before chunk at %d (expected start %d)"
                 f.Trace.f_epoch c.Trace.start expected)
          else walk (expected + c.Trace.len) rest
    in
    walk 1 chunks
  in
  Array.to_list tr.Trace.forks
  |> List.fold_left
       (fun acc f -> match acc with Error _ -> acc | Ok () -> check_fork f)
       (Ok ())
