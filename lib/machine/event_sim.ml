module Sched = Loopcoal_sched
module Im = Loopcoal_util.Intmath

type chunk_record = {
  proc : int;
  start : int;
  len : int;
  issue_time : float;
  cost : float;
}

type result = {
  completion : float;
  busy : float array;
  dispatches : int;
  trace : chunk_record list;
}

let finish (machine : Machine.t) busy trace dispatches proc_times =
  let makespan = Array.fold_left max 0.0 proc_times in
  {
    completion = machine.fork_cost +. makespan +. machine.barrier_cost;
    busy;
    dispatches;
    trace = List.rev trace;
  }

let simulate_static machine (assignment : Sched.Static.t) ~chunk_cost =
  let p = assignment.Sched.Static.p in
  let busy = Array.make p 0.0 in
  let times = Array.make p 0.0 in
  let trace = ref [] in
  let dispatches = ref 0 in
  for q = 0 to p - 1 do
    let runs = Sched.Static.chunks_of assignment q in
    if runs <> [] then begin
      incr dispatches;
      times.(q) <- machine.Machine.dispatch_cost;
      List.iter
        (fun (start, len) ->
          let cost = chunk_cost ~start ~len in
          busy.(q) <- busy.(q) +. cost;
          times.(q) <- times.(q) +. cost;
          trace :=
            { proc = q; start; len; issue_time = times.(q) -. cost; cost }
            :: !trace)
        runs
    end
  done;
  finish machine busy !trace !dispatches times

let simulate_dynamic machine ~policy ~n ~chunk_cost =
  let p = machine.Machine.p in
  let busy = Array.make p 0.0 in
  let times = Array.make p 0.0 in
  let trace = ref [] in
  let dispatches = ref 0 in
  let queue_free = ref 0.0 in
  let next = ref 1 in
  (* Factoring hands out batches of p equal chunks and trapezoid decays
     linearly; both carry state across dispatches. *)
  let batch_left = ref 0 in
  let batch_chunk = ref 0 in
  let tss_step = ref 0 in
  let tss_first = Sched.Trapezoid.first_chunk ~n ~p in
  let tss_dec = Sched.Trapezoid.decrement ~n ~p in
  let chunk_for_remaining remaining =
    match (policy : Sched.Policy.t) with
    | Self_sched c -> min c remaining
    | Gss -> Im.cdiv remaining p
    | Trapezoid ->
        let size = min remaining (max 1 (tss_first - (!tss_step * tss_dec))) in
        incr tss_step;
        size
    | Factoring ->
        if !batch_left = 0 then begin
          batch_chunk := max 1 (Im.cdiv remaining (2 * p));
          batch_left := p
        end;
        decr batch_left;
        min !batch_chunk remaining
    | Static_block | Static_cyclic -> assert false
  in
  let idlest () =
    let best = ref 0 in
    for q = 1 to p - 1 do
      if times.(q) < times.(!best) then best := q
    done;
    !best
  in
  while !next <= n do
    let q = idlest () in
    let remaining = n - !next + 1 in
    let len = chunk_for_remaining remaining in
    let start = !next in
    next := !next + len;
    incr dispatches;
    let dispatch_done =
      if machine.Machine.serialized_dispatch then begin
        let s = Float.max !queue_free times.(q) in
        queue_free := s +. machine.Machine.dispatch_cost;
        !queue_free
      end
      else times.(q) +. machine.Machine.dispatch_cost
    in
    let cost = chunk_cost ~start ~len in
    busy.(q) <- busy.(q) +. cost;
    times.(q) <- dispatch_done +. cost;
    trace :=
      { proc = q; start; len; issue_time = dispatch_done; cost } :: !trace
  done;
  finish machine busy !trace !dispatches times

let simulate ~machine ~policy ~n ~chunk_cost =
  (match Machine.validate machine with
  | Ok () -> ()
  | Error m -> invalid_arg ("Event_sim.simulate: " ^ m));
  (match Sched.Policy.validate policy with
  | Ok () -> ()
  | Error m -> invalid_arg ("Event_sim.simulate: " ^ m));
  if n < 0 then invalid_arg "Event_sim.simulate: n must be >= 0";
  match Sched.Static.of_policy policy ~n ~p:machine.Machine.p with
  | Some assignment -> simulate_static machine assignment ~chunk_cost
  | None -> simulate_dynamic machine ~policy ~n ~chunk_cost

type doacross_result = {
  d_completion : float;
  d_busy : float array;
  d_syncs : int;
}

let simulate_doacross ~machine ~n ~lambda ~sync_cost ~body_cost =
  (match Machine.validate machine with
  | Ok () -> ()
  | Error m -> invalid_arg ("Event_sim.simulate_doacross: " ^ m));
  if n < 0 then invalid_arg "Event_sim.simulate_doacross: n must be >= 0";
  if lambda < 1 then
    invalid_arg "Event_sim.simulate_doacross: lambda must be >= 1";
  if sync_cost < 0.0 then
    invalid_arg "Event_sim.simulate_doacross: negative sync cost";
  let p = machine.Machine.p in
  let busy = Array.make p 0.0 in
  let proc_free = Array.make p 0.0 in
  let finish = Array.make (max n 1) 0.0 in
  let syncs = ref 0 in
  for i = 1 to n do
    let q = (i - 1) mod p in
    let wait =
      if i > lambda then begin
        incr syncs;
        finish.(i - lambda - 1) +. sync_cost
      end
      else 0.0
    in
    let start = Float.max proc_free.(q) wait in
    let cost = body_cost i in
    busy.(q) <- busy.(q) +. cost;
    proc_free.(q) <- start +. cost;
    finish.(i - 1) <- start +. cost
  done;
  let makespan = Array.fold_left max 0.0 proc_free in
  {
    d_completion = machine.Machine.fork_cost +. makespan +. machine.Machine.barrier_cost;
    d_busy = busy;
    d_syncs = !syncs;
  }

type nested_result = { n_completion : float; n_forks : int }

let simulate_nested ~machine ~shape ~alloc ~body_cost =
  if List.length shape <> List.length alloc then
    invalid_arg "Event_sim.simulate_nested: shape/alloc length mismatch";
  if List.exists (fun n -> n < 0) shape || List.exists (fun p -> p < 1) alloc
  then invalid_arg "Event_sim.simulate_nested: bad shape or alloc";
  let forks = ref 0 in
  (* Completion time of the loop at one nesting level: its nk iterations
     are block-partitioned over pk groups; each iteration of a non-leaf
     level pays the fork and barrier of the next level again. *)
  let rec level prefix dims =
    match dims with
    | [] -> body_cost (List.rev prefix)
    | (nk, 1) :: deeper ->
        (* One processor group: a plain serial loop, no fork or barrier. *)
        let total = ref 0.0 in
        for i = 1 to nk do
          total := !total +. level (i :: prefix) deeper
        done;
        !total
    | (nk, pk) :: deeper ->
        incr forks;
        let assignment = Sched.Static.block ~n:nk ~p:pk in
        let group_time = Array.make pk 0.0 in
        for i = 1 to nk do
          let g = assignment.Sched.Static.proc_of i in
          group_time.(g) <- group_time.(g) +. level (i :: prefix) deeper
        done;
        let makespan = Array.fold_left max 0.0 group_time in
        machine.Machine.fork_cost +. makespan +. machine.Machine.barrier_cost
  in
  let dims = List.combine shape alloc in
  let completion = level [] dims in
  { n_completion = completion; n_forks = !forks }
