type t = {
  p : int;
  dispatch_cost : float;
  fork_cost : float;
  barrier_cost : float;
  serialized_dispatch : bool;
}

let ideal ~p =
  {
    p;
    dispatch_cost = 0.0;
    fork_cost = 0.0;
    barrier_cost = 0.0;
    serialized_dispatch = false;
  }

let default ~p =
  {
    p;
    dispatch_cost = 10.0;
    fork_cost = 250.0;
    barrier_cost = 100.0;
    serialized_dispatch = false;
  }

let no_combining ~p = { (default ~p) with serialized_dispatch = true }

let validate t =
  if t.p < 1 then Error "machine needs at least one processor"
  else if
    t.dispatch_cost < 0.0 || t.fork_cost < 0.0 || t.barrier_cost < 0.0
  then Error "costs must be non-negative"
  else Ok ()

(* ---------- host calibration ---------- *)

type calibration = {
  cal_p : int;  (** processors the calibration run saw *)
  dispatch_ns : float;  (** one fetch&add on the shared counter *)
  fork_ns : float;  (** starting a parallel loop (pool wake) *)
  barrier_ns : float;  (** joining it *)
  tape_op_ns : float;  (** one weighted op on the bytecode tape *)
  closure_op_ns : float;
      (** one weighted op of serial host code (the top-level tape,
          every access checked); the name is kept for [machine.json] *)
}

(* Conservative constants for a machine nobody has calibrated: the
   ratios (serial host code ~3x the plan tape per op, fork/barrier
   microseconds, dispatch tens of ns) are what the bench history shows
   across hosts; the absolute values only set the scale of predicted
   times. *)
let default_calibration =
  {
    cal_p = 1;
    dispatch_ns = 40.0;
    fork_ns = 4000.0;
    barrier_ns = 1500.0;
    tape_op_ns = 3.0;
    closure_op_ns = 9.0;
  }

let machine_of_calibration ~p cal =
  {
    p;
    dispatch_cost = cal.dispatch_ns;
    fork_cost = cal.fork_ns;
    barrier_cost = cal.barrier_ns;
    serialized_dispatch = false;
  }

let validate_calibration c =
  if c.cal_p < 1 then Error "calibration: p must be >= 1"
  else if
    List.exists
      (fun v -> (not (Float.is_finite v)) || v < 0.0)
      [ c.dispatch_ns; c.fork_ns; c.barrier_ns; c.tape_op_ns; c.closure_op_ns ]
  then Error "calibration: costs must be finite and non-negative"
  else if c.tape_op_ns <= 0.0 || c.closure_op_ns <= 0.0 then
    Error "calibration: per-op costs must be positive"
  else Ok ()

let calibration_to_json c =
  Printf.sprintf
    "{\n\
    \  \"p\": %d,\n\
    \  \"dispatch_ns\": %.3f,\n\
    \  \"fork_ns\": %.3f,\n\
    \  \"barrier_ns\": %.3f,\n\
    \  \"tape_op_ns\": %.3f,\n\
    \  \"closure_op_ns\": %.3f\n\
     }\n"
    c.cal_p c.dispatch_ns c.fork_ns c.barrier_ns c.tape_op_ns c.closure_op_ns

(* Fixed-shape parser for the file [calibration_to_json] writes: a flat
   object of numeric fields. No vendored JSON library (the repo pins
   golden bytes elsewhere by hand-rolling), so parse by scanning
   "key" : number pairs; unknown keys are ignored, missing keys keep
   their defaults. *)
let calibration_of_json s =
  let n = String.length s in
  let fields = ref [] in
  let i = ref 0 in
  (try
     while !i < n do
       match String.index_from s !i '"' with
       | exception Not_found -> i := n
       | q1 -> (
           match String.index_from s (q1 + 1) '"' with
           | exception Not_found -> i := n
           | q2 ->
               let key = String.sub s (q1 + 1) (q2 - q1 - 1) in
               let j = ref (q2 + 1) in
               while
                 !j < n && (s.[!j] = ' ' || s.[!j] = '\t' || s.[!j] = ':')
               do
                 incr j
               done;
               let start = !j in
               while
                 !j < n
                 && (match s.[!j] with
                    | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
                    | _ -> false)
               do
                 incr j
               done;
               (if !j > start then
                  match float_of_string_opt (String.sub s start (!j - start)) with
                  | Some v -> fields := (key, v) :: !fields
                  | None -> ());
               i := !j + 1)
     done
   with _ -> ());
  match !fields with
  | [] -> Error "calibration: no numeric fields found"
  | fs ->
      let get key dflt =
        match List.assoc_opt key fs with Some v -> v | None -> dflt
      in
      let d = default_calibration in
      let c =
        {
          cal_p = int_of_float (get "p" (float_of_int d.cal_p));
          dispatch_ns = get "dispatch_ns" d.dispatch_ns;
          fork_ns = get "fork_ns" d.fork_ns;
          barrier_ns = get "barrier_ns" d.barrier_ns;
          tape_op_ns = get "tape_op_ns" d.tape_op_ns;
          closure_op_ns = get "closure_op_ns" d.closure_op_ns;
        }
      in
      Result.map (fun () -> c) (validate_calibration c)

let load_calibration file =
  match open_in_bin file with
  | exception Sys_error m -> Error m
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in_noerr ic;
      calibration_of_json s
