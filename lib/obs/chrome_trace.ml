module Policy = Loopcoal_sched.Policy

(* Timestamps: trace_event wants microseconds; keep them relative to the
   first fork so the viewer opens at t=0. *)
let us_of origin t_ns = float_of_int (t_ns - origin) /. 1e3

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_buffer ?(profile = []) buf (tr : Trace.t) =
  let origin =
    if Array.length tr.Trace.forks = 0 then 0
    else
      Array.fold_left
        (fun acc (f : Trace.fork) -> min acc f.Trace.f_t0)
        max_int tr.Trace.forks
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
        \"args\":{\"name\":\"loopcoal runtime\"}}");
  for w = 0 to tr.Trace.p - 1 do
    emit
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
          \"args\":{\"name\":\"domain %d\"}}"
         w w)
  done;
  emit
    (Printf.sprintf
       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
        \"args\":{\"name\":\"fork-join\"}}"
       tr.Trace.p);
  Array.iter
    (fun (f : Trace.fork) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s n=%d\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
            \"pid\":0,\"tid\":%d,\"args\":{\"epoch\":%d,\"policy\":\"%s\",\
            \"k\":%d,\"n\":%d,\"p\":%d}}"
           (escape (Policy.name f.Trace.f_policy))
           f.Trace.f_n (us_of origin f.Trace.f_t0)
           (us_of f.Trace.f_t0 f.Trace.f_t1)
           tr.Trace.p f.Trace.f_epoch
           (escape (Policy.name f.Trace.f_policy))
           f.Trace.f_k f.Trace.f_n f.Trace.f_p))
    tr.Trace.forks;
  Array.iter
    (fun (c : Trace.chunk) ->
      emit
        (Printf.sprintf
           "{\"name\":\"chunk [%d,%d]\",\"ph\":\"X\",\"ts\":%.3f,\
            \"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"epoch\":%d,\
            \"start\":%d,\"len\":%d}}"
           c.Trace.start
           (c.Trace.start + c.Trace.len - 1)
           (us_of origin c.Trace.t0) (us_of c.Trace.t0 c.Trace.t1)
           c.Trace.worker c.Trace.epoch c.Trace.start c.Trace.len))
    tr.Trace.chunks;
  (* Profiler track: one row below the fork-join lane, one span per hot
     loop starting at t=0 with duration proportional to its dispatch
     share of the traced wall span — a bar chart the trace viewer
     renders natively, with the exact counts in the args. *)
  if profile <> [] then begin
    let tid = tr.Trace.p + 1 in
    emit
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
          \"args\":{\"name\":\"profiler\"}}"
         tid);
    let span_ns =
      Array.fold_left
        (fun acc (f : Trace.fork) -> max acc (f.Trace.f_t1 - origin))
        0 tr.Trace.forks
    in
    let total =
      List.fold_left (fun acc (_, n) -> acc + n) 0 profile
    in
    List.iter
      (fun (label, n) ->
        let share =
          if total = 0 then 0.0 else float_of_int n /. float_of_int total
        in
        let dur =
          if span_ns > 0 then share *. (float_of_int span_ns /. 1e3)
          else float_of_int n /. 1e3
        in
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":0,\"dur\":%.3f,\"pid\":0,\
              \"tid\":%d,\"args\":{\"dispatches\":%d,\"share\":%.4f}}"
             (escape label) dur tid n share))
      profile
  end;
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let rec add = function
    | [] -> ()
    | [ e ] -> Buffer.add_string buf e
    | e :: rest ->
        Buffer.add_string buf e;
        Buffer.add_string buf ",\n";
        add rest
  in
  add (List.rev !events);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let to_string ?profile tr =
  let buf = Buffer.create 4096 in
  to_buffer ?profile buf tr;
  Buffer.contents buf

let to_file ?profile path tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?profile tr))
