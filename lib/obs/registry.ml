(* Process-wide metrics registry.

   One global, mutex-protected table of named metrics. Handles are
   looked up (or created) once, at producer-module initialization; the
   hot operations — [incr], [add], [observe] — touch only the handle's
   own atomics, never the table or the lock, so producers on any domain
   record concurrently without coordination.

   Three metric kinds:
   - counters: monotone [int Atomic.t], for event totals;
   - gauges: last-write-wins [float], for levels;
   - histograms: log2-bucketed value distributions. [observe v] bumps
     bucket [bits v] (0 for v <= 0, else the value's bit length), so
     bucket b >= 1 covers [2^(b-1), 2^b). Percentiles walk the
     cumulative counts and report the matched bucket's lower bound —
     a <= 2x underestimate by construction, which is the right trade
     for nanosecond timings spanning six orders of magnitude.

   Naming scheme: dot-separated [component.event[_unit]], e.g.
   [plan_cache.hit], [tapeopt.licm.ns]. The registry renders and dumps
   metrics sorted by name, so output order is stable regardless of
   module initialization order. *)

type counter = { c_v : int Atomic.t }
type gauge = { g_v : float Atomic.t }

type histogram = {
  h_buckets : int Atomic.t array;  (** length [nbuckets] *)
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type metric = Mcounter of counter | Mgauge of gauge | Mhist of histogram

let nbuckets = 64
let table : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let register name make cast =
  Mutex.lock lock;
  let m =
    match Hashtbl.find_opt table name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace table name m;
        m
  in
  Mutex.unlock lock;
  match cast m with
  | Some h -> h
  | None -> invalid_arg ("Registry: metric kind mismatch for " ^ name)

let counter name =
  register name
    (fun () -> Mcounter { c_v = Atomic.make 0 })
    (function Mcounter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> Mgauge { g_v = Atomic.make 0.0 })
    (function Mgauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      Mhist
        {
          h_buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0;
          h_max = Atomic.make 0;
        })
    (function Mhist h -> Some h | _ -> None)

let incr c = Atomic.incr c.c_v

let add c n =
  ignore (Atomic.fetch_and_add c.c_v n : int)

let value c = Atomic.get c.c_v
let set g v = Atomic.set g.g_v v
let get g = Atomic.get g.g_v

(* Bit length: bits 0 = 0, bits 1 = 1, bits [2,3] = 2, ... *)
let bits v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let bucket_of v = if v <= 0 then 0 else min (bits v) (nbuckets - 1)
let bucket_floor b = if b = 0 then 0 else 1 lsl (b - 1)

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let observe h v =
  Atomic.incr h.h_buckets.(bucket_of v);
  ignore (Atomic.fetch_and_add h.h_sum v : int);
  atomic_max h.h_max v

let now_ns = Trace.now

let time h f =
  let t0 = now_ns () in
  let finally () = observe h (now_ns () - t0) in
  Fun.protect ~finally f

type hstat = { count : int; sum : int; p50 : int; p90 : int; p99 : int; max_v : int }

let hist_count h =
  let n = ref 0 in
  Array.iter (fun b -> n := !n + Atomic.get b) h.h_buckets;
  !n

let percentile h q =
  let total = hist_count h in
  if total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let acc = ref 0 and res = ref 0 and found = ref false in
    Array.iteri
      (fun b c ->
        if not !found then begin
          acc := !acc + Atomic.get c;
          if !acc >= rank then begin
            res := bucket_floor b;
            found := true
          end
        end)
      h.h_buckets;
    !res
  end

let hstats h =
  {
    count = hist_count h;
    sum = Atomic.get h.h_sum;
    p50 = percentile h 0.50;
    p90 = percentile h 0.90;
    p99 = percentile h 0.99;
    max_v = Atomic.get h.h_max;
  }

type stat = Counter_v of int | Gauge_v of float | Hist_v of hstat

let snapshot () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | Mcounter c -> Counter_v (value c)
           | Mgauge g -> Gauge_v (get g)
           | Mhist h -> Hist_v (hstats h) ))

let render () =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, s) ->
      match s with
      | Counter_v v -> Buffer.add_string b (Printf.sprintf "counter %-32s %d\n" name v)
      | Gauge_v v -> Buffer.add_string b (Printf.sprintf "gauge   %-32s %g\n" name v)
      | Hist_v h ->
          Buffer.add_string b
            (Printf.sprintf
               "hist    %-32s count=%d sum=%d p50=%d p90=%d p99=%d max=%d\n" name
               h.count h.sum h.p50 h.p90 h.p99 h.max_v))
    (snapshot ());
  Buffer.contents b

(* Metric names are code-controlled ([a-z0-9._]); escape defensively
   anyway so the dump is always valid JSON. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json () =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b (Printf.sprintf "\n  \"%s\": " (json_escape name));
      (match s with
      | Counter_v v ->
          Buffer.add_string b
            (Printf.sprintf "{\"type\": \"counter\", \"value\": %d}" v)
      | Gauge_v v ->
          Buffer.add_string b
            (Printf.sprintf "{\"type\": \"gauge\", \"value\": %.17g}" v)
      | Hist_v h ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"type\": \"histogram\", \"count\": %d, \"sum\": %d, \"p50\": \
                %d, \"p90\": %d, \"p99\": %d, \"max\": %d}"
               h.count h.sum h.p50 h.p90 h.p99 h.max_v)))
    (snapshot ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Mcounter c -> Atomic.set c.c_v 0
      | Mgauge g -> Atomic.set g.g_v 0.0
      | Mhist h ->
          Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
          Atomic.set h.h_sum 0;
          Atomic.set h.h_max 0)
    table;
  Mutex.unlock lock
