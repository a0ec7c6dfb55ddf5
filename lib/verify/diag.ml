type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type t = {
  code : string;
  severity : severity;
  region : int;
  subject : string;
  message : string;
}

let make ~code ~severity ~region ~subject message =
  { code; severity; region; subject; message }

(* The catalog is the CLI contract: codes are stable, severities fixed.
   Adding a code means documenting it in docs/VERIFY.md. *)
let catalog =
  [
    ("LC001", Error, "write/write race on an array between distinct iterations");
    ("LC002", Error, "read/write race on an array between distinct iterations");
    ( "LC003",
      Error,
      "scalar written in a parallel region is neither privatizable nor a \
       recognized reduction" );
    ("LC004", Warning, "subscript is not affine; reference cannot be analysed");
    ( "LC005",
      Warning,
      "division/modulus of the parallel index is not a recognized \
       index-recovery form" );
    ("LC006", Info, "parallel region proven race-free");
    ( "LC007",
      Info,
      "coalesced-index recovery recognized as a mixed-radix decomposition" );
    ("LC008", Info, "recognized reduction, merged by the runtime");
    ( "LC009",
      Warning,
      "parallel index shadowed or reassigned inside the region; analysis \
       skipped" );
    ( "LC010",
      Error,
      "tape reads a register with no prior definition on some path" );
    ( "LC011",
      Error,
      "malformed tape instruction: register-file or access-id bounds, jump \
       shape, or counter-slot range violated" );
    ( "LC012",
      Error,
      "access offset form inconsistent or not covered by the once-per-fork \
       range check" );
    ("LC013", Error, "tape provenance incomplete: instruction without a source tag");
    ( "LC014",
      Error,
      "optimized tape's per-array read/write footprint differs from the \
       unoptimized tape's" );
    ( "LC015",
      Info,
      "strip-mined serial loop recognized: subscripts rewritten over a \
       bounded block remainder" );
  ]

let severity_of_code c =
  match List.find_opt (fun (c', _, _) -> String.equal c c') catalog with
  | Some (_, s, _) -> Some s
  | None -> None

let counts diags =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) diags

let worst diags =
  List.fold_left
    (fun acc d ->
      match (acc, d.severity) with
      | Some Error, _ | _, Error -> Some Error
      | Some Warning, _ | _, Warning -> Some Warning
      | _ -> Some Info)
    None diags

(* ---------- reports ---------- *)

type region_info = { ri_ordinal : int; ri_label : string; ri_iters : int option }

type report = { target : string; regions : region_info list; diags : t list }

let render_text r =
  let buf = Buffer.create 256 in
  let outf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  outf "%s: checked %d parallel region(s)" r.target (List.length r.regions);
  List.iter
    (fun ri ->
      let iters =
        match ri.ri_iters with
        | Some n -> Printf.sprintf ", %d iterations" n
        | None -> ""
      in
      outf "region %d (%s%s):" ri.ri_ordinal ri.ri_label iters;
      List.iter
        (fun d ->
          if d.region = ri.ri_ordinal then
            let subj = if d.subject = "" then "" else d.subject ^ ": " in
            outf "  %s %s: %s%s" d.code (severity_to_string d.severity) subj
              d.message)
        r.diags)
    r.regions;
  List.iter
    (fun d ->
      if d.region = 0 then
        let subj = if d.subject = "" then "" else d.subject ^ ": " in
        outf "%s %s: %s%s" d.code (severity_to_string d.severity) subj d.message)
    r.diags;
  let e, w, _ = counts r.diags in
  outf "summary: %d region(s), %d error(s), %d warning(s)"
    (List.length r.regions) e w;
  Buffer.contents buf

(* Hand-rolled JSON with a fixed key order: the golden tests pin the
   exact bytes, so no dependency on a JSON library (none is vendored). *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json r =
  let buf = Buffer.create 512 in
  let out s = Buffer.add_string buf s in
  let outf fmt = Printf.ksprintf out fmt in
  out "{\n";
  outf "  \"target\": \"%s\",\n" (json_escape r.target);
  out "  \"regions\": [";
  List.iteri
    (fun i ri ->
      if i > 0 then out ",";
      out "\n    ";
      outf "{ \"ordinal\": %d, \"label\": \"%s\", \"iterations\": %s }"
        ri.ri_ordinal (json_escape ri.ri_label)
        (match ri.ri_iters with Some n -> string_of_int n | None -> "null"))
    r.regions;
  if r.regions <> [] then out "\n  ";
  out "],\n";
  out "  \"diagnostics\": [";
  List.iteri
    (fun i d ->
      if i > 0 then out ",";
      out "\n    ";
      outf
        "{ \"code\": \"%s\", \"severity\": \"%s\", \"region\": %d, \
         \"subject\": \"%s\", \"message\": \"%s\" }"
        (json_escape d.code)
        (severity_to_string d.severity)
        d.region (json_escape d.subject) (json_escape d.message))
    r.diags;
  if r.diags <> [] then out "\n  ";
  out "],\n";
  let e, w, i = counts r.diags in
  outf
    "  \"summary\": { \"regions\": %d, \"errors\": %d, \"warnings\": %d, \
     \"infos\": %d }\n"
    (List.length r.regions) e w i;
  out "}\n";
  Buffer.contents buf
