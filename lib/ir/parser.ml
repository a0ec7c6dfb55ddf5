open Ast

exception Parse_error of string

type cursor = {
  toks : Lexer.token array;
  positions : int array;
  src : string;
  mutable at : int;
}

let fail c msg =
  let line, col = Lexer.position c.src c.positions.(c.at) in
  raise
    (Parse_error
       (Printf.sprintf "%s (line %d, column %d, at %S)" msg line col
          (Lexer.token_to_string c.toks.(c.at))))

let peek c = c.toks.(c.at)
let advance c = c.at <- c.at + 1

let expect_punct c s =
  match peek c with
  | Lexer.Tpunct p when p = s -> advance c
  | _ -> fail c (Printf.sprintf "expected %S" s)

let expect_keyword c s =
  match peek c with
  | Lexer.Tkeyword k when k = s -> advance c
  | _ -> fail c (Printf.sprintf "expected keyword %S" s)

let accept_punct c s =
  match peek c with
  | Lexer.Tpunct p when p = s ->
      advance c;
      true
  | _ -> false

let accept_keyword c s =
  match peek c with
  | Lexer.Tkeyword k when k = s ->
      advance c;
      true
  | _ -> false

let expect_ident c =
  match peek c with
  | Lexer.Tident v ->
      advance c;
      v
  | _ -> fail c "expected identifier"

let expect_int c =
  match peek c with
  | Lexer.Tint n ->
      advance c;
      n
  | _ -> fail c "expected integer literal"

(* ---------- expressions ---------- *)

let rec parse_expr_prec c = parse_additive c

and parse_additive c =
  let rec go acc =
    if accept_punct c "+" then go (Bin (Add, acc, parse_term c))
    else if accept_punct c "-" then go (Bin (Sub, acc, parse_term c))
    else acc
  in
  go (parse_term c)

and parse_term c =
  let rec go acc =
    if accept_punct c "*" then go (Bin (Mul, acc, parse_factor c))
    else if accept_punct c "/" then go (Bin (Div, acc, parse_factor c))
    else if accept_punct c "%" then go (Bin (Mod, acc, parse_factor c))
    else acc
  in
  go (parse_factor c)

and parse_factor c =
  if accept_punct c "-" then
    (* Fold a negated literal into the literal so printed negative
       constants round-trip structurally. *)
    match parse_factor c with
    | Int n -> Int (-n)
    | Real x -> Real (-.x)
    | e -> Neg e
  else parse_atom c

and parse_atom c =
  match peek c with
  | Lexer.Tint n ->
      advance c;
      Int n
  | Lexer.Treal x ->
      advance c;
      Real x
  | Lexer.Tident v ->
      advance c;
      if accept_punct c "[" then begin
        let subs = parse_expr_list c in
        expect_punct c "]";
        Load (v, subs)
      end
      else Var v
  | Lexer.Tkeyword (("ceildiv" | "min" | "max") as fn) ->
      advance c;
      expect_punct c "(";
      let a = parse_expr_prec c in
      expect_punct c ",";
      let b = parse_expr_prec c in
      expect_punct c ")";
      let op =
        match fn with
        | "ceildiv" -> Cdiv
        | "min" -> Min
        | _ -> Max
      in
      Bin (op, a, b)
  | Lexer.Tpunct "(" ->
      advance c;
      let e = parse_expr_prec c in
      expect_punct c ")";
      e
  | _ -> fail c "expected expression"

and parse_expr_list c =
  let e = parse_expr_prec c in
  if accept_punct c "," then e :: parse_expr_list c else [ e ]

(* ---------- conditions ----------

   A leading "(" is ambiguous between a parenthesised condition and a
   parenthesised expression inside a comparison, so [parse_catom]
   backtracks: it first tries a comparison and falls back to a grouped
   condition. *)

let parse_relop c =
  match peek c with
  | Lexer.Tpunct "=" ->
      advance c;
      Eq
  | Lexer.Tpunct "<>" ->
      advance c;
      Ne
  | Lexer.Tpunct "<" ->
      advance c;
      Lt
  | Lexer.Tpunct "<=" ->
      advance c;
      Le
  | Lexer.Tpunct ">" ->
      advance c;
      Gt
  | Lexer.Tpunct ">=" ->
      advance c;
      Ge
  | _ -> fail c "expected comparison operator"

let rec parse_cond c =
  let rec go acc =
    if accept_keyword c "or" then go (Or (acc, parse_conj c)) else acc
  in
  go (parse_conj c)

and parse_conj c =
  let rec go acc =
    if accept_keyword c "and" then go (And (acc, parse_catom c)) else acc
  in
  go (parse_catom c)

and parse_catom c =
  if accept_keyword c "not" then Not (parse_catom c)
  else if accept_keyword c "true" then True
  else
    let saved = c.at in
    match
      let a = parse_expr_prec c in
      let op = parse_relop c in
      let b = parse_expr_prec c in
      Cmp (op, a, b)
    with
    | cmp -> cmp
    | exception Parse_error _ ->
        c.at <- saved;
        expect_punct c "(";
        let inner = parse_cond c in
        expect_punct c ")";
        inner

(* ---------- statements ---------- *)

let block_ends c =
  match peek c with
  | Lexer.Tkeyword ("end" | "else") | Lexer.Teof -> true
  | _ -> false

let rec parse_block_toks c =
  if block_ends c then []
  else
    let s = parse_stmt c in
    s :: parse_block_toks c

and parse_stmt c =
  match peek c with
  | Lexer.Tkeyword (("do" | "doall") as kw) ->
      advance c;
      let par = if kw = "doall" then Parallel else Serial in
      let index = expect_ident c in
      expect_punct c "=";
      let lo = parse_expr_prec c in
      expect_punct c ",";
      let hi = parse_expr_prec c in
      let step = if accept_punct c "," then parse_expr_prec c else Int 1 in
      let body = parse_block_toks c in
      expect_keyword c "end";
      For { index; lo; hi; step; par; body }
  | Lexer.Tkeyword "if" ->
      advance c;
      let cond = parse_cond c in
      expect_keyword c "then";
      let t = parse_block_toks c in
      let f =
        if accept_keyword c "else" then parse_block_toks c else []
      in
      expect_keyword c "end";
      If (cond, t, f)
  | Lexer.Tident v ->
      advance c;
      let lv =
        if accept_punct c "[" then begin
          let subs = parse_expr_list c in
          expect_punct c "]";
          Elem (v, subs)
        end
        else Scalar v
      in
      expect_punct c "=";
      let rhs = parse_expr_prec c in
      Assign (lv, rhs)
  | _ -> fail c "expected statement"

(* ---------- declarations and programs ---------- *)

let parse_decls c =
  let arrays = ref [] and scalars = ref [] in
  let rec go () =
    match peek c with
    | Lexer.Tkeyword "real" ->
        advance c;
        let name = expect_ident c in
        if accept_punct c "[" then begin
          let dims = ref [ expect_int c ] in
          while accept_punct c "," do
            dims := expect_int c :: !dims
          done;
          expect_punct c "]";
          arrays := { arr_name = name; dims = List.rev !dims } :: !arrays
        end
        else begin
          expect_punct c "=";
          let v =
            match peek c with
            | Lexer.Treal x ->
                advance c;
                x
            | Lexer.Tint n ->
                advance c;
                float_of_int n
            | Lexer.Tpunct "-" ->
                advance c;
                (match peek c with
                | Lexer.Treal x ->
                    advance c;
                    -.x
                | Lexer.Tint n ->
                    advance c;
                    float_of_int (-n)
                | _ -> fail c "expected numeric literal")
            | _ -> fail c "expected numeric literal"
          in
          scalars := { sc_name = name; sc_kind = Kreal; sc_init = v } :: !scalars
        end;
        go ()
    | Lexer.Tkeyword "int" ->
        advance c;
        let name = expect_ident c in
        expect_punct c "=";
        let v =
          if accept_punct c "-" then -expect_int c else expect_int c
        in
        (* [sc_init] is a float: beyond 2^53 it would silently round *)
        if abs v > 1 lsl 53 then
          fail c
            (Printf.sprintf
               "int scalar %s: initializer %d exceeds 2^53 in magnitude" name
               v);
        scalars :=
          { sc_name = name; sc_kind = Kint; sc_init = float_of_int v }
          :: !scalars;
        go ()
    | _ -> ()
  in
  go ();
  (List.rev !arrays, List.rev !scalars)

let cursor_of_string src =
  let pairs = Lexer.tokenize_with_positions src in
  {
    toks = Array.map fst pairs;
    positions = Array.map snd pairs;
    src;
    at = 0;
  }

let expect_eof c =
  match peek c with
  | Lexer.Teof -> ()
  | _ -> fail c "trailing input"

let parse_program src =
  let c = cursor_of_string src in
  expect_keyword c "program";
  let arrays, scalars = parse_decls c in
  expect_keyword c "begin";
  let body = parse_block_toks c in
  expect_keyword c "end";
  expect_eof c;
  { arrays; scalars; body }

let parse_expr src =
  let c = cursor_of_string src in
  let e = parse_expr_prec c in
  expect_eof c;
  e

let parse_block src =
  let c = cursor_of_string src in
  let b = parse_block_toks c in
  expect_eof c;
  b
