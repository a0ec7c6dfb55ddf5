type token =
  | Tint of int
  | Treal of float
  | Tident of string
  | Tkeyword of string
  | Tpunct of string
  | Teof

exception Lex_error of string * int

let keywords =
  [
    "program"; "begin"; "end"; "do"; "doall"; "if"; "then"; "else"; "int";
    "real"; "and"; "or"; "not"; "true"; "ceildiv"; "min"; "max";
  ]

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let tokenize_with_positions src =
  let n = String.length src in
  let toks = ref [] in
  let pos = ref 0 in
  let start = ref 0 in
  let emit t = toks := (t, !start) :: !toks in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let take_while pred =
    let start = !pos in
    while !pos < n && pred src.[!pos] do
      advance ()
    done;
    String.sub src start (!pos - start)
  in
  while !pos < n do
    start := !pos;
    match src.[!pos] with
    | ' ' | '\t' | '\n' | '\r' -> advance ()
    | '#' ->
        while !pos < n && src.[!pos] <> '\n' do
          advance ()
        done
    | c when is_digit c ->
        let start = !pos in
        let _ = take_while is_digit in
        let is_real = ref false in
        (if peek () = Some '.' then begin
           is_real := true;
           advance ();
           ignore (take_while is_digit)
         end);
        (match peek () with
        | Some ('e' | 'E') ->
            is_real := true;
            advance ();
            (match peek () with
            | Some ('+' | '-') -> advance ()
            | _ -> ());
            let digits = take_while is_digit in
            if digits = "" then raise (Lex_error ("malformed exponent", !pos))
        | _ -> ());
        let text = String.sub src start (!pos - start) in
        if !is_real then emit (Treal (float_of_string text))
        else (
          match int_of_string_opt text with
          | Some v -> emit (Tint v)
          | None -> raise (Lex_error ("integer literal out of range", start)))
    | c when is_alpha c ->
        let word = take_while is_alnum in
        if List.mem word keywords then emit (Tkeyword word)
        else emit (Tident word)
    | '<' ->
        advance ();
        (match peek () with
        | Some '=' ->
            advance ();
            emit (Tpunct "<=")
        | Some '>' ->
            advance ();
            emit (Tpunct "<>")
        | _ -> emit (Tpunct "<"))
    | '>' ->
        advance ();
        (match peek () with
        | Some '=' ->
            advance ();
            emit (Tpunct ">=")
        | _ -> emit (Tpunct ">"))
    | ('=' | '+' | '-' | '*' | '/' | '%' | '(' | ')' | '[' | ']' | ',') as c ->
        advance ();
        emit (Tpunct (String.make 1 c))
    | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !pos))
  done;
  start := n;
  emit Teof;
  Array.of_list (List.rev !toks)

let tokenize src = Array.map fst (tokenize_with_positions src)

let position src offset =
  let line = ref 1 and col = ref 1 in
  let stop = min offset (String.length src) in
  for i = 0 to stop - 1 do
    if src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let token_to_string = function
  | Tint n -> string_of_int n
  | Treal x -> string_of_float x
  | Tident s -> s
  | Tkeyword s -> s
  | Tpunct s -> s
  | Teof -> "<eof>"
