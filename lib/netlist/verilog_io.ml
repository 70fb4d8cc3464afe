(* A small recursive-descent parser over a hand-rolled tokenizer: ample
   for the flat primitive netlists benchmark suites distribute. *)

type token =
  | T_ident of string
  | T_lparen
  | T_rparen
  | T_comma
  | T_semi
  | T_module
  | T_endmodule
  | T_input
  | T_output
  | T_wire

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let keyword_of = function
  | "module" -> Some T_module
  | "endmodule" -> Some T_endmodule
  | "input" -> Some T_input
  | "output" -> Some T_output
  | "wire" -> Some T_wire
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'

let is_digit c = c >= '0' && c <= '9'

let tokenize source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 in
  let push t = tokens := (t, !line) :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '/' then begin
      while !i < n && source.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if source.[!i] = '\n' then incr line;
        if !i + 1 < n && source.[!i] = '*' && source.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then fail "line %d: unterminated block comment" !line
    end
    else if c = '(' then (push T_lparen; incr i)
    else if c = ')' then (push T_rparen; incr i)
    else if c = ',' then (push T_comma; incr i)
    else if c = ';' then (push T_semi; incr i)
    else if c = '[' then fail "line %d: vector ports/nets are not supported" !line
    else if c = '\\' then begin
      (* Escaped identifier: up to whitespace. *)
      let start = !i + 1 in
      let j = ref start in
      while !j < n && source.[!j] <> ' ' && source.[!j] <> '\t' && source.[!j] <> '\n' do
        incr j
      done;
      if !j = start then fail "line %d: empty escaped identifier" !line;
      push (T_ident (String.sub source start (!j - start)));
      i := !j
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char source.[!i] do
        incr i
      done;
      let word = String.sub source start (!i - start) in
      match keyword_of word with Some k -> push k | None -> push (T_ident word)
    end
    else if is_digit c then begin
      (* Bare numeric net names appear in some converted netlists. *)
      let start = !i in
      while !i < n && (is_digit source.[!i] || source.[!i] = '\'') do
        incr i
      done;
      push (T_ident (String.sub source start (!i - start)))
    end
    else fail "line %d: unexpected character %C" !line c
  done;
  List.rev !tokens

let primitive_of = function
  | "and" -> Some Logic_build.And
  | "nand" -> Some Logic_build.Nand
  | "or" -> Some Logic_build.Or
  | "nor" -> Some Logic_build.Nor
  | "xor" -> Some Logic_build.Xor
  | "xnor" -> Some Logic_build.Xnor
  | "not" -> Some Logic_build.Not
  | "buf" -> Some Logic_build.Buf
  | _ -> None

(* Parse one comma-separated identifier list up to the semicolon. *)
let rec parse_ident_list tokens acc =
  match tokens with
  | (T_ident name, _) :: rest ->
    (match rest with
     | (T_comma, _) :: more -> parse_ident_list more (name :: acc)
     | (T_semi, _) :: more -> (List.rev (name :: acc), more)
     | (_, line) :: _ -> fail "line %d: expected ',' or ';' in declaration" line
     | [] -> fail "unexpected end of file in declaration")
  | (_, line) :: _ -> fail "line %d: expected identifier" line
  | [] -> fail "unexpected end of file in declaration"

let parse_instance func tokens =
  (* Optional instance name, then (out, in...) ; *)
  let tokens =
    match tokens with
    | (T_ident _, _) :: ((T_lparen, _) :: _ as rest) -> rest
    | _ -> tokens
  in
  match tokens with
  | (T_lparen, _) :: rest ->
    let rec connections toks acc =
      match toks with
      | (T_ident name, _) :: (T_comma, _) :: more -> connections more (name :: acc)
      | (T_ident name, _) :: (T_rparen, _) :: (T_semi, _) :: more ->
        (List.rev (name :: acc), more)
      | (_, line) :: _ -> fail "line %d: malformed primitive connection list" line
      | [] -> fail "unexpected end of file in primitive instance"
    in
    (match connections rest [] with
     | out :: (_ :: _ as ins), more -> ((out, func, ins), more)
     | _ -> fail "primitive instance needs an output and at least one input")
  | (_, line) :: _ -> fail "line %d: expected '(' after primitive" line
  | [] -> fail "unexpected end of file after primitive"

(* The module name, then its inputs, outputs and primitive instances in
   source order; wire declarations carry nothing the elaborator needs. *)
let parse tokens =
  let module_name, tokens =
    match tokens with
    | (T_module, _) :: (T_ident name, _) :: rest -> (name, rest)
    | _ -> fail "expected 'module <name>'"
  in
  (* Skip the port header up to its semicolon. *)
  let rec skip_header toks =
    match toks with
    | (T_semi, _) :: rest -> rest
    | _ :: rest -> skip_header rest
    | [] -> fail "unexpected end of file in module header"
  in
  let rec statements toks inputs outputs instances =
    match toks with
    | (T_endmodule, _) :: _ ->
      (List.concat (List.rev inputs), List.concat (List.rev outputs), List.rev instances)
    | (T_input, _) :: rest ->
      let names, more = parse_ident_list rest [] in
      statements more (names :: inputs) outputs instances
    | (T_output, _) :: rest ->
      let names, more = parse_ident_list rest [] in
      statements more inputs (names :: outputs) instances
    | (T_wire, _) :: rest ->
      let _, more = parse_ident_list rest [] in
      statements more inputs outputs instances
    | (T_ident word, line) :: rest ->
      (match primitive_of (String.lowercase_ascii word) with
       | Some func ->
         let instance, more = parse_instance func rest in
         statements more inputs outputs (instance :: instances)
       | None -> fail "line %d: unsupported construct %S (gate-level subset only)" line word)
    | (_, line) :: _ -> fail "line %d: unexpected token" line
    | [] -> fail "missing 'endmodule'"
  in
  (module_name, statements (skip_header tokens) [] [] [])

let of_string ?name source =
  match parse (tokenize source) with
  | module_name, (inputs, outputs, instances) ->
    Logic_build.elaborate ~name:(Option.value name ~default:module_name) (fun define ->
        List.iter (fun (signal, func, args) -> define signal func args) instances;
        (inputs, outputs))
  | exception Error msg -> Error msg

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | source -> of_string ~name:(Filename.remove_extension (Filename.basename path)) source
  | exception Sys_error msg -> Error msg

(* Identifiers that need escaping in Verilog output. *)
let mangle name =
  let ok =
    String.length name > 0
    && is_ident_start name.[0]
    && String.for_all is_ident_char name
    && keyword_of name = None
    && primitive_of name = None
  in
  if ok then name else "\\" ^ name ^ " "

let to_string net =
  let buf = Buffer.create 4096 in
  let name_of id = mangle (Netlist.name_of net id) in
  let inputs = Array.to_list (Array.map name_of (Netlist.inputs net)) in
  let outputs = Array.to_list (Array.map name_of (Netlist.outputs net)) in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" (mangle (Netlist.design_name net))
       (String.concat ", " (inputs @ outputs)));
  Buffer.add_string buf (Printf.sprintf "  input %s;\n" (String.concat ", " inputs));
  Buffer.add_string buf (Printf.sprintf "  output %s;\n" (String.concat ", " outputs));
  let wires = ref [] in
  Netlist.iter_gates net (fun id _ _ -> wires := name_of id :: !wires);
  Netlist.iter_gates net (fun id kind _ ->
      match kind with
      | Gate_kind.Aoi21 | Gate_kind.Oai21 ->
        wires := (name_of id ^ "_aux") :: !wires
      | Gate_kind.Inv | Gate_kind.Nand2 | Gate_kind.Nand3 | Gate_kind.Nand4
      | Gate_kind.Nor2 | Gate_kind.Nor3 | Gate_kind.Nor4 -> ());
  if !wires <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  wire %s;\n" (String.concat ", " (List.rev !wires)));
  Netlist.iter_gates net (fun id kind fanin ->
      let out = name_of id in
      let ins = Array.to_list (Array.map name_of fanin) in
      let emit prim operands =
        Buffer.add_string buf
          (Printf.sprintf "  %s (%s);\n" prim (String.concat ", " (out :: operands)))
      in
      match kind with
      | Gate_kind.Inv -> emit "not" ins
      | Gate_kind.Nand2 | Gate_kind.Nand3 | Gate_kind.Nand4 -> emit "nand" ins
      | Gate_kind.Nor2 | Gate_kind.Nor3 | Gate_kind.Nor4 -> emit "nor" ins
      | Gate_kind.Aoi21 ->
        let aux = out ^ "_aux" in
        (match ins with
         | [ a; b; c ] ->
           Buffer.add_string buf (Printf.sprintf "  and (%s, %s, %s);\n" aux a b);
           Buffer.add_string buf (Printf.sprintf "  nor (%s, %s, %s);\n" out aux c)
         | _ -> assert false)
      | Gate_kind.Oai21 ->
        let aux = out ^ "_aux" in
        (match ins with
         | [ a; b; c ] ->
           Buffer.add_string buf (Printf.sprintf "  or (%s, %s, %s);\n" aux a b);
           Buffer.add_string buf (Printf.sprintf "  nand (%s, %s, %s);\n" out aux c)
         | _ -> assert false));
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string net))
