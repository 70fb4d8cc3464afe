module B = Netlist.Builder

let inv b x = B.add_gate b Gate_kind.Inv [| x |]

(* Split a list into chunks of at most four elements, keeping order. *)
let rec chunk4 = function
  | [] -> []
  | [ a ] -> [ [ a ] ]
  | [ a; b ] -> [ [ a; b ] ]
  | [ a; b; c ] -> [ [ a; b; c ] ]
  | a :: b :: c :: d :: rest -> [ a; b; c; d ] :: chunk4 rest

let rec nand_of b ids =
  match ids with
  | [] -> invalid_arg "Logic_build.nand_of: empty input list"
  | [ a ] -> inv b a
  | [ a; c ] -> B.add_gate b Gate_kind.Nand2 [| a; c |]
  | [ a; c; d ] -> B.add_gate b Gate_kind.Nand3 [| a; c; d |]
  | [ a; c; d; e ] -> B.add_gate b Gate_kind.Nand4 [| a; c; d; e |]
  | _ ->
    let groups = chunk4 ids in
    nand_of b (List.map (and_of b) groups)

and and_of b ids =
  match ids with
  | [ a ] -> a
  | _ -> inv b (nand_of b ids)

let rec nor_of b ids =
  match ids with
  | [] -> invalid_arg "Logic_build.nor_of: empty input list"
  | [ a ] -> inv b a
  | [ a; c ] -> B.add_gate b Gate_kind.Nor2 [| a; c |]
  | [ a; c; d ] -> B.add_gate b Gate_kind.Nor3 [| a; c; d |]
  | [ a; c; d; e ] -> B.add_gate b Gate_kind.Nor4 [| a; c; d; e |]
  | _ ->
    let groups = chunk4 ids in
    nor_of b (List.map (or_of b) groups)

and or_of b ids =
  match ids with
  | [ a ] -> a
  | _ -> inv b (nor_of b ids)

let xor2 b a c =
  let shared = B.add_gate b Gate_kind.Nand2 [| a; c |] in
  let left = B.add_gate b Gate_kind.Nand2 [| a; shared |] in
  let right = B.add_gate b Gate_kind.Nand2 [| c; shared |] in
  B.add_gate b Gate_kind.Nand2 [| left; right |]

let xnor2 b a c = inv b (xor2 b a c)

let xor_of b ids =
  match ids with
  | [] -> invalid_arg "Logic_build.xor_of: empty input list"
  | first :: rest -> List.fold_left (fun acc x -> xor2 b acc x) first rest

let mux2 b ~sel a0 a1 =
  let sel_n = inv b sel in
  let pick0 = B.add_gate b Gate_kind.Nand2 [| a0; sel_n |] in
  let pick1 = B.add_gate b Gate_kind.Nand2 [| a1; sel |] in
  B.add_gate b Gate_kind.Nand2 [| pick0; pick1 |]

let full_adder b a c carry_in =
  let half = xor2 b a c in
  let sum = xor2 b half carry_in in
  let gen = B.add_gate b Gate_kind.Nand2 [| a; c |] in
  let prop = B.add_gate b Gate_kind.Nand2 [| half; carry_in |] in
  let carry_out = B.add_gate b Gate_kind.Nand2 [| gen; prop |] in
  (sum, carry_out)

type func = And | Nand | Or | Nor | Xor | Xnor | Not | Buf

exception Refused of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refused s)) fmt

let func_name = function
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUFF"

(* The one function -> cell table.  Functions that map to a single
   library cell keep the signal name; decomposed ones are unnamed. *)
let lower b signal func args =
  let direct kind = B.add_gate ~name:signal b kind args in
  let wide build = build b (Array.to_list args) in
  match (func, Array.length args) with
  | Not, 1 -> direct Gate_kind.Inv
  | Buf, 1 -> B.add_gate ~name:signal b Gate_kind.Inv [| inv b args.(0) |]
  | (Not | Buf), _ -> refuse "%s %S needs one argument" (func_name func) signal
  | Nand, 2 -> direct Gate_kind.Nand2
  | Nand, 3 -> direct Gate_kind.Nand3
  | Nand, 4 -> direct Gate_kind.Nand4
  | Nor, 2 -> direct Gate_kind.Nor2
  | Nor, 3 -> direct Gate_kind.Nor3
  | Nor, 4 -> direct Gate_kind.Nor4
  | And, _ -> wide and_of
  | Nand, _ -> wide nand_of
  | Or, _ -> wide or_of
  | Nor, _ -> wide nor_of
  | Xor, _ -> wide xor_of
  | Xnor, 2 -> xnor2 b args.(0) args.(1)
  | Xnor, _ -> refuse "XNOR %S needs two arguments" signal

(* Signal names intern to dense ids on first sight; interning is the
   only phase that hashes strings.  Everything downstream — the driver
   checks, the topological walk, emission — works on int arrays, which
   keeps million-gate reads from drowning in string hashing.  A signal
   id is driven iff its argument array is non-empty (every definition
   has at least one argument). *)
let elaborate ~name scan =
  try
    let intern = Hashtbl.create 4096 in
    let cap = ref 1024 in
    let sig_names = ref (Array.make !cap "") in
    let sig_funcs = ref (Array.make !cap Not) in
    let sig_args = ref (Array.make !cap [||]) in
    let count = ref 0 in
    let sid_of s =
      match Hashtbl.find_opt intern s with
      | Some sid -> sid
      | None ->
        let sid = !count in
        if sid = !cap then begin
          let grow : 'a. 'a array ref -> 'a -> unit =
            fun a fill ->
              let bigger = Array.make (2 * !cap) fill in
              Array.blit !a 0 bigger 0 !cap;
              a := bigger
          in
          grow sig_names "";
          grow sig_funcs Not;
          grow sig_args [||];
          cap := 2 * !cap
        end;
        !sig_names.(sid) <- s;
        Hashtbl.add intern s sid;
        incr count;
        sid
    in
    let inputs, outputs =
      scan (fun signal func args ->
          if args = [] then refuse "%s %S has no argument" (func_name func) signal;
          let sid = sid_of signal in
          if Array.length !sig_args.(sid) > 0 then refuse "signal %S defined twice" signal;
          let arg_sids = Array.of_list (List.map sid_of args) in
          !sig_funcs.(sid) <- func;
          !sig_args.(sid) <- arg_sids)
    in
    let inputs = List.map sid_of inputs in
    let outputs = Array.of_list (List.map sid_of outputs) in
    if outputs = [||] then refuse "no outputs declared";
    let n = !count in
    let sig_names = !sig_names and sig_funcs = !sig_funcs and sig_args = !sig_args in
    let driven sid = Array.length sig_args.(sid) > 0 in
    let builder = Netlist.Builder.create ~name () in
    (* Signal id -> builder node id; -1 until emitted. *)
    let ids = Array.make n (-1) in
    List.iter
      (fun sid ->
        if driven sid then refuse "signal %S is both an input and driven" sig_names.(sid);
        if ids.(sid) < 0 then ids.(sid) <- Netlist.Builder.add_input ~name:sig_names.(sid) builder)
      inputs;
    for sid = 0 to n - 1 do
      Array.iter
        (fun a ->
          if (not (driven a)) && ids.(a) < 0 then refuse "undefined signal %S" sig_names.(a))
        sig_args.(sid)
    done;
    (* Every argument is now an input or driven, so by the time the walk
       reaches a signal all of its arguments have node ids. *)
    (try
       Netlist.postorder ~fanin:(Array.get sig_args) n outputs (fun sid ->
           ids.(sid) <-
             lower builder sig_names.(sid) sig_funcs.(sid)
               (Array.map (Array.get ids) sig_args.(sid)))
     with Netlist.Cycle sid -> refuse "combinational cycle through %S" sig_names.(sid));
    Array.iter
      (fun sid ->
        match ids.(sid) with
        | -1 -> refuse "undefined output signal %S" sig_names.(sid)
        | id -> Netlist.Builder.mark_output ~name:sig_names.(sid) builder id)
      outputs;
    Ok (Netlist.Builder.finish builder)
  with
  | Refused msg -> Error msg
  | Invalid_argument msg -> Error msg
