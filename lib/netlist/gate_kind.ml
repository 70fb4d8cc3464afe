type t = Inv | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | Nor4 | Aoi21 | Oai21

let all = [ Inv; Nand2; Nand3; Nand4; Nor2; Nor3; Nor4; Aoi21; Oai21 ]

let arity = function
  | Inv -> 1
  | Nand2 | Nor2 -> 2
  | Nand3 | Nor3 | Aoi21 | Oai21 -> 3
  | Nand4 | Nor4 -> 4

let name = function
  | Inv -> "INV"
  | Nand2 -> "NAND2"
  | Nand3 -> "NAND3"
  | Nand4 -> "NAND4"
  | Nor2 -> "NOR2"
  | Nor3 -> "NOR3"
  | Nor4 -> "NOR4"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"

let eval kind inputs =
  if Array.length inputs <> arity kind then
    invalid_arg "Gate_kind.eval: wrong input count";
  match kind with
  | Inv -> not inputs.(0)
  | Nand2 | Nand3 | Nand4 -> not (Array.for_all (fun b -> b) inputs)
  | Nor2 | Nor3 | Nor4 -> not (Array.exists (fun b -> b) inputs)
  | Aoi21 -> not ((inputs.(0) && inputs.(1)) || inputs.(2))
  | Oai21 -> not ((inputs.(0) || inputs.(1)) && inputs.(2))

let state_count kind = 1 lsl arity kind

let state_of_bits kind bits =
  if Array.length bits <> arity kind then
    invalid_arg "Gate_kind.state_of_bits: wrong input count";
  Array.fold_left (fun acc b -> (acc lsl 1) lor if b then 1 else 0) 0 bits

let bits_of_state kind state =
  let k = arity kind in
  if state < 0 || state >= state_count kind then
    invalid_arg "Gate_kind.bits_of_state: state out of range";
  Array.init k (fun i -> (state lsr (k - 1 - i)) land 1 = 1)

let index = function
  | Inv -> 0
  | Nand2 -> 1
  | Nand3 -> 2
  | Nand4 -> 3
  | Nor2 -> 4
  | Nor3 -> 5
  | Nor4 -> 6
  | Aoi21 -> 7
  | Oai21 -> 8
