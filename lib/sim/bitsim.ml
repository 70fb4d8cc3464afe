module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind
module Prng = Standby_util.Prng

let lanes = 63

(* SWAR popcount over the 63 bits of a native int.  Each step sums
   neighbouring fields of the previous one; bit 62 (the sign bit) is the
   lone bit of the top 2-bit field.  The byte sums end up in bits 56..62
   of the product, which hold any count up to 63. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

type t = {
  net : Netlist.t;
  words : int array;  (* per node id: 63 packed lane values *)
  gates : int array;  (* gate node ids, topological order *)
  kinds : Gate_kind.t array;  (* per gate position *)
  fanins : int array array;  (* per gate position: the netlist's fan-in array *)
  base : int array;  (* per node id: offset of the gate's 2^arity slots in [subsets] *)
  ones : int array;  (* per node id: lanes at 1, summed over the counted blocks *)
  subsets : int array;
      (* per gate, per pin subset T of two or more pins (indexed as a
         state, pin 0 = most significant bit): lanes where every pin in T
         is 1, summed over the counted blocks *)
  mutable counted : int;  (* valid lanes summed over the counted blocks *)
  mutable gate_words : int;
}

let create net =
  let n = Netlist.node_count net in
  let g = Netlist.gate_count net in
  let gates = Array.make g 0 and kinds = Array.make g Gate_kind.Inv in
  let fanins = Array.make g [||] and base = Array.make n (-1) in
  let pos = ref 0 and slots = ref 0 in
  Netlist.iter_gates net (fun id kind fanin ->
      gates.(!pos) <- id;
      kinds.(!pos) <- kind;
      fanins.(!pos) <- fanin;
      base.(id) <- !slots;
      slots := !slots + Gate_kind.state_count kind;
      incr pos);
  {
    net;
    words = Array.make n 0;
    gates;
    kinds;
    fanins;
    base;
    ones = Array.make n 0;
    subsets = Array.make !slots 0;
    counted = 0;
    gate_words = 0;
  }

let block_count ~vectors =
  if vectors <= 0 then invalid_arg "Bitsim.block_count: vectors must be positive";
  (vectors + lanes - 1) / lanes

let lanes_in_block ~vectors ~block =
  let n = block_count ~vectors in
  if block < 0 || block >= n then invalid_arg "Bitsim.lanes_in_block: block out of range";
  if block = n - 1 then vectors - (block * lanes) else lanes

let lane_mask ~lanes:n = if n >= lanes then -1 else (1 lsl n) - 1

let input_word t position =
  let inputs = Netlist.inputs t.net in
  if position < 0 || position >= Array.length inputs then
    invalid_arg "Bitsim.input_word: input position out of range";
  t.words.(inputs.(position))

let load_block t ~seed ~block =
  if block < 0 then invalid_arg "Bitsim.load_block: negative block";
  let inputs = Netlist.inputs t.net in
  (* Draw i of the block's stream; the low 63 bits become the lanes. *)
  for i = 0 to Array.length inputs - 1 do
    t.words.(inputs.(i)) <- Prng.nth_bits ~seed:(seed + block) i
  done

(* The one bitwise form of each cell's function, shared by [eval] and
   the counting pass. *)
let gate_word words fanin kind =
  match kind with
  | Gate_kind.Inv -> lnot words.(fanin.(0))
  | Gate_kind.Nand2 -> lnot (words.(fanin.(0)) land words.(fanin.(1)))
  | Gate_kind.Nand3 -> lnot (words.(fanin.(0)) land words.(fanin.(1)) land words.(fanin.(2)))
  | Gate_kind.Nand4 ->
    lnot
      (words.(fanin.(0)) land words.(fanin.(1)) land words.(fanin.(2)) land words.(fanin.(3)))
  | Gate_kind.Nor2 -> lnot (words.(fanin.(0)) lor words.(fanin.(1)))
  | Gate_kind.Nor3 -> lnot (words.(fanin.(0)) lor words.(fanin.(1)) lor words.(fanin.(2)))
  | Gate_kind.Nor4 ->
    lnot (words.(fanin.(0)) lor words.(fanin.(1)) lor words.(fanin.(2)) lor words.(fanin.(3)))
  | Gate_kind.Aoi21 -> lnot ((words.(fanin.(0)) land words.(fanin.(1))) lor words.(fanin.(2)))
  | Gate_kind.Oai21 -> lnot ((words.(fanin.(0)) lor words.(fanin.(1))) land words.(fanin.(2)))

let eval t =
  for g = 0 to Array.length t.gates - 1 do
    t.words.(t.gates.(g)) <- gate_word t.words t.fanins.(g) t.kinds.(g)
  done;
  t.gate_words <- t.gate_words + Array.length t.gates

let words_evaluated t = t.gate_words

let lane_vector t ~lane =
  Array.map (fun id -> (t.words.(id) lsr lane) land 1 = 1) (Netlist.inputs t.net)

let lane_values t ~lane =
  Array.map (fun w -> (w lsr lane) land 1 = 1) t.words

(* ------------------------------------------------------------------ *)
(* Subset totals.

   For a gate with pins 0..k-1 and a pin subset T (a state index: pin i
   is bit k-1-i), N(T) counts the lanes where every pin in T is 1.  A
   block adds the popcount of each node's masked word (N of every
   one-pin subset of its consumers) and of the AND of every subset of
   two or more pins — except the all-pin subset of a 3- and 4-input
   gate, which [counts] recovers from the gate's own output total, as it
   does N({0,1}) of NAND2 and NOR2.  Masking the first k-1 pins' words
   masks every subset of two or more pins. *)

let count_block t ~valid =
  let m = lane_mask ~lanes:valid in
  let words = t.words and ones = t.ones and sub = t.subsets and base = t.base in
  let inputs = Netlist.inputs t.net in
  for i = 0 to Array.length inputs - 1 do
    let id = inputs.(i) in
    ones.(id) <- ones.(id) + popcount (words.(id) land m)
  done;
  for g = 0 to Array.length t.gates - 1 do
    let id = t.gates.(g) and fanin = t.fanins.(g) and kind = t.kinds.(g) in
    let w = gate_word words fanin kind in
    words.(id) <- w;
    ones.(id) <- ones.(id) + popcount (w land m);
    match kind with
    | Gate_kind.Inv | Gate_kind.Nand2 | Gate_kind.Nor2 -> ()
    | Gate_kind.Nand3 | Gate_kind.Nor3 | Gate_kind.Aoi21 | Gate_kind.Oai21 ->
      let a = words.(fanin.(0)) land m and b = words.(fanin.(1)) land m in
      let c = words.(fanin.(2)) and o = base.(id) in
      sub.(o + 6) <- sub.(o + 6) + popcount (a land b);
      sub.(o + 5) <- sub.(o + 5) + popcount (a land c);
      sub.(o + 3) <- sub.(o + 3) + popcount (b land c)
    | Gate_kind.Nand4 | Gate_kind.Nor4 ->
      let a = words.(fanin.(0)) land m and b = words.(fanin.(1)) land m in
      let c = words.(fanin.(2)) land m and d = words.(fanin.(3)) and o = base.(id) in
      let ab = a land b and cd = c land d in
      sub.(o + 12) <- sub.(o + 12) + popcount ab;
      sub.(o + 10) <- sub.(o + 10) + popcount (a land c);
      sub.(o + 9) <- sub.(o + 9) + popcount (a land d);
      sub.(o + 6) <- sub.(o + 6) + popcount (b land c);
      sub.(o + 5) <- sub.(o + 5) + popcount (b land d);
      sub.(o + 3) <- sub.(o + 3) + popcount cd;
      sub.(o + 14) <- sub.(o + 14) + popcount (ab land c);
      sub.(o + 13) <- sub.(o + 13) + popcount (ab land d);
      sub.(o + 11) <- sub.(o + 11) + popcount (a land cd);
      sub.(o + 7) <- sub.(o + 7) + popcount (b land cd)
  done;
  t.gate_words <- t.gate_words + Array.length t.gates;
  t.counted <- t.counted + valid

let count_blocks t ~seed ~vectors ~first ~last =
  let n = block_count ~vectors in
  if first < 0 || last > n || first > last then
    invalid_arg "Bitsim.count_blocks: block range out of bounds";
  for block = first to last - 1 do
    load_block t ~seed ~block;
    count_block t ~valid:(lanes_in_block ~vectors ~block)
  done

let merge ~into t =
  if into.net != t.net then invalid_arg "Bitsim.merge: different netlists";
  for i = 0 to Array.length t.ones - 1 do
    into.ones.(i) <- into.ones.(i) + t.ones.(i)
  done;
  for i = 0 to Array.length t.subsets - 1 do
    into.subsets.(i) <- into.subsets.(i) + t.subsets.(i)
  done;
  into.counted <- into.counted + t.counted

type counts = { vectors : int; offset : int array; states : int array }

let vectors c = c.vectors

let count c id state = c.states.(c.offset.(id) + state)

let counts t =
  let v = t.counted and n = Array.copy t.subsets in
  Array.iteri
    (fun g id ->
      let fanin = t.fanins.(g) and o = t.base.(id) in
      let k = Array.length fanin in
      let full = (1 lsl k) - 1 and y = t.ones.(id) in
      (* N of the empty and the one-pin subsets. *)
      n.(o) <- v;
      for i = 0 to k - 1 do
        n.(o + (1 lsl (k - 1 - i))) <- t.ones.(fanin.(i))
      done;
      (* The subset left to the gate's output total. *)
      (match t.kinds.(g) with
       | Gate_kind.Inv -> ()
       | Gate_kind.Nand2 | Gate_kind.Nand3 | Gate_kind.Nand4 -> n.(o + full) <- v - y
       | Gate_kind.Nor2 | Gate_kind.Nor3 | Gate_kind.Nor4 ->
         (* y = c(∅) = Σ_T (-1)^|T| N(T); solve for N(full). *)
         let rest = ref 0 in
         for s = 0 to full - 1 do
           rest := !rest + (if popcount s land 1 = 0 then n.(o + s) else -n.(o + s))
         done;
         n.(o + full) <- (if k land 1 = 0 then y - !rest else !rest - y)
       | Gate_kind.Aoi21 -> n.(o + 7) <- y - v + n.(o + 1) + n.(o + 6)
       | Gate_kind.Oai21 -> n.(o + 7) <- y - v + n.(o + 5) + n.(o + 3));
      (* Inclusion–exclusion, one pin at a time:
         c(P) = Σ_{T ⊇ P} (-1)^|T \ P| N(T). *)
      for b = 0 to k - 1 do
        let bit = 1 lsl b in
        for s = 0 to full do
          if s land bit = 0 then n.(o + s) <- n.(o + s) - n.(o + (s lor bit))
        done
      done)
    t.gates;
  { vectors = v; offset = t.base; states = n }
