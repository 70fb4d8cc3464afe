module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind
module Prng = Standby_util.Prng

let lanes = 63

(* 16-bit popcount table: a 63-bit word is four table lookups.  One
   64 KiB byte string, built once at module initialization. *)
let pop16 =
  Bytes.init 65536 (fun i ->
      let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
      Char.chr (go i 0))

let popcount x =
  Char.code (Bytes.unsafe_get pop16 (x land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((x lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((x lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 (x lsr 48))

type t = {
  net : Netlist.t;
  words : int array;  (* per node id: 63 packed lane values *)
  masks : int array;  (* scratch: per-state lane masks, size 16 *)
  counts : int array;  (* scratch: per-state lane counts, size 16 *)
  mutable gate_words : int;
}

let create net =
  {
    net;
    words = Array.make (Netlist.node_count net) 0;
    masks = Array.make 16 0;
    counts = Array.make 16 0;
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
  let rng = Prng.create ~seed:(seed + block) in
  let inputs = Netlist.inputs t.net in
  for i = 0 to Array.length inputs - 1 do
    (* One raw draw per input; Int64.to_int keeps the low 63 bits. *)
    t.words.(inputs.(i)) <- Int64.to_int (Prng.next_int64 rng)
  done

let eval t =
  let words = t.words in
  Netlist.iter_gates t.net (fun id kind fanin ->
      words.(id) <-
        (match kind with
         | Gate_kind.Inv -> lnot words.(fanin.(0))
         | Gate_kind.Nand2 -> lnot (words.(fanin.(0)) land words.(fanin.(1)))
         | Gate_kind.Nand3 ->
           lnot (words.(fanin.(0)) land words.(fanin.(1)) land words.(fanin.(2)))
         | Gate_kind.Nand4 ->
           lnot
             (words.(fanin.(0)) land words.(fanin.(1)) land words.(fanin.(2))
              land words.(fanin.(3)))
         | Gate_kind.Nor2 -> lnot (words.(fanin.(0)) lor words.(fanin.(1)))
         | Gate_kind.Nor3 ->
           lnot (words.(fanin.(0)) lor words.(fanin.(1)) lor words.(fanin.(2)))
         | Gate_kind.Nor4 ->
           lnot
             (words.(fanin.(0)) lor words.(fanin.(1)) lor words.(fanin.(2))
              lor words.(fanin.(3)))
         | Gate_kind.Aoi21 ->
           lnot ((words.(fanin.(0)) land words.(fanin.(1))) lor words.(fanin.(2)))
         | Gate_kind.Oai21 ->
           lnot ((words.(fanin.(0)) lor words.(fanin.(1))) land words.(fanin.(2)))));
  t.gate_words <- t.gate_words + Netlist.gate_count t.net

let words_evaluated t = t.gate_words

let lane_vector t ~lane =
  Array.map (fun id -> (t.words.(id) lsr lane) land 1 = 1) (Netlist.inputs t.net)

let lane_values t ~lane =
  Array.map (fun w -> (w lsr lane) land 1 = 1) t.words

let iter_state_counts t ~lanes:n f =
  let all = lane_mask ~lanes:n in
  let words = t.words and masks = t.masks and counts = t.counts in
  Netlist.iter_gates t.net (fun id kind fanin ->
      let k = Array.length fanin in
      (* Binary splitting: after input i the first 2^(i+1) masks select
         the lanes matching each state prefix of inputs 0..i (state bit
         of fanin 0 is the most significant).  Descending j keeps reads
         ahead of writes since 2j, 2j+1 >= j. *)
      masks.(0) <- all;
      let m = ref 1 in
      for i = 0 to k - 1 do
        let w = words.(fanin.(i)) in
        for j = !m - 1 downto 0 do
          let base = masks.(j) in
          masks.((2 * j) + 1) <- base land w;
          masks.(2 * j) <- base land lnot w
        done;
        m := !m * 2
      done;
      for s = 0 to !m - 1 do
        counts.(s) <- popcount masks.(s)
      done;
      f id kind counts)
