type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* SplitMix64 is counter based: draw [n] of a fresh stream is the mix of
   [seed + (n + 1) * gamma], so it needs no state and, with [mix]
   inlined, no boxed [int64]. *)
let nth_bits ~seed n =
  Int64.to_int (mix (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (n + 1)) golden_gamma)))

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit signed int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
