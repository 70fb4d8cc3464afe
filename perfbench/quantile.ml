(* Order statistics shared by the workloads (per-run percentiles) and by
   [compare] (quartiles across runs). *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile of n samples moves smoothly with the data. *)
let percentile xs q =
  match sorted xs with
  | [||] -> nan
  | a ->
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* Python's [statistics.quantiles(xs, n=4)] with its default exclusive
   method, so the spreads printed by [compare] are the ones a reader
   recomputes from the raw values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
