type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let min_value t =
  if t.n = 0 then invalid_arg "Stats.min_value: empty";
  t.min_v

let max_value t =
  if t.n = 0 then invalid_arg "Stats.max_value: empty";
  t.max_v

let mean_of_array a =
  if Array.length a = 0 then invalid_arg "Stats.mean_of_array: empty";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let geometric_mean a =
  if Array.length a = 0 then invalid_arg "Stats.geometric_mean: empty";
  let log_sum =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive value";
        acc +. log x)
      0.0 a
  in
  exp (log_sum /. float_of_int (Array.length a))
