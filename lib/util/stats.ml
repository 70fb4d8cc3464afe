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
