external mono_now : unit -> float = "standby_mono_now"

type t = { started_at : float; limit_s : float }

let now () = mono_now ()

let wall_now () = Unix.gettimeofday ()

let start ~limit_s = { started_at = now (); limit_s }

let unlimited () = { started_at = now (); limit_s = infinity }

let elapsed_s t = now () -. t.started_at

let expired t = elapsed_s t >= t.limit_s

let deadline_at t = t.started_at +. t.limit_s

let earliest a b = if deadline_at a <= deadline_at b then a else b

let time f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)
