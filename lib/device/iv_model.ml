(* Drive prefactor, A per unit width at (Vgs - Vt) = 1 V for a thin-oxide
   device.  Absolute drive only matters relative to leakage currents (it
   decides how close to a rail an ON device pins its node), so a generic
   strong-inversion value is used. *)
let drive_scale = 4e-4

(* Vds scale of the saturating (1 - exp(-vds/v_crit)) blend. *)
let v_crit = 0.1

let on_component (p : Process.t) ~polarity ~vt ~tox ~width ~vgs ~vds =
  let vt_v = Process.vt_of p polarity vt in
  let overdrive = vgs -. vt_v in
  if overdrive <= 0.0 then 0.0
  else
    let cox_factor = p.tox_thin_nm /. Process.tox_of p tox in
    drive_scale *. width *. cox_factor
    *. (overdrive ** p.alpha_power)
    *. (1.0 -. exp (-.vds /. v_crit))

let drain_current p ~polarity ~vt ~tox ~width ~vgs ~vds =
  if vds <= 0.0 then 0.0
  else
    (* Clamp the exponential subthreshold term at the threshold so the
       two regimes compose without double counting. *)
    let vt_v = Process.vt_of p polarity vt in
    let sub =
      Leakage_model.subthreshold p ~polarity ~vt ~width ~vgs:(min vgs vt_v) ~vds
    in
    sub +. on_component p ~polarity ~vt ~tox ~width ~vgs ~vds
