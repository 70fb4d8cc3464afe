(* Tests for standby_device: calibration anchors, monotonicity of the
   analytic leakage and I-V models, derating factors. *)

module Process = Standby_device.Process
module Leakage = Standby_device.Leakage_model
module Iv = Standby_device.Iv_model

let p = Process.default

let close ?(tol = 1e-6) msg expected actual =
  if abs_float (expected -. actual) > tol *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.8g got %.8g" msg expected actual

(* ---------------------------- anchors ----------------------------- *)

let test_isub_ratio_nmos () = close "NMOS Isub ratio" 17.8 (Process.isub_vt_ratio p Process.Nmos)

let test_isub_ratio_pmos () = close "PMOS Isub ratio" 16.7 (Process.isub_vt_ratio p Process.Pmos)

let test_igate_ratio () = close "Igate ratio" 11.0 (Process.igate_tox_ratio p)

let test_isub_ratio_from_model () =
  (* The anchor must hold for the actual model output, not just the
     derived constant. *)
  let low = Leakage.worst_case_isub p ~polarity:Process.Nmos ~vt:Process.Low_vt ~width:1.0 in
  let high = Leakage.worst_case_isub p ~polarity:Process.Nmos ~vt:Process.High_vt ~width:1.0 in
  close ~tol:1e-3 "model-level ratio" 17.8 (low /. high)

let test_igate_ratio_from_model () =
  let thin = Leakage.worst_case_igate p ~polarity:Process.Nmos ~tox:Process.Thin_ox ~width:1.0 in
  let thick =
    Leakage.worst_case_igate p ~polarity:Process.Nmos ~tox:Process.Thick_ox ~width:1.0
  in
  close ~tol:1e-3 "model-level tox ratio" 11.0 (thin /. thick)

let test_vt_classes_ordered () =
  Alcotest.(check bool)
    "high vt above low vt" true
    (Process.vt_of p Process.Nmos Process.High_vt > Process.vt_of p Process.Nmos Process.Low_vt);
  Alcotest.(check bool)
    "thick above thin" true
    (Process.tox_of p Process.Thick_ox > Process.tox_of p Process.Thin_ox)

let test_pmos_igate_small () =
  let n = Leakage.worst_case_igate p ~polarity:Process.Nmos ~tox:Process.Thin_ox ~width:1.0 in
  let pm = Leakage.worst_case_igate p ~polarity:Process.Pmos ~tox:Process.Thin_ox ~width:1.0 in
  Alcotest.(check bool) "PMOS tunneling negligible vs NMOS" true (pm < n /. 10.0)

let test_temperature_scaling () =
  let hot = Process.at_temperature p ~kelvin:380.0 in
  let cold = Process.at_temperature p ~kelvin:250.0 in
  let isub_at proc =
    Leakage.worst_case_isub proc ~polarity:Process.Nmos ~vt:Process.Low_vt ~width:1.0
  in
  let igate_at proc =
    Leakage.worst_case_igate proc ~polarity:Process.Nmos ~tox:Process.Thin_ox ~width:1.0
  in
  Alcotest.(check bool) "isub grows with T" true (isub_at hot > 5.0 *. isub_at p);
  Alcotest.(check bool) "isub shrinks when cold" true (isub_at cold < isub_at p /. 2.0);
  close ~tol:1e-9 "igate unaffected" (igate_at p) (igate_at hot);
  (* 300 K round-trips to the reference process. *)
  let same = Process.at_temperature p ~kelvin:300.0 in
  close "300K isub" (isub_at p) (isub_at same)

let test_temperature_invalid () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Process.at_temperature: non-positive temperature") (fun () ->
      ignore (Process.at_temperature p ~kelvin:0.0))

module Process_config = Standby_device.Process_config

let test_config_roundtrip () =
  match Process_config.apply p (Process_config.to_string p) with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok again ->
    close "vdd" p.Process.vdd again.Process.vdd;
    close "igate_b" p.Process.igate_b again.Process.igate_b;
    close "nmos_high_vt" p.Process.nmos_high_vt again.Process.nmos_high_vt

let test_config_override () =
  match Process_config.apply p "# retarget\nvdd = 0.9\n  tox_thick_nm=1.5 # inline\n" with
  | Error msg -> Alcotest.failf "apply failed: %s" msg
  | Ok changed ->
    close "vdd changed" 0.9 changed.Process.vdd;
    close "tox changed" 1.5 changed.Process.tox_thick_nm;
    close "others kept" p.Process.dibl changed.Process.dibl

let test_config_errors () =
  let check_err src =
    match Process_config.apply p src with
    | Ok _ -> Alcotest.failf "expected failure: %s" src
    | Error _ -> ()
  in
  check_err "frobnicate = 1.0";
  check_err "vdd = banana";
  check_err "just some words";
  Alcotest.(check int) "all fields covered" 17 (List.length Process_config.keys)

(* -------------------------- monotonicity -------------------------- *)

let bias = QCheck.Gen.float_range 0.0 p.Process.vdd

let test_isub_monotone_vgs =
  QCheck.Test.make ~count:300 ~name:"Isub nondecreasing in Vgs"
    QCheck.(make Gen.(pair bias bias))
    (fun (v1, v2) ->
      let lo = min v1 v2 and hi = max v1 v2 in
      let at vgs =
        Leakage.subthreshold p ~polarity:Process.Nmos ~vt:Process.Low_vt ~width:1.0 ~vgs
          ~vds:0.8
      in
      at lo <= at hi +. 1e-18)

let test_isub_monotone_vds =
  QCheck.Test.make ~count:300 ~name:"Isub nondecreasing in Vds"
    QCheck.(make Gen.(pair bias bias))
    (fun (v1, v2) ->
      let lo = min v1 v2 and hi = max v1 v2 in
      let at vds =
        Leakage.subthreshold p ~polarity:Process.Nmos ~vt:Process.Low_vt ~width:1.0 ~vgs:0.0
          ~vds
      in
      at lo <= at hi +. 1e-18)

let test_isub_zero_vds () =
  close "no Isub at Vds = 0" 0.0
    (Leakage.subthreshold p ~polarity:Process.Nmos ~vt:Process.Low_vt ~width:1.0 ~vgs:0.0
       ~vds:0.0)

let test_isub_width_linear =
  QCheck.Test.make ~count:100 ~name:"Isub linear in width"
    QCheck.(make Gen.(float_range 0.5 8.0))
    (fun w ->
      let one =
        Leakage.subthreshold p ~polarity:Process.Nmos ~vt:Process.Low_vt ~width:1.0 ~vgs:0.0
          ~vds:1.0
      in
      let scaled =
        Leakage.subthreshold p ~polarity:Process.Nmos ~vt:Process.Low_vt ~width:w ~vgs:0.0
          ~vds:1.0
      in
      abs_float (scaled -. (w *. one)) < 1e-12 +. (1e-9 *. scaled))

let test_igate_monotone_bias =
  QCheck.Test.make ~count:300 ~name:"Igate nondecreasing in oxide bias"
    QCheck.(make Gen.(pair bias bias))
    (fun (v1, v2) ->
      let lo = min v1 v2 and hi = max v1 v2 in
      let at v =
        Leakage.gate_tunneling p ~polarity:Process.Nmos ~tox:Process.Thin_ox ~width:1.0
          ~vgs:v ~vgd:v ~conducting:true
      in
      at lo <= at hi +. 1e-18)

let test_igate_off_much_smaller () =
  let on =
    Leakage.gate_tunneling p ~polarity:Process.Nmos ~tox:Process.Thin_ox ~width:1.0 ~vgs:1.0
      ~vgd:1.0 ~conducting:true
  in
  let off =
    Leakage.gate_tunneling p ~polarity:Process.Nmos ~tox:Process.Thin_ox ~width:1.0
      ~vgs:(-1.0) ~vgd:(-1.0) ~conducting:false
  in
  Alcotest.(check bool) "overlap-only tunneling is small" true (off < on /. 5.0)

let test_igate_reverse_nonzero () =
  (* Gate low, drain high: the reverse edge current of Figure 1 must be
     present but small. *)
  let rev =
    Leakage.gate_tunneling p ~polarity:Process.Nmos ~tox:Process.Thin_ox ~width:1.0 ~vgs:0.0
      ~vgd:(-1.0) ~conducting:false
  in
  Alcotest.(check bool) "reverse tunneling positive" true (rev > 0.0)

(* ------------------------------ Iv_model -------------------------- *)

let test_iv_monotone_vds =
  QCheck.Test.make ~count:300 ~name:"drain current nondecreasing in Vds"
    QCheck.(make Gen.(triple bias bias bias))
    (fun (vgs, v1, v2) ->
      let lo = min v1 v2 and hi = max v1 v2 in
      let at vds =
        Iv.drain_current p ~polarity:Process.Nmos ~vt:Process.Low_vt ~tox:Process.Thin_ox
          ~width:2.0 ~vgs ~vds
      in
      at lo <= at hi +. 1e-18)

let test_iv_monotone_vgs =
  QCheck.Test.make ~count:300 ~name:"drain current nondecreasing in Vgs"
    QCheck.(make Gen.(triple bias bias bias))
    (fun (vds, v1, v2) ->
      let lo = min v1 v2 and hi = max v1 v2 in
      let at vgs =
        Iv.drain_current p ~polarity:Process.Nmos ~vt:Process.Low_vt ~tox:Process.Thin_ox
          ~width:2.0 ~vgs ~vds
      in
      at lo <= at hi +. 1e-18)

let test_iv_on_dominates_off () =
  let on =
    Iv.drain_current p ~polarity:Process.Nmos ~vt:Process.Low_vt ~tox:Process.Thin_ox
      ~width:1.0 ~vgs:1.0 ~vds:0.5
  in
  let off =
    Iv.drain_current p ~polarity:Process.Nmos ~vt:Process.Low_vt ~tox:Process.Thin_ox
      ~width:1.0 ~vgs:0.0 ~vds:0.5
  in
  Alcotest.(check bool) "on current orders of magnitude above leakage" true (on > 1e3 *. off)

(* ----------------------------- derating --------------------------- *)

let test_drive_factor_fast_is_one () =
  close "fast device factor" 1.0
    (Process.drive_resistance_factor p Process.Nmos Process.Low_vt Process.Thin_ox)

let test_drive_factor_ordering () =
  let f vt tox = Process.drive_resistance_factor p Process.Nmos vt tox in
  Alcotest.(check bool) "hvt slower" true (f Process.High_vt Process.Thin_ox > 1.0);
  Alcotest.(check bool) "thick slower" true (f Process.Low_vt Process.Thick_ox > 1.0);
  Alcotest.(check bool)
    "both compounds" true
    (f Process.High_vt Process.Thick_ox
     > max (f Process.High_vt Process.Thin_ox) (f Process.Low_vt Process.Thick_ox))

let test_drive_factor_reasonable () =
  (* The paper's Table 1 reports per-device penalties of roughly
     1.3-1.4x; the all-slow circuit roughly doubles in delay. *)
  let hvt = Process.drive_resistance_factor p Process.Nmos Process.High_vt Process.Thin_ox in
  let thick = Process.drive_resistance_factor p Process.Nmos Process.Low_vt Process.Thick_ox in
  Alcotest.(check bool) "hvt in band" true (hvt > 1.2 && hvt < 1.6);
  Alcotest.(check bool) "thick in band" true (thick > 1.2 && thick < 1.6)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_device"
    [
      ( "anchors",
        [
          quick "isub ratio nmos" test_isub_ratio_nmos;
          quick "isub ratio pmos" test_isub_ratio_pmos;
          quick "igate ratio" test_igate_ratio;
          quick "isub ratio from model" test_isub_ratio_from_model;
          quick "igate ratio from model" test_igate_ratio_from_model;
          quick "class ordering" test_vt_classes_ordered;
          quick "pmos igate small" test_pmos_igate_small;
          quick "temperature scaling" test_temperature_scaling;
          quick "temperature invalid" test_temperature_invalid;
          quick "config roundtrip" test_config_roundtrip;
          quick "config override" test_config_override;
          quick "config errors" test_config_errors;
        ] );
      ( "leakage-model",
        [
          QCheck_alcotest.to_alcotest test_isub_monotone_vgs;
          QCheck_alcotest.to_alcotest test_isub_monotone_vds;
          quick "isub zero vds" test_isub_zero_vds;
          QCheck_alcotest.to_alcotest test_isub_width_linear;
          QCheck_alcotest.to_alcotest test_igate_monotone_bias;
          quick "igate off small" test_igate_off_much_smaller;
          quick "reverse tunneling" test_igate_reverse_nonzero;
        ] );
      ( "iv-model",
        [
          QCheck_alcotest.to_alcotest test_iv_monotone_vds;
          QCheck_alcotest.to_alcotest test_iv_monotone_vgs;
          quick "on dominates off" test_iv_on_dominates_off;
        ] );
      ( "derating",
        [
          quick "fast is one" test_drive_factor_fast_is_one;
          quick "ordering" test_drive_factor_ordering;
          quick "bands" test_drive_factor_reasonable;
        ] );
    ]
