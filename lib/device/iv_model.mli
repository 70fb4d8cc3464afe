(** Unified static drain-current model.

    The cell stack solver needs a single monotone I-V curve covering both
    the subthreshold and strong-inversion regimes to find the DC
    operating point of a (partially) cut transistor chain: it is the
    piece that makes internal stack nodes settle at physical values
    (e.g. the one-Vt-drop source node under an ON device above an OFF
    one) without a circuit simulator.

    The model combines the {!Leakage_model} subthreshold current with an
    alpha-power-law on-current blended by a saturating Vds term.  It is
    monotone (non-decreasing) in both [vgs] and [vds], which the solver's
    nested bisections rely on. *)

val drain_current :
  Process.t ->
  polarity:Process.polarity ->
  vt:Process.vt_class ->
  tox:Process.tox_class ->
  width:float ->
  vgs:float ->
  vds:float ->
  float
(** Drain-to-source current magnitude for source-referenced NMOS-style
    magnitudes ([vds >= 0]; returns 0 otherwise).  PMOS devices use
    magnitude conventions like {!Leakage_model}.  Thick oxide reduces the
    on-current through its lower gate capacitance. *)
