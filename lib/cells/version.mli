(** Cell-version generation (Section 4 of the paper).

    For every input state of a cell at most four delay/leakage trade-off
    points are kept: minimum delay (the all-fast cell, shared by every
    state), minimum leakage, "fast rise" (rise delay untouched) and
    "fast fall".  Versions are shared across states whenever a candidate
    within a small leakage tolerance of a state's optimum has already
    been selected — this is what keeps the NAND2 at five versions instead
    of one per (state, role) pair.  Oxide thickness is always uniform
    within a diffusion stack (manufacturability, [17] in the paper);
    Vt can optionally be forced stack-uniform too.

    The [mode] also captures the libraries the paper compares against:
    two trade-off points (Table 5), uniform-stack Vt (Table 5), Vt-only
    swaps (the DAC'03 state+Vt baseline of Table 4), and no swaps at all
    (state-only assignment). *)

open Standby_device

type trade_points = Two_points | Four_points

type mode = {
  trade_points : trade_points;
  uniform_stack_vt : bool;
  allow_high_vt : bool;
  allow_thick_tox : bool;
  allow_pin_reorder : bool;
}

val default_mode : mode
(** Four trade-off points, individual in-stack Vt, both knobs, pin
    reordering on — the paper's main configuration. *)

val two_option_mode : mode

val uniform_stack_mode : mode
(** Four points, stack-uniform Vt (and Tox, as always). *)

val two_option_uniform_stack_mode : mode

val vt_and_state_mode : mode
(** High-Vt swaps only — the prior state+Vt approach [12]. *)

val state_only_mode : mode
(** No device swaps: the library degenerates to the fast version and
    optimization reduces to pure state assignment. *)

val mode_name : mode -> string
(** Display name, as printed in results and reports ("4-option",
    "vt+state", ...). *)

val mode_tokens : (string * mode) list
(** The configuration token of each mode above, in the order listed:
    4opt, 2opt, 4opt-uniform, 2opt-uniform, vt-state, state-only.  The
    one table the CLI's [--library], a manifest's [library] key and the
    server protocol's ["library"] member read and write. *)

val mode_of_token : string -> (mode, string) result
(** Look a token up in {!mode_tokens}; the error names every token. *)

val mode_token : mode -> string
(** Inverse of {!mode_of_token}.  A mode outside {!mode_tokens} (say,
    pin reordering off) has no token and gets its {!mode_name}. *)

type role = Min_delay | Min_leakage | Fast_rise | Fast_fall

val role_name : role -> string

type option_entry = {
  version : int;  (** Index into the generated version array. *)
  perm : int array;  (** Pin permutation minimizing leakage in this state. *)
  leakage : float;  (** Total leakage at this state with [perm], A. *)
  isub : float;
  igate : float;
  role : role;
}

type generated = {
  versions : Topology.assignment array;
      (** Deduplicated version set; index 0 is the all-fast assignment. *)
  options : option_entry array array;
      (** Per input state, the selectable trade-off points sorted by
          increasing leakage; within a state each version appears at most
          once. *)
}

val enumerate : mode -> Topology.cell -> Topology.assignment array
(** Raw candidate space: per-stack-uniform Tox, per-device (or per-stack)
    Vt, restricted by the mode's knobs.  The fast assignment is always
    the first element. *)

val generate :
  ?cache:Stack_solver.cache -> Process.t -> mode -> Topology.cell -> generated
