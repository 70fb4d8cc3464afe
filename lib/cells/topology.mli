(** Transistor-level structure of the library cells.

    Every library kind is a complementary static CMOS cell whose pull-up
    and pull-down sides are series-parallel networks of devices — plain
    chains for INV/NAND/NOR, nested structures for the complex AOI/OAI
    cells.  The structure drives leakage characterization (which devices
    stack, which pin controls which position) and delay characterization
    (Elmore over the worst conducting path).

    Devices are flattened to a dense index space — pull-down devices
    first, then pull-up, each side in depth-first order — and Vt/Tox
    assignments are arrays over that space.  Tox is manufacturable only
    per diffusion stack (spacing rules, Section 4 of the paper), so
    assignments are generated per {!stacks} group for Tox and optionally
    for Vt ("uniform stack" library mode). *)

open Standby_device

type device = {
  polarity : Process.polarity;
  pin : int;  (** Physical input pin (0-based) driving this gate terminal. *)
  width : float;  (** Channel width in minimum-NMOS units. *)
}

type network =
  | Device_leaf of device
  | Series of network list
      (** Sections in series; the first element is adjacent to the cell
          output and the last to the supply rail. *)
  | Parallel of network list
      (** Branches sharing both end nodes. *)

type cell = {
  kind : Standby_netlist.Gate_kind.t;
  pull_down : network;  (** NMOS network between output and ground. *)
  pull_up : network;  (** PMOS network between output and Vdd. *)
}

type assignment = {
  vt : Process.vt_class array;  (** Per flattened device. *)
  tox : Process.tox_class array;  (** Per flattened device. *)
}

val of_kind : Standby_netlist.Gate_kind.t -> cell
(** The fixed topology and equal-drive sizing of a library kind. *)

val network_devices : network -> device list
(** Devices of one network in depth-first order. *)

val device_count : cell -> int

val devices : cell -> device array
(** Flattened devices: pull-down network first, then pull-up, each in
    depth-first order. *)

val pull_down_range : cell -> int * int
(** [(first, count)] of pull-down devices in the flattened space. *)

val pull_up_range : cell -> int * int

val stacks : cell -> int array array
(** Groups of flattened device indices that share a diffusion stack:
    maximal runs of directly series-connected devices.  A parallel
    branch with a single device is its own singleton group. *)

val fast_assignment : cell -> assignment
(** All devices low-Vt / thin-oxide. *)

val slowest_assignment : cell -> assignment
(** All devices high-Vt / thick-oxide — the unknown-state fallback the
    paper compares against. *)

val assignment_equal : assignment -> assignment -> bool

val slow_device_count : assignment -> int
(** Number of devices that deviate from the fast class in Vt, Tox or
    both; a tie-breaker favouring simpler versions. *)

val tox_stack_uniform : cell -> assignment -> bool
(** Whether every stack uses a single oxide thickness. *)

val vt_stack_uniform : cell -> assignment -> bool

val describe_assignment : cell -> assignment -> string
(** Compact rendering like ["n1:hvt n2:tox"] for reports and tests. *)

val permutations : int -> int array list
(** All permutations of [0..n-1], identity first.  A permutation [p]
    places logical input [l] onto physical pin [p.(l)] (pin
    reordering). *)

val apply_permutation : int array -> bool array -> bool array
(** [apply_permutation p logical_bits] gives the physical pin values:
    physical pin [p.(l)] carries logical bit [l]. *)
