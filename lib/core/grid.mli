(** Experiment grids: algorithm × detector × environment × seeds.

    The reproduction's recurring move is "run this algorithm under every
    detector of interest, over an environment's patterns, across seeds and
    schedulers, and judge every run".  This module packages that loop as a
    reusable API, so custom experiments read as data.  {!Rlfd_kernel.Table}
    renders the result; the benchmark harness and tests both consume it. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type cell = {
  detector : string;
  environment : string;
  runs : int;
  passes : int;
  first_failure : string option; (** the violated clause of the first failing run *)
}

val pp_cell : Format.formatter -> cell -> unit

val pass_rate : cell -> float

val run :
  n:int ->
  seeds:int list ->
  detectors:(string * Detector.suspicions Detector.t) list ->
  environments:Environment.t list ->
  judge:(('s, 'o) Runner.result -> (string * Classes.result) list) ->
  ('s, 'm, Detector.suspicions, 'o) Model.t ->
  cell list
(** One cell per (detector, environment); each cell aggregates one run per
    seed (even seeds use the fair scheduler, odd seeds a seeded random
    one).  Every run lasts at most 6000 ticks, stopping once every correct
    process has output, and its pattern's crashes fall before tick 300:
    [min 300 (6000 / 4)]. *)

val to_table : title:string -> cell list -> Table.t
