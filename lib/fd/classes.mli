(** Completeness and accuracy properties of suspicion-list histories, and the
    failure detector classes they define (Chandra–Toueg, as used by the
    paper).

    The properties quantify over infinite runs; on a finite simulation we
    check them over a horizon and interpret "eventually permanently" as
    "at every time in the final stability window".  Tests pick horizons far
    beyond the last crash so the approximation is sound for the detectors
    under study.

    Classes (the full Chandra–Toueg eight, plus the paper's [P<]):
    - [P]  (Perfect): strong completeness and strong accuracy.
    - [Q]  (Quasi-Perfect): weak completeness and strong accuracy.
    - [S]  (Strong): strong completeness and weak accuracy.
    - [W]  (Weak): weak completeness and weak accuracy.
    - [◊P], [◊Q], [◊S], [◊W]: same completeness, accuracy only eventual
      (for [◊S] and [◊W], eventual weak accuracy: there is a time after
      which some correct process is never suspected by any correct
      process).
    - [P<] (Partially Perfect, Section 6.2): partial completeness and strong
           accuracy. *)

open Rlfd_kernel

type result = Holds | Violated of string

val holds : result -> bool

val pp_result : Format.formatter -> result -> unit

val all_hold : result list -> result
(** First violation, if any. *)

type check =
  Pattern.t -> horizon:Time.t -> window:Time.t -> Detector.suspicions History.t -> result
(** A property checker.  [window] is the length of the final segment
    [\[horizon - window, horizon\]] standing in for "forever after". *)

val default_window : horizon:Time.t -> Time.t
(** A fifth of the horizon (at least one tick). *)

(** {1 Completeness} *)

val strong_completeness : check
(** Eventually every crashed process is permanently suspected by every
    correct process. *)

val weak_completeness : check
(** Eventually every crashed process is permanently suspected by some
    correct process. *)

val partial_completeness : check
(** If [p_i] crashes then eventually every correct [p_j] with [j > i]
    permanently suspects [p_i] (the completeness of [P<]). *)

(** {1 Accuracy} *)

val strong_accuracy : check
(** No process is suspected (by anyone, at any time) before it crashes. *)

val weak_accuracy : check
(** Some correct process is never suspected by anyone. *)

val eventual_strong_accuracy : check
(** There is a time after which no correct process is suspected by any
    correct process. *)

(** {1 Classes} *)

type cls =
  | Perfect
  | Quasi_perfect
  | Strong
  | Weak
  | Eventually_perfect
  | Eventually_quasi
  | Eventually_strong
  | Eventually_weak
  | Partially_perfect

val all_classes : cls list

val class_name : cls -> string

val checks_for : cls -> (string * check) list

val member : cls -> check
(** Conjunction of the class's properties. *)

val classify :
  Pattern.t -> horizon:Time.t -> window:Time.t -> Detector.suspicions History.t -> cls list
(** Every class whose properties the history satisfies on this pattern. *)
