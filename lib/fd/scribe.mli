(** The Scribe failure detector [C] (paper, Section 3.2.1).

    The Scribe "sees what happens at all processes in real time and takes
    notes": at any time [t] and any process it outputs the whole prefix
    [F\[t\]] of the failure pattern.  It is realistic by construction and —
    projected onto crash sets — it belongs to [P]: the prefix determines
    [F(t)] exactly. *)

val canonical : Pattern.prefix Detector.t

val as_suspicions : Detector.suspicions Detector.t
(** The Scribe with its output projected to the crashed set: literally the
    canonical Perfect detector, which is how the paper concludes
    [C ∈ P]. *)
