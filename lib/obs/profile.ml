external monotonic_ns : unit -> int64 = "rlfd_obs_monotonic_ns"

let now () = Int64.to_float (monotonic_ns ()) /. 1e9

let wall () = Unix.gettimeofday ()
