open Rlfd_kernel

type t = {
  name : string;
  contains : Pattern.t -> bool;
  families : Pattern.Family.t list;
}

let name e = e.name

let contains e pattern = e.contains pattern

let sample e ~n ~horizon rng =
  let rec try_once attempts =
    if attempts = 0 then
      failwith
        (Format.asprintf "Environment.sample: no pattern of %s found at n=%d" e.name n)
    else begin
      let family = Rng.pick rng e.families in
      let pattern = Pattern.Family.generate family ~n ~horizon rng in
      if e.contains pattern then pattern else try_once (attempts - 1)
    end
  in
  try_once 1000

let unbounded =
  {
    name = "unbounded";
    contains = (fun _ -> true);
    families = Pattern.Family.all;
  }

let majority_correct =
  {
    name = "majority-correct";
    contains =
      (fun pattern -> Pattern.num_faulty pattern <= (Pattern.n pattern - 1) / 2);
    families =
      Pattern.Family.[ failure_free; single_crash; minority_crashes ];
  }

let f_bounded f =
  {
    name = Format.asprintf "at-most-%d-crashes" f;
    contains = (fun pattern -> Pattern.num_faulty pattern <= f);
    families =
      (if f = 0 then [ Pattern.Family.failure_free ]
       else Pattern.Family.[ failure_free; single_crash; minority_crashes; uniform ]);
  }

let failure_free =
  {
    name = "failure-free";
    contains = (fun pattern -> Pattern.num_faulty pattern = 0);
    families = [ Pattern.Family.failure_free ];
  }

let custom ~name ~contains ~base = { name; contains; families = base }
