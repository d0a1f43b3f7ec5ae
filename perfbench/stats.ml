(* Order statistics over measured samples. Tail percentiles are
   nearest-rank, so they report a sample that was measured; the median
   of an even count averages the two middle samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least [beyond] samples above it: the
   sample at rank n - beyond (1-based), so exactly [beyond] samples lie
   beyond it. Needs more than [beyond] samples. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  a.(Array.length a - beyond - 1)

let sum xs = List.fold_left ( +. ) 0. xs
