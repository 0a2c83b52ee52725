(* Order statistics and regression verdicts for the perf benchmark: pure
   functions over float samples, shared by the runner, [--compare] and the
   unit tests. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median = function
  | [] -> invalid_arg "Pstats.median: empty sample"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] ('exclusive' method), the
   quartiles the run-to-run spread rule is stated in. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Pstats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median (the middle quartile);
   0 below two samples. *)
let spread = function
  | [] | [ _ ] -> 0.
  | xs ->
    let q1, m, q3 = quartiles xs in
    if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Nearest rank of percentile [q] among [n] samples (1-based).  The epsilon
   keeps 0.99 *. 1000. from rounding up to rank 991. *)
let rank ~n q = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let percentile xs q =
  let a = sorted xs in
  if Array.length a = 0 then invalid_arg "Pstats.percentile: empty sample";
  a.(rank ~n:(Array.length a) q - 1)

(* The highest of p99.9 / p99 / p90 that has at least 10 samples above it,
   with its value; [None] when the sample is too small for any. *)
let tail xs =
  let n = List.length xs in
  List.find_opt (fun q -> n - rank ~n q >= 10) [ 0.999; 0.99; 0.9 ]
  |> Option.map (fun q -> (q, percentile xs q))

(* One list per pass, holding the time of each of its steps in order: the
   sum over steps of each step's fastest time. *)
let sum_of_minima = function
  | [] -> invalid_arg "Pstats.sum_of_minima: no pass"
  | first :: rest ->
    List.fold_left (List.map2 Float.min) first rest |> List.fold_left ( +. ) 0.

type better = Lower | Higher

(* [Relative r]: worse by at most the share [r] of the base.
   [Relative_or_abs (r, a)]: worse by at most the larger of the share [r]
   of the base and the amount [a], in the metric's own unit.
   [Any_increase]: not worse at all. *)
type bound = Relative of float | Relative_or_abs of float * float | Any_increase

(* Signed amount, in the metric's unit, by which [cand] is worse than
   [base]; negative is better. *)
let worse_by ~better ~base ~cand = match better with Lower -> cand -. base | Higher -> base -. cand

(* The same as a share of [base]. *)
let worsening ~better ~base ~cand =
  let d = worse_by ~better ~base ~cand in
  if base <> 0. then d /. Float.abs base
  else if d > 0. then infinity
  else if d < 0. then neg_infinity
  else 0.

let within ~better ~bound ~base ~cand =
  let w = worsening ~better ~base ~cand in
  match bound with
  | Relative r -> w <= r
  | Relative_or_abs (r, a) -> w <= r || worse_by ~better ~base ~cand <= a
  | Any_increase -> w <= 0.

(* A run is correct when no call failed and every pass produced the same
   output digest; [Ok digest] names the digest they agreed on. *)
let verdict ~failed ~digests =
  match digests with
  | [] -> Error "no pass completed"
  | d :: rest ->
    if failed > 0 then Error (Printf.sprintf "%d call(s) failed" failed)
    else if List.for_all (String.equal d) rest then Ok d
    else
      Error
        ("passes disagree on output_digest: "
        ^ String.concat ", " (List.sort_uniq String.compare digests))

let exit_code = function Ok _ -> 0 | Error _ -> 1
