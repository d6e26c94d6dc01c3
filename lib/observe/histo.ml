(* A log-bucketed histogram for latency distributions.  See histo.mli. *)

(* Geometric buckets from [lo] seconds upward, [per_octave] buckets per
   doubling: bucket boundaries are lo * 2^(i / per_octave), giving a
   worst-case quantile error of 2^(1/per_octave) - 1 (~19% at 4 per
   octave) — plenty for p50/p99 reporting — with a fixed small
   footprint.  Values below [lo] land in bucket 0; values beyond the
   last boundary land in the overflow bucket. *)
let lo = 1e-6
let per_octave = 4
let nbuckets = 1 + (per_octave * 30) (* lo .. lo * 2^30 (~1073 s) + overflow *)
let log2 = log 2.0

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  {
    counts = Array.make (nbuckets + 1) 0;
    count = 0;
    sum = 0.;
    min = infinity;
    max = neg_infinity;
  }

let bucket_of v =
  if v <= lo then 0
  else
    let i = int_of_float (ceil (log (v /. lo) /. log2 *. float_of_int per_octave)) in
    if i < 0 then 0 else if i > nbuckets then nbuckets else i

(* Upper boundary of bucket [i] — the value reported for any quantile
   that lands in it, so reported quantiles never understate. *)
let bucket_upper i =
  if i >= nbuckets then infinity
  else lo *. (2.0 ** (float_of_int i /. float_of_int per_octave))

let add t v =
  let v = if Float.is_nan v then 0. else v in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0. else t.min
let max_value t = if t.count = 0 then 0. else t.max

(* The [q]-quantile (q in [0,1]) as the upper boundary of the bucket the
   rank falls in, clamped to the observed max so a sparsely-filled top
   bucket cannot report beyond reality (and the overflow bucket never
   reports infinity). *)
let quantile t q =
  if t.count = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let acc = ref 0 and i = ref 0 in
    while !acc < rank && !i <= nbuckets do
      acc := !acc + t.counts.(!i);
      incr i
    done;
    let upper = bucket_upper (!i - 1) in
    Float.min upper t.max
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99

(* Fold [src] into [dst] (bucket-wise add) — deterministic regardless of
   merge order. *)
let merge ~into:dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.min < dst.min then dst.min <- src.min;
  if src.max > dst.max then dst.max <- src.max

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.sum <- 0.;
  t.min <- infinity;
  t.max <- neg_infinity

let summary_string t =
  if t.count = 0 then "n=0"
  else
    Printf.sprintf "n=%d mean=%.6f p50=%.6f p90=%.6f p99=%.6f max=%.6f"
      t.count (mean t) (p50 t) (p90 t) (p99 t) (max_value t)
