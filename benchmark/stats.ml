(* Order statistics over raw samples.  Quantiles interpolate linearly
   between order statistics (the "exclusive" method of Python's
   statistics.quantiles for the quartiles), so a metric moves with every
   sample rather than in histogram-bucket steps. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [quantile q xs]: the q-quantile, q in [0, 1]; nan when empty. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = min (int_of_float pos) (n - 2) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* First and third quartiles as [statistics.quantiles(xs, n=4)] gives
   them: positions (n+1)/4 and 3(n+1)/4, clamped to the sample. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let at pos =
      let pos = Float.min (Float.max pos 1.0) (float_of_int n) in
      let i = int_of_float pos in
      let i = min i (n - 1) in
      let frac = pos -. float_of_int i in
      a.(i - 1) +. (frac *. (a.(i) -. a.(i - 1)))
    in
    let m = float_of_int (n + 1) in
    (at (m /. 4.), at (3. *. m /. 4.))

(* IQR as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Group (key, value) samples by key, keys in first-seen order. *)
let group pairs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some l -> Hashtbl.replace tbl k (v :: l)
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k [ v ])
    pairs;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order
