(* Half-open valid-time periods [begin_, end_) at DATE granularity.

   The half-open convention matches the stratum's predicates
   (t.begin_time <= p AND p < t.end_time) and makes adjacent periods
   compose without overlap. *)

type t = { begin_ : Date.t; end_ : Date.t }

let make ~begin_ ~end_ =
  if begin_ >= end_ then
    invalid_arg
      (Printf.sprintf "Period.make: empty period [%s, %s)"
         (Date.to_string begin_) (Date.to_string end_));
  { begin_; end_ }

let make_opt ~begin_ ~end_ = if begin_ >= end_ then None else Some { begin_; end_ }
let equal a b = Date.equal a.begin_ b.begin_ && Date.equal a.end_ b.end_

let compare a b =
  match Date.compare a.begin_ b.begin_ with
  | 0 -> Date.compare a.end_ b.end_
  | c -> c

let duration p = p.end_ - p.begin_
let contains p (d : Date.t) = p.begin_ <= d && d < p.end_
let overlaps a b = a.begin_ < b.end_ && b.begin_ < a.end_
let meets a b = Date.equal a.end_ b.begin_

let intersect a b =
  let begin_ = max a.begin_ b.begin_ and end_ = min a.end_ b.end_ in
  make_opt ~begin_ ~end_

let intersect_all = function
  | [] -> None
  | p :: ps ->
      List.fold_left
        (fun acc q -> match acc with None -> None | Some p -> intersect p q)
        (Some p) ps

(* Union of two overlapping or adjacent periods. *)
let merge a b =
  if overlaps a b || meets a b || meets b a then
    Some { begin_ = min a.begin_ b.begin_; end_ = max a.end_ b.end_ }
  else None

(* Subtract b from a, yielding 0, 1, or 2 remaining periods. *)
let subtract a b =
  if not (overlaps a b) then [ a ]
  else
    let left = make_opt ~begin_:a.begin_ ~end_:(min a.end_ b.begin_) in
    let right = make_opt ~begin_:(max a.begin_ b.end_) ~end_:a.end_ in
    List.filter_map Fun.id [ left; right ]

let always = { begin_ = Date.min_date; end_ = Date.forever }

let to_string p =
  Printf.sprintf "[%s, %s)" (Date.to_string p.begin_) (Date.to_string p.end_)

let pp ppf p = Format.pp_print_string ppf (to_string p)

(* Coalescing: merge value-equivalent adjacent/overlapping timestamped values.
   Input: (value, period) pairs; output sorted by (value, begin). *)
let coalesce ~equal_value pairs =
  let sorted =
    List.sort
      (fun (_, p1) (_, p2) -> compare p1 p2)
      pairs
  in
  (* Group by value preserving order of first occurrence, then merge runs. *)
  let groups : ('a * t list) list ref = ref [] in
  List.iter
    (fun (v, p) ->
      match List.find_opt (fun (v', _) -> equal_value v v') !groups with
      | Some _ ->
          groups :=
            List.map
              (fun (v', ps) -> if equal_value v v' then (v', p :: ps) else (v', ps))
              !groups
      | None -> groups := !groups @ [ (v, [ p ]) ])
    sorted;
  List.concat_map
    (fun (v, ps) ->
      let ps = List.sort compare (List.rev ps) in
      let rec merge_run acc = function
        | [] -> List.rev acc
        | p :: rest -> (
            match acc with
            | cur :: acc' -> (
                match merge cur p with
                | Some m -> merge_run (m :: acc') rest
                | None -> merge_run (p :: acc) rest)
            | [] -> merge_run [ p ] rest)
      in
      List.map (fun p -> (v, p)) (merge_run [] ps))
    !groups

(* The constant periods of the context [bt, et) under a set of event
   points: consecutive pairs of the sorted distinct points strictly inside
   the context, with [bt] and [et] as sentinels.  This is the
   engine-level equivalent of the paper's Figure 8 ts/cp self-join (see
   DESIGN.md, substitution table). *)
let constant_periods ~bt ~et points =
  if bt >= et then []
  else begin
    let inside = List.filter (fun d -> d > bt && d < et) points in
    let arr = Array.make (List.length inside + 2) bt in
    arr.(1) <- et;
    List.iteri (fun i d -> arr.(i + 2) <- d) inside;
    Array.sort Date.compare arr;
    let rec pairs prev i acc =
      if i >= Array.length arr then List.rev acc
      else
        let d = arr.(i) in
        if d = prev then pairs prev (i + 1) acc
        else pairs d (i + 1) ((prev, d) :: acc)
    in
    pairs bt 1 []
  end
