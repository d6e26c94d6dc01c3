(* Unit + property tests for Sqldb.Period, including the constant-period
   computation at the heart of MAX slicing. *)

module Date = Sqldb.Date
module Period = Sqldb.Period

let d y m dd = Date.of_ymd ~y ~m ~d:dd
let p b e = Period.make ~begin_:b ~end_:e
let pd b e = p (d 2010 1 b) (d 2010 1 e)

let period_t = Alcotest.testable Period.pp Period.equal

(* The constant periods of [context] under the event points of [ps]. *)
let constant_periods ~(context : Period.t) ps =
  Period.constant_periods ~bt:context.begin_ ~et:context.end_
    (List.concat_map (fun (q : Period.t) -> [ q.begin_; q.end_ ]) ps)
  |> List.map (fun (b, e) -> p b e)

let test_make () =
  Alcotest.check_raises "empty period rejected"
    (Invalid_argument "Period.make: empty period [2010-01-05, 2010-01-05)")
    (fun () -> ignore (pd 5 5))

let test_overlap () =
  Alcotest.(check bool) "overlapping" true (Period.overlaps (pd 1 10) (pd 5 15));
  Alcotest.(check bool) "adjacent do not overlap" false
    (Period.overlaps (pd 1 10) (pd 10 15));
  Alcotest.(check bool) "contained" true (Period.overlaps (pd 1 20) (pd 5 6));
  Alcotest.(check bool) "disjoint" false (Period.overlaps (pd 1 5) (pd 6 9))

let test_intersect () =
  Alcotest.(check (option period_t)) "simple" (Some (pd 5 10))
    (Period.intersect (pd 1 10) (pd 5 15));
  Alcotest.(check (option period_t)) "disjoint" None
    (Period.intersect (pd 1 5) (pd 5 9));
  Alcotest.(check (option period_t)) "all of three" (Some (pd 6 8))
    (Period.intersect_all [ pd 1 10; pd 6 20; pd 2 8 ])

let test_subtract () =
  Alcotest.(check (list period_t)) "punch a hole" [ pd 1 5; pd 8 12 ]
    (Period.subtract (pd 1 12) (pd 5 8));
  Alcotest.(check (list period_t)) "left clip" [ pd 5 12 ]
    (Period.subtract (pd 1 12) (pd 1 5));
  Alcotest.(check (list period_t)) "no overlap" [ pd 1 5 ]
    (Period.subtract (pd 1 5) (pd 7 9));
  Alcotest.(check (list period_t)) "swallowed" [] (Period.subtract (pd 3 5) (pd 1 9))

let test_merge () =
  Alcotest.(check (option period_t)) "adjacent merge" (Some (pd 1 15))
    (Period.merge (pd 1 10) (pd 10 15));
  Alcotest.(check (option period_t)) "disjoint no merge" None
    (Period.merge (pd 1 5) (pd 7 9))

let test_coalesce () =
  let pairs = [ ("a", pd 1 5); ("a", pd 5 9); ("b", pd 2 4); ("a", pd 12 14) ] in
  let out = Period.coalesce ~equal_value:String.equal pairs in
  Alcotest.(check (list (pair string period_t)))
    "coalesced"
    [ ("a", pd 1 9); ("a", pd 12 14); ("b", pd 2 4) ]
    (List.sort compare out)

let test_constant_periods () =
  (* Figure 7(a)-like input: three tables' periods, context covering all. *)
  let context = pd 1 20 in
  let cps = constant_periods ~context [ pd 2 10; pd 5 15; pd 10 18 ] in
  Alcotest.(check (list period_t))
    "constant periods"
    [ pd 1 2; pd 2 5; pd 5 10; pd 10 15; pd 15 18; pd 18 20 ]
    cps

let test_constant_periods_clipped () =
  let context = pd 5 10 in
  let cps = constant_periods ~context [ pd 1 7; pd 8 20 ] in
  Alcotest.(check (list period_t)) "clipped" [ pd 5 7; pd 7 8; pd 8 10 ] cps

let test_constant_periods_empty () =
  let context = pd 5 10 in
  Alcotest.(check (list period_t)) "no events" [ pd 5 10 ]
    (constant_periods ~context [])

(* -------------------- properties -------------------- *)

let gen_period =
  QCheck.Gen.(
    let* b = int_range 0 1000 in
    let* len = int_range 1 200 in
    QCheck.Gen.return (Period.make ~begin_:b ~end_:(b + len)))

let arb_period = QCheck.make ~print:Period.to_string gen_period

let arb_periods = QCheck.make QCheck.Gen.(list_size (int_range 0 20) gen_period)

let prop_constant_periods_cover =
  QCheck.Test.make ~name:"constant periods exactly tile the context" ~count:300
    arb_periods (fun ps ->
      let context = Period.make ~begin_:0 ~end_:1300 in
      let cps = constant_periods ~context ps in
      (* Tiling: first begins at context start, last ends at context end,
         consecutive periods meet. *)
      match cps with
      | [] -> false
      | first :: _ ->
          let rec chained = function
            | a :: (b :: _ as rest) -> Period.meets a b && chained rest
            | [ last ] -> last.Period.end_ = context.Period.end_
            | [] -> false
          in
          first.Period.begin_ = context.Period.begin_ && chained cps)

let prop_constant_periods_constant =
  QCheck.Test.make
    ~name:"no input period starts or ends inside a constant period" ~count:300
    arb_periods (fun ps ->
      let context = Period.make ~begin_:0 ~end_:1300 in
      let cps = constant_periods ~context ps in
      List.for_all
        (fun cp ->
          List.for_all
            (fun (p : Period.t) ->
              let strictly_inside t =
                t > cp.Period.begin_ && t < cp.Period.end_
              in
              (not (strictly_inside p.Period.begin_))
              && not (strictly_inside p.Period.end_))
            ps)
        cps)

(* Against the sorted-unique list definition, on contexts that may be
   empty and points that repeat or fall outside the context. *)
let prop_constant_periods_reference =
  QCheck.Test.make ~name:"constant periods = adjacent sorted distinct points"
    ~count:300
    QCheck.(
      triple (int_range 0 60) (int_range 0 60)
        (list_of_size Gen.(int_range 0 30) (int_range 0 60)))
    (fun (bt, et, points) ->
      let reference =
        if bt >= et then []
        else
          let pts =
            List.sort_uniq compare
              (bt :: et :: List.filter (fun d -> d > bt && d < et) points)
          in
          let rec pairs = function
            | a :: (b :: _ as rest) -> (a, b) :: pairs rest
            | [ _ ] | [] -> []
          in
          pairs pts
      in
      Period.constant_periods ~bt ~et points = reference)

let prop_intersect_commutes =
  QCheck.Test.make ~name:"intersect commutes" ~count:300
    (QCheck.pair arb_period arb_period) (fun (a, b) ->
      Period.intersect a b = Period.intersect b a)

let prop_subtract_disjoint =
  QCheck.Test.make ~name:"subtract yields pieces disjoint from subtrahend"
    ~count:300 (QCheck.pair arb_period arb_period) (fun (a, b) ->
      List.for_all (fun piece -> not (Period.overlaps piece b)) (Period.subtract a b))

let prop_coalesce_preserves_granules =
  QCheck.Test.make ~name:"coalesce preserves the set of (value, granule) pairs"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 12) (pair (int_range 0 2) gen_period)))
    (fun pairs ->
      let granules ps =
        List.concat_map
          (fun (v, (p : Period.t)) ->
            List.init (Period.duration p) (fun i -> (v, p.Period.begin_ + i)))
          ps
        |> List.sort_uniq compare
      in
      granules (Period.coalesce ~equal_value:Int.equal pairs) = granules pairs)

let prop_coalesce_maximal =
  QCheck.Test.make ~name:"coalesced periods of equal values do not overlap or meet"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 12) (pair (int_range 0 2) gen_period)))
    (fun pairs ->
      let out = Period.coalesce ~equal_value:Int.equal pairs in
      List.for_all
        (fun (v, p) ->
          List.for_all
            (fun (v', p') ->
              v <> v' || Period.equal p p'
              || not (Period.overlaps p p' || Period.meets p p' || Period.meets p' p))
            out)
        out)

let suite =
  [
    ( "period",
      [
        Alcotest.test_case "make rejects empty" `Quick test_make;
        Alcotest.test_case "overlaps" `Quick test_overlap;
        Alcotest.test_case "intersect" `Quick test_intersect;
        Alcotest.test_case "subtract" `Quick test_subtract;
        Alcotest.test_case "merge" `Quick test_merge;
        Alcotest.test_case "coalesce" `Quick test_coalesce;
        Alcotest.test_case "constant periods" `Quick test_constant_periods;
        Alcotest.test_case "constant periods clipped" `Quick
          test_constant_periods_clipped;
        Alcotest.test_case "constant periods, no events" `Quick
          test_constant_periods_empty;
        QCheck_alcotest.to_alcotest prop_constant_periods_cover;
        QCheck_alcotest.to_alcotest prop_constant_periods_constant;
        QCheck_alcotest.to_alcotest prop_constant_periods_reference;
        QCheck_alcotest.to_alcotest prop_intersect_commutes;
        QCheck_alcotest.to_alcotest prop_subtract_disjoint;
        QCheck_alcotest.to_alcotest prop_coalesce_preserves_granules;
        QCheck_alcotest.to_alcotest prop_coalesce_maximal;
      ] );
  ]
