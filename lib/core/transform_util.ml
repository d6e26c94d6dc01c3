(* Shared helpers for the three temporal transformations. *)

open Sqlast.Ast
module Catalog = Sqleval.Catalog
module Value = Sqldb.Value
module Date = Sqldb.Date

exception Semantic_error of string

let semantic_error fmt =
  Printf.ksprintf (fun s -> raise (Semantic_error s)) fmt

let is_temporal_table cat name =
  match Sqldb.Database.find_table cat.Catalog.db name with
  | Some t -> (Sqldb.Table.schema t).Sqldb.Schema.temporal
  | None -> false

let table_schema_exn cat name =
  Sqldb.Table.schema (Sqldb.Database.find_table_exn cat.Catalog.db name)

(* Data columns (without the trailing timestamps) of a temporal table. *)
let data_column_names cat name =
  List.map
    (fun c -> c.Sqldb.Schema.col_name)
    (Sqldb.Schema.data_columns (table_schema_exn cat name))

(* The temporal table references of one SELECT block's FROM, as
   (alias, table name) pairs.  Tables on the right of a LEFT JOIN are
   excluded: their validity predicate belongs in the ON condition, not
   the WHERE clause (see {!add_validity_at}). *)
let temporal_trefs cat (s : select) =
  let rec of_ref tr =
    match tr with
    | Tref (name, alias) when is_temporal_table cat name ->
        [ (Option.value alias ~default:name, name) ]
    | Tjoin (l, Jinner, r, _) -> of_ref l @ of_ref r
    | Tjoin (l, Jleft, _, _) -> of_ref l
    | _ -> []
  in
  List.concat_map of_ref s.from

(* alias.begin_time <= at AND at < alias.end_time : the row is valid at
   instant [at] (paper §V-B: overlap with the start of a constant period
   suffices, because nothing changes inside one). *)
let valid_at ~alias at =
  Binop (Le, Col (Some alias, Names.begin_col), at)
  &&& Binop (Lt, at, Col (Some alias, Names.end_col))

(* Add validity-at-[at] predicates for every temporal table of a SELECT
   block's FROM.  Plain (and inner-joined) references contribute WHERE
   conjuncts; the right side of a LEFT JOIN gets its predicate conjoined
   into the ON condition, so the null extension survives. *)
let add_validity_at cat ~at (s : select) : select =
  let where_preds = ref [] in
  let rec fix tr =
    match tr with
    | Tref (name, alias) when is_temporal_table cat name ->
        where_preds :=
          valid_at ~alias:(Option.value alias ~default:name) at :: !where_preds;
        tr
    | Tjoin (l, k, r, on) -> (
        let l' = fix l in
        match (k, r) with
        | Jleft, Tref (name, alias) when is_temporal_table cat name ->
            let p = valid_at ~alias:(Option.value alias ~default:name) at in
            Tjoin (l', k, r, on &&& p)
        | Jleft, _ -> Tjoin (l', k, r, on)
        | Jinner, _ -> Tjoin (l', k, fix r, on))
    | _ -> tr
  in
  let from = List.map fix s.from in
  { s with from; where = List.fold_left add_conjunct s.where !where_preds }

(* Flatten explicit INNER JOINs into cross products with their ON
   conditions conjoined — a normalization applied before the temporal
   transformations so predicate placement stays uniform.  LEFT JOINs
   are preserved. *)
let normalize_inner_joins (s0 : stmt) : stmt =
  let open Sqlast.Rewrite in
  let select m (s : select) =
    let s = default_select m s in
    let ons = ref [] in
    let rec flatten tr =
      match tr with
      | Tjoin (l, Jinner, r, on) ->
          let ls = flatten l in
          let rs = flatten r in
          ons := on :: !ons;
          ls @ rs
      | Tjoin (l, Jleft, r, on) -> (
          match flatten l with
          | [ l' ] -> [ Tjoin (l', Jleft, r, on) ]
          | ls ->
              (* A join chain on the left: keep the last item as the
                 immediate left operand; the earlier ones precede it. *)
              let rec split = function
                | [ x ] -> ([], x)
                | x :: rest ->
                    let pre, last = split rest in
                    (x :: pre, last)
                | [] -> assert false
              in
              let pre, last = split ls in
              pre @ [ Tjoin (last, Jleft, r, on) ])
      | _ -> [ tr ]
    in
    let from = List.concat_map flatten s.from in
    { s with from; where = List.fold_left add_conjunct s.where (List.rev !ons) }
  in
  let m = { Sqlast.Rewrite.default with select } in
  m.Sqlast.Rewrite.stmt m s0

let current_date = Fun_call ("current_date", [])

(* Fold FIRST_INSTANCE / LAST_INSTANCE over several time expressions
   (paper Figure 4): the later of all begins, the earlier of all ends. *)
let last_instance = function
  | [] ->
      Taupsm_error.raise_error Taupsm_error.Internal "last_instance: empty"
  | e :: es ->
      List.fold_left (fun acc e -> Fun_call ("last_instance", [ acc; e ])) e es

let first_instance = function
  | [] ->
      Taupsm_error.raise_error Taupsm_error.Internal "first_instance: empty"
  | e :: es ->
      List.fold_left (fun acc e -> Fun_call ("first_instance", [ acc; e ])) e es

(* The temporal context of a sequenced statement as a pair of date
   expressions; the whole time line when none was given. *)
let context_exprs = function
  | Some (bt, et) -> (bt, et)
  | None -> (Lit (Value.Date Date.min_date), Lit (Value.Date Date.forever))

(* Inline a view body as a derived table, so the transformation applies
   to the view's query text (our engine stores views untransformed). *)
let inline_view_ref cat (tr : table_ref) ~(transform_query : query -> query) =
  match tr with
  | Tref (name, alias) -> (
      match Catalog.from_view cat name with
      | Some vq ->
          let a = Option.value alias ~default:name in
          Some (Tsub (transform_query vq, a))
      | None -> None)
  | _ -> None

(* Is this expression free of time-varying parts, given a predicate
   telling which variables are time-varying and which functions are
   temporal?  Used by PERST to decide where slicing is needed. *)
let rec expr_is_stable ~var_is_tv ~fun_is_temporal (e : expr) =
  match e with
  | Lit _ -> true
  | Col (None, v) -> not (var_is_tv v)
  | Col (Some _, _) -> false  (* column of some FROM item: time-varying data *)
  | Binop (_, a, b) ->
      expr_is_stable ~var_is_tv ~fun_is_temporal a
      && expr_is_stable ~var_is_tv ~fun_is_temporal b
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) ->
      expr_is_stable ~var_is_tv ~fun_is_temporal a
  | Fun_call (name, args) ->
      (not (fun_is_temporal name))
      && List.for_all (expr_is_stable ~var_is_tv ~fun_is_temporal) args
  | Agg _ -> false
  | Case c ->
      let st = expr_is_stable ~var_is_tv ~fun_is_temporal in
      Option.fold ~none:true ~some:st c.case_operand
      && List.for_all (fun (w, t) -> st w && st t) c.case_branches
      && Option.fold ~none:true ~some:st c.case_else
  | Exists _ | Scalar_subquery _ | In_pred (_, In_query _, _) -> false
  | In_pred (a, In_list es, _) ->
      expr_is_stable ~var_is_tv ~fun_is_temporal a
      && List.for_all (expr_is_stable ~var_is_tv ~fun_is_temporal) es
  | Between (a, lo, hi, _) ->
      List.for_all (expr_is_stable ~var_is_tv ~fun_is_temporal) [ a; lo; hi ]
  | Like (a, p, _) ->
      expr_is_stable ~var_is_tv ~fun_is_temporal a
      && expr_is_stable ~var_is_tv ~fun_is_temporal p
