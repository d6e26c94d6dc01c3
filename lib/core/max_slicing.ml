(* Maximally-fragmented slicing (paper §V, Figures 8–10).

   A sequenced statement is evaluated once per *constant period* — a
   maximal period during which none of the (transitively) reachable
   temporal tables changes.  The transformation:

   1. prep: materialize the event points of every reachable temporal
      table into taupsm_ts (the paper's Figure 8 UNION query, verbatim),
      then the constant periods into taupsm_cp.  The paper derives cp
      from ts with a NOT EXISTS self-join that a real optimizer runs as
      an anti-join; our stratum instead calls the engine-level native
      taupsm_constant_periods (sort + adjacent pairs) — same result, see
      DESIGN.md.
   2. outer query: cross-join taupsm_cp, add an overlap predicate per
      temporal table ("valid at cp.begin_time" suffices: nothing changes
      inside a constant period), project cp.begin_time/cp.end_time, and
      pass cp.begin_time into every temporal routine call.
   3. routines: clone each reachable temporal routine as max_<name> with
      one extra parameter taupsm_bt DATE; every SELECT inside gets the
      same overlap predicates against taupsm_bt, and nested temporal
      calls pass taupsm_bt along.  Non-temporal routines are untouched
      (the paper's compile-time optimization). *)

open Sqlast.Ast
open Transform_util
module Catalog = Sqleval.Catalog
module Rewrite = Sqlast.Rewrite
module Value = Sqldb.Value

exception Max_unsupported of string

type plan = {
  prep : stmt list;  (* ts + cp materialization, run before the main stmt *)
  routines : stmt list;  (* max_ routine definitions *)
  main : stmt;
}

let plan_statements p = p.prep @ p.routines @ [ p.main ]

let cp_alias = "cp"
let cp_begin = Col (Some cp_alias, Names.begin_col)
let cp_end = Col (Some cp_alias, Names.end_col)
let bt_var = Col (None, Names.max_bt_param)

let select_is_grouped (s : select) =
  s.group_by <> [] || s.having <> None
  || List.exists
       (function
         | Proj_expr (e, _) ->
             let rec has_agg = function
               | Agg _ -> true
               | Binop (_, a, b) -> has_agg a || has_agg b
               | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> has_agg a
               | Fun_call (_, args) -> List.exists has_agg args
               | Case c ->
                   Option.fold ~none:false ~some:has_agg c.case_operand
                   || List.exists (fun (w, t) -> has_agg w || has_agg t) c.case_branches
                   || Option.fold ~none:false ~some:has_agg c.case_else
               | _ -> false
             in
             has_agg e
         | _ -> false)
       s.proj

(* The Figure-8 ts table: all begin/end points of the reachable temporal
   tables, via UNION (which deduplicates). *)
let ts_prep tables : stmt =
  let one_select col t =
    Select
      {
        select_default with
        proj = [ Proj_expr (Col (None, col), Some "time_point") ];
        from = [ Tref (t, None) ];
      }
  in
  let selects =
    List.concat_map
      (fun t -> [ one_select Names.begin_col t; one_select Names.end_col t ])
      tables
  in
  let q =
    match selects with
    | [] ->
        (* No temporal tables: an empty point set. *)
        Select
          {
            select_default with
            proj = [ Proj_expr (current_date, Some "time_point") ];
            where = Some (Lit (Value.Bool false));
          }
    | s :: rest -> List.fold_left (fun acc s' -> Union (false, acc, s')) s rest
  in
  Screate_table
    {
      ct_name = Names.ts_table;
      ct_cols = [];
      ct_temporal = false; ct_transaction = false;
      ct_temp = true; ct_constraints = [];
      ct_as = Some q;
    }

(* cp := adjacent pairs of ts's points, clipped to the temporal context,
   via the engine-level native (see module comment). *)
let cp_prep ~context : stmt =
  let bt, et = context_exprs context in
  Screate_table
    {
      ct_name = Names.cp_table;
      ct_cols = [];
      ct_temporal = false; ct_transaction = false;
      ct_temp = true; ct_constraints = [];
      ct_as =
        Some
          (Select
             {
               select_default with
               proj = [ Star ];
               from =
                 [
                   Tfun
                     ( Names.constant_periods_fun,
                       [ Lit (Value.Str Names.ts_table); bt; et ],
                       "cpsrc" );
                 ];
             });
    }

(* Memoized prep (gated by [Catalog.options.memoize_constant_periods]):
   derive the constant periods straight from the catalog's incremental
   point-set memo — a single native call, skipping the per-statement
   taupsm_ts materialization entirely.  Only sound when every reachable
   temporal table is a non-transactional base table that no temporary
   table shadows (see {!Sqleval.Cp_memo} for why); {!memoizable} is the
   gate. *)
let memoizable cat tables =
  tables <> []
  && List.for_all
       (fun t ->
         let k = String.lowercase_ascii t in
         (not
            (List.exists
               (fun tmp -> String.lowercase_ascii (Sqldb.Table.name tmp) = k)
               (Sqldb.Database.temp_tables cat.Catalog.db)))
         &&
         match Sqldb.Database.find_table cat.Catalog.db t with
         | Some tbl ->
             let s = Sqldb.Table.schema tbl in
             s.Sqldb.Schema.temporal && not s.Sqldb.Schema.transaction
         | None -> false)
       tables

let cp_prep_memo ~context tables : stmt =
  let bt, et = context_exprs context in
  let csv = String.concat "," (List.map String.lowercase_ascii tables) in
  Screate_table
    {
      ct_name = Names.cp_table;
      ct_cols = [];
      ct_temporal = false; ct_transaction = false;
      ct_temp = true; ct_constraints = [];
      ct_as =
        Some
          (Select
             {
               select_default with
               proj = [ Star ];
               from =
                 [
                   Tfun
                     ( Names.constant_periods_memo_fun,
                       [ Lit (Value.Str csv); bt; et ],
                       "cpsrc" );
                 ];
             });
    }

(* ------------------------------------------------------------------ *)
(* Mappers                                                             *)
(* ------------------------------------------------------------------ *)

(* Rewrites applied *inside* any select block that is evaluated at a
   single time instant [at]: overlap predicates for temporal tables and
   the extra argument on temporal routine calls. *)
let inner_mapper cat ~is_temporal_routine ~(at : expr) : Rewrite.mapper =
  let select m (s : select) =
    List.iter
      (function
        | Tsub (q, _) ->
            let sub = Analysis.of_query cat q in
            if Analysis.temporal_tables_list sub <> [] then
              raise
                (Max_unsupported
                   "derived table over temporal data in a sequenced query \
                    (no LATERAL correlation to cp)")
        | _ -> ())
      s.from;
    let s = Rewrite.default_select m s in
    add_validity_at cat ~at s
  in
  let expr m e =
    let e = Rewrite.default_expr m e in
    match e with
    | Fun_call (name, args) when is_temporal_routine name ->
        Fun_call (Names.max name, args @ [ at ])
    | _ -> e
  in
  let table_ref m tr =
    match tr with
    | Tref (name, _) when Catalog.from_view cat name <> None -> (
        match inline_view_ref cat tr ~transform_query:(m.Rewrite.query m) with
        | Some tr' -> tr'
        | None -> tr)
    | Tfun (f, args, alias) when is_temporal_routine f ->
        Tfun (Names.max f, List.map (m.Rewrite.expr m) args @ [ at ], alias)
    | _ -> Rewrite.default_table_ref m tr
  in
  { Rewrite.default with select; expr; table_ref }

(* Statement mapper for routine bodies: every select block is evaluated
   at taupsm_bt; temporal calls pass it along. *)
let body_mapper cat ~is_temporal_routine : Rewrite.mapper =
  let inner = inner_mapper cat ~is_temporal_routine ~at:bt_var in
  let stmt m (s : stmt) =
    match s with
    | Scall (name, args) when is_temporal_routine name ->
        Scall (Names.max name, List.map (m.Rewrite.expr m) args @ [ bt_var ])
    | (Sinsert (t, _, _) | Supdate (t, _, _) | Sdelete (t, _))
      when is_temporal_table cat t ->
        raise
          (Max_unsupported
             "a routine invoked from a sequenced query must not modify a \
              temporal table")
    | Smerge _ ->
        raise
          (Max_unsupported
             "a routine invoked from a sequenced query must not contain \
              TEMPORAL MERGE")
    | Stemporal _ ->
        semantic_error
          "a routine containing a temporal statement modifier can only be \
           invoked from a nonsequenced context"
    | _ -> Rewrite.default_stmt m s
  in
  { inner with stmt }

let transform_routine cat ~is_temporal_routine kind (r : routine) : stmt =
  let m = body_mapper cat ~is_temporal_routine in
  let r' =
    {
      r_name = Names.max r.r_name;
      r_params =
        r.r_params
        @ [ { p_name = Names.max_bt_param; p_ty = Value.Tdate; p_mode = Pin } ];
      r_returns = r.r_returns;
      r_body = List.map (m.Rewrite.stmt m) r.r_body;
    }
  in
  match kind with
  | Catalog.Rfunction -> Screate_function r'
  | Catalog.Rprocedure -> Screate_procedure r'

(* A pure-aggregate block (aggregates, no GROUP BY/HAVING/DISTINCT)
   must yield a row for *every* constant period, including periods in
   which no input row is valid (COUNT over nothing is 0).  The cross
   join with cp cannot produce those rows, so each projection item is
   evaluated as a scalar subquery per constant period instead. *)
let select_is_pure_aggregate (s : select) =
  s.group_by = [] && s.having = None && (not s.distinct)
  && List.for_all (function Proj_expr _ -> true | _ -> false) s.proj
  && select_is_grouped s

let transform_pure_aggregate cat ~is_temporal_routine (s : select) : select =
  let inner = inner_mapper cat ~is_temporal_routine ~at:cp_begin in
  let proj =
    List.map
      (function
        | Proj_expr (e, a) ->
            let sub =
              inner.Rewrite.select inner
                { s with proj = [ Proj_expr (e, None) ]; order_by = [] }
            in
            Proj_expr (Scalar_subquery (Select sub), a)
        | p -> p)
      s.proj
    @ [
        Proj_expr (cp_begin, Some Names.begin_col);
        Proj_expr (cp_end, Some Names.end_col);
      ]
  in
  {
    select_default with
    proj;
    from = [ Tref (Names.cp_table, Some cp_alias) ];
    order_by = s.order_by;
  }

(* The outer sequenced query: each top-level SELECT block gets the cp
   cross join, overlap predicates, the timestamp projection, and (when
   grouped) cp in the GROUP BY. *)
let transform_outer_select cat ~is_temporal_routine (s : select) : select =
  if select_is_pure_aggregate s then
    transform_pure_aggregate cat ~is_temporal_routine s
  else
  let inner = inner_mapper cat ~is_temporal_routine ~at:cp_begin in
  (* Transform nested parts (subqueries, routine calls) against
     cp.begin_time, then decorate this block. *)
  let s = inner.Rewrite.select inner s in
  (* [inner.select] already added the overlap predicates for this block's
     temporal tables against cp.begin_time.  Add cp itself — FIRST, so
     lateral arguments of table functions (which may reference
     cp.begin_time) are evaluated after cp is bound. *)
  let from = Tref (Names.cp_table, Some cp_alias) :: s.from in
  let proj =
    s.proj
    @ [
        Proj_expr (cp_begin, Some Names.begin_col);
        Proj_expr (cp_end, Some Names.end_col);
      ]
  in
  let group_by =
    if select_is_grouped s then s.group_by @ [ cp_begin; cp_end ] else s.group_by
  in
  { s with from; proj; group_by }

let transform cat ~context (stmt0 : stmt) : plan =
  let stmt0 = normalize_inner_joins stmt0 in
  let analysis = Analysis.of_stmt cat stmt0 in
  if analysis.Analysis.has_inner_modifier then
    semantic_error
      "a routine containing a temporal statement modifier can only be \
       invoked from a nonsequenced context";
  let temporal_tables = Analysis.temporal_tables_list analysis in
  let is_temporal_routine name =
    Analysis.SS.mem (String.lowercase_ascii name) analysis.Analysis.temporal_routines
  in
  let routines =
    List.filter_map
      (fun rname ->
        if not (is_temporal_routine rname) then None
        else
          match Catalog.find_routine cat rname with
          | Some (kind, r) -> Some (transform_routine cat ~is_temporal_routine kind r)
          | None -> None)
      (Analysis.routines_list analysis)
  in
  let prep =
    if
      cat.Catalog.options.Catalog.memoize_constant_periods
      && memoizable cat temporal_tables
    then [ cp_prep_memo ~context temporal_tables ]
    else [ ts_prep temporal_tables; cp_prep ~context ]
  in
  let main =
    match stmt0 with
    | Squery q ->
        Squery
          (map_query_selects (transform_outer_select cat ~is_temporal_routine) q)
    | Scall (name, args) when is_temporal_routine name ->
        (* A sequenced CALL: invoke the routine once per constant period. *)
        Sbegin
          [
            Sfor
              {
                for_label = None;
                for_query =
                  Select
                    {
                      select_default with
                      proj = [ Star ];
                      from = [ Tref (Names.cp_table, Some cp_alias) ];
                    };
                for_body =
                  [ Scall (Names.max name, args @ [ Col (None, Names.begin_col) ]) ];
              };
          ]
    | Scall _ as s -> s
    | _ ->
        raise
          (Max_unsupported
             "sequenced semantics applies to queries and routine calls; use \
              the stratum's sequenced DML entry points for modifications")
  in
  { prep; routines; main }

(* The paper's Figure-8 cp derivation, rendered as SQL text for display
   (the executable plan uses the native instead; see module comment). *)
let figure8_sql tables : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "CREATE TEMPORARY TABLE ts AS (\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf "  UNION\n";
      Buffer.add_string buf
        (Printf.sprintf "  SELECT begin_time AS time_point FROM %s\n  UNION\n  SELECT end_time AS time_point FROM %s\n" t t))
    tables;
  Buffer.add_string buf ");\n\n";
  Buffer.add_string buf
    "CREATE VIEW cp AS (\n\
    \  SELECT ts1.time_point AS begin_time, ts2.time_point AS end_time\n\
    \  FROM ts ts1, ts ts2\n\
    \  WHERE ts1.time_point < ts2.time_point\n\
    \    AND min_time <= ts1.time_point AND ts1.time_point < max_time\n\
    \    AND NOT EXISTS (SELECT time_point FROM ts\n\
    \                    WHERE ts1.time_point < time_point\n\
    \                      AND time_point < ts2.time_point))\n";
  Buffer.contents buf
