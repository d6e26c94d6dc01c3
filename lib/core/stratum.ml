(* The stratum (paper §III): the layer above the conventional SQL/PSM
   engine that accepts Temporal SQL/PSM, transforms it source-to-source
   per its statement modifier, and executes the conventional result.

   - current (no modifier): {!Current}, preserving TUC;
   - VALIDTIME [bt, et): sequenced, via {!Max_slicing} or
     {!Perst_slicing} — choose explicitly or let {!Heuristic} decide;
   - NONSEQUENCED VALIDTIME: {!Nonseq}.

   Sequenced modifications (VALIDTIME INSERT/DELETE/UPDATE) are handled
   by dedicated splicing entry points below. *)

open Sqlast.Ast
module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Period = Sqldb.Period
module Table = Sqldb.Table
module Schema = Sqldb.Schema
module Database = Sqldb.Database
module Calibration = Sqleval.Calibration
module Cp_memo = Sqleval.Cp_memo
module Versions = Sqleval.Versions

(* Re-exported from {!Strategy} so [Stratum.Max]/[Stratum.Perst] keep
   working while {!Heuristic} and {!Cost_model} (which return
   [Strategy.t]) sit below this module in the dependency order. *)
type strategy = Strategy.t = Max | Perst

let strategy_to_string = Strategy.to_string

(* ------------------------------------------------------------------ *)
(* Engine-level natives                                                *)
(* ------------------------------------------------------------------ *)

(* taupsm_constant_periods(points_table, bt, et): adjacent pairs of the
   sorted distinct values of the named table's first column, clipped to
   [bt, et).  The engine-level equivalent of the paper's Figure-8
   ts/cp anti-join (DESIGN.md, substitution table). *)
let constant_periods_native : Catalog.native_table_fun =
  {
    Catalog.ntf_cols = [ Names.begin_col; Names.end_col ];
    ntf_fn =
      (fun cat args ->
        match args with
        | [ Value.Str tname; bt; et ] ->
            let bt = Value.to_date_exn bt and et = Value.to_date_exn et in
            let t = Database.find_table_exn cat.Catalog.db tname in
            let points = ref [] in
            Table.iter
              (fun row ->
                match row.(0) with
                | Value.Date d -> points := d :: !points
                | Value.Null -> ()
                | v ->
                    raise
                      (Eval.Sql_error
                         (Printf.sprintf
                            "taupsm_constant_periods: non-date point %s"
                            (Value.to_string v))))
              t;
            let rows =
              List.map
                (fun (a, b) -> [| Value.Date a; Value.Date b |])
                (Period.constant_periods ~bt ~et !points)
            in
            List.iter (fun _ -> Fault.hit Fault.Period_slice) rows;
            let obs = cat.Catalog.obs in
            if Trace.enabled obs then begin
              Trace.count obs "constant_periods.calls" 1;
              Trace.count obs "constant_periods.periods" (List.length rows);
              Trace.event obs "constant-periods"
                (Printf.sprintf "table=%s periods=%d" tname
                   (List.length rows))
            end;
            { RS.cols = [ Names.begin_col; Names.end_col ]; rows }
        | _ ->
            raise
              (Eval.Sql_error
                 "taupsm_constant_periods expects (table_name, bt, et)"))
  }

(* taupsm_constant_periods_memo(tables_csv, bt, et): the same rows the
   classic taupsm_ts/taupsm_constant_periods pipeline would produce for
   the named base tables, but sourced from the catalog's incremental
   point-set memo ({!Sqleval.Cp_memo}) — when the memo's version stamps
   still hold, no table is scanned at all.  {!Max_slicing.memoizable}
   gates eligibility (non-transactional, non-shadowed base tables
   only). *)
let constant_periods_memo_native : Catalog.native_table_fun =
  {
    Catalog.ntf_cols = [ Names.begin_col; Names.end_col ];
    ntf_fn =
      (fun cat args ->
        match args with
        | [ Value.Str csv; bt; et ] ->
            let bt = Value.to_date_exn bt and et = Value.to_date_exn et in
            let tables =
              String.split_on_char ',' csv |> List.filter (fun s -> s <> "")
            in
            let r =
              Cp_memo.periods cat.Catalog.cp_memo
                ~generation:cat.Catalog.generation ~db:cat.Catalog.db ~tables
                ~bt ~et
            in
            let rows =
              List.map
                (fun (a, b) -> [| Value.Date a; Value.Date b |])
                r.Cp_memo.pairs
            in
            List.iter (fun _ -> Fault.hit Fault.Period_slice) rows;
            let obs = cat.Catalog.obs in
            if Trace.enabled obs then begin
              Trace.count obs "constant_periods.calls" 1;
              Trace.count obs "constant_periods.periods" (List.length rows);
              Trace.count obs
                (if r.Cp_memo.cache_hit then "cp_memo.hits" else "cp_memo.misses")
                1;
              if r.Cp_memo.rescanned > 0 then
                Trace.count obs "cp_memo.rescans" r.Cp_memo.rescanned;
              Trace.event obs "constant-periods"
                (Printf.sprintf "memo tables=%s periods=%d%s" csv
                   (List.length rows)
                   (if r.Cp_memo.cache_hit then " (memo hit)" else ""))
            end;
            { RS.cols = [ Names.begin_col; Names.end_col ]; rows }
        | _ ->
            raise
              (Eval.Sql_error
                 "taupsm_constant_periods_memo expects (tables_csv, bt, et)"))
  }

(* Install the stratum's natives into an engine, and the plan compiler
   into the evaluator's hook.  Idempotent. *)
let install (e : Engine.t) =
  Compile.install ();
  let cat = Engine.catalog e in
  Catalog.register_derived_prefixes cat
    [ Names.curr_prefix; Names.max_prefix; Names.ps_prefix ];
  Catalog.add_native_table_fun cat Names.constant_periods_fun
    constant_periods_native;
  Catalog.add_native_table_fun cat Names.constant_periods_memo_fun
    constant_periods_memo_native

(* ------------------------------------------------------------------ *)
(* Transformation dispatch                                             *)
(* ------------------------------------------------------------------ *)

exception Unsupported = Max_slicing.Max_unsupported

(* The conventional statements a temporal statement transforms into.
   Pure (no execution): usable for display, testing, and execution.

   Transformed plans are cached in the catalog keyed by (strategy,
   statement): re-executing the same temporal statement — e.g. MAX's
   per-period evaluation loop, or a benchmark's repeated runs — reuses
   the plan instead of re-deriving it.  The cache entry carries a
   validity token (catalog generation, database version) checked by
   {!Catalog.find_plan}, so any DDL — new tables, changed views or
   routines — invalidates it; failed transformations are not cached. *)
let transform ?(strategy = Max) (e : Engine.t) (ts : temporal_stmt) : stmt list =
  let cat = Engine.catalog e in
  let key = (strategy_to_string strategy, ts) in
  match Catalog.find_plan cat key with
  | Some plan -> plan
  | None ->
      let obs = Catalog.trace cat in
      let plan =
        Trace.time obs "stratum.transform_seconds" (fun () ->
            match ts.t_modifier with
            | Mod_current ->
                Current.plan_statements (Current.transform cat ts.t_stmt)
            | Mod_nonsequenced ->
                Nonseq.plan_statements (Nonseq.transform cat ts.t_stmt)
            | Mod_sequenced ctx -> (
                match strategy with
                | Max ->
                    Max_slicing.plan_statements
                      (Max_slicing.transform cat ~context:ctx ts.t_stmt)
                | Perst ->
                    Perst_slicing.plan_statements
                      (Perst_slicing.transform cat ~context:ctx ts.t_stmt)))
      in
      if Trace.enabled obs then
        Trace.event obs "transform"
          (Printf.sprintf "%s -> %d stmt(s)"
             (match ts.t_modifier with
             | Mod_current -> "current"
             | Mod_nonsequenced -> "nonsequenced"
             | Mod_sequenced _ -> "sequenced/" ^ strategy_to_string strategy)
             (List.length plan));
      Catalog.store_plan cat key plan;
      plan

(* Render the transformed conventional SQL/PSM as text (the paper's
   Figures 5/6, 9/10, 11). *)
let transform_to_sql ?strategy e ts : string =
  transform ?strategy e ts
  |> List.map Sqlast.Pretty.stmt_to_string
  |> String.concat ";\n\n"

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let exec_plan ?tt_mode (e : Engine.t) (stmts : stmt list) : Eval.exec_result =
  install e;
  let rec go = function
    | [] -> Eval.Unit
    | [ last ] -> Engine.exec_stmt ?tt_mode e last
    | s :: rest ->
        ignore (Engine.exec_stmt ?tt_mode e s);
        go rest
  in
  go stmts

(* Does a statement write (DML or DDL)?  Queries and PSM control flow
   do not; a CALLed procedure's body is scanned separately through the
   reachable-routine set. *)
let rec stmt_writes (s : stmt) : bool =
  match s with
  | Sinsert _ | Supdate _ | Sdelete _ | Smerge _ | Screate_table _
  | Sdrop_table _ | Screate_view _ | Screate_function _
  | Screate_procedure _ ->
      true
  | Squery _ | Scall _ | Sdeclare _ | Sdeclare_cursor _ | Sset _
  | Sselect_into _ | Sopen _ | Sclose _ | Sfetch _ | Sreturn _
  | Sreturn_query _ | Sleave _ | Siterate _ ->
      false
  | Sdeclare_handler h -> stmt_writes h
  | Sif (branches, els) | Scase_stmt (_, branches, els) ->
      List.exists (fun (_, b) -> List.exists stmt_writes b) branches
      || (match els with
         | Some b -> List.exists stmt_writes b
         | None -> false)
  | Swhile (_, _, b) | Sloop (_, b) | Sbegin b | Srepeat (_, b, _) ->
      List.exists stmt_writes b
  | Sfor f -> List.exists stmt_writes f.for_body
  | Stemporal (_, s) -> stmt_writes s

(* Is a temporal statement read-only — safe to run against a published
   MVCC snapshot instead of the single-writer lane?  Conservative: the
   statement itself must not write, and no routine reachable from it
   (functions it evaluates, procedures it CALLs, transitively) may have
   a writing body.  Anything else — DML, DDL, a CALL of a writing
   procedure — must serialize through the writer. *)
let read_only (cat : Catalog.t) (ts : temporal_stmt) : bool =
  (not (stmt_writes ts.t_stmt))
  &&
  let a = Analysis.of_stmt cat ts.t_stmt in
  List.for_all
    (fun rname ->
      match Catalog.find_routine cat rname with
      | Some (_, r) -> not (List.exists stmt_writes r.r_body)
      | None -> true)
    (Analysis.routines_list a)

(* The transaction-time reading mode of a statement.  Transaction time
   is system-maintained, so this is enforced by the engine's scans
   rather than by source rewriting. *)
let tt_mode_of (e : Engine.t) (ts : temporal_stmt) : Eval.tt_mode =
  match ts.t_tt with
  | Tt_current -> `Current
  | Tt_nonsequenced -> `All
  | Tt_asof expr ->
      let env = Eval.create_env ~now:(Engine.now e) (Engine.catalog e) in
      `Asof (Value.to_date_exn (Eval.eval_expr env expr))

(* ------------------------------------------------------------------ *)
(* Sequenced modifications (valid-time splicing)                       *)
(* ------------------------------------------------------------------ *)

(* VALIDTIME [bt,et) INSERT: the inserted rows are valid over the
   context period. *)
let sequenced_insert (e : Engine.t) ~context tname cols src : Eval.exec_result =
  let bt, et = Transform_util.context_exprs context in
  let stmt =
    match src with
    | Ivalues rows ->
        Sinsert
          ( tname,
            Option.map (fun cs -> cs @ [ Names.begin_col; Names.end_col ]) cols,
            Ivalues (List.map (fun vs -> vs @ [ bt; et ]) rows) )
    | Iquery q ->
        let cols =
          match cols with
          | Some cs -> cs
          | None -> Transform_util.data_column_names (Engine.catalog e) tname
        in
        Sinsert
          ( tname,
            Some (cols @ [ Names.begin_col; Names.end_col ]),
            Iquery
              (Select
                 {
                   select_default with
                   proj =
                     [ Star; Proj_expr (bt, Some Names.begin_col);
                       Proj_expr (et, Some Names.end_col) ];
                   from = [ Tsub (q, "taupsm_src") ];
                 }) )
  in
  Engine.exec_stmt e stmt

(* VALIDTIME [bt,et) DELETE and UPDATE: classic period splicing.  Every
   tt-current row whose validity overlaps the context and which
   satisfies the predicate is replaced by its pieces outside the context
   (old values) and, for an UPDATE ([sets] given), its piece inside the
   context with the new values.  One read-only pass gathers that write
   set — SET sees the pre-statement row and table — and
   {!Versions.apply} writes it, closing rather than rewriting versions
   recorded before today on a transaction-time table. *)
let sequenced_splice (e : Engine.t) ~context tname ~sets where :
    Eval.exec_result =
  install e;
  let cat = Engine.catalog e in
  let now = Engine.now e in
  let env = Eval.create_env ~now cat in
  let bt_e, et_e = Transform_util.context_exprs context in
  let date ex = Value.to_date_exn (Eval.eval_expr env ex) in
  let ctx = Period.make ~begin_:(date bt_e) ~end_:(date et_e) in
  let t = Database.find_table_exn cat.Catalog.db tname in
  let schema = Table.schema t in
  if not schema.Schema.temporal then
    raise
      (Eval.Sql_error
         (Printf.sprintf "sequenced %s requires a temporal table"
            (if sets = None then "DELETE" else "UPDATE")));
  let bi = Schema.begin_index schema and ei = Schema.end_index schema in
  let set = Option.map (Eval.set_columns env schema) sets in
  let period (row : Value.t array) =
    Period.make
      ~begin_:(Value.to_date_exn row.(bi))
      ~end_:(Value.to_date_exn row.(ei))
  in
  let piece row (p : Period.t) =
    let row' = Array.copy row in
    row'.(bi) <- Value.Date p.Period.begin_;
    row'.(ei) <- Value.Date p.Period.end_;
    row'
  in
  (* Predicate and SET expressions see the stored row bound to the
     table's name, as in conventional DML. *)
  Eval.with_table_binding env t (fun b ->
      let deletes =
        Versions.current_rows t (fun row ->
            Period.overlaps (period row) ctx
            &&
            (b.Eval.b_row <- row;
             match where with
             | None -> true
             | Some w -> Eval.truthy (Eval.eval_expr env w)))
      in
      let inserts =
        List.concat_map
          (fun (_, row) ->
            let p = period row in
            let inside =
              match (set, Period.intersect p ctx) with
              | Some set, Some q ->
                  b.Eval.b_row <- row;
                  [ piece (set row) q ]
              | _ -> []
            in
            List.map (piece row) (Period.subtract p ctx) @ inside)
          deletes
      in
      Versions.apply cat ~now t ~inserts ~updates:[] ~deletes;
      Eval.Affected (List.length deletes))

let sequenced_delete e ~context tname where =
  sequenced_splice e ~context tname ~sets:None where

let sequenced_update e ~context tname sets where =
  sequenced_splice e ~context tname ~sets:(Some sets) where

(* ------------------------------------------------------------------ *)
(* End-to-end execution                                                *)
(* ------------------------------------------------------------------ *)

(* One execution attempt under a fixed strategy. *)
let exec_once ?strategy (e : Engine.t) (ts : temporal_stmt) :
    Eval.exec_result =
  match (ts.t_modifier, ts.t_stmt) with
  | Mod_sequenced ctx, Sinsert (t, cols, src) ->
      sequenced_insert e ~context:ctx t cols src
  | Mod_sequenced ctx, Sdelete (t, where) -> sequenced_delete e ~context:ctx t where
  | Mod_sequenced ctx, Supdate (t, sets, where) ->
      sequenced_update e ~context:ctx t sets where
  | Mod_sequenced _, Smerge _ ->
      (* Merge is inherently sequenced: the source periods say which
         valid-time windows change.  A VALIDTIME modifier is redundant
         at best and contradictory with PERIOD at worst. *)
      raise (Eval.Sql_error "TEMPORAL MERGE does not take a VALIDTIME modifier")
  | _, Smerge m ->
      Temporal_merge.exec (Engine.catalog e) ~now:(Engine.now e)
        ~tt_mode:(tt_mode_of e ts) m
  | _ ->
      let tt_mode = tt_mode_of e ts in
      exec_plan ~tt_mode e (transform ?strategy e ts)

(* Failures a PERST attempt may gracefully degrade from: statement
   shapes PERST cannot express, a resource guard firing mid-flight, or
   an injected fault.  Genuine SQL/semantic errors do not retry — MAX
   would fail identically. *)
let perst_recoverable = function
  | Perst_slicing.Perst_unsupported _ -> true
  | Taupsm_error.Error
      { code = Taupsm_error.Resource_exhausted _ | Taupsm_error.Injected_fault; _ }
    ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Adaptive strategy choice (§VII-F, made live)                        *)
(* ------------------------------------------------------------------ *)

(* Rough database size class from the stored base-table row counts —
   the §VII-F feature the heuristic calls the data-set class.  The
   thresholds bracket the taubench dataset shapes (bench/datasets). *)
let size_class_of_db db : Heuristic.size_class =
  let rows =
    List.fold_left
      (fun acc t -> acc + Table.row_count t)
      0 (Database.base_tables db)
  in
  if rows <= 120 then Heuristic.Small
  else if rows <= 400 then Heuristic.Medium
  else Heuristic.Large

let size_tag = function
  | Heuristic.Small -> 0
  | Heuristic.Medium -> 1
  | Heuristic.Large -> 2

(* Calibration key of a sequenced statement: statement-shape fingerprint
   × context-length bucket × database size class.  The fingerprint
   digests the statement with its VALIDTIME period removed, so the same
   query over any two contexts in one bucket shares a single learning
   curve — the MAX/PERST choice depends on the query far more than on
   where its context lies — while statements differing in any other
   literal calibrate separately. *)
let calibration_key (e : Engine.t) (ts : temporal_stmt) =
  let cat = Engine.catalog e in
  let shape =
    match ts.t_modifier with
    | Mod_sequenced (Some _) -> { ts with t_modifier = Mod_sequenced None }
    | _ -> ts
  in
  let fp =
    Digest.to_hex (Digest.string (Sqlast.Pretty.temporal_stmt_to_string shape))
  in
  let ctx = Cost_model.context_of_stmt e ts in
  ( fp,
    Calibration.bucket_of_days (Period.duration ctx),
    size_tag (size_class_of_db cat.Catalog.db) )

(* [None] when the key cannot be computed (say, a context expression
   that fails to evaluate): Auto then decides by the heuristic and
   records nothing. *)
let calibration_key_opt e ts =
  match calibration_key e ts with k -> Some k | exception _ -> None

type decision_source = Calibrated | Explored | Modeled | Heuristic_fallback

let decision_source_to_string = function
  | Calibrated -> "calibrated"
  | Explored -> "explore"
  | Modeled -> "cost-model"
  | Heuristic_fallback -> "heuristic"

(* Which statements Auto applies to: sequenced queries and CALLs — the
   statements with a MAX/PERST choice at all.  Sequenced DML splices
   natively and TEMPORAL MERGE has its own planner; current and
   nonsequenced statements have a single transformation. *)
let auto_eligible (ts : temporal_stmt) =
  match (ts.t_modifier, ts.t_stmt) with
  | Mod_sequenced _, (Sinsert _ | Sdelete _ | Supdate _ | Smerge _) -> false
  | Mod_sequenced _, _ -> true
  | _ -> false

(* The live §VII-F chooser.  Preference order:

   1. calibrated: both arms carry a measured EMA under the current plan
      token — pick the cheaper; learned actuals beat any model;
   2. explore: the modeled arm has ≥2 measured runs and the other arm
      none — run the other arm once so (1) can take over.  PERST is
      never explored when the model marked it inapplicable;
   3. model: the cost model's verdict, computed on first sight and
      cached in the calibration entry;

   falling back to the paper's literal §VII-F heuristic if the cost
   model itself fails.  Until an arm has been measured the decision is
   a pure function of (statement, catalog state), so identical engines
   replaying identical histories choose identically — the property the
   recovery fuzzer's state comparisons lean on. *)
let decide_keyed (e : Engine.t) (ts : temporal_stmt) key :
    strategy * decision_source =
  let cat = Engine.catalog e in
  let heuristic () =
    match Heuristic.choose_for e ~db_size:(size_class_of_db cat.Catalog.db) ts with
    | s -> (s, Heuristic_fallback)
    | exception _ -> (Max, Heuristic_fallback)
  in
  match key with
  | None -> heuristic ()
  | Some key -> (
      let cal = cat.Catalog.calibration in
      let token = Catalog.plan_token cat in
      match Calibration.measured cal ~key ~token with
      | Some (max_ema, perst_ema) ->
          ((if perst_ema < max_ema then Perst else Max), Calibrated)
      | None -> (
          (* cm code: 0 = MAX (PERST feasible), 1 = PERST,
             2 = MAX (PERST inapplicable — never explore it) *)
          let cm_code =
            match Calibration.cm_cached cal ~key ~token with
            | Some c -> c
            | None ->
                let code =
                  match
                    let context = Cost_model.context_of_stmt e ts in
                    Cost_model.estimate e ~context ts
                  with
                  | est ->
                      if est.Cost_model.perst_cost = infinity then 2
                      else if est.Cost_model.perst_cost < est.Cost_model.max_cost
                      then 1
                      else 0
                  | exception _ -> (
                      match heuristic () with (Perst, _) -> 1 | (Max, _) -> 0)
                in
                Calibration.set_cm cal ~key ~token code;
                code
          in
          let max_runs, perst_runs = Calibration.runs cal ~key ~token in
          match cm_code with
          | 1 when perst_runs >= 2 && max_runs = 0 -> (Max, Explored)
          | 1 -> (Perst, Modeled)
          | 0 when max_runs >= 2 && perst_runs = 0 -> (Perst, Explored)
          | _ -> (Max, Modeled)))

let decide e ts = decide_keyed e ts (calibration_key_opt e ts)

(* Execute a temporal statement end to end.  Sequenced modifications
   (VALIDTIME INSERT/DELETE/UPDATE) bypass the slicing transformations
   and use valid-time splicing directly.

   When the catalog's guard has [atomic] on (the default), the whole
   statement — including the multi-phase splicing of sequenced DML and
   every statement of a MAX/PERST plan — commits or rolls back as one
   unit.  With [fallback_to_max] on, a PERST attempt that fails
   recoverably is rolled back and retried under MAX with a fresh guard
   window, recording a trace event. *)
let exec ?strategy (e : Engine.t) (ts : temporal_stmt) : Eval.exec_result =
  let cat = Engine.catalog e in
  let g = cat.Catalog.options.Catalog.guards in
  let atomic f =
    if g.Guard.atomic then Database.with_atomic cat.Catalog.db f
    else begin
      (* Non-atomic execution has no rollback: partial effects are real,
         so the WAL buffer commits at the statement boundary whether the
         statement succeeded or not — durability mirrors memory. *)
      let db = cat.Catalog.db in
      match f () with
      | r ->
          Database.wal_commit db;
          r
      | exception e ->
          Database.wal_commit db;
          raise e
    end
  in
  (* Declared temporal constraints are checked inside the atomic scope,
     so a violation rolls the whole statement back (and aborts its WAL
     batch) like any other failure.  The merge engine checks its own
     writes incrementally; every other writing statement gets the
     version-snapshot recheck over the tables it touched. *)
  let checked f =
    let check =
      cat.Catalog.options.Catalog.check_constraints
      && stmt_writes ts.t_stmt
      && match ts.t_stmt with Smerge _ -> false | _ -> true
    in
    if not check then f ()
    else begin
      let snap = Temporal_constraints.snapshot cat in
      let r = f () in
      Temporal_constraints.check_changed cat snap;
      r
    end
  in
  let attempt ?strategy () =
    Guard.enter g;
    Fun.protect
      ~finally:(fun () -> Guard.leave g)
      (fun () ->
        atomic (fun () -> checked (fun () -> exec_once ?strategy e ts)))
  in
  let obs = Catalog.trace cat in
  if
    strategy = None
    && cat.Catalog.options.Catalog.auto_strategy
    && auto_eligible ts
  then begin
    (* Auto: decide, execute, and feed the measured wall time back into
       the calibration so later decisions are evidence-based.  The key
       is computed once: it prints, digests and evaluates the statement
       and sums every base table's row count. *)
    let key = calibration_key_opt e ts in
    let chosen, src = decide_keyed e ts key in
    if Trace.enabled obs then begin
      Trace.count obs
        ("strategy.auto."
        ^ String.lowercase_ascii (strategy_to_string chosen))
        1;
      Trace.event obs "strategy"
        (Printf.sprintf "auto -> %s (%s)" (strategy_to_string chosen)
           (decision_source_to_string src))
    end;
    let record_arm arm_strategy seconds =
      match key with
      | None -> ()
      | Some key -> (
          let cal = cat.Catalog.calibration in
          let token = Catalog.plan_token cat in
          Calibration.record cal ~key ~token
            ~arm:(match arm_strategy with Max -> 0 | Perst -> 1)
            ~seconds;
          (* A completed measurement may reveal the choice was wrong.
             When this run explored the second arm and won, the model's
             pick was the slower arm all along: each of its earlier runs
             was a mispredict too. *)
          match Calibration.measured cal ~key ~token with
          | Some (m, p) when Trace.enabled obs ->
              let best = if p < m then Perst else Max in
              if best <> chosen then Trace.count obs "strategy.mispredict" 1
              else if src = Explored then begin
                let max_runs, perst_runs = Calibration.runs cal ~key ~token in
                Trace.count obs "strategy.mispredict"
                  (if chosen = Max then perst_runs else max_runs)
              end
          | _ -> ())
    in
    let timed arm_strategy =
      let t0 = Trace.now () in
      let r = attempt ~strategy:arm_strategy () in
      record_arm arm_strategy (Trace.now () -. t0);
      r
    in
    match timed chosen with
    | r -> r
    | exception exn when chosen = Perst && perst_recoverable exn ->
        (* An Auto-chosen PERST must never surface a failure MAX can
           recover from — the user never asked for PERST — so this retries
           regardless of the guard's [fallback_to_max]. *)
        if Trace.enabled obs then begin
          Trace.count obs "fallback.perst_to_max" 1;
          Trace.count obs "strategy.mispredict" 1;
          Trace.event obs "fallback"
            (Printf.sprintf "auto perst->max: %s"
               (Taupsm_error.to_string (Taupsm_error.of_exn exn)))
        end;
        (match exn with
        | Perst_slicing.Perst_unsupported _ -> (
            (* Statement shape PERST cannot express: remember the
               inapplicability so Auto stops proposing it. *)
            match key with
            | None -> ()
            | Some key ->
                Calibration.set_cm cat.Catalog.calibration ~key
                  ~token:(Catalog.plan_token cat) 2)
        | _ -> ());
        timed Max
  end
  else
    match attempt ?strategy () with
    | r -> r
    | exception exn
      when strategy = Some Perst
           && g.Guard.fallback_to_max && perst_recoverable exn ->
        if Trace.enabled obs then begin
          Trace.count obs "fallback.perst_to_max" 1;
          Trace.event obs "fallback"
            (Printf.sprintf "perst->max: %s"
               (Taupsm_error.to_string (Taupsm_error.of_exn exn)))
        end;
        attempt ~strategy:Max ()

let exec_sql ?strategy (e : Engine.t) (sql : string) : Eval.exec_result =
  exec ?strategy e (Sqlparse.Parser.parse_temporal_stmt sql)

let query ?strategy (e : Engine.t) (sql : string) : RS.t =
  match exec_sql ?strategy e sql with
  | Eval.Rows rs -> rs
  | _ -> raise (Eval.Sql_error "temporal statement did not produce rows")

(* Execute a script of temporal statements (data definition + loading +
   queries); returns the last statement's result. *)
let exec_script ?strategy (e : Engine.t) (sql : string) : Eval.exec_result =
  let stmts = Sqlparse.Parser.parse_script sql in
  List.fold_left (fun _ ts -> exec ?strategy e ts) Eval.Unit stmts

(* Statement execution with the routine-invocation count (the MAX/PERST
   cost driver the paper plots as asterisks in Figure 7). *)
let exec_counting_calls ?strategy (e : Engine.t) (ts : temporal_stmt) :
    Eval.exec_result * int =
  install e;
  let tt_mode = tt_mode_of e ts in
  let stmts = transform ?strategy e ts in
  let rec go calls = function
    | [] -> (Eval.Unit, calls)
    | [ last ] ->
        let r, c = Engine.exec_counting_calls ~tt_mode e last in
        (r, calls + c)
    | s :: rest ->
        let _, c = Engine.exec_counting_calls ~tt_mode e s in
        go (calls + c) rest
  in
  go 0 stmts

(* ------------------------------------------------------------------ *)
(* Temporal result utilities                                           *)
(* ------------------------------------------------------------------ *)

(* Timeslice a temporal result set at an instant: rows valid at [d],
   with the timestamp columns dropped.  Used by the commutativity
   checker and by clients consuming sequenced results. *)
let timeslice_result (rs : RS.t) (d : Date.t) : RS.t =
  let bi = RS.column_index_exn rs Names.begin_col in
  let ei = RS.column_index_exn rs Names.end_col in
  let keep l = List.filteri (fun i _ -> i <> bi && i <> ei) l in
  {
    RS.cols = keep rs.RS.cols;
    rows =
      List.filter_map
        (fun row ->
          let b = Value.to_date_exn row.(bi) and e = Value.to_date_exn row.(ei) in
          if b <= d && d < e then
            Some
              (Array.of_list
                 (keep (Array.to_list row)))
          else None)
        rs.RS.rows;
  }

(* Coalesce a temporal result set: merge value-equivalent rows with
   adjacent or overlapping periods into maximal periods. *)
let coalesce_result (rs : RS.t) : RS.t =
  let bi = RS.column_index_exn rs Names.begin_col in
  let ei = RS.column_index_exn rs Names.end_col in
  let keep row = List.filteri (fun i _ -> i <> bi && i <> ei) row in
  let pairs =
    List.map
      (fun row ->
        let b = Value.to_date_exn row.(bi) and e = Value.to_date_exn row.(ei) in
        (keep (Array.to_list row), Period.make ~begin_:b ~end_:e))
      rs.RS.rows
  in
  let eqv a b = List.for_all2 Value.equal a b in
  let coalesced = Period.coalesce ~equal_value:eqv pairs in
  {
    RS.cols = keep rs.RS.cols @ [ Names.begin_col; Names.end_col ];
    rows =
      List.map
        (fun (vals, (p : Period.t)) ->
          Array.of_list
            (vals @ [ Value.Date p.Period.begin_; Value.Date p.Period.end_ ]))
        coalesced;
  }
