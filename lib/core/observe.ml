(* EXPLAIN for the temporal stratum: transform a statement, show the
   conventional SQL/PSM it becomes and the access paths the evaluator
   chooses, then execute it on a throwaway copy of the engine and put
   the cost model's estimates next to the measured actuals.

   Everything here runs against [Engine.copy], so EXPLAIN never mutates
   the caller's data, plan cache, or trace. *)

open Sqlast.Ast
module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set

(* ------------------------------------------------------------------ *)
(* Metrics: a flat snapshot of a trace sink's counters                 *)
(* ------------------------------------------------------------------ *)

type metrics = {
  plan_cache_hits : int;
  plan_cache_misses : int;
  scans_indexed : int;
  scans_full : int;
  scans_hash : int;
  residual_fallbacks : int;
  rows_probed : int;
  rows_matched : int;
  conjuncts_elided : int;
  index_builds : int;
  index_rebuilds : int;
  routine_calls : int;
  constant_period_calls : int;
  constant_periods : int;
  selects_compiled : int;
  selects_interpreted : int;
}

let metrics_of tr =
  let c = Trace.get_count tr in
  {
    plan_cache_hits = c "plan_cache.hit";
    plan_cache_misses = c "plan_cache.miss";
    scans_indexed = c "scan.indexed";
    scans_full = c "scan.full";
    scans_hash = c "scan.hash";
    residual_fallbacks = c "scan.residual_fallback";
    rows_probed = c "rows.probed";
    rows_matched = c "rows.matched";
    conjuncts_elided = c "conjuncts.elided";
    index_builds = c "index.build";
    index_rebuilds = c "index.rebuild";
    routine_calls = c "routine.calls";
    constant_period_calls = c "constant_periods.calls";
    constant_periods = c "constant_periods.periods";
    selects_compiled = c "compile.compiled";
    selects_interpreted = c "compile.interpreted";
  }

let plan_cache_hit_rate m =
  let total = m.plan_cache_hits + m.plan_cache_misses in
  if total = 0 then 0.0 else float_of_int m.plan_cache_hits /. float_of_int total

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Rows of int  (* a query; the row count of its result *)
  | Affected of int
  | Done
  | Failed of string  (* transformation or execution raised *)

type report = {
  rp_strategy : Stratum.strategy option;
      (* None for current/nonsequenced statements, which have exactly
         one transformation *)
  rp_strategy_source :
    [ `Requested
    | `Cost_model
    | `Auto of Stratum.decision_source
    | `Not_applicable ];
  rp_sql : string option;  (* transformed SQL/PSM; None when spliced natively *)
  rp_merge : Temporal_merge.plan option;
      (* the computed merge plan for a TEMPORAL MERGE statement *)
  rp_estimate : Cost_model.estimate option;
  rp_calibration : string option;
      (* calibration-state summary; Some under Auto *)
  rp_outcome : outcome;
  rp_seconds : float;
  rp_metrics : metrics;
  rp_trace : Trace.t;
}

(* Sequenced INSERT/DELETE/UPDATE bypass the slicing transformations in
   {!Stratum.exec} (valid-time splicing is done natively on storage).
   TEMPORAL MERGE is deliberately NOT in this set: it has no SQL
   rewriting either, but its read-only planner produces a proper plan
   that the report carries in [rp_merge] instead of the fallthrough
   message. *)
let spliced_natively ts =
  match (ts.t_modifier, ts.t_stmt) with
  | Mod_sequenced _, (Sinsert _ | Sdelete _ | Supdate _) -> true
  | _ -> false

let explain ?strategy (e : Engine.t) (ts : temporal_stmt) : report =
  let e = Engine.copy e in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  let tr = Catalog.trace cat in
  Trace.reset tr;
  Stratum.install e;
  let strategy, source =
    match (strategy, ts.t_modifier) with
    | _, (Mod_current | Mod_nonsequenced) -> (None, `Not_applicable)
    | Some s, Mod_sequenced _ -> (Some s, `Requested)
    | None, Mod_sequenced _ -> (
        if cat.Catalog.options.Catalog.auto_strategy && Stratum.auto_eligible ts
        then
          let s, src = Stratum.decide e ts in
          (Some s, `Auto src)
        else
          match Cost_model.choose_for e ts with
          | s -> (Some s, `Cost_model)
          | exception _ -> (Some Stratum.Max, `Cost_model))
  in
  let estimate =
    match ts.t_modifier with
    | Mod_sequenced _ -> (
        match
          Cost_model.estimate e ~context:(Cost_model.context_of_stmt e ts) ts
        with
        | est -> Some est
        | exception _ -> None)
    | _ -> None
  in
  let calibration =
    match source with
    | `Auto _ -> Some (Sqleval.Calibration.summary cat.Catalog.calibration)
    | _ -> None
  in
  let sql =
    if spliced_natively ts then None
    else
      match ts.t_stmt with
      | Smerge _ -> None
      | _ -> (
          match Stratum.transform_to_sql ?strategy e ts with
          | s -> Some s
          | exception _ -> None)
  in
  (* Compute the merge plan before executing: planning is read-only, but
     execution changes the target and with it the plan. *)
  let merge_plan =
    match ts.t_stmt with
    | Smerge m -> (
        match
          Temporal_merge.plan cat ~now:(Engine.now e)
            ~tt_mode:(Stratum.tt_mode_of e ts) m
        with
        | pl -> Some pl
        | exception _ -> None)
    | _ -> None
  in
  let t0 = Trace.now () in
  let outcome =
    match Trace.with_span tr "exec" (fun () -> Stratum.exec ?strategy e ts) with
    | Eval.Rows rs -> Rows (List.length rs.RS.rows)
    | Eval.Affected n -> Affected n
    | Eval.Unit -> Done
    | exception Stratum.Unsupported m -> Failed ("MAX unsupported: " ^ m)
    | exception Perst_slicing.Perst_unsupported m ->
        Failed ("PERST unsupported: " ^ m)
    | exception Eval.Sql_error m -> Failed m
  in
  let seconds = Trace.now () -. t0 in
  {
    rp_strategy = strategy;
    rp_strategy_source = source;
    rp_sql = sql;
    rp_merge = merge_plan;
    rp_estimate = estimate;
    rp_calibration = calibration;
    rp_outcome = outcome;
    rp_seconds = seconds;
    rp_metrics = metrics_of tr;
    rp_trace = tr;
  }

let explain_sql ?strategy e sql =
  explain ?strategy e (Sqlparse.Parser.parse_temporal_stmt sql)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Unique event details for [label], each with its occurrence count, in
   first-occurrence order.  Plan-shaped events (join order, scan
   windows) repeat once per evaluation; the dedupe keeps the report a
   plan description rather than an execution log. *)
let dedup_events tr label =
  List.fold_left
    (fun acc (ev : Trace.event) ->
      if ev.Trace.ev_label <> label then acc
      else
        match List.assoc_opt ev.Trace.ev_detail acc with
        | Some r ->
            incr r;
            acc
        | None -> acc @ [ (ev.Trace.ev_detail, ref 1) ])
    [] (Trace.events tr)

let report_to_string ?(show_timings = true) (rp : report) : string =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let strategy_str =
    match rp.rp_strategy with
    | Some s ->
        Printf.sprintf "strategy=%s%s"
          (Stratum.strategy_to_string s)
          (match rp.rp_strategy_source with
          | `Requested -> ""
          | `Cost_model -> " (chosen by cost model)"
          | `Auto src ->
              Printf.sprintf " (auto: %s)"
                (Stratum.decision_source_to_string src)
          | `Not_applicable -> "")
    | None -> "strategy=n/a (single transformation)"
  in
  add "EXPLAIN %s" strategy_str;
  (match (rp.rp_merge, rp.rp_sql) with
  | Some pl, _ ->
      let mode =
        match pl.Temporal_merge.pl_mode with
        | Mupsert -> "UPSERT"
        | Mpatch -> "PATCH"
        | Mreplace -> "REPLACE"
      in
      let row_str (r : Sqldb.Value.t array) =
        "("
        ^ String.concat ", "
            (List.map Sqldb.Value.to_string (Array.to_list r))
        ^ ")"
      in
      let capped label rows render =
        let n = List.length rows in
        List.iteri (fun i r -> if i < 8 then add "  %s %s" label (render r)) rows;
        if n > 8 then add "  ... %d more %s row(s)" (n - 8) label
      in
      add "-- merge plan --";
      add "  target=%s mode=%s keys=(%s)" pl.Temporal_merge.pl_target mode
        (String.concat ", " pl.Temporal_merge.pl_keys);
      add "  segments: %d examined, %d coalesced away"
        pl.Temporal_merge.pl_segments pl.Temporal_merge.pl_coalesced;
      add "  writes: %d insert(s), %d update(s), %d delete(s)"
        (List.length pl.Temporal_merge.pl_inserts)
        (List.length pl.Temporal_merge.pl_updates)
        (List.length pl.Temporal_merge.pl_deletes);
      capped "+" pl.Temporal_merge.pl_inserts row_str;
      capped "~" pl.Temporal_merge.pl_updates (fun ((_, old_row), new_row) ->
          row_str old_row ^ " -> " ^ row_str new_row);
      capped "-" pl.Temporal_merge.pl_deletes (fun (_, r) -> row_str r)
  | None, Some sql ->
      add "-- transformed SQL/PSM --";
      add "%s" sql
  | None, None ->
      add "-- spliced natively on storage (no stratum rewriting) --");
  add "-- plan --";
  let m = rp.rp_metrics in
  add "  plan cache: %d hit(s), %d miss(es)" m.plan_cache_hits
    m.plan_cache_misses;
  (match dedup_events rp.rp_trace "join" with
  | [] -> ()
  | joins ->
      List.iter (fun (d, n) -> add "  join %s  (x%d)" d !n) joins);
  (match dedup_events rp.rp_trace "scan" with
  | [] -> ()
  | scans ->
      let shown, rest =
        if List.length scans <= 12 then (scans, [])
        else (List.filteri (fun i _ -> i < 12) scans,
              List.filteri (fun i _ -> i >= 12) scans)
      in
      List.iter (fun (d, n) -> add "  scan %s  (x%d)" d !n) shown;
      if rest <> [] then add "  ... %d more distinct scan(s)" (List.length rest));
  (match dedup_events rp.rp_trace "index" with
  | [] -> ()
  | idx -> List.iter (fun (d, n) -> add "  index %s  (x%d)" d !n) idx);
  add "  scans: %d indexed, %d full, %d hash, %d residual fallback(s)"
    m.scans_indexed m.scans_full m.scans_hash m.residual_fallbacks;
  add "  rows: %d probed, %d matched; %d conjunct check(s) elided"
    m.rows_probed m.rows_matched m.conjuncts_elided;
  add "  selects: %d compiled, %d interpreted" m.selects_compiled
    m.selects_interpreted;
  add "-- cost model vs actuals --";
  (match rp.rp_estimate with
  | Some est ->
      add "  estimated: MAX cost=%.0f, PERST cost=%s, constant periods=%d"
        est.Cost_model.max_cost
        (if est.Cost_model.perst_cost = infinity then "n/a"
         else Printf.sprintf "%.0f" est.Cost_model.perst_cost)
        est.Cost_model.n_cp
  | None -> add "  estimated: n/a (not a sequenced statement)");
  (match rp.rp_calibration with
  | Some s -> add "  calibration: %s" s
  | None -> ());
  let outcome_str =
    match rp.rp_outcome with
    | Rows n -> Printf.sprintf "%d row(s)" n
    | Affected n -> Printf.sprintf "%d row(s) affected" n
    | Done -> "ok"
    | Failed msg -> "FAILED: " ^ msg
  in
  if show_timings then
    add "  actual:    %s in %s; %d routine call(s), %d constant period(s)"
      outcome_str
      (Trace.pp_seconds rp.rp_seconds)
      m.routine_calls m.constant_periods
  else
    add "  actual:    %s; %d routine call(s), %d constant period(s)"
      outcome_str m.routine_calls m.constant_periods;
  add "-- trace --";
  (* The plan section above already shows the events deduplicated. *)
  Buffer.add_string buf
    (Trace.summary_to_string ~show_timings ~with_events:false rp.rp_trace);
  Buffer.contents buf
