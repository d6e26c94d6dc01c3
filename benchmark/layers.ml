(* Every call the benchmark makes into a layer's public functions, and
   the per-layer metrics derived from them.

   Untraced, a statement is exactly what a user's call costs: parse the
   text, then [Stratum.exec].  Traced, the same statement runs as
   parse -> [Stratum.decide] -> [Stratum.transform] -> [Stratum.exec],
   each wrapped in one of this module's spans; a TEMPORAL MERGE first
   gets a [Temporal_merge.plan] probe.  The transform span fills the
   plan cache that exec then hits, so it moves work out of exec rather
   than repeating it; decide and the merge-plan probe are repeated work
   and show up in [trace.overhead_frac].  Engine counters come from the
   engine's own [Trace] sink, which is on only in traced runs. *)

module Engine = Sqleval.Engine
module Stratum = Taupsm.Stratum

let now = Mono_clock.now

(* The layers a traced statement's wall time is split into.  Their sum
   over the statement wall is [trace.coverage]. *)
let statement_layers =
  [
    "sqlparse.parse";
    "merge.plan";
    "stratum.decide";
    "stratum.transform";
    "stratum.exec";
    "serve.server";
    "serve.wire";
  ]

type t = {
  on : bool;
  spans : (string, float) Hashtbl.t; (* seconds per span name *)
  counts : (string, float) Hashtbl.t;
  mutable stmt_seconds : float; (* wall time of the traced statements *)
}

let create ~on =
  {
    on;
    spans = Hashtbl.create 16;
    counts = Hashtbl.create 64;
    stmt_seconds = 0.;
  }

let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)
let add tbl name v = Hashtbl.replace tbl name (v +. get tbl name)
let count t name n = if t.on then add t.counts name n
let set t name v = if t.on then Hashtbl.replace t.counts name v
let add_span t name s = if t.on then add t.spans name s

let span t name f =
  if not t.on then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> add t.spans name (now () -. t0)) f
  end

(* Fold another sink (one per client thread) into [into]. *)
let merge ~into t =
  Hashtbl.iter (add into.spans) t.spans;
  Hashtbl.iter (add into.counts) t.counts;
  into.stmt_seconds <- into.stmt_seconds +. t.stmt_seconds

(* Run one statement of a workload, returning its result and wall
   seconds; a traced run also books the wall as statement time. *)
let timed t f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  if t.on then t.stmt_seconds <- t.stmt_seconds +. dt;
  (r, dt)

(* ------------------------------------------------------------------ *)
(* Direct engine calls                                                 *)
(* ------------------------------------------------------------------ *)

let source_name = function
  | Stratum.Calibrated -> "calibrated"
  | Stratum.Modeled -> "modeled"
  | Stratum.Explored -> "explored"
  | Stratum.Heuristic_fallback -> "heuristic"

(* One statement through the stratum, from its text. *)
let exec t e sql =
  if not t.on then Stratum.exec e (Sqlparse.Parser.parse_temporal_stmt sql)
  else begin
    let ts =
      span t "sqlparse.parse" (fun () ->
          Sqlparse.Parser.parse_temporal_stmt sql)
    in
    (match ts.Sqlast.Ast.t_stmt with
    | Sqlast.Ast.Smerge m ->
        count t "merge.stmts" 1.;
        let tt_mode = Stratum.tt_mode_of e ts in
        span t "merge.plan" (fun () ->
            ignore
              (Temporal_merge.plan (Engine.catalog e) ~now:(Engine.now e)
                 ~tt_mode m))
    | _ -> ());
    if Stratum.auto_eligible ts then begin
      let strategy, src =
        span t "stratum.decide" (fun () -> Stratum.decide e ts)
      in
      count t "decide.all" 1.;
      count t ("decide." ^ source_name src) 1.;
      (* a shape the chosen arm cannot express fails here and again,
         recoverably, inside exec; otherwise exec's plan-cache lookup
         then hits the plan this probe stored *)
      span t "stratum.transform" (fun () ->
          match Stratum.transform ~strategy e ts with
          | _ -> count t "plan_cache.probe_hits" 1.
          | exception _ -> ())
    end;
    count t "engine.stmts" 1.;
    span t "stratum.exec" (fun () -> Stratum.exec e ts)
  end

(* Fold an engine's trace sink into the counters, then clear it. *)
let absorb t (obs : Trace.t) =
  if t.on then begin
    List.iter
      (fun (name, n) -> count t name (float_of_int n))
      (Trace.counts obs);
    (match Trace.get_dist obs "routine.seconds" with
    | Some d -> add_span t "routine" d.Trace.d_sum
    | None -> ());
    Trace.reset obs
  end

(* Point the engine's trace sink at this run's tracing switch. *)
let observe t e =
  (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.observe <- t.on;
  Trace.reset (Sqleval.Catalog.trace (Engine.catalog e))

(* ------------------------------------------------------------------ *)
(* Durable store                                                       *)
(* ------------------------------------------------------------------ *)

let rec find_span name = function
  | [] -> None
  | (s : Trace.span) :: rest -> (
      if s.Trace.sp_name = name then Some s
      else
        match find_span name s.Trace.sp_children with
        | Some s -> Some s
        | None -> find_span name rest)

(* [Persist.recover] on a store directory: the recovered engine, and the
   seconds it took. *)
let recover t ~dir =
  let obs = Trace.create ~enabled:t.on () in
  let t0 = now () in
  let e, _report = Sqleval.Persist.recover ~obs ~dir () in
  let dt = now () -. t0 in
  if t.on then begin
    let roots = Trace.roots obs in
    List.iter
      (fun name ->
        match find_span name roots with
        | Some s -> add_span t name s.Trace.sp_elapsed
        | None -> ())
      [ "recover"; "recover.load_snapshot"; "recover.replay" ];
    count t "recover.commits_replayed"
      (float_of_int (Trace.get_count obs "recover.commits_replayed"));
    count t "recover.runs" 1.
  end;
  (e, dt)

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

(* One statement over the wire.  The response carries the server-side
   seconds; the rest of the round trip is the wire and the client. *)
let served t c sql =
  let t0 = now () in
  let resp = Serve.Client.stmt c sql in
  let dt = now () -. t0 in
  if t.on then begin
    let server =
      Option.value ~default:0. (Serve.Json.member_float resp "seconds")
    in
    let server = Float.min dt server in
    add_span t "serve.server" server;
    add_span t "serve.wire" (dt -. server)
  end;
  resp

(* The lane counters of the server's [stats] op. *)
let lane_stats c =
  let open Serve.Json in
  let stats = member "stats" (Serve.Client.stats c) in
  let lane = Option.bind stats (member "lane") in
  fun key ->
    float_of_int
      (Option.value ~default:0 (Option.bind lane (fun l -> member_int l key)))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b > 0. then a /. b else 0.

(* (name, value, unit) for every per-layer metric.  [overhead] is
   1 - traced/untraced statement throughput.  Engine counters are per
   statement the traced engines executed: on serve-mixed that is the
   master engine, which runs only what the commit lane commits. *)
let metrics t ~overhead =
  let c = get t.counts and s = get t.spans in
  let wall = t.stmt_seconds in
  let frac name num den = (name, ratio num den, "frac") in
  let hit_rate name hit miss = frac name (c hit) (c hit +. c miss) in
  let span_frac name = frac (name ^ "_frac") (s name) wall in
  let per name den suffix = (name ^ suffix, ratio (c name) den, "count") in
  let per_stmt name = per name (c "engine.stmts") "_per_stmt" in
  let merges = c "merge.stmts" in
  let per_write name = per name merges "_per_write" in
  let per_commit name = per name (c "wal.commits") "_per_commit" in
  let decided = c "decide.all" in
  let decided_by src =
    frac ("stratum.decide." ^ src ^ "_frac") (c ("decide." ^ src)) decided
  in
  let auto = c "strategy.auto.max" +. c "strategy.auto.perst" in
  let covered =
    List.fold_left (fun acc l -> acc +. s l) 0. statement_layers
  in
  [
    span_frac "sqlparse.parse";
    span_frac "stratum.decide";
    span_frac "stratum.transform";
    span_frac "stratum.exec";
    span_frac "merge.plan";
    span_frac "serve.server";
    span_frac "serve.wire";
    frac "routine.share" (s "routine") wall;
    decided_by "calibrated";
    decided_by "modeled";
    decided_by "explored";
    decided_by "heuristic";
    frac "stratum.perst_frac" (c "strategy.auto.perst") auto;
    frac "stratum.mispredict_frac" (c "strategy.mispredict") auto;
    per_stmt "constant_periods.periods";
    hit_rate "cp_memo.hit_rate" "cp_memo.hits" "cp_memo.misses";
    per_stmt "cp_memo.rescans";
    (* the lookups a user's statement makes, without exec's hits on
       the plans the transform probe stored *)
    frac "plan_cache.hit_rate"
      (c "plan_cache.hit" -. c "plan_cache.probe_hits")
      (c "plan_cache.hit" +. c "plan_cache.miss" -. c "plan_cache.probe_hits");
    hit_rate "compile.compiled_frac" "compile.compiled" "compile.interpreted";
    per_stmt "routine.calls";
    per_stmt "rows.probed";
    frac "rows.match_ratio" (c "rows.matched") (c "rows.probed");
    per_stmt "scan.indexed";
    per_stmt "scan.hash";
    per_stmt "scan.full";
    per_stmt "scan.lateral";
    per_write "merge.segments";
    ("merge.rows_written_per_write", ratio (c "merge.writes") merges, "count");
    frac "merge.coalesced_frac" (c "merge.coalesced") (c "merge.segments");
    per_write "constraint.incremental_rows";
    per_write "constraint.table_checks";
    per_commit "wal.fsyncs";
    per_commit "wal.bytes";
    per_commit "wal.records";
    frac "recover.snapshot_frac" (s "recover.load_snapshot") (s "recover");
    frac "recover.replay_frac" (s "recover.replay") (s "recover");
    per "recover.commits_replayed" (c "recover.runs") "";
    ("durable.store_mb", c "durable.store_mb", "MB");
    per "lane.fsyncs" (c "lane.committed") "_per_commit";
    ("lane.batch_mean", ratio (c "lane.committed") (c "lane.batches"), "count");
    ("lane.max_batch", c "lane.max_batch", "count");
    frac "serve.lane_routed_frac" (c "serve.lane_reads") (c "serve.reads");
    frac "serve.writer_late_frac" (c "serve.late_writes") merges;
    frac "trace.coverage" covered wall;
    ("trace.overhead_frac", overhead, "frac");
  ]
