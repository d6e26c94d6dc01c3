(* taupsm — a command-line front end for the Temporal SQL/PSM stratum.

     taupsm transform [--strategy max|perst] "<temporal statement>"
         Show the conventional SQL/PSM the stratum generates (the
         paper's source-to-source transformation), without executing.

     taupsm run [--dataset DS1-SMALL] [--strategy ...] "<stmt>" ["<stmt>"...]
         Execute temporal statements against a loaded τBench dataset (or
         an empty database with --empty) and print results.

     taupsm repl [--dataset ...]
         An interactive prompt; statements end with ';'.  Accepts the
         full surface, including sequenced DML and TEMPORAL MERGE
         (docs/merge_semantics.md).

     taupsm gen --dataset DS2-MEDIUM
         Print dataset statistics (tables, row counts, periods).

     taupsm explain [--dataset ...] --query q2 [--days 30]
         For a τPSM benchmark query: analysis features, the heuristic's
         strategy choice, and routine-invocation counts per strategy. *)

open Cmdliner
module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module Persist = Sqleval.Persist
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

(* ------------------------------------------------------------------ *)
(* Shared argument converters                                          *)
(* ------------------------------------------------------------------ *)

let strategy_conv =
  let parse = function
    | "max" | "MAX" -> Ok Stratum.Max
    | "perst" | "PERST" -> Ok Stratum.Perst
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S (max|perst)" s))
  in
  let print ppf s = Format.pp_print_string ppf (Stratum.strategy_to_string s) in
  Arg.conv (parse, print)

(* Range-checked numeric converters: every enum/range flag is validated
   eagerly at parse time with a typed usage error (exit 124), never
   deep inside execution. *)
let bounded_int_conv ~what ~min ?max () =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer (got %S)" what s))
    | Some n when n < min ->
        Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what min n))
    | Some n when (match max with Some m -> n > m | None -> false) ->
        Error
          (`Msg
            (Printf.sprintf "%s must be <= %d (got %d)" what (Option.get max) n))
    | Some n -> Ok n
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float_conv ~what =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s must be a number (got %S)" what s))
    | Some f when not (Float.is_finite f) || f <= 0. ->
        Error (`Msg (Printf.sprintf "%s must be > 0 (got %s)" what s))
    | Some f -> Ok f
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let port_conv = bounded_int_conv ~what:"port" ~min:0 ~max:65535 ()

let spec_conv =
  let parse s =
    match String.uppercase_ascii s |> String.split_on_char '-' with
    | [ ds; size ] -> (
        let ds =
          match ds with
          | "DS1" -> Some Datasets.DS1
          | "DS2" -> Some Datasets.DS2
          | "DS3" -> Some Datasets.DS3
          | _ -> None
        in
        let size =
          match size with
          | "SMALL" -> Some Taupsm.Heuristic.Small
          | "MEDIUM" -> Some Taupsm.Heuristic.Medium
          | "LARGE" -> Some Taupsm.Heuristic.Large
          | _ -> None
        in
        match (ds, size) with
        | Some ds, Some size -> Ok { Datasets.ds; size }
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown dataset %S (DS{1,2,3}-{SMALL,MEDIUM,LARGE})" s)))
    | _ -> Error (`Msg "dataset must look like DS1-SMALL")
  in
  let print ppf s = Format.pp_print_string ppf (Datasets.spec_to_string s) in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Stratum.Max
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Sequenced slicing strategy: $(b,max) or $(b,perst).")

(* run/repl/serve take the three-valued form: $(b,auto) (the default)
   lets the engine's calibrated §VII-F chooser pick per statement. *)
let choice_conv =
  let parse s =
    match Taupsm.Strategy.choice_of_string s with
    | Ok c -> Ok c
    | Error m -> Error (`Msg m)
  in
  let print ppf c =
    Format.pp_print_string ppf (Taupsm.Strategy.choice_to_string c)
  in
  Arg.conv (parse, print)

let strategy_choice_arg =
  Arg.(
    value
    & opt choice_conv Taupsm.Strategy.Auto
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Sequenced slicing strategy: $(b,auto) (default; adaptive \
           MAX/PERST choice with learned calibration), $(b,max), or \
           $(b,perst).")

(* Resolve a strategy choice against an engine: Auto turns the adaptive
   chooser on and forces nothing; Force pins every statement. *)
let set_strategy_choice e choice =
  match choice with
  | Taupsm.Strategy.Auto ->
      (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.auto_strategy <-
        true;
      None
  | Taupsm.Strategy.Force s -> Some s

let no_cp_memo_arg =
  Arg.(
    value & flag
    & info [ "no-cp-memo" ]
        ~doc:
          "Disable the incremental constant-period memo (every sequenced \
           MAX execution recomputes taupsm_ts/taupsm_cp from scratch; \
           results are identical).")

let set_cp_memo e no_cp_memo =
  (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog
  .memoize_constant_periods <- not no_cp_memo

let dataset_arg =
  Arg.(
    value
    & opt spec_conv { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small }
    & info [ "d"; "dataset" ] ~docv:"DATASET"
        ~doc:"τBench dataset, e.g. $(b,DS1-SMALL) or $(b,DS3-LARGE).")

let empty_arg =
  Arg.(
    value & flag
    & info [ "empty" ]
        ~doc:"Start from an empty database instead of a τBench dataset.")

let seed_arg =
  Arg.(
    value
    & opt int Datasets.default_seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for data generation.")

(* Resource-guard flags (run/repl): limits land in the engine catalog's
   guard and are enforced at evaluator step boundaries. *)
let deadline_arg =
  Arg.(
    value
    & opt (some (positive_float_conv ~what:"--deadline")) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Wall-clock deadline per statement.")

let max_rows_arg =
  Arg.(
    value
    & opt (some (bounded_int_conv ~what:"--max-rows" ~min:1 ())) None
    & info [ "max-rows" ] ~docv:"N"
        ~doc:"Row budget per statement (rows produced or inserted).")

let loop_cap_arg =
  Arg.(
    value
    & opt (some (bounded_int_conv ~what:"--loop-cap" ~min:1 ())) None
    & info [ "loop-cap" ] ~docv:"N"
        ~doc:"Iteration cap for a single PSM loop.")

let fallback_arg =
  Arg.(
    value & flag
    & info [ "fallback-to-max" ]
        ~doc:
          "Retry a PERST execution that fails recoverably (unsupported \
           shape, guard, injected fault) under MAX after rolling back.")

let no_atomic_arg =
  Arg.(
    value & flag
    & info [ "no-atomic" ]
        ~doc:
          "Disable atomic statement execution (failed statements may \
           leave partial effects).")

let no_compile_arg =
  Arg.(
    value & flag
    & info [ "no-compile" ]
        ~doc:
          "Evaluate every SELECT with the tree-walking interpreter instead \
           of compiled plan closures (results are identical; useful for \
           timing comparisons and for isolating compiler bugs).")

let set_compile e no_compile =
  if no_compile then
    (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.compile <- false

let set_guards e deadline max_rows loop_cap fallback no_atomic =
  let g =
    (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.guards
  in
  g.Guard.deadline_seconds <- deadline;
  g.Guard.row_budget <- max_rows;
  g.Guard.loop_cap <- loop_cap;
  if fallback then g.Guard.fallback_to_max <- true;
  if no_atomic then g.Guard.atomic <- false

let make_engine ~empty ~seed spec =
  if empty then begin
    let e = Engine.create () in
    Stratum.install e;
    e
  end
  else begin
    let e = Datasets.load ~seed spec in
    Queries.install e;
    e
  end

(* Durability flags (run/repl): a --db-dir holding a store is recovered
   and resumed (the dataset flags are then moot — the store *is* the
   data); an empty or absent one is initialised from the loaded
   dataset.  Either way every committed statement is then
   write-ahead-logged. *)
let db_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "db-dir" ] ~docv:"DIR"
        ~doc:
          "Durable store directory.  Recovered (snapshot + WAL replay) if \
           it already holds a store, otherwise initialised from the loaded \
           dataset; committed statements are write-ahead-logged to it.")

let wal_sync_conv =
  let parse = function
    | "always" -> Ok Durable.Wal.Always
    | "batch" -> Ok (Durable.Wal.Batch 16)
    | "off" -> Ok Durable.Wal.Off
    | s when String.length s > 6 && String.sub s 0 6 = "batch:" -> (
        let n = String.sub s 6 (String.length s - 6) in
        match int_of_string_opt n with
        | Some k when k >= 1 -> Ok (Durable.Wal.Batch k)
        | Some k ->
            Error
              (`Msg (Printf.sprintf "batch size must be >= 1 (got batch:%d)" k))
        | None ->
            Error
              (`Msg (Printf.sprintf "batch size must be an integer (got %S)" n)))
    | s ->
        Error
          (`Msg
            (Printf.sprintf "unknown sync policy %S (always|batch[:N]|off)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | Durable.Wal.Always -> "always"
      | Durable.Wal.Batch n -> Printf.sprintf "batch:%d" n
      | Durable.Wal.Off -> "off")
  in
  Arg.conv (parse, print)

let wal_sync_arg =
  Arg.(
    value
    & opt wal_sync_conv (Durable.Wal.Batch 16)
    & info [ "wal-sync" ] ~docv:"POLICY"
        ~doc:
          "WAL fsync policy: $(b,always) (fsync every commit), $(b,batch) or \
           $(b,batch:N) (fsync every N commits, default N=16), or $(b,off).")

let snapshot_every_conv = bounded_int_conv ~what:"--snapshot-every" ~min:1 ()

let snapshot_every_arg =
  Arg.(
    value
    & opt (some snapshot_every_conv) None
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Rotate to a fresh snapshot + WAL pair every $(docv) committed \
           statements (older generations are kept as recovery fallbacks).")

let make_durable_engine ~empty ~seed ~policy ~snapshot_every spec db_dir =
  match db_dir with
  | None -> (make_engine ~empty ~seed spec, None)
  | Some dir ->
      if Durable.Store.exists dir then begin
        let e, report = Persist.recover ~dir () in
        let h = Persist.resume ~policy ?snapshot_every ~dir e report in
        Stratum.install e;
        Printf.eprintf "%s\n%!" (Persist.report_to_string report);
        (e, Some h)
      end
      else begin
        let e = make_engine ~empty ~seed spec in
        let h = Persist.attach ~policy ?snapshot_every ~dir e in
        (e, Some h)
      end

(* Every failure — including engine invariant violations — prints a
   structured one-liner (code, message, routine/statement/period context
   when known) and exits nonzero; nothing escapes as a raw backtrace. *)
let handle_errors f =
  try
    f ();
    0
  with
  | Taupsm.Perst_slicing.Perst_unsupported msg ->
      Printf.eprintf "PERST does not apply: %s (MAX always does)\n" msg;
      1
  | Taupsm.Max_slicing.Max_unsupported msg ->
      Printf.eprintf "unsupported under sequenced semantics: %s\n" msg;
      1
  | exn ->
      Printf.eprintf "%s\n" (Taupsm.Resilient.error_message exn);
      1

(* ------------------------------------------------------------------ *)
(* transform                                                           *)
(* ------------------------------------------------------------------ *)

let transform_cmd =
  let stmt_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STATEMENT" ~doc:"The Temporal SQL/PSM statement.")
  in
  let run strategy dataset empty seed stmt =
    handle_errors (fun () ->
        let e = make_engine ~empty ~seed dataset in
        let ts = Sqlparse.Parser.parse_temporal_stmt stmt in
        print_endline (Stratum.transform_to_sql ~strategy e ts))
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:
         "Show the conventional SQL/PSM generated for a temporal statement \
          (no execution).")
    Term.(const run $ strategy_arg $ dataset_arg $ empty_arg $ seed_arg $ stmt_arg)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let print_result = function
  | Eval.Rows rs -> print_string (Sqleval.Result_set.to_string rs)
  | Eval.Affected n -> Printf.printf "%d row(s) affected\n" n
  | Eval.Unit -> print_endline "ok"

let run_cmd =
  let stmts_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"STATEMENT" ~doc:"Temporal SQL/PSM statement(s).")
  in
  let run choice dataset empty seed deadline max_rows loop_cap fallback
      no_atomic no_compile no_cp_memo db_dir policy snapshot_every stmts =
    handle_errors (fun () ->
        let e, h =
          make_durable_engine ~empty ~seed ~policy ~snapshot_every dataset
            db_dir
        in
        Fun.protect
          ~finally:(fun () -> Option.iter Persist.detach h)
          (fun () ->
            set_guards e deadline max_rows loop_cap fallback no_atomic;
            set_compile e no_compile;
            set_cp_memo e no_cp_memo;
            let strategy = set_strategy_choice e choice in
            List.iter
              (fun stmt -> print_result (Stratum.exec_sql ?strategy e stmt))
              stmts))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute temporal statements and print the results.")
    Term.(
      const run $ strategy_choice_arg $ dataset_arg $ empty_arg $ seed_arg
      $ deadline_arg $ max_rows_arg $ loop_cap_arg $ fallback_arg
      $ no_atomic_arg $ no_compile_arg $ no_cp_memo_arg
      $ db_dir_arg $ wal_sync_arg $ snapshot_every_arg $ stmts_arg)

(* ------------------------------------------------------------------ *)
(* repl                                                                *)
(* ------------------------------------------------------------------ *)

let repl_cmd =
  let run choice dataset empty seed deadline max_rows loop_cap fallback
      no_atomic no_compile no_cp_memo db_dir policy snapshot_every =
    let e, h =
      make_durable_engine ~empty ~seed ~policy ~snapshot_every dataset db_dir
    in
    set_guards e deadline max_rows loop_cap fallback no_atomic;
    set_compile e no_compile;
    set_cp_memo e no_cp_memo;
    let strategy = set_strategy_choice e choice in
    Printf.printf
      "taupsm repl — %s; statements end with ';', Ctrl-D exits.\n\
       Sequenced DML and TEMPORAL MERGE are available (see \
       docs/merge_semantics.md).\n%!"
      (match db_dir with
      | Some dir when h <> None -> Printf.sprintf "durable store %s" dir
      | _ ->
          if empty then "empty database" else Datasets.spec_to_string dataset);
    let buf = Buffer.create 256 in
    (try
       while true do
         print_string (if Buffer.length buf = 0 then "taupsm> " else "   ...> ");
         flush stdout;
         let line = input_line stdin in
         Buffer.add_string buf line;
         Buffer.add_char buf '\n';
         if String.contains line ';' then begin
           let stmt = Buffer.contents buf in
           Buffer.clear buf;
           ignore
             (handle_errors (fun () ->
                  print_result (Stratum.exec_sql ?strategy e stmt)))
         end
       done
     with End_of_file -> ());
    Option.iter Persist.detach h;
    0
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive Temporal SQL/PSM prompt.")
    Term.(
      const run $ strategy_choice_arg $ dataset_arg $ empty_arg $ seed_arg
      $ deadline_arg $ max_rows_arg $ loop_cap_arg $ fallback_arg
      $ no_atomic_arg $ no_compile_arg $ no_cp_memo_arg
      $ db_dir_arg $ wal_sync_arg $ snapshot_every_arg)

(* ------------------------------------------------------------------ *)
(* recover                                                             *)
(* ------------------------------------------------------------------ *)

let store_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "db-dir" ] ~docv:"DIR" ~doc:"Durable store directory.")

let recover_cmd =
  let run dir =
    match Persist.recover ~dir () with
    | exception exn ->
        Printf.eprintf "%s\n" (Taupsm.Resilient.error_message exn);
        1
    | e, report ->
        let open Serve in
        let db = Engine.database e in
        let tables =
          List.map
            (fun name ->
              Json.Obj
                [
                  ("table", Json.Str name);
                  ( "rows",
                    Json.Int
                      (Sqldb.Table.row_count
                         (Sqldb.Database.find_table_exn db name)) );
                ])
            (Sqldb.Database.table_names db)
        in
        let fell_back = report.Durable.Store.snapshots_skipped > 0 in
        let j =
          Json.Obj
            [
              ("snapshot_id", Json.Int report.Durable.Store.snapshot_id);
              ( "wal_generation",
                Json.Int report.Durable.Store.wal_generation );
              ( "snapshots_skipped",
                Json.Int report.Durable.Store.snapshots_skipped );
              ("fell_back", Json.Bool fell_back);
              ( "commits_replayed",
                Json.Int report.Durable.Store.commits_replayed );
              ("records_scanned", Json.Int report.Durable.Store.records_scanned);
              ("bytes_scanned", Json.Int report.Durable.Store.bytes_scanned);
              ("stop", Json.Str report.Durable.Store.stop);
              ("last_serial", Json.Int report.Durable.Store.last_serial);
              ("wal_good_offset", Json.Int report.Durable.Store.wal_good_offset);
              ( "wal_committed_offset",
                Json.Int report.Durable.Store.wal_committed_offset );
              ("seconds", Json.Float report.Durable.Store.seconds);
              ( "engine_clock",
                Json.Str (Sqldb.Date.to_string (Engine.now e)) );
              ("tables", Json.List tables);
            ]
        in
        print_endline (Json.to_string j);
        Printf.eprintf "%s\n%!" (Persist.report_to_string report);
        if fell_back then 3 else 0
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Recover a durable store (latest intact snapshot + WAL replay to \
          the last intact commit marker) without going live, printing a \
          machine-readable JSON report on stdout.  Exits 3 when recovery \
          had to fall back past the newest snapshot generation.")
    Term.(const run $ store_dir_arg)

(* ------------------------------------------------------------------ *)
(* scrub / backup / restore                                            *)
(* ------------------------------------------------------------------ *)

let scrub_cmd =
  let no_quarantine_arg =
    Arg.(
      value & flag
      & info [ "no-quarantine" ]
          ~doc:
            "Report corruption only; do not rename corrupt files of older \
             generations to $(b,*.quarantine).")
  in
  let run dir no_quarantine =
    match
      Persist.scrub ~quarantine:(not no_quarantine) ~dir ()
    with
    | exception exn ->
        Printf.eprintf "%s\n" (Taupsm.Resilient.error_message exn);
        1
    | r ->
        print_endline (Serve.Json.to_string (Serve.Server.scrub_json r));
        (* exit 3 when corruption was found, so cron jobs can alert *)
        let corrupt =
          List.exists
            (fun (g : Durable.Store.gen_status) ->
              (not g.Durable.Store.snap_ok)
              ||
              match g.Durable.Store.wal_stop with
              | "bad_crc" | "bad_record" | "bad_magic" | "io_error" -> true
              | _ -> false)
            r.Durable.Store.generations
        in
        if corrupt then 3 else 0
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "CRC-walk every retained snapshot + WAL generation of a durable \
          store, quarantine corrupt files of superseded generations \
          (rename to $(b,*.quarantine), never delete), and report which \
          commits remain recoverable.  Safe against a live store; exits 3 \
          when any corruption was found.")
    Term.(const run $ store_dir_arg $ no_quarantine_arg)

let backup_cmd =
  let target_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "target" ] ~docv:"DIR" ~doc:"Directory to write the archive to.")
  in
  let run dir target =
    handle_errors (fun () ->
        let r = Persist.backup_dir ~dir ~target () in
        print_endline (Serve.Json.to_string (Serve.Server.backup_json r)))
  in
  Cmd.v
    (Cmd.info "backup"
       ~doc:
         "Copy the newest intact snapshot generation plus its committed WAL \
          prefix into $(b,--target) — a self-contained archive restorable \
          with $(b,restore).  For a backup of a live server use the \
          $(b,backup) op on the serve protocol instead.")
    Term.(const run $ store_dir_arg $ target_arg)

let restore_cmd =
  let archive_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "archive" ] ~docv:"DIR"
          ~doc:"Backup archive (or any store directory) to restore from.")
  in
  let as_of_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "as-of-commit" ] ~docv:"N"
          ~doc:
            "Point-in-time restore: replay the archive only up to commit \
             serial $(docv) (default: everything committed).")
  in
  let run archive dir as_of =
    handle_errors (fun () ->
        if Durable.Store.exists dir then
          raise
            (Eval.Sql_error
               (Printf.sprintf
                  "restore target %s already holds a store; refusing to \
                   overwrite"
                  dir));
        let e, h, report =
          Persist.restore ?as_of_serial:as_of ~archive ~dir ()
        in
        Printf.eprintf "%s\n%!" (Persist.report_to_string report);
        let db = Engine.database e in
        Printf.printf "restored to %s at serial %d (%d table(s))\n" dir
          report.Durable.Store.last_serial
          (List.length (Sqldb.Database.table_names db));
        Persist.detach h)
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Restore a backup archive into a fresh store directory, optionally \
          stopping at an exact commit marker ($(b,--as-of-commit)).  The \
          archive is never written to; the target must not already hold a \
          store.")
    Term.(const run $ archive_arg $ store_dir_arg $ as_of_arg)

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run dataset seed =
    let e = Datasets.load ~seed dataset in
    Printf.printf "dataset %s (seed %d)\n" (Datasets.spec_to_string dataset) seed;
    Printf.printf "%-16s %10s\n" "table" "rows";
    List.iter
      (fun (name, n) -> Printf.printf "%-16s %10d\n" name n)
      (Datasets.row_counts e);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a τBench dataset and print its statistics.")
    Term.(const run $ dataset_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let query_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY"
          ~doc:"τPSM benchmark query id (q2, q2b, ..., q20).")
  in
  let stmt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"STATEMENT"
          ~doc:
            "A Temporal SQL/PSM statement to explain (alternative to \
             $(b,--query)).")
  in
  let days_arg =
    Arg.(
      value & opt int 30
      & info [ "days" ] ~docv:"DAYS" ~doc:"Temporal-context length in days.")
  in
  let strategy_opt_arg =
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Explain only this slicing strategy ($(b,max) or $(b,perst)); \
             default is both.")
  in
  let no_timings_arg =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:"Omit wall-clock figures (deterministic output).")
  in
  let run dataset empty seed qid stmt days strategy no_timings =
    handle_errors (fun () ->
        let show_timings = not no_timings in
        let e = make_engine ~empty ~seed dataset in
        let print_report strat ts =
          let rp = Taupsm.Observe.explain ?strategy:strat e ts in
          print_string (Taupsm.Observe.report_to_string ~show_timings rp)
        in
        let explain_all ts =
          match (strategy, ts.Sqlast.Ast.t_modifier) with
          | Some s, _ -> print_report (Some s) ts
          | None, Sqlast.Ast.Mod_sequenced _ ->
              (* Both strategies, side by side, MAX first. *)
              print_report (Some Stratum.Max) ts;
              print_newline ();
              print_report (Some Stratum.Perst) ts
          | None, _ -> print_report None ts
        in
        match (qid, stmt) with
        | Some qid, _ ->
            let q = Queries.find qid in
            let ctx_b = Sqldb.Date.of_ymd ~y:2010 ~m:6 ~d:1 in
            let ctx = (ctx_b, Sqldb.Date.add_days ctx_b days) in
            let sql = Queries.sequenced ~context:ctx q in
            let ts = Sqlparse.Parser.parse_temporal_stmt sql in
            let a =
              Taupsm.Analysis.of_stmt (Engine.catalog e)
                (Sqlparse.Parser.parse_stmt_string q.Queries.body)
            in
            Printf.printf "query %s — %s\n\n%s\n\n" q.Queries.id
              q.Queries.construct q.Queries.body;
            Printf.printf "temporal tables reached: %s\n"
              (String.concat ", " (Taupsm.Analysis.temporal_tables_list a));
            Printf.printf "routines reached: %s\n"
              (String.concat ", " (Taupsm.Analysis.routines_list a));
            Printf.printf "per-period cursors: %b\n"
              a.Taupsm.Analysis.has_cursor_over_temporal;
            let features =
              Taupsm.Heuristic.features_of e ~db_size:dataset.Datasets.size ts
            in
            Printf.printf "PERST applicable: %b\n"
              features.Taupsm.Heuristic.perst_applicable;
            Printf.printf "heuristic (§VII-F) chooses: %s\n\n"
              (Stratum.strategy_to_string (Taupsm.Heuristic.choose features));
            explain_all ts
        | None, Some stmt ->
            explain_all (Sqlparse.Parser.parse_temporal_stmt stmt)
        | None, None ->
            raise (Eval.Sql_error "explain needs --query or a statement"))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a temporal statement or benchmark query: transformed \
          SQL/PSM, observed plan (index windows, cache behaviour), and \
          cost-model estimates next to measured actuals.")
    Term.(
      const run $ dataset_arg $ empty_arg $ seed_arg $ query_arg $ stmt_arg
      $ days_arg $ strategy_opt_arg $ no_timings_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* The serving layer controls fsyncs itself, so its sync flag is its
   own enum, validated eagerly like every other: group (default — one
   fsync per commit-lane batch, acks strictly after it) or always (one
   fsync per commit; the lane never adds its own). *)
let serve_sync_conv =
  let parse = function
    | "group" -> Ok `Group
    | "always" -> Ok `Always
    | s ->
        Error (`Msg (Printf.sprintf "unknown serve sync mode %S (group|always)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf (match m with `Group -> "group" | `Always -> "always")
  in
  Arg.conv (parse, print)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind/connect (dotted quad).")

let port_arg ~default ~doc =
  Arg.(value & opt port_conv default & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let workers_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"--workers" ~min:1 ()) 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (= max concurrent sessions).")
  in
  let queue_depth_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"--queue-depth" ~min:0 ()) 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission-control bound: accepted connections waiting for a \
             worker beyond this are rejected with a typed \
             $(b,overloaded) error instead of queueing unboundedly.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt (positive_float_conv ~what:"--idle-timeout") 60.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close a session after this long without a request.")
  in
  let drain_deadline_arg =
    Arg.(
      value
      & opt (positive_float_conv ~what:"--drain-deadline") 10.
      & info [ "drain-deadline" ] ~docv:"SECONDS"
          ~doc:
            "On SIGTERM: stop accepting, give in-flight statements this \
             long to finish, flush the WAL, exit 0.")
  in
  let max_batch_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"--max-batch" ~min:1 ()) 64
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Max write statements per group-commit fsync batch.")
  in
  let serve_sync_arg =
    Arg.(
      value
      & opt serve_sync_conv `Group
      & info [ "sync" ] ~docv:"MODE"
          ~doc:
            "Commit durability mode: $(b,group) (default; one fsync per \
             commit-lane batch, commits acknowledged only after it) or \
             $(b,always) (one fsync per commit).")
  in
  let retry_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:
            "Seed the write-lane resubmission backoff jitter so retry \
             timing replays deterministically (fuzz/debug; default: \
             process-global PRNG).")
  in
  let run choice no_cp_memo dataset empty seed db_dir snapshot_every host port
      workers queue_depth idle_timeout drain_deadline deadline max_rows
      max_batch sync retry_seed =
    handle_errors (fun () ->
        let policy =
          match sync with
          | `Group -> Durable.Wal.Off (* the lane issues the fsyncs *)
          | `Always -> Durable.Wal.Always
        in
        let e, h =
          make_durable_engine ~empty ~seed ~policy ~snapshot_every dataset
            db_dir
        in
        set_cp_memo e no_cp_memo;
        (* Auto enables the adaptive chooser on the serving engine (read
           views inherit it); a forced strategy becomes the default for
           requests that don't carry their own. *)
        let default_strategy = set_strategy_choice e choice in
        let cfg =
          {
            Serve.Server.host;
            port;
            workers;
            queue_depth;
            idle_timeout;
            drain_deadline;
            stmt_deadline = deadline;
            max_rows;
            retry_seed;
            default_strategy;
            lane =
              {
                Serve.Commit_lane.default_config with
                max_batch;
                sync_each = (sync = `Always);
              };
          }
        in
        let srv = Serve.Server.create ~cfg ~engine:e ?persist:h () in
        let drain _ = Serve.Server.request_drain srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
        Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
        Printf.printf
          "taupsm serving on %s:%d — %d worker(s), queue %d, sync %s%s\n%!"
          host
          (Serve.Server.port srv)
          workers queue_depth
          (match sync with `Group -> "group" | `Always -> "always")
          (match db_dir with
          | Some d -> Printf.sprintf ", store %s" d
          | None -> ", no durable store");
        let code = Serve.Server.run srv in
        if code <> 0 then
          raise
            (Eval.Sql_error
               (Printf.sprintf
                  "drain deadline expired with sessions still active \
                   (exit %d)"
                  code)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the database to concurrent sessions over a line-delimited \
          JSON protocol (docs/serving.md): lock-free MVCC snapshot reads, \
          single-writer group commit, admission control, graceful drain \
          on SIGTERM.")
    Term.(
      const run $ strategy_choice_arg $ no_cp_memo_arg $ dataset_arg
      $ empty_arg $ seed_arg $ db_dir_arg $ snapshot_every_arg $ host_arg
      $ port_arg ~default:7411 ~doc:"Port to listen on (0 = ephemeral)."
      $ workers_arg $ queue_depth_arg $ idle_timeout_arg $ drain_deadline_arg
      $ deadline_arg $ max_rows_arg $ max_batch_arg $ serve_sync_arg
      $ retry_seed_arg)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let client_cmd =
  let stmts_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"STATEMENT" ~doc:"Temporal SQL/PSM statement(s) to send.")
  in
  let client_strategy_arg =
    (* validated here, and again server-side as a bad_request *)
    let strat_conv =
      let parse = function
        | ("auto" | "max" | "perst") as s -> Ok s
        | s ->
            Error
              (`Msg (Printf.sprintf "unknown strategy %S (auto|max|perst)" s))
      in
      Arg.conv (parse, Format.pp_print_string)
    in
    Arg.(
      value
      & opt (some strat_conv) None
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Sequenced slicing strategy: $(b,auto), $(b,max) or \
             $(b,perst).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Also fetch and print server statistics.")
  in
  let print_response resp =
    let module J = Serve.Json in
    if Serve.Client.ok resp then begin
      match Serve.Client.rows resp with
      | Some (cols, rows) ->
          print_endline (String.concat " | " cols);
          List.iter
            (fun row ->
              print_endline
                (String.concat " | "
                   (List.map
                      (function
                        | J.Str s -> s
                        | v -> J.to_string v)
                      row)))
            rows;
          Printf.printf "(%d row(s))\n" (List.length rows)
      | None -> (
          match J.member_int resp "affected" with
          | Some n -> Printf.printf "%d row(s) affected\n" n
          | None -> print_endline "ok")
    end
    else
      let code =
        Option.value ~default:"error" (Serve.Client.error_code resp)
      in
      let msg =
        match J.member "error" resp with
        | Some err -> Option.value ~default:"" (J.member_string err "message")
        | None -> ""
      in
      raise (Eval.Sql_error (Printf.sprintf "[%s] %s" code msg))
  in
  let run host port strategy stats stmts =
    handle_errors (fun () ->
        let c = Serve.Client.connect ~host ~port () in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            List.iter
              (fun sql -> print_response (Serve.Client.stmt ?strategy c sql))
              stmts;
            if stats then
              match Serve.Json.member "stats" (Serve.Client.stats c) with
              | Some s -> print_endline (Serve.Json.to_string s)
              | None -> ()))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send statements to a running $(b,taupsm serve) instance and print \
          the results.")
    Term.(
      const run $ host_arg
      $ port_arg ~default:7411 ~doc:"Server port to connect to."
      $ client_strategy_arg $ stats_arg $ stmts_arg)

let () =
  let doc = "Temporal SQL/PSM: the stratum of Snodgrass et al. (ICDE 2012)" in
  let info = Cmd.info "taupsm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            transform_cmd;
            run_cmd;
            repl_cmd;
            gen_cmd;
            explain_cmd;
            recover_cmd;
            scrub_cmd;
            backup_cmd;
            restore_cmd;
            serve_cmd;
            client_cmd;
          ]))
