(* The τPSM benchmark harness: regenerates every figure of the paper's
   evaluation (§VII).

     fig12       MAX vs PERST over temporal-context length, DS1-SMALL
     fig13       the same on DS1-LARGE
     fig14       scalability over dataset size (S/M/L)
     fig15       data characteristics (DS1 vs DS2 vs DS3, SMALL)
     fig7        the call-count comparison of Figure 7 (asterisks)
     heuristic   the §VII-F strategy-selection heuristic over all points
     bechamel    Bechamel micro-benchmarks (one Test.make per figure)

   `bench/main.exe` with no argument runs everything.  Absolute times
   are those of this in-memory OCaml engine, not the paper's DB2 setup;
   the *shape* (who wins, crossovers, trends) is the reproduction target
   (see DESIGN.md and EXPERIMENTS.md). *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module Stratum = Taupsm.Stratum
module Heuristic = Taupsm.Heuristic
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries
module Date = Sqldb.Date

let ctx_start = Date.of_ymd ~y:2010 ~m:6 ~d:1

(* TAUPSM_JOBS=N runs eligible sequenced-MAX statements across a domain
   pool in the harness runs that opt in (CI runs the recovery fuzz this
   way, exercising the pool against the durable stratum). *)
let env_jobs =
  match Sys.getenv_opt "TAUPSM_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

(* TAUPSM_COMPILE={0,1} forces plan compilation off or on for the same
   opt-in harness runs (CI repeats the recovery fuzz with it off, so the
   interpreted back-end meets the same crash points as the default,
   compiled one). Absent, the engine default (on) stands. *)
let env_compile = Option.map (( <> ) "0") (Sys.getenv_opt "TAUPSM_COMPILE")

let apply_env_jobs e =
  (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.jobs <- env_jobs;
  Option.iter
    (fun c ->
      (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.compile <- c)
    env_compile;
  e

let context_lengths = [ ("1d", 1); ("1w", 7); ("1m", 30); ("1y", 365) ]

type measurement = {
  m_query : string;
  m_ds : string;
  m_ctx_days : int;
  m_strategy : Stratum.strategy;
  m_seconds : float option;  (* None when the strategy does not apply *)
  m_size : Heuristic.size_class;
  m_per_period_cursors : bool;
  m_cost_choice : Stratum.strategy option;
      (* the Cost_model's prediction, recorded on the MAX measurement *)
}

let all_measurements : measurement list ref = ref []

(* Wall-clock timing with one warm-up run (the paper measures with a
   warm cache) and the median of [runs] measured runs (the mean of the
   middle pair when [runs] is even). *)
let time_run ?(runs = 3) f =
  ignore (f ());
  let times =
    List.init (max 1 runs) (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  let sorted = List.sort compare times in
  let n = List.length sorted in
  if n mod 2 = 1 then List.nth sorted (n / 2)
  else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let context_of days = (ctx_start, Date.add_days ctx_start days)

let run_query e (q : Queries.t) ~strategy ~days =
  let sql = Queries.sequenced ~context:(context_of days) q in
  let ts = Sqlparse.Parser.parse_temporal_stmt sql in
  fun () -> Stratum.exec ~strategy e ts

let measure_point e ~ds ~size (q : Queries.t) ~strategy ~days : float option =
  let r =
    if strategy = Stratum.Perst && not q.Queries.perst_supported then None
    else
      match time_run (run_query e q ~strategy ~days) with
      | t -> Some t
      | exception Taupsm.Perst_slicing.Perst_unsupported _ -> None
      | exception exn ->
          (* A real failure: report it and drop the point rather than
             letting a partial run contaminate the figure's timings. *)
          Printf.eprintf "ERROR %s (%s, %dd): %s\n%!" q.Queries.id
            (Stratum.strategy_to_string strategy)
            days (Printexc.to_string exn);
          None
  in
  let a =
    Taupsm.Analysis.of_stmt (Engine.catalog e)
      (Sqlparse.Parser.parse_stmt_string q.Queries.body)
  in
  let cost_choice =
    if strategy = Stratum.Max then
      let ts =
        Sqlparse.Parser.parse_temporal_stmt
          (Queries.sequenced ~context:(context_of days) q)
      in
      match Taupsm.Cost_model.choose_for e ts with
      | c -> Some c
      | exception _ -> None
    else None
  in
  all_measurements :=
    {
      m_query = q.Queries.id;
      m_ds = ds;
      m_ctx_days = days;
      m_strategy = strategy;
      m_seconds = r;
      m_size = size;
      m_per_period_cursors = a.Taupsm.Analysis.has_cursor_over_temporal;
      m_cost_choice = cost_choice;
    }
    :: !all_measurements;
  r

let pp_time = function
  | Some t -> Printf.sprintf "%10.4f" t
  | None -> "       n/a"

(* ------------------------------------------------------------------ *)
(* Figures 12/13: temporal-context sweep                               *)
(* ------------------------------------------------------------------ *)

(* The paper's classes over increasing context lengths: A = PERST always
   faster; B = crossover (MAX first, PERST later); C = MAX always
   faster; D = MAX ahead but PERST approaching at the longest context. *)
let classify per_ctx =
  let cmp =
    List.filter_map
      (fun (_, m, p) ->
        match (m, p) with Some m, Some p -> Some (p < m) | _ -> None)
      per_ctx
  in
  match cmp with
  | [] -> "-"
  | _ when List.for_all Fun.id cmp -> "A"
  | _ when List.for_all not cmp -> (
      match List.rev per_ctx with
      | (_, Some m, Some p) :: _ when p < m *. 2.0 -> "D"
      | _ -> "C")
  | _ when (not (List.hd cmp)) && List.nth cmp (List.length cmp - 1) -> "B"
  | _ -> "B*"

let context_sweep ~title ~ds_name spec =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "running time (s); contexts start %s\n" (Date.to_string ctx_start);
  Printf.printf "%-5s %-9s" "query" "strategy";
  List.iter (fun (label, _) -> Printf.printf " %10s" label) context_lengths;
  Printf.printf "   class\n";
  let e0 = Datasets.load spec in
  Queries.install e0;
  List.iter
    (fun (q : Queries.t) ->
      let rows =
        List.map
          (fun (_, days) ->
            let e = Engine.copy e0 in
            let m =
              measure_point e ~ds:ds_name ~size:spec.Datasets.size q
                ~strategy:Stratum.Max ~days
            in
            let p =
              measure_point e ~ds:ds_name ~size:spec.Datasets.size q
                ~strategy:Stratum.Perst ~days
            in
            (days, m, p))
          context_lengths
      in
      let cls = classify rows in
      Printf.printf "%-5s %-9s" q.Queries.id "MAX";
      List.iter (fun (_, m, _) -> Printf.printf " %s" (pp_time m)) rows;
      Printf.printf "\n%-5s %-9s" "" "PERST";
      List.iter (fun (_, _, p) -> Printf.printf " %s" (pp_time p)) rows;
      Printf.printf "   %s\n%!" cls)
    Queries.all

let fig12 () =
  context_sweep ~title:"Figure 12 — Varying temporal context, DS1-SMALL"
    ~ds_name:"DS1"
    { Datasets.ds = Datasets.DS1; size = Heuristic.Small }

let fig13 () =
  context_sweep ~title:"Figure 13 — Varying temporal context, DS1-LARGE"
    ~ds_name:"DS1"
    { Datasets.ds = Datasets.DS1; size = Heuristic.Large }

(* ------------------------------------------------------------------ *)
(* Figure 14: scalability over dataset size                            *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  let title =
    "Figure 14 — Scalability over dataset size (DS1, 1-month context)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "%-5s %-9s %10s %10s %10s\n" "query" "strategy" "S" "M" "L";
  let sizes =
    [ ("S", Heuristic.Small); ("M", Heuristic.Medium); ("L", Heuristic.Large) ]
  in
  let engines =
    List.map
      (fun (lbl, size) ->
        let e = Datasets.load { Datasets.ds = Datasets.DS1; size } in
        Queries.install e;
        (lbl, size, e))
      sizes
  in
  List.iter
    (fun (q : Queries.t) ->
      let per_size strategy =
        List.map
          (fun (_, size, e0) ->
            measure_point (Engine.copy e0) ~ds:"DS1" ~size q ~strategy ~days:30)
          engines
      in
      let ms = per_size Stratum.Max in
      let ps = per_size Stratum.Perst in
      Printf.printf "%-5s %-9s" q.Queries.id "MAX";
      List.iter (fun t -> Printf.printf " %s" (pp_time t)) ms;
      Printf.printf "\n%-5s %-9s" "" "PERST";
      List.iter (fun t -> Printf.printf " %s" (pp_time t)) ps;
      Printf.printf "\n%!")
    Queries.all

(* ------------------------------------------------------------------ *)
(* Figure 15: data characteristics                                     *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  let title =
    "Figure 15 — Data characteristics (SMALL, 1-month context): DS1 \
     (weekly, uniform), DS2 (weekly, Gaussian), DS3 (daily, uniform)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "%-5s %-9s %10s %10s %10s\n" "query" "strategy" "DS1" "DS2" "DS3";
  let dss = [ Datasets.DS1; Datasets.DS2; Datasets.DS3 ] in
  let engines =
    List.map
      (fun ds ->
        let e = Datasets.load { Datasets.ds; size = Heuristic.Small } in
        Queries.install e;
        (ds, e))
      dss
  in
  List.iter
    (fun (q : Queries.t) ->
      let per_ds strategy =
        List.map
          (fun (ds, e0) ->
            measure_point (Engine.copy e0) ~ds:(Datasets.ds_to_string ds)
              ~size:Heuristic.Small q ~strategy ~days:30)
          engines
      in
      let ms = per_ds Stratum.Max in
      let ps = per_ds Stratum.Perst in
      Printf.printf "%-5s %-9s" q.Queries.id "MAX";
      List.iter (fun t -> Printf.printf " %s" (pp_time t)) ms;
      Printf.printf "\n%-5s %-9s" "" "PERST";
      List.iter (fun t -> Printf.printf " %s" (pp_time t)) ps;
      Printf.printf "\n%!")
    Queries.all

(* ------------------------------------------------------------------ *)
(* Figure 7: routine-invocation counts                                 *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  let title =
    "Figure 7 — Routine invocations per strategy (q2, DS1-SMALL): the \
     asterisks of the paper's slicing comparison"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "%-8s %12s %12s\n" "context" "MAX calls" "PERST calls";
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  let q = Queries.find "q2" in
  List.iter
    (fun (label, days) ->
      let count strategy =
        let e = Engine.copy e0 in
        let ts =
          Sqlparse.Parser.parse_temporal_stmt
            (Queries.sequenced ~context:(context_of days) q)
        in
        snd (Stratum.exec_counting_calls ~strategy e ts)
      in
      Printf.printf "%-8s %12d %12d\n%!" label (count Stratum.Max)
        (count Stratum.Perst))
    context_lengths

(* ------------------------------------------------------------------ *)
(* §VII-F heuristic evaluation                                         *)
(* ------------------------------------------------------------------ *)

let heuristic_report () =
  let title = "Section VII-F — Strategy-selection heuristic over all points" in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun m ->
      let key = (m.m_query, m.m_ds, m.m_ctx_days, m.m_size) in
      let mx, ps, meta =
        Option.value (Hashtbl.find_opt tbl key) ~default:(None, None, m)
      in
      (* Keep the metadata record that carries the cost-model choice
         (recorded only on the MAX measurement of each pair). *)
      let meta = if m.m_cost_choice <> None then m else meta in
      let entry =
        match m.m_strategy with
        | Stratum.Max -> (m.m_seconds, ps, meta)
        | Stratum.Perst -> (mx, m.m_seconds, meta)
      in
      Hashtbl.replace tbl key entry)
    !all_measurements;
  let total = ref 0 and perst_faster = ref 0 and correct = ref 0 in
  let inapplicable = ref 0 in
  let cm_correct = ref 0 and cm_total = ref 0 in
  Hashtbl.iter
    (fun (qid, _, days, size) (mx, ps, meta) ->
      match mx with
      | None -> ()
      | Some mx_t ->
          incr total;
          let q = Queries.find qid in
          let f =
            {
              Heuristic.perst_applicable = q.Queries.perst_supported;
              per_period_cursors = meta.m_per_period_cursors;
              db_size = size;
              context_days = days;
            }
          in
          let chosen = Heuristic.choose f in
          let actual_best =
            match ps with
            | None ->
                incr inapplicable;
                Stratum.Max
            | Some ps_t ->
                if ps_t < mx_t then begin
                  incr perst_faster;
                  Stratum.Perst
                end
                else Stratum.Max
          in
          if chosen = actual_best then incr correct;
          (* The §VIII cost-model extension, evaluated on the same points. *)
          (match meta.m_cost_choice with
          | Some cm ->
              incr cm_total;
              if cm = actual_best then incr cm_correct
          | None -> ()))
    tbl;
  Printf.printf "measured points: %d\n" !total;
  Printf.printf "PERST faster: %d (%.0f%%; the paper reports ~70%%)\n"
    !perst_faster
    (100.0 *. float_of_int !perst_faster /. float_of_int (max 1 !total));
  Printf.printf "PERST inapplicable (q17b): %d\n" !inapplicable;
  Printf.printf
    "heuristic picks the faster strategy: %d/%d (%.0f%%; the paper's \
     heuristic errs ~13%%)\n"
    !correct !total
    (100.0 *. float_of_int !correct /. float_of_int (max 1 !total));
  Printf.printf
    "cost model (the paper's suggested \xc2\xa7VIII extension) picks the faster \
     strategy: %d/%d (%.0f%%)\n%!"
    !cm_correct !cm_total
    (100.0 *. float_of_int !cm_correct /. float_of_int (max 1 !cm_total))

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let title =
    "Ablations — evaluator mechanisms behind the strategies (q2, 1-year \
     context)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let q = Queries.find "q2" in
  let datasets =
    [ ("DS1-SMALL", Heuristic.Small); ("DS1-LARGE", Heuristic.Large) ]
  in
  Printf.printf "%-10s %-28s %10s %10s\n" "dataset" "configuration" "MAX" "PERST";
  List.iter
    (fun (label, size) ->
      let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size } in
      Queries.install e0;
      let run ?(hash = true) ?(memo = true) ?(index = true) ?(cache = true)
          strategy =
        let e = Engine.copy e0 in
        let opts = (Engine.catalog e).Sqleval.Catalog.options in
        opts.Sqleval.Catalog.hash_joins <- hash;
        opts.Sqleval.Catalog.memoize_table_functions <- memo;
        opts.Sqleval.Catalog.temporal_index <- index;
        opts.Sqleval.Catalog.plan_caching <- cache;
        time_run (run_query e q ~strategy ~days:365)
      in
      let line name ?hash ?memo ?index ?cache () =
        Printf.printf "%-10s %-28s %10.4f %10.4f\n%!" label name
          (run ?hash ?memo ?index ?cache Stratum.Max)
          (run ?hash ?memo ?index ?cache Stratum.Perst)
      in
      line "baseline" ();
      line "no table-fn memoization" ~memo:false ();
      line "no hash joins" ~hash:false ();
      line "no temporal index" ~index:false ();
      line "no plan cache" ~cache:false ())
    datasets;
  Printf.printf
    "(memoization is what keeps PERST at one routine materialization per \
     distinct argument;\n hash joins mostly shield the conventional join \
     work in both strategies;\n the temporal index turns period-overlap \
     scans into O(log n + k) probes)\n"

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n"
         | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* ------------------------------------------------------------------ *)
(* Unified BENCH_*.json schema                                         *)
(* ------------------------------------------------------------------ *)

(* Every BENCH_pr<N>.json shares one top-level shape:

     { "pr": <int>, "commit": <short sha>, "target": <bench target>,
       "geomean": <headline geometric-mean ratio>, ...extras...,
       "queries": [ { "query": <id>, ... }, ... ] }

   [geomean] is always a ratio (speedup, on/off overhead, ...) so CI
   can gate on one key regardless of target; target-specific context
   (dataset, sync policy, recovery rates) rides along as extra fields.
   [write_bench] validates the assembled document against this schema
   before anything touches disk — a bench refactor that drops a
   required key fails loudly instead of publishing a malformed file. *)

type json =
  | Jint of int
  | Jfloat of float
  | Jstr of string
  | Jraw of string  (* pre-rendered JSON, e.g. Observe.metrics_to_json *)
  | Jlist of json list
  | Jobj of (string * json) list

let rec json_render = function
  | Jint i -> string_of_int i
  | Jfloat f -> Printf.sprintf "%.6f" f
  | Jstr s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Jraw s -> s
  | Jlist l -> "[" ^ String.concat ", " (List.map json_render l) ^ "]"
  | Jobj fields ->
      "{ "
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_render v))
             fields)
      ^ " }"

let bench_schema_check ~file = function
  | Jobj fields ->
      let fail msg =
        Printf.eprintf "BENCH schema violation (%s): %s\n%!" file msg;
        exit 3
      in
      let need name pred =
        match List.assoc_opt name fields with
        | None -> fail ("missing required field \"" ^ name ^ "\"")
        | Some v -> if not (pred v) then fail ("bad type for \"" ^ name ^ "\"")
      in
      need "pr" (function Jint n -> n >= 0 | _ -> false);
      need "commit" (function Jstr s -> s <> "" | _ -> false);
      need "target" (function Jstr s -> s <> "" | _ -> false);
      need "geomean" (function
        | Jfloat f -> Float.is_finite f && f > 0.0
        | _ -> false);
      need "host_cores" (function Jint n -> n >= 1 | _ -> false);
      need "queries" (function
        | Jlist (_ :: _ as qs) ->
            List.for_all
              (function
                | Jobj qf -> (
                    match List.assoc_opt "query" qf with
                    | Some (Jstr _) -> true
                    | _ -> false)
                | _ -> false)
              qs
        | _ -> false)
  | _ ->
      Printf.eprintf "BENCH schema violation (%s): not an object\n%!" file;
      exit 3

let git_commit () =
  match
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with
  | Some sha -> sha
  | None | (exception _) -> "unknown"

let write_bench ~pr ~target ~geomean ~extra ~queries file =
  (* every record carries the host's core count — scaling figures are
     meaningless without it; writers may place it themselves *)
  let extra =
    if List.mem_assoc "host_cores" extra then extra
    else ("host_cores", Jint (Domain.recommended_domain_count ())) :: extra
  in
  let doc =
    Jobj
      ([
         ("pr", Jint pr);
         ("commit", Jstr (git_commit ()));
         ("target", Jstr target);
         ("geomean", Jfloat geomean);
       ]
      @ extra
      @ [ ("queries", Jlist queries) ])
  in
  bench_schema_check ~file doc;
  let oc = open_out file in
  (* top-level fields one per line, one line per query entry *)
  (match doc with
  | Jobj fields ->
      Printf.fprintf oc "{\n";
      let n = List.length fields in
      List.iteri
        (fun i (k, v) ->
          let sep = if i = n - 1 then "" else "," in
          match v with
          | Jlist items when k = "queries" ->
              Printf.fprintf oc "  \"queries\": [\n";
              let m = List.length items in
              List.iteri
                (fun j item ->
                  Printf.fprintf oc "    %s%s\n" (json_render item)
                    (if j = m - 1 then "" else ","))
                items;
              Printf.fprintf oc "  ]%s\n" sep
          | _ -> Printf.fprintf oc "  \"%s\": %s%s\n" k (json_render v) sep)
        fields;
      Printf.fprintf oc "}\n"
  | _ -> assert false);
  close_out oc;
  Printf.printf "wrote %s\n%!" file

(* The PR's headline ablation: interval-indexed period-overlap scans
   against full scans, on MAX sequenced evaluation at the 1-year
   context, with a bit-identical-results check over all 16 queries and
   both strategies.  Records the measured point in BENCH_pr1.json. *)
let index_ablation () =
  let title =
    "Temporal-index ablation — interval-indexed overlap scans vs full \
     scans (DS1-SMALL, 1-year context)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  let days = 365 in
  let run ~index strategy (q : Queries.t) =
    let e = Engine.copy e0 in
    (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.temporal_index <-
      index;
    run_query e q ~strategy ~days
  in
  (* Correctness gate: every query's sequenced result must be identical
     with the index on and off, under both strategies. *)
  let rs_equal (a : Sqleval.Result_set.t) (b : Sqleval.Result_set.t) =
    a.Sqleval.Result_set.cols = b.Sqleval.Result_set.cols
    && List.length a.Sqleval.Result_set.rows
       = List.length b.Sqleval.Result_set.rows
    && List.for_all2
         (fun r1 r2 -> Array.for_all2 Sqldb.Value.equal r1 r2)
         a.Sqleval.Result_set.rows b.Sqleval.Result_set.rows
  in
  let identical = ref 0 and checked = ref 0 in
  List.iter
    (fun (q : Queries.t) ->
      let result strategy index =
        match (run ~index strategy q) () with
        | Eval.Rows rs -> Some rs
        | _ -> None
        | exception Taupsm.Perst_slicing.Perst_unsupported _ -> None
      in
      List.iter
        (fun strategy ->
          if strategy = Stratum.Max || q.Queries.perst_supported then
            match (result strategy true, result strategy false) with
            | Some a, Some b ->
                incr checked;
                if rs_equal a b then incr identical
                else
                  Printf.printf "MISMATCH %s (%s)\n%!" q.Queries.id
                    (match strategy with
                    | Stratum.Max -> "MAX"
                    | Stratum.Perst -> "PERST")
            | _ -> ())
        [ Stratum.Max; Stratum.Perst ])
    Queries.all;
  Printf.printf "identical results with index on/off: %d/%d strategy points\n"
    !identical !checked;
  (* Per-query execution metrics from an observed double run after one
     unobserved warm-up (the warm-up settles the scratch-table DDL that
     invalidates the plan cache, so steady state is measured): the first
     observed run misses the plan cache, the second hits — a healthy
     cache reports a hit rate of 0.5 here. *)
  let metrics_for (q : Queries.t) =
    let e = Engine.copy e0 in
    let cat = Engine.catalog e in
    let f = run_query e q ~strategy:Stratum.Max ~days in
    match
      ignore (f ());
      cat.Sqleval.Catalog.options.Sqleval.Catalog.observe <- true;
      ignore (f ());
      ignore (f ())
    with
    | () -> Some (Taupsm.Observe.metrics_of (Sqleval.Catalog.trace cat))
    | exception _ -> None
  in
  (* The measured points: MAX sequenced evaluation of every query over
     the 1-year context, indexed vs unindexed.  A query that raises gets
     an explicit error entry instead of contaminating the timings. *)
  Printf.printf "%-5s %10s %10s %8s\n" "query" "indexed" "unindexed" "speedup";
  let points =
    List.map
      (fun (q : Queries.t) ->
        match
          let t_on = time_run ~runs:5 (run ~index:true Stratum.Max q) in
          let t_off = time_run ~runs:5 (run ~index:false Stratum.Max q) in
          (t_on, t_off)
        with
        | t_on, t_off ->
            Printf.printf "%-5s %10.4f %10.4f %7.2fx\n%!" q.Queries.id t_on
              t_off (t_off /. t_on);
            (q.Queries.id, Ok (t_on, t_off, metrics_for q))
        | exception exn ->
            let msg = Printexc.to_string exn in
            Printf.printf "%-5s ERROR: %s\n%!" q.Queries.id msg;
            (q.Queries.id, Error msg))
      Queries.all
  in
  let ok_points =
    List.filter_map
      (function _, Ok (on, off, _) -> Some (on, off) | _, Error _ -> None)
      points
  in
  let geomean =
    exp
      (List.fold_left (fun acc (on, off) -> acc +. log (off /. on)) 0.0 ok_points
      /. float_of_int (max 1 (List.length ok_points)))
  in
  Printf.printf "geometric-mean speedup: %.2fx (%d/%d queries ok)\n" geomean
    (List.length ok_points) (List.length points);
  write_bench ~pr:1 ~target:"index" ~geomean
    ~extra:
      [
        ("dataset", Jstr "DS1-SMALL");
        ("strategy", Jstr "MAX");
        ("context_days", Jint days);
        ("identical_results", Jstr (Printf.sprintf "%d/%d" !identical !checked));
      ]
    ~queries:
      (List.map
         (fun (id, r) ->
           match r with
           | Ok (t_on, t_off, m) ->
               Jobj
                 [
                   ("query", Jstr id);
                   ("indexed_seconds", Jfloat t_on);
                   ("unindexed_seconds", Jfloat t_off);
                   ("speedup", Jfloat (t_off /. t_on));
                   ( "metrics",
                     match m with
                     | Some m -> Jraw (Taupsm.Observe.metrics_to_json m)
                     | None -> Jraw "null" );
                 ]
           | Error msg -> Jobj [ ("query", Jstr id); ("error", Jstr msg) ])
         points)
    "BENCH_pr1.json"

(* This PR's A/B: the price of fault tolerance.  Guards-off disables
   every limit check and the undo journal; guards-on arms generous
   limits (none of which fire) plus atomic journaling — i.e. the
   steady-state overhead a production configuration would pay.  Records
   the per-query overhead and its geomean in BENCH_pr3.json. *)
let guards_bench () =
  let title =
    "Resource-guard overhead — guards+journal on (generous limits) vs \
     off (DS1-SMALL, MAX, 1-month context)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  let days = 30 in
  let run ~on (q : Queries.t) =
    let e = Engine.copy e0 in
    let g = Engine.guards e in
    if on then begin
      g.Guard.deadline_seconds <- Some 3600.0;
      g.Guard.row_budget <- Some max_int;
      g.Guard.loop_cap <- Some max_int;
      g.Guard.atomic <- true
    end
    else begin
      g.Guard.deadline_seconds <- None;
      g.Guard.row_budget <- None;
      g.Guard.loop_cap <- None;
      g.Guard.atomic <- false
    end;
    run_query e q ~strategy:Stratum.Max ~days
  in
  Printf.printf "%-5s %12s %12s %9s\n" "query" "guards off" "guards on"
    "overhead";
  let points =
    List.map
      (fun (q : Queries.t) ->
        let t_off = time_run ~runs:5 (run ~on:false q) in
        let t_on = time_run ~runs:5 (run ~on:true q) in
        let ov = (t_on /. t_off) -. 1.0 in
        Printf.printf "%-5s %12.4f %12.4f %8.2f%%\n%!" q.Queries.id t_off t_on
          (100.0 *. ov);
        (q.Queries.id, t_off, t_on))
      Queries.all
  in
  let geomean_ratio =
    exp
      (List.fold_left (fun acc (_, off, on) -> acc +. log (on /. off)) 0.0 points
      /. float_of_int (max 1 (List.length points)))
  in
  Printf.printf "geometric-mean overhead: %.2f%% (target < 2%%)\n"
    (100.0 *. (geomean_ratio -. 1.0));
  write_bench ~pr:3 ~target:"guards" ~geomean:geomean_ratio
    ~extra:
      [
        ("dataset", Jstr "DS1-SMALL");
        ("strategy", Jstr "MAX");
        ("context_days", Jint days);
        ("geomean_overhead_pct", Jfloat (100.0 *. (geomean_ratio -. 1.0)));
      ]
    ~queries:
      (List.map
         (fun (id, off, on) ->
           Jobj
             [
               ("query", Jstr id);
               ("guards_off_seconds", Jfloat off);
               ("guards_on_seconds", Jfloat on);
               ("overhead_pct", Jfloat (100.0 *. ((on /. off) -. 1.0)));
             ])
         points)
    "BENCH_pr3.json"

(* Fault-injection sweep: seeded faults across all 16 queries and both
   strategies must (a) surface as typed errors and (b) leave the
   database bit-identical to its pre-statement state; a PERST run with
   fallback enabled must additionally match MAX's clean answer.  Exits
   nonzero on any violation — this is the CI smoke gate. *)
let faults_sweep () =
  let title =
    "Fault-injection sweep — atomicity and PERST fallback under seeded \
     faults (DS1-SMALL, 1-month context)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  let context = context_of 30 in
  let violations = ref 0 and fired = ref 0 and clean = ref 0 in
  let seeds = List.init 8 (fun i -> i) in
  List.iter
    (fun (q : Queries.t) ->
      let sql = Queries.sequenced ~context q in
      List.iter
        (fun strategy ->
          if strategy = Stratum.Max || q.Queries.perst_supported then
            List.iter
              (fun seed ->
                let e = Engine.copy e0 in
                let pre = Sqldb.Database.copy (Engine.database e) in
                Fault.arm_seeded ~seed;
                (match Stratum.exec_sql ~strategy e sql with
                | _ -> incr clean
                | exception exn -> (
                    let te = Taupsm.Resilient.classify exn in
                    if Fault.fired () then incr fired
                    else begin
                      incr violations;
                      Printf.printf "UNTYPED/UNEXPECTED %s/%s seed=%d: %s\n%!"
                        q.Queries.id
                        (Stratum.strategy_to_string strategy)
                        seed
                        (Taupsm_error.to_string te)
                    end;
                    match
                      Taupsm.Resilient.db_diff pre (Engine.database e)
                    with
                    | None -> ()
                    | Some diff ->
                        incr violations;
                        Printf.printf "NOT ATOMIC %s/%s seed=%d: %s\n%!"
                          q.Queries.id
                          (Stratum.strategy_to_string strategy)
                          seed diff));
                Fault.disarm ())
              seeds)
        [ Stratum.Max; Stratum.Perst ])
    Queries.all;
  (* PERST→MAX graceful degradation: a fault mid-PERST with fallback on
     must still produce MAX's clean answer. *)
  let fallback_checked = ref 0 in
  List.iter
    (fun (q : Queries.t) ->
      if q.Queries.perst_supported then begin
        let sql = Queries.sequenced ~context q in
        let clean_max =
          let e = Engine.copy e0 in
          match Stratum.exec_sql ~strategy:Stratum.Max e sql with
          | Eval.Rows rs -> Some rs.Sqleval.Result_set.rows
          | _ -> None
        in
        let e = Engine.copy e0 in
        (Engine.guards e).Guard.fallback_to_max <- true;
        Fault.arm ~site:Fault.Routine_call ~countdown:1;
        (match Stratum.exec_sql ~strategy:Stratum.Perst e sql with
        | Eval.Rows rs ->
            incr fallback_checked;
            let same =
              match clean_max with
              | Some rows ->
                  List.length rows = List.length rs.Sqleval.Result_set.rows
                  && List.for_all2
                       (fun a b -> Array.for_all2 Sqldb.Value.equal a b)
                       rows rs.Sqleval.Result_set.rows
              | None -> false
            in
            if not same then begin
              incr violations;
              Printf.printf "FALLBACK MISMATCH %s\n%!" q.Queries.id
            end
        | _ -> ()
        | exception exn ->
            incr violations;
            Printf.printf "FALLBACK RAISED %s: %s\n%!" q.Queries.id
              (Printexc.to_string exn));
        Fault.disarm ()
      end)
    Queries.all;
  Printf.printf
    "fault points fired: %d; runs untouched by the fault: %d; fallback \
     equivalences checked: %d; violations: %d\n%!"
    !fired !clean !fallback_checked !violations;
  if !violations > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Durability benchmarks                                               *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      acc + try (Unix.stat (Filename.concat dir f)).Unix.st_size with _ -> 0)
    0 (Sys.readdir dir)

(* The price of durability: every query under MAX with a WAL attached
   at batch sync versus fully volatile, plus the recovery rate for the
   durable state each query run leaves behind.  Records the A/B in
   BENCH_pr4.json and exits nonzero when the geomean overhead breaks
   the 10% gate — the CI contract for the durable stratum. *)
let wal_bench () =
  let title =
    "WAL overhead — durable store at batch sync vs volatile (DS1-SMALL, \
     MAX, 1-month context)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  let days = 30 in
  Printf.printf "%-5s %12s %12s %9s %12s\n" "query" "volatile" "wal on"
    "overhead" "recover s/MB";
  let points =
    List.map
      (fun (q : Queries.t) ->
        let t_vol =
          let e = Engine.copy e0 in
          time_run ~runs:5 (run_query e q ~strategy:Stratum.Max ~days)
        in
        let e = Engine.copy e0 in
        let dir = Filename.temp_dir "taupsm_walbench" "" in
        let h =
          Sqleval.Persist.attach ~policy:(Durable.Wal.Batch 16) ~dir e
        in
        let t_wal = time_run ~runs:5 (run_query e q ~strategy:Stratum.Max ~days) in
        Sqleval.Persist.detach h;
        (* recovery rate over the durable bytes the timed runs produced *)
        let bytes = dir_bytes dir in
        let _, report = Sqleval.Persist.recover ~dir () in
        rm_rf dir;
        let mb = float_of_int bytes /. (1024.0 *. 1024.0) in
        let spm = report.Durable.Store.seconds /. Float.max 1e-9 mb in
        let ov = (t_wal /. t_vol) -. 1.0 in
        Printf.printf "%-5s %12.4f %12.4f %8.2f%% %12.3f\n%!" q.Queries.id
          t_vol t_wal (100.0 *. ov) spm;
        (q.Queries.id, t_vol, t_wal, bytes, report.Durable.Store.seconds))
      Queries.all
  in
  let geomean_ratio =
    exp
      (List.fold_left (fun acc (_, vol, wal, _, _) -> acc +. log (wal /. vol))
         0.0 points
      /. float_of_int (max 1 (List.length points)))
  in
  let total_bytes =
    List.fold_left (fun acc (_, _, _, b, _) -> acc + b) 0 points
  in
  let total_rec_seconds =
    List.fold_left (fun acc (_, _, _, _, s) -> acc +. s) 0.0 points
  in
  let total_mb = float_of_int total_bytes /. (1024.0 *. 1024.0) in
  Printf.printf
    "geometric-mean overhead: %.2f%% (gate < 10%%); recovery: %.1f MB in \
     %.3fs (%.3f s/MB)\n"
    (100.0 *. (geomean_ratio -. 1.0))
    total_mb total_rec_seconds
    (total_rec_seconds /. Float.max 1e-9 total_mb);
  write_bench ~pr:4 ~target:"wal" ~geomean:geomean_ratio
    ~extra:
      [
        ("dataset", Jstr "DS1-SMALL");
        ("strategy", Jstr "MAX");
        ("context_days", Jint days);
        ("sync_policy", Jstr "batch:16");
        ("geomean_overhead_pct", Jfloat (100.0 *. (geomean_ratio -. 1.0)));
        ("recovered_mb", Jfloat total_mb);
        ( "recovery_seconds_per_mb",
          Jfloat (total_rec_seconds /. Float.max 1e-9 total_mb) );
      ]
    ~queries:
      (List.map
         (fun (id, vol, wal, bytes, rec_s) ->
           Jobj
             [
               ("query", Jstr id);
               ("volatile_seconds", Jfloat vol);
               ("wal_seconds", Jfloat wal);
               ("overhead_pct", Jfloat (100.0 *. ((wal /. vol) -. 1.0)));
               ("durable_bytes", Jint bytes);
               ("recovery_seconds", Jfloat rec_s);
             ])
         points)
    "BENCH_pr4.json";
  if geomean_ratio >= 1.10 then begin
    Printf.printf "WAL OVERHEAD GATE FAILED: %.2f%% >= 10%%\n%!"
      (100.0 *. (geomean_ratio -. 1.0));
    exit 1
  end

(* Crash-point fuzzing at benchmark scale: on each of DS1–DS3 a
   workload of temporal DDL, sequenced DML, bitemporal DML over several
   transaction days and benchmark queries runs
   against a durable store whose every write is under a seeded byte
   budget; recovery from the resulting torn directory must always
   reproduce the database exactly as of some committed-statement
   prefix.  >= 200 crash points; exits nonzero on any violation — the
   CI smoke gate for the durable stratum. *)
let recovery_fuzz () =
  let title = "Recovery fuzz — seeded crash points across DS1-DS3 workloads" in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let context = context_of 30 in
  (* per-dataset workload: scratch-table DDL + sequenced DML (valid on
     any dataset) followed by benchmark queries (temp-table churn) *)
  let dml =
    [
      "CREATE TABLE fuzz_tariff (name VARCHAR(10), pct DOUBLE) WITH VALIDTIME";
      "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01') INSERT INTO \
       fuzz_tariff VALUES ('base', 5.0)";
      "VALIDTIME [DATE '2010-02-01', DATE '2010-06-01') INSERT INTO \
       fuzz_tariff VALUES ('extra', 2.0)";
      "CREATE VIEW fuzz_cheap AS SELECT name FROM fuzz_tariff WHERE pct < 3.0";
      "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE fuzz_tariff \
       SET pct = 9.9 WHERE name = 'base'";
      "VALIDTIME [DATE '2010-04-01', DATE '2010-05-01') DELETE FROM \
       fuzz_tariff WHERE name = 'extra'";
      (* set-based sequenced writes with temporal constraints: crash
         points must also land inside merge plans and constraint checks *)
      "CREATE TABLE fuzz_product (sku VARCHAR(10), name VARCHAR(20)) WITH \
       VALIDTIME TEMPORAL PRIMARY KEY (sku)";
      "INSERT INTO fuzz_product (sku, name, begin_time, end_time) VALUES \
       ('a', 'A', DATE '2010-01-01', DATE '9999-12-31'), ('b', 'B', DATE \
       '2010-01-01', DATE '9999-12-31')";
      "CREATE TABLE fuzz_stock (sku VARCHAR(10), qty INT) WITH VALIDTIME \
       TEMPORAL PRIMARY KEY (sku) TEMPORAL FOREIGN KEY (sku) REFERENCES \
       fuzz_product (sku)";
      "TEMPORAL MERGE INTO fuzz_stock USING (SELECT 'a' AS sku, 10 AS qty, \
       DATE '2010-01-01' AS begin_time, DATE '2010-06-01' AS end_time) MODE \
       UPSERT";
      "TEMPORAL MERGE INTO fuzz_stock USING (SELECT 'a' AS sku, 12 AS qty, \
       DATE '2010-03-01' AS begin_time, DATE '2010-04-01' AS end_time) MODE \
       PATCH";
      "TEMPORAL MERGE INTO fuzz_stock USING (SELECT 'b' AS sku, 3 AS qty, \
       DATE '2010-02-01' AS begin_time, DATE '2010-05-01' AS end_time) MODE \
       REPLACE";
    ]
  in
  (* a bitemporal table written over three transaction days, so crash
     points land among new versions, closes of versions recorded on an
     earlier day, in-place rewrites and removals of same-day versions *)
  let ledger =
    [
      ( 0,
        "CREATE TABLE fuzz_ledger (acct VARCHAR(10), bal INT) WITH VALIDTIME \
         AND TRANSACTIONTIME" );
      ( 0,
        "INSERT INTO fuzz_ledger (acct, bal, begin_time, end_time) VALUES \
         ('a', 100, DATE '2010-01-01', DATE '9999-12-31'), ('b', 50, DATE \
         '2010-01-01', DATE '9999-12-31'), ('c', 7, DATE '2010-01-01', DATE \
         '9999-12-31')" );
      ( 1,
        "VALIDTIME [DATE '2010-03-01', DATE '2010-06-01') UPDATE fuzz_ledger \
         SET bal = bal + 10 WHERE acct <> 'c'" );
      (1, "UPDATE fuzz_ledger SET bal = bal * 2 WHERE acct = 'a'");
      (2, "DELETE FROM fuzz_ledger WHERE acct = 'b'");
      (2, "UPDATE fuzz_ledger SET bal = 0 WHERE acct = 'c'");
      (2, "DELETE FROM fuzz_ledger WHERE acct = 'c'");
    ]
  in
  (* a workload step runs on its transaction day, counted from the
     dataset's now *)
  let workload_of qids =
    List.map (fun sql -> (0, sql)) dml
    @ ledger
    @ List.map
        (fun id -> (2, Queries.sequenced ~context (Queries.find id)))
        qids
  in
  let run_step base e (day, sql) =
    Engine.set_now e (Sqldb.Date.add_days (Engine.now base) day);
    ignore (Stratum.exec_sql e sql)
  in
  let all_ids = List.map (fun (q : Queries.t) -> q.Queries.id) Queries.all in
  let plan =
    [
      (Datasets.DS1, workload_of all_ids, 120);
      (Datasets.DS2, workload_of [ "q2"; "q5"; "q8"; "q11"; "q17"; "q19" ], 90);
      (Datasets.DS3, workload_of [ "q3"; "q6"; "q9"; "q14"; "q17b"; "q20" ], 90);
    ]
  in
  let policy = Durable.Wal.Batch 8 and snapshot_every = 8 in
  let violations = ref 0 and trials = ref 0 and vacuous = ref 0 in
  List.iter
    (fun (ds, workload, n_points) ->
      let base =
        apply_env_jobs (Datasets.load { Datasets.ds; size = Heuristic.Small })
      in
      Queries.install base;
      (* Auto strategy + memoized constant periods: each query records a
         calibration entry, so every leg's WAL carries aux records and
         crash points land inside and around them.  Within one leg each
         statement runs once, so no arm ever reaches the measured state
         and every choice stays a pure function of (statement, catalog)
         — the legs remain deterministic replicas. *)
      (Engine.catalog base).Sqleval.Catalog.options.Sqleval.Catalog.auto_strategy <-
        true;
      (Engine.catalog base).Sqleval.Catalog.options
        .Sqleval.Catalog.memoize_constant_periods <- true;
      (* golden run: prefix states keyed by commit serial *)
      let golden_dir = Filename.temp_dir "taupsm_fuzz_gold" "" in
      let e = Engine.copy base in
      let h = Sqleval.Persist.attach ~policy ~snapshot_every ~dir:golden_dir e in
      let prefixes = Hashtbl.create 64 in
      let record () =
        Hashtbl.replace prefixes
          (Durable.Store.serial (Sqleval.Persist.store h))
          (Sqldb.Database.copy (Engine.database e))
      in
      record ();
      List.iter
        (fun step ->
          run_step base e step;
          record ())
        workload;
      Sqleval.Persist.detach h;
      rm_rf golden_dir;
      (* total durable bytes, via a huge armed budget that never fires *)
      let total =
        let big = 1 lsl 30 in
        Fault.arm_crash ~at_bytes:big;
        let dir = Filename.temp_dir "taupsm_fuzz_measure" "" in
        let e = Engine.copy base in
        let h = Sqleval.Persist.attach ~policy ~snapshot_every ~dir e in
        List.iter (run_step base e) workload;
        Sqleval.Persist.detach h;
        rm_rf dir;
        let remaining =
          match Fault.crash_armed () with Some r -> r | None -> 0
        in
        Fault.disarm_crash ();
        big - remaining
      in
      Printf.printf "%s-SMALL: %d statements, %d durable bytes, %d crash \
                     points\n%!"
        (Datasets.ds_to_string ds)
        (List.length workload) total n_points;
      let rng = Random.State.make [| 0x7a5; Hashtbl.hash ds |] in
      for _ = 1 to n_points do
        incr trials;
        let at_bytes = Random.State.int rng total in
        let dir = Filename.temp_dir "taupsm_fuzz" "" in
        Fault.arm_crash ~at_bytes;
        let crashed_in_attach = ref false in
        (try
           let e = Engine.copy base in
           let h =
             try Sqleval.Persist.attach ~policy ~snapshot_every ~dir e
             with Fault.Crash _ ->
               crashed_in_attach := true;
               raise Exit
           in
           (try
              List.iter (run_step base e) workload
            with Fault.Crash _ -> ());
           (* detach flushes dirty aux records (calibration), so the
              budget can fire here too — that is just a crash during
              the final flush, validated like any other *)
           (try
              if not (Durable.Store.is_dead (Sqleval.Persist.store h)) then
                Sqleval.Persist.detach h
            with Fault.Crash _ -> ())
         with Exit -> ());
        Fault.disarm_crash ();
        if !crashed_in_attach && not (Durable.Store.exists dir) then
          (* died before the first snapshot landed: durably nothing *)
          incr vacuous
        else begin
          match Sqleval.Persist.recover ~dir () with
          | e', report -> (
              let s = report.Durable.Store.last_serial in
              match Hashtbl.find_opt prefixes s with
              | None ->
                  incr violations;
                  Printf.printf
                    "VIOLATION %s crash@%d: serial %d is not a committed \
                     prefix\n%!"
                    (Datasets.ds_to_string ds) at_bytes s
              | Some g -> (
                  match
                    Taupsm.Resilient.db_diff g (Engine.database e')
                  with
                  | None -> (
                      (* second leg — crash -> recover -> resume ->
                         commit -> recover.  Catches resume keeping
                         intact-but-uncommitted orphan records past
                         the last commit marker: the probe statement's
                         marker would adopt them and the re-recovered
                         state would diverge from the live one. *)
                      match
                        Stratum.install e';
                        let h' =
                          Sqleval.Persist.resume ~policy ~snapshot_every ~dir
                            e' report
                        in
                        ignore
                          (Stratum.exec_sql e'
                             "CREATE TABLE fuzz_probe (x INT)");
                        ignore
                          (Stratum.exec_sql e'
                             "INSERT INTO fuzz_probe VALUES (1)");
                        Sqleval.Persist.detach h';
                        let e'', _ = Sqleval.Persist.recover ~dir () in
                        Taupsm.Resilient.db_diff (Engine.database e')
                          (Engine.database e'')
                      with
                      | None -> ()
                      | Some diff ->
                          incr violations;
                          Printf.printf
                            "VIOLATION %s crash@%d: resume leg diverges: \
                             %s\n%!"
                            (Datasets.ds_to_string ds) at_bytes diff
                      | exception exn ->
                          incr violations;
                          Printf.printf
                            "VIOLATION %s crash@%d: resume leg raised %s\n%!"
                            (Datasets.ds_to_string ds) at_bytes
                            (Printexc.to_string exn))
                  | Some diff ->
                      incr violations;
                      Printf.printf
                        "VIOLATION %s crash@%d serial=%d: %s\n%!"
                        (Datasets.ds_to_string ds) at_bytes s diff))
          | exception exn ->
              incr violations;
              Printf.printf "VIOLATION %s crash@%d: recovery raised %s\n%!"
                (Datasets.ds_to_string ds) at_bytes (Printexc.to_string exn)
        end;
        rm_rf dir;
        if !trials mod 20 = 0 then
          Printf.printf "  %d crash points done (%d violations)\n%!" !trials
            !violations
      done)
    plan;
  Printf.printf
    "crash points: %d (%d pre-durability, vacuous); prefix violations: %d\n%!"
    !trials !vacuous !violations;
  if !violations > 0 then exit 1

(* Nontemporal baseline: the 16 conventional queries on the snapshot
   database — the paper's PSM benchmark — versus their sequenced
   variants, i.e. the price of asking for history. *)
let nontemporal () =
  let title =
    "Nontemporal baseline — conventional PSM queries vs. their sequenced \
     variants (SMALL, 1-month context)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "%-5s %12s %12s %12s\n" "query" "nontemporal" "seq MAX"
    "seq best";
  let legacy = Datasets.load_nontemporal Heuristic.Small in
  Stratum.install legacy;
  Queries.install legacy;
  let temporal = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install temporal;
  List.iter
    (fun (q : Queries.t) ->
      let base =
        time_run (fun () ->
            Stratum.exec_sql (Engine.copy legacy) q.Queries.body)
      in
      let seq strategy =
        match
          time_run (run_query (Engine.copy temporal) q ~strategy ~days:30)
        with
        | t -> Some t
        | exception Taupsm.Perst_slicing.Perst_unsupported _ -> None
      in
      let mx = seq Stratum.Max in
      let ps = if q.Queries.perst_supported then seq Stratum.Perst else None in
      let best =
        match (mx, ps) with
        | Some a, Some b -> Some (Float.min a b)
        | Some a, None -> Some a
        | None, x -> x
      in
      Printf.printf "%-5s %12.4f %12s %12s\n%!" q.Queries.id base
        (match mx with Some t -> Printf.sprintf "%.4f" t | None -> "n/a")
        (match best with Some t -> Printf.sprintf "%.4f" t | None -> "n/a"))
    Queries.all

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  let open Bechamel in
  let e12 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  let e13 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Large } in
  let e15 = Datasets.load { Datasets.ds = Datasets.DS3; size = Heuristic.Small } in
  List.iter Queries.install [ e12; e13; e15 ];
  let q2 = Queries.find "q2" in
  let mk name e strategy days =
    Test.make ~name (Staged.stage (fun () -> ignore (run_query e q2 ~strategy ~days ())))
  in
  let test =
    Test.make_grouped ~name:"taupsm"
      [
        mk "fig12/q2-max-1m" e12 Stratum.Max 30;
        mk "fig12/q2-perst-1m" e12 Stratum.Perst 30;
        mk "fig13/q2-max-1m" e13 Stratum.Max 30;
        mk "fig13/q2-perst-1m" e13 Stratum.Perst 30;
        mk "fig14/q2-max-large" e13 Stratum.Max 30;
        mk "fig15/q2-max-ds3" e15 Stratum.Max 30;
        mk "fig15/q2-perst-ds3" e15 Stratum.Perst 30;
      ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) () in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] test in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      clock raw
  in
  Printf.printf "\nBechamel micro-benchmarks (monotonic clock)\n";
  Printf.printf "%s\n" (String.make 52 '=');
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let result = Hashtbl.find results name in
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "%-36s %14.0f ns/run\n" name est
      | _ -> Printf.printf "%-36s (no estimate)\n" name)
    (List.sort compare names)

(* ------------------------------------------------------------------ *)
(* Preflight correctness check                                         *)
(* ------------------------------------------------------------------ *)

let correctness () =
  Printf.printf "\nPreflight: commutativity and MAX=PERST on all 16 queries\n";
  Printf.printf "%s\n" (String.make 57 '=');
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  let context_sql = "[DATE '2010-03-01', DATE '2010-04-15')" in
  List.iter
    (fun (q : Queries.t) ->
      let e = Engine.copy e0 in
      let commutes =
        Taupsm.Commute.check_commutes ~strategy:Stratum.Max e ~context_sql
          ~query_sql:q.Queries.body ()
        = []
      in
      let equal =
        Taupsm.Commute.check_equivalence e ~context_sql
          ~query_sql:q.Queries.body ()
        = []
      in
      Printf.printf "%-5s commutativity: %-4s  MAX=PERST: %s\n%!" q.Queries.id
        (if commutes then "ok" else "FAIL")
        (if equal then
           if q.Queries.perst_supported then "ok" else "ok (PERST n/a)"
         else "FAIL"))
    Queries.all

(* ------------------------------------------------------------------ *)
(* PR5: parallel sequenced evaluation — serial vs domain-pool MAX      *)
(* ------------------------------------------------------------------ *)

(* Serial-vs-parallel times for every query at jobs ∈ {1, 2, 4} under
   MAX over the 1-year context, preceded by an equivalence preflight
   (jobs=4 compared row-for-row against serial; any mismatch aborts the
   bench).  The headline geomean is the jobs=4 speedup over the queries
   that actually slice (q11's routine writes, so it stays serial).
   [host_cores] is recorded alongside: on a single-core runner the
   domains time-share the CPU and the speedup cannot exceed 1 — the
   equivalence guarantee, not the ratio, is what CI gates on there. *)
let parallel_bench () =
  let title = "Parallel MAX slicing — serial vs domain pool (DS1-SMALL, 1y)" in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let module RS = Sqleval.Result_set in
  let days = 365 in
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  Stratum.install e0;
  let fresh () = Engine.copy e0 in
  let parse (q : Queries.t) =
    Sqlparse.Parser.parse_temporal_stmt
      (Queries.sequenced ~context:(context_of days) q)
  in
  (* Equivalence preflight: the oracle for everything that follows. *)
  let mismatches = ref 0 in
  List.iter
    (fun (q : Queries.t) ->
      let sql = Queries.sequenced ~context:(context_of days) q in
      let run jobs = Stratum.query ~strategy:Stratum.Max ~jobs (fresh ()) sql in
      let s = run 1 and p = run 4 in
      if not (s.RS.cols = p.RS.cols && s.RS.rows = p.RS.rows) then begin
        incr mismatches;
        Printf.printf "MISMATCH %s: serial %d rows, jobs=4 %d rows\n%!"
          q.Queries.id (List.length s.RS.rows) (List.length p.RS.rows)
      end)
    Queries.all;
  Printf.printf "equivalence preflight (jobs=4 vs serial): %d/%d identical\n%!"
    (List.length Queries.all - !mismatches)
    (List.length Queries.all);
  if !mismatches > 0 then exit 2;
  (* Does the query slice at all under the parallelizability gate? *)
  let slices (q : Queries.t) =
    let e = fresh () in
    (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.observe <- true;
    ignore (Stratum.exec ~strategy:Stratum.Max ~jobs:2 e (parse q));
    Trace.get_count
      (Sqleval.Catalog.trace (Engine.catalog e))
      "parallel.batches"
    > 0
  in
  let jobs_list = [ 1; 2; 4 ] in
  Printf.printf "%-5s %10s %10s %10s %8s %7s\n" "query" "jobs=1" "jobs=2"
    "jobs=4" "speedup" "sliced";
  let points =
    List.map
      (fun (q : Queries.t) ->
        let e = fresh () in
        let ts = parse q in
        let times =
          List.map
            (fun jobs ->
              ( jobs,
                time_run (fun () ->
                    Stratum.exec ~strategy:Stratum.Max ~jobs e ts) ))
            jobs_list
        in
        let t1 = List.assoc 1 times and t4 = List.assoc 4 times in
        let sliced = slices q in
        Printf.printf "%-5s %10.4f %10.4f %10.4f %7.2fx %7s\n%!" q.Queries.id
          t1 (List.assoc 2 times) t4 (t1 /. t4)
          (if sliced then "yes" else "no");
        (q, times, sliced))
      Queries.all
  in
  let sliced_points = List.filter (fun (_, _, s) -> s) points in
  let geomean =
    exp
      (List.fold_left
         (fun acc (_, times, _) ->
           acc +. log (List.assoc 1 times /. List.assoc 4 times))
         0.0 sliced_points
      /. float_of_int (max 1 (List.length sliced_points)))
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "geometric-mean jobs=4 speedup over sliced queries: %.2fx (%d host \
     core%s)\n%!"
    geomean cores
    (if cores = 1 then "" else "s");
  write_bench ~pr:5 ~target:"parallel" ~geomean
    ~extra:
      [
        ("dataset", Jstr "DS1-SMALL");
        ("strategy", Jstr "MAX");
        ("context_days", Jint days);
        ("host_cores", Jint cores);
        ( "equivalence",
          Jstr
            (Printf.sprintf "%d/%d"
               (List.length Queries.all - !mismatches)
               (List.length Queries.all)) );
      ]
    ~queries:
      (List.map
         (fun ((q : Queries.t), times, sliced) ->
           Jobj
             [
               ("query", Jstr q.Queries.id);
               ("jobs1_seconds", Jfloat (List.assoc 1 times));
               ("jobs2_seconds", Jfloat (List.assoc 2 times));
               ("jobs4_seconds", Jfloat (List.assoc 4 times));
               ( "speedup_jobs4",
                 Jfloat (List.assoc 1 times /. List.assoc 4 times) );
               ("sliced", Jstr (if sliced then "yes" else "no"));
             ])
         points)
    "BENCH_pr5.json"

(* ------------------------------------------------------------------ *)
(* PR6: plan compilation — closure-compiled plans vs the interpreter   *)
(* ------------------------------------------------------------------ *)

(* Interpreter-vs-compiled times for every query under MAX over the
   1-year context, preceded by an equivalence preflight (compiled
   compared row-for-row against interpreted at jobs ∈ {1, 2, 4}; any
   mismatch aborts the bench), then the compiled path re-measured at
   jobs ∈ {2, 4} on top of the shared-snapshot parallel executor.  The
   headline geomean is the single-thread compiled speedup over the
   interpreter; [host_cores] is recorded alongside the jobs=4 figures —
   on a single-core runner the domains time-share the CPU, so CI gates
   on the equivalence line and the single-thread geomean, not on the
   parallel ratio. *)
let compile_bench () =
  let title =
    "Plan compilation — compiled closures vs interpreter (DS1-SMALL, 1y)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let module RS = Sqleval.Result_set in
  let days = 365 in
  let e0 = Datasets.load { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  Queries.install e0;
  Stratum.install e0;
  let fresh ~compile () =
    let e = Engine.copy e0 in
    (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.compile <-
      compile;
    e
  in
  let parse (q : Queries.t) =
    Sqlparse.Parser.parse_temporal_stmt
      (Queries.sequenced ~context:(context_of days) q)
  in
  (* Equivalence preflight: the oracle for everything that follows. *)
  let mismatches = ref 0 in
  List.iter
    (fun (q : Queries.t) ->
      let sql = Queries.sequenced ~context:(context_of days) q in
      let run ~compile jobs =
        Stratum.query ~strategy:Stratum.Max ~jobs (fresh ~compile ()) sql
      in
      let base = run ~compile:false 1 in
      let bad =
        List.filter
          (fun jobs ->
            let c = run ~compile:true jobs in
            not (base.RS.cols = c.RS.cols && base.RS.rows = c.RS.rows))
          [ 1; 2; 4 ]
      in
      if bad <> [] then begin
        incr mismatches;
        Printf.printf "MISMATCH %s: compiled differs at jobs %s\n%!"
          q.Queries.id
          (String.concat "," (List.map string_of_int bad))
      end)
    Queries.all;
  Printf.printf
    "equivalence preflight (compiled vs interpreted, jobs {1,2,4}): %d/%d \
     identical\n%!"
    (List.length Queries.all - !mismatches)
    (List.length Queries.all);
  if !mismatches > 0 then exit 2;
  Printf.printf "%-5s %10s %10s %10s %10s %8s\n" "query" "interp" "compiled"
    "comp j=2" "comp j=4" "speedup";
  let points =
    List.map
      (fun (q : Queries.t) ->
        let ts = parse q in
        let timed ~compile jobs =
          let e = fresh ~compile () in
          time_run (fun () -> Stratum.exec ~strategy:Stratum.Max ~jobs e ts)
        in
        let ti = timed ~compile:false 1 in
        let tc = timed ~compile:true 1 in
        let tc2 = timed ~compile:true 2 in
        let tc4 = timed ~compile:true 4 in
        Printf.printf "%-5s %10.4f %10.4f %10.4f %10.4f %7.2fx\n%!"
          q.Queries.id ti tc tc2 tc4 (ti /. tc);
        (q, ti, tc, tc2, tc4))
      Queries.all
  in
  let geomean_of f =
    exp
      (List.fold_left (fun acc p -> acc +. log (f p)) 0.0 points
      /. float_of_int (List.length points))
  in
  let geomean = geomean_of (fun (_, ti, tc, _, _) -> ti /. tc) in
  let geomean_j4 = geomean_of (fun (_, ti, _, _, tc4) -> ti /. tc4) in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "geometric-mean single-thread compiled speedup: %.2fx (jobs=4: %.2fx on \
     %d host core%s)\n%!"
    geomean geomean_j4 cores
    (if cores = 1 then "" else "s");
  write_bench ~pr:6 ~target:"compile" ~geomean
    ~extra:
      [
        ("dataset", Jstr "DS1-SMALL");
        ("strategy", Jstr "MAX");
        ("context_days", Jint days);
        ("host_cores", Jint cores);
        ("geomean_jobs4", Jfloat geomean_j4);
        ( "equivalence",
          Jstr
            (Printf.sprintf "%d/%d"
               (List.length Queries.all - !mismatches)
               (List.length Queries.all)) );
      ]
    ~queries:
      (List.map
         (fun ((q : Queries.t), ti, tc, tc2, tc4) ->
           Jobj
             [
               ("query", Jstr q.Queries.id);
               ("interp_seconds", Jfloat ti);
               ("compiled_seconds", Jfloat tc);
               ("compiled_jobs2_seconds", Jfloat tc2);
               ("compiled_jobs4_seconds", Jfloat tc4);
               ("speedup", Jfloat (ti /. tc));
               ("speedup_jobs4", Jfloat (ti /. tc4));
             ])
         points)
    "BENCH_pr6.json"

(* This PR's bench: set-based sequenced writes.  TEMPORAL MERGE
   throughput across the three modes, the steady-state cost of the
   declarative temporal PK/FK checks (on/off ablation — the headline
   geomean), and a mixed read/write simulation.  A preflight gate
   asserts (a) a merge is observably equivalent to the hand-written
   sequenced UPDATEs it replaces and (b) constraint violations surface
   as typed errors with a clean rollback; any gate failure exits 1
   before a single timing is published. *)
let merge_bench () =
  let title =
    "TEMPORAL MERGE — mode throughput, constraint-check ablation, mixed \
     read/write"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let nsku = 200 in
  let sku i = Printf.sprintf "sku%03d" i in
  let values f = String.concat ", " (List.init nsku f) in
  let fresh () =
    let e = Engine.create ~now:(Date.of_ymd ~y:2010 ~m:6 ~d:1) () in
    Stratum.install e;
    ignore
      (Stratum.exec_sql e
         "CREATE TABLE product (sku VARCHAR(10), name VARCHAR(30)) WITH \
          VALIDTIME TEMPORAL PRIMARY KEY (sku)");
    ignore
      (Stratum.exec_sql e
         "CREATE TABLE stock (sku VARCHAR(10), qty INT, note VARCHAR(20)) \
          WITH VALIDTIME TEMPORAL PRIMARY KEY (sku) TEMPORAL FOREIGN KEY \
          (sku) REFERENCES product (sku)");
    ignore
      (Stratum.exec_sql e
         (Printf.sprintf
            "INSERT INTO product (sku, name, begin_time, end_time) VALUES %s"
            (values (fun i ->
                 Printf.sprintf
                   "('%s', 'P%d', DATE '2010-01-01', DATE '9999-12-31')"
                   (sku i) i))));
    ignore
      (Stratum.exec_sql e
         (Printf.sprintf
            "INSERT INTO stock (sku, qty, note, begin_time, end_time) \
             VALUES %s"
            (values (fun i ->
                 Printf.sprintf
                   "('%s', %d, 'load', DATE '2010-01-01', DATE '9999-12-31')"
                   (sku i) (i mod 50)))));
    (* the staging feed: one mid-window correction per sku *)
    ignore
      (Stratum.exec_sql e
         "CREATE TABLE feed (sku VARCHAR(10), qty INT, note VARCHAR(20), \
          begin_time DATE, end_time DATE)");
    ignore
      (Stratum.exec_sql e
         (Printf.sprintf "INSERT INTO feed VALUES %s"
            (values (fun i ->
                 Printf.sprintf
                   "('%s', %d, 'fix', DATE '2010-03-01', DATE '2010-04-01')"
                   (sku i)
                   ((i + 7) mod 50)))));
    e
  in
  let e0 = fresh () in
  let stock_state e =
    (Stratum.query e
       "NONSEQUENCED VALIDTIME SELECT sku, qty, note, begin_time, end_time \
        FROM stock ORDER BY sku, begin_time, end_time")
      .Sqleval.Result_set.rows
  in
  (* ---- preflight gate 1: merge == the sequenced UPDATEs it replaces *)
  Printf.printf "preflight: equivalence + violation gates\n%!";
  let merged = Engine.copy e0 and gb = Engine.copy e0 in
  ignore (Stratum.exec_sql merged "TEMPORAL MERGE INTO stock USING feed MODE UPSERT");
  List.init nsku (fun i ->
      Printf.sprintf
        "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE stock SET \
         qty = %d, note = 'fix' WHERE sku = '%s'"
        ((i + 7) mod 50)
        (sku i))
  |> List.iter (fun sql -> ignore (Stratum.exec_sql gb sql));
  if stock_state merged <> stock_state gb then begin
    Printf.eprintf
      "PREFLIGHT FAILURE: merge diverges from equivalent sequenced UPDATEs\n";
    exit 1
  end;
  (* violation gate: a bad merge must raise a typed error and leave the
     database untouched *)
  let gv = Engine.copy e0 in
  let pre = Sqldb.Database.copy (Engine.database gv) in
  (match
     Stratum.exec_sql gv
       "TEMPORAL MERGE INTO stock USING (SELECT 'ghost' AS sku, 1 AS qty, \
        DATE '2010-02-01' AS begin_time, DATE '2010-03-01' AS end_time) \
        MODE UPSERT"
   with
  | _ ->
      Printf.eprintf "PREFLIGHT FAILURE: FK violation not detected\n";
      exit 1
  | exception Taupsm_error.Error
      { code = Taupsm_error.Constraint_violation; _ } -> (
      match Taupsm.Resilient.db_diff pre (Engine.database gv) with
      | None -> ()
      | Some diff ->
          Printf.eprintf "PREFLIGHT FAILURE: violation rollback unclean: %s\n"
            diff;
          exit 1)
  | exception exn ->
      Printf.eprintf "PREFLIGHT FAILURE: expected Constraint_violation, got %s\n"
        (Printexc.to_string exn);
      exit 1);
  Printf.printf "preflight: OK\n%!";
  (* ---- mode throughput, constraints on vs off ---- *)
  let merge_sql mode =
    Printf.sprintf "TEMPORAL MERGE INTO stock USING feed MODE %s" mode
  in
  let run ~checks mode () =
    let e = Engine.copy e0 in
    (Engine.catalog e).Sqleval.Catalog.options.Sqleval.Catalog.check_constraints <-
      checks;
    ignore (Stratum.exec_sql e (merge_sql mode))
  in
  Printf.printf "%-8s %12s %12s %10s %11s\n" "mode" "checks on" "checks off"
    "overhead" "rows/s (on)";
  let points =
    List.map
      (fun mode ->
        let t_on = time_run ~runs:5 (run ~checks:true mode) in
        let t_off = time_run ~runs:5 (run ~checks:false mode) in
        Printf.printf "%-8s %12.4f %12.4f %9.2f%% %11.0f\n%!" mode t_on t_off
          (100.0 *. ((t_on /. t_off) -. 1.0))
          (float_of_int nsku /. t_on);
        (mode, t_on, t_off))
      [ "UPSERT"; "PATCH"; "REPLACE" ]
  in
  let geomean_ratio =
    exp
      (List.fold_left (fun acc (_, on, off) -> acc +. log (on /. off)) 0.0
         points
      /. float_of_int (max 1 (List.length points)))
  in
  Printf.printf "geometric-mean constraint-check overhead: %.2f%%\n"
    (100.0 *. (geomean_ratio -. 1.0));
  (* ---- mixed read/write simulation ---- *)
  let rounds = 20 in
  let mixed () =
    let e = Engine.copy e0 in
    for r = 1 to rounds do
      ignore
        (Stratum.exec_sql e
           (Printf.sprintf
              "TEMPORAL MERGE INTO stock USING (SELECT '%s' AS sku, %d AS \
               qty, DATE '2010-03-01' AS begin_time, DATE '2010-04-01' AS \
               end_time) MODE PATCH"
              (sku (r mod nsku))
              (100 + r)));
      ignore
        (Stratum.query e
           "VALIDTIME SELECT sku, qty FROM stock WHERE qty > 25")
    done
  in
  let t_mixed = time_run ~runs:3 mixed in
  let mixed_stmt_s = float_of_int (2 * rounds) /. t_mixed in
  Printf.printf "mixed read/write: %d merge+query rounds in %.4fs (%.0f \
                 stmt/s)\n%!"
    rounds t_mixed mixed_stmt_s;
  write_bench ~pr:7 ~target:"merge" ~geomean:geomean_ratio
    ~extra:
      [
        ("entities", Jint nsku);
        ("source_rows", Jint nsku);
        ( "geomean_check_overhead_pct",
          Jfloat (100.0 *. (geomean_ratio -. 1.0)) );
        ("mixed_rounds", Jint rounds);
        ("mixed_seconds", Jfloat t_mixed);
        ("mixed_stmt_per_sec", Jfloat mixed_stmt_s);
        ("preflight", Jstr "ok");
      ]
    ~queries:
      (List.map
         (fun (mode, on, off) ->
           Jobj
             [
               ("query", Jstr ("merge_" ^ String.lowercase_ascii mode));
               ("checks_on_seconds", Jfloat on);
               ("checks_off_seconds", Jfloat off);
               ("overhead_pct", Jfloat (100.0 *. ((on /. off) -. 1.0)));
               ("rows_per_sec", Jfloat (float_of_int nsku /. on));
             ])
         points)
    "BENCH_pr7.json"

(* ------------------------------------------------------------------ *)
(* PR 8: multi-session serving                                         *)
(* ------------------------------------------------------------------ *)

(* Throughput and latency of the serving layer over real sockets:
   first an equivalence preflight (the same statement stream through a
   server session and through a direct engine must agree, result for
   result), then a sessions × reads throughput matrix against MVCC
   snapshots, then a concurrent-writer phase that must group-commit
   (fsyncs per commit strictly < 1.0, the headline durability
   amortization).  Writes BENCH_pr8.json; exits nonzero when the
   preflight or the fsync gate fails. *)
let serve_bench () =
  let title = "Serving — MVCC snapshot reads, group commit (PR 8)" in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let dir = Filename.temp_dir "taupsm_serve_bench" "" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Sqleval.Persist.attach ~policy:Durable.Wal.Off ~dir e in
  (* seed data, loaded before the server goes live *)
  ignore
    (Stratum.exec_sql e "CREATE TABLE kv (id INTEGER, grp INTEGER, v INTEGER)");
  let n_rows = 2000 in
  let chunk = 200 in
  for c = 0 to (n_rows / chunk) - 1 do
    let rows =
      List.init chunk (fun i ->
          let id = (c * chunk) + i in
          Printf.sprintf "(%d, %d, %d)" id (id mod 16) (id * 7 mod 1000))
    in
    ignore
      (Stratum.exec_sql e
         ("INSERT INTO kv VALUES " ^ String.concat ", " rows))
  done;
  let cores = Domain.recommended_domain_count () in
  (* one worker per benched session: the matrix must measure snapshot
     contention, not admission queueing *)
  let workers = 8 in
  let cfg =
    {
      Serve.Server.host = "127.0.0.1";
      port = 0;
      workers;
      queue_depth = 64;
      idle_timeout = 60.;
      drain_deadline = 30.;
      stmt_deadline = Some 60.;
      max_rows = None;
      retry_seed = None;
      default_strategy = None;
      lane = Serve.Commit_lane.default_config;
    }
  in
  let srv = Serve.Server.create ~cfg ~engine:e ~persist:h () in
  let handle = Serve.Server.run_async srv in
  let port = Serve.Server.port srv in
  Printf.printf "server on 127.0.0.1:%d — %d workers (host has %d cores)\n%!"
    port workers cores;

  (* --- equivalence preflight: server session vs direct engine ------ *)
  let preflight =
    [
      "CREATE TABLE pf (id INTEGER, v INTEGER)";
      "INSERT INTO pf VALUES (1, 10), (2, 20), (3, 30), (4, 40)";
      "UPDATE pf SET v = v + 5 WHERE id <= 2";
      "SELECT id, v FROM pf";
      "DELETE FROM pf WHERE id = 4";
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM pf";
      "SELECT grp, COUNT(*) AS n FROM kv GROUP BY grp";
    ]
  in
  let direct = Engine.create () in
  Stratum.install direct;
  ignore
    (Stratum.exec_sql direct
       "CREATE TABLE kv (id INTEGER, grp INTEGER, v INTEGER)");
  for c = 0 to (n_rows / chunk) - 1 do
    let rows =
      List.init chunk (fun i ->
          let id = (c * chunk) + i in
          Printf.sprintf "(%d, %d, %d)" id (id mod 16) (id * 7 mod 1000))
    in
    ignore
      (Stratum.exec_sql direct
         ("INSERT INTO kv VALUES " ^ String.concat ", " rows))
  done;
  let c = Serve.Client.connect ~port () in
  List.iter
    (fun sql ->
      let resp = Serve.Client.stmt c sql in
      if not (Serve.Client.ok resp) then begin
        Printf.printf "SERVE PREFLIGHT FAILED: %s -> %s\n%!" sql
          (Serve.Json.to_string resp);
        exit 3
      end;
      let served = Serve.Client.row_bag resp in
      let expect =
        match Stratum.exec_sql direct sql with
        | Eval.Rows rs ->
            Some
              (List.sort compare
                 (List.map
                    (fun row ->
                      Serve.Json.to_string
                        (Serve.Json.List
                           (Array.to_list
                              (Array.map Serve.Wire.json_of_value row))))
                    rs.Sqleval.Result_set.rows))
        | _ -> None
      in
      if served <> expect then begin
        Printf.printf "SERVE PREFLIGHT MISMATCH on %s\n%!" sql;
        exit 3
      end)
    preflight;
  Printf.printf "preflight: %d statements agree with the direct engine\n%!"
    (List.length preflight);

  (* --- read throughput matrix -------------------------------------- *)
  let read_sql = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM kv GROUP BY grp" in
  let reads_per_session = 300 in
  let read_point n_sessions =
    let histos = Array.init n_sessions (fun _ -> Histo.create ()) in
    let errors = Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init n_sessions (fun s ->
          Thread.create
            (fun () ->
              let c = Serve.Client.connect ~port () in
              for _ = 1 to reads_per_session do
                let q0 = Unix.gettimeofday () in
                let resp = Serve.Client.stmt c read_sql in
                if Serve.Client.ok resp then
                  Histo.add histos.(s) (Unix.gettimeofday () -. q0)
                else ignore (Atomic.fetch_and_add errors 1)
              done;
              Serve.Client.close c)
            ())
    in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    if Atomic.get errors > 0 then begin
      Printf.printf "SERVE BENCH: %d read errors at %d sessions\n%!"
        (Atomic.get errors) n_sessions;
      exit 3
    end;
    let all = Histo.create () in
    Array.iter (fun hi -> Histo.merge ~into:all hi) histos;
    (float_of_int (n_sessions * reads_per_session) /. dt, all)
  in
  let session_counts = [ 1; 2; 4; 8 ] in
  let read_points =
    List.map
      (fun n ->
        let tput, histo = read_point n in
        Printf.printf
          "reads @ %d session(s): %8.0f stmt/s   p50 %6.2f ms   p99 %6.2f ms\n%!"
          n tput
          (1000. *. Histo.p50 histo)
          (1000. *. Histo.p99 histo);
        (n, tput, histo))
      session_counts
  in
  let base_tput =
    match read_points with (_, t, _) :: _ -> t | [] -> assert false
  in

  (* --- concurrent write phase: group commit ------------------------ *)
  let stats_of () =
    let resp = Serve.Client.stats c in
    match Serve.Json.member "stats" resp with
    | Some s -> (
        match Serve.Json.member "lane" s with
        | Some lane ->
            ( Option.value ~default:0 (Serve.Json.member_int lane "fsyncs"),
              Option.value ~default:0 (Serve.Json.member_int lane "committed") )
        | None -> (0, 0))
    | None -> (0, 0)
  in
  let f0, c0 = stats_of () in
  let n_writers = 4 in
  let writes_per_writer = 80 in
  let whisto = Array.init n_writers (fun _ -> Histo.create ()) in
  let werrors = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let writers =
    List.init n_writers (fun w ->
        Thread.create
          (fun () ->
            let c = Serve.Client.connect ~port () in
            for i = 1 to writes_per_writer do
              let id = (w * writes_per_writer) + i in
              let q0 = Unix.gettimeofday () in
              let resp =
                Serve.Client.stmt c
                  (Printf.sprintf "UPDATE kv SET v = v + 1 WHERE id = %d" id)
              in
              if Serve.Client.ok resp then
                Histo.add whisto.(w) (Unix.gettimeofday () -. q0)
              else ignore (Atomic.fetch_and_add werrors 1)
            done;
            Serve.Client.close c)
          ())
  in
  List.iter Thread.join writers;
  let wdt = Unix.gettimeofday () -. t0 in
  if Atomic.get werrors > 0 then begin
    Printf.printf "SERVE BENCH: %d write errors\n%!" (Atomic.get werrors);
    exit 3
  end;
  let f1, c1 = stats_of () in
  let wall = Histo.create () in
  Array.iter (fun hi -> Histo.merge ~into:wall hi) whisto;
  let commits = c1 - c0 in
  let fsyncs = f1 - f0 in
  let fsyncs_per_commit =
    if commits = 0 then 1.0 else float_of_int fsyncs /. float_of_int commits
  in
  let wtput = float_of_int (n_writers * writes_per_writer) /. wdt in
  Printf.printf
    "writes @ %d writer(s): %8.0f stmt/s   p50 %6.2f ms   p99 %6.2f ms   \
     %d commits / %d fsyncs = %.3f fsyncs/commit\n%!"
    n_writers wtput
    (1000. *. Histo.p50 wall)
    (1000. *. Histo.p99 wall)
    commits fsyncs fsyncs_per_commit;

  Serve.Client.close c;
  Serve.Server.request_drain srv;
  let code = Serve.Server.wait handle in
  Printf.printf "drain: server exited %d\n%!" code;
  rm_rf dir;

  (* headline: geomean of read-throughput scaling ratios vs 1 session *)
  let ratios =
    List.filter_map
      (fun (n, t, _) -> if n = 1 then None else Some (t /. base_tput))
      read_points
  in
  let geomean =
    exp (List.fold_left (fun a r -> a +. log r) 0. ratios
         /. float_of_int (List.length ratios))
  in
  write_bench ~pr:8 ~target:"serve" ~geomean
    ~extra:
      [
        ("workers", Jint workers);
        ("fsyncs_per_commit", Jfloat fsyncs_per_commit);
        ("write_commits", Jint commits);
        ("write_fsyncs", Jint fsyncs);
      ]
    ~queries:
      (List.map
         (fun (n, tput, histo) ->
           Jobj
             [
               ("query", Jstr (Printf.sprintf "reads-%ds" n));
               ("sessions", Jint n);
               ("stmts_per_s", Jfloat tput);
               ("p50_ms", Jfloat (1000. *. Histo.p50 histo));
               ("p99_ms", Jfloat (1000. *. Histo.p99 histo));
             ])
         read_points
      @ [
          Jobj
            [
              ("query", Jstr (Printf.sprintf "writes-%dw" n_writers));
              ("sessions", Jint n_writers);
              ("stmts_per_s", Jfloat wtput);
              ("p50_ms", Jfloat (1000. *. Histo.p50 wall));
              ("p99_ms", Jfloat (1000. *. Histo.p99 wall));
              ("fsyncs_per_commit", Jfloat fsyncs_per_commit);
            ];
        ])
    "BENCH_pr8.json";
  if code <> 0 then begin
    Printf.printf "SERVE DRAIN GATE FAILED: exit %d\n%!" code;
    exit 4
  end;
  if fsyncs_per_commit >= 1.0 then begin
    Printf.printf "GROUP COMMIT GATE FAILED: %.3f fsyncs/commit >= 1.0\n%!"
      fsyncs_per_commit;
    exit 4
  end

(* Crash-point fuzzing of group commit under concurrent sessions: N
   submitter threads race disjoint statement streams into the commit
   lane over a durable store whose every write is under a seeded byte
   budget.  The lane records its actual execution order; recovery from
   the torn directory must reproduce the replay of exactly the first
   [last_serial] statements of that order, and every statement that was
   ACKED before the crash must be inside that recovered prefix (an ack
   strictly follows the batch fsync, so a lost acked commit is a
   durability lie).  >= 300 crash points; exits nonzero on violation. *)
let serve_fuzz () =
  let title = "Serve fuzz — crash points under concurrent group commit" in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let sessions = 4 in
  let stmts_of s =
    [
      Printf.sprintf "CREATE TABLE fzs_%d (id INTEGER, v INTEGER)" s;
      Printf.sprintf "INSERT INTO fzs_%d VALUES (1, 10), (2, 20), (3, 30)" s;
      Printf.sprintf "UPDATE fzs_%d SET v = v + 1 WHERE id = 2" s;
      Printf.sprintf
        "CREATE TABLE fzt_%d (sku VARCHAR(8), qty INT) WITH VALIDTIME \
         TEMPORAL PRIMARY KEY (sku)"
        s;
      Printf.sprintf
        "TEMPORAL MERGE INTO fzt_%d USING (SELECT 'a' AS sku, 5 AS qty, DATE \
         '2010-01-01' AS begin_time, DATE '2010-06-01' AS end_time) MODE \
         UPSERT"
        s;
      Printf.sprintf "DELETE FROM fzs_%d WHERE id = 3" s;
    ]
  in
  let policy = Durable.Wal.Off and snapshot_every = 8 in
  let lane_cfg =
    { Serve.Commit_lane.default_config with batch_window = 0.0 }
  in
  (* One trial: run the concurrent workload against [dir] under the
     armed crash budget; returns (execution order, acked list, store
     survived attach).  All mutation stays on the lane domain. *)
  let run_trial dir =
    let e = Engine.create () in
    Stratum.install e;
    let order = ref [] and omu = Mutex.create () in
    let acked = ref [] and amu = Mutex.create () in
    match Sqleval.Persist.attach ~policy ~snapshot_every ~dir e with
    | exception Fault.Crash _ -> None
    | h ->
        let lane =
          Serve.Commit_lane.create ~cfg:lane_cfg
            ~on_exec:(fun sql ->
              Mutex.lock omu;
              order := sql :: !order;
              Mutex.unlock omu)
            ~exec:(fun req -> Stratum.exec_sql e req.Serve.Commit_lane.sql)
            ~sync_wal:(fun () -> Sqleval.Persist.sync h)
            ~publish:(fun () -> ())
            ()
        in
        let threads =
          List.init sessions (fun s ->
              Thread.create
                (fun () ->
                  List.iter
                    (fun sql ->
                      match
                        Serve.Commit_lane.submit lane ~session:s sql
                      with
                      | Error _ -> ()
                      | Ok req -> (
                          match Serve.Commit_lane.await lane req with
                          | Serve.Commit_lane.Done _ ->
                              Mutex.lock amu;
                              acked := sql :: !acked;
                              Mutex.unlock amu
                          | Serve.Commit_lane.Failed _ -> ()))
                    (stmts_of s))
                ())
        in
        List.iter Thread.join threads;
        Serve.Commit_lane.drain lane;
        if not (Durable.Store.is_dead (Sqleval.Persist.store h)) then
          Sqleval.Persist.detach h;
        Some (List.rev !order, !acked)
  in
  (* total durable bytes via a budget that never fires *)
  let total =
    let big = 1 lsl 30 in
    Fault.arm_crash ~at_bytes:big;
    let dir = Filename.temp_dir "taupsm_serve_fuzz_measure" "" in
    ignore (run_trial dir);
    rm_rf dir;
    let remaining = match Fault.crash_armed () with Some r -> r | None -> 0 in
    Fault.disarm_crash ();
    big - remaining
  in
  let n_points = 300 in
  Printf.printf "%d sessions x %d statements, %d durable bytes, %d crash \
                 points\n%!"
    sessions
    (List.length (stmts_of 0))
    total n_points;
  let rng = Random.State.make [| 0x5e2; sessions |] in
  let violations = ref 0 and trials = ref 0 and vacuous = ref 0 in
  for _ = 1 to n_points do
    incr trials;
    let at_bytes = Random.State.int rng total in
    let dir = Filename.temp_dir "taupsm_serve_fuzz" "" in
    Fault.arm_crash ~at_bytes;
    let outcome = run_trial dir in
    Fault.disarm_crash ();
    (match outcome with
    | None ->
        if Durable.Store.exists dir then begin
          (* attach crashed mid-snapshot: recovery must still work *)
          match Sqleval.Persist.recover ~dir () with
          | _ -> ()
          | exception exn ->
              incr violations;
              Printf.printf "VIOLATION crash@%d: attach-leg recovery raised \
                             %s\n%!"
                at_bytes (Printexc.to_string exn)
        end
        else incr vacuous
    | Some (order, acked) -> (
        match Sqleval.Persist.recover ~dir () with
        | exception exn ->
            incr violations;
            Printf.printf "VIOLATION crash@%d: recovery raised %s\n%!" at_bytes
              (Printexc.to_string exn)
        | e', report ->
            let s = report.Durable.Store.last_serial in
            if s > List.length order then begin
              incr violations;
              Printf.printf
                "VIOLATION crash@%d: serial %d exceeds %d executed\n%!"
                at_bytes s (List.length order)
            end
            else begin
              (* recovered state must equal the replay of exactly the
                 first [s] statements in lane execution order *)
              let replay = Engine.create () in
              Stratum.install replay;
              List.iteri
                (fun i sql ->
                  if i < s then ignore (Stratum.exec_sql replay sql))
                order;
              (match
                 Taupsm.Resilient.db_diff
                   (Engine.database replay)
                   (Engine.database e')
               with
              | None -> ()
              | Some diff ->
                  incr violations;
                  Printf.printf "VIOLATION crash@%d serial=%d: %s\n%!" at_bytes
                    s diff);
              (* every acked statement is inside the recovered prefix *)
              List.iter
                (fun sql ->
                  let idx = ref (-1) in
                  List.iteri (fun i o -> if o = sql then idx := i) order;
                  if !idx < 0 || !idx >= s then begin
                    incr violations;
                    Printf.printf
                      "VIOLATION crash@%d: ACKED commit lost (index %d, \
                       recovered prefix %d): %s\n%!"
                      at_bytes !idx s sql
                  end)
                acked
            end));
    rm_rf dir;
    if !trials mod 50 = 0 then
      Printf.printf "  %d crash points done (%d violations)\n%!" !trials
        !violations
  done;
  Printf.printf
    "serve fuzz: %d crash points, %d violations, %d vacuous (crash before \
     first snapshot)\n%!"
    !trials !violations !vacuous;
  if !violations > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Disk fuzz — seeded syscall faults across classes × sites            *)
(* ------------------------------------------------------------------ *)

(* Scratch workload: temporal + plain DML with enough statements that
   rotations happen (snapshot_every 4) and every syscall site is hit
   repeatedly.  Small tables keep per-point golden copies cheap. *)
let disk_fuzz_workload =
  [
    "CREATE TABLE ft (name VARCHAR(10), pct DOUBLE) WITH VALIDTIME";
    "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01') INSERT INTO ft VALUES \
     ('base', 5.0)";
    "VALIDTIME [DATE '2010-02-01', DATE '2010-06-01') INSERT INTO ft VALUES \
     ('extra', 2.0)";
    "CREATE TABLE plain (k INT, v VARCHAR(10))";
    "INSERT INTO plain VALUES (1, 'one')";
    "INSERT INTO plain VALUES (2, 'two')";
    "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE ft SET pct = \
     9.9 WHERE name = 'base'";
    "INSERT INTO plain VALUES (3, 'three')";
    "VALIDTIME [DATE '2010-04-01', DATE '2010-05-01') DELETE FROM ft WHERE \
     name = 'extra'";
    "CREATE VIEW cheap AS SELECT name FROM ft WHERE pct < 3.0";
    "INSERT INTO plain VALUES (4, 'four')";
    "UPDATE plain SET v = 'IV' WHERE k = 4";
    "CREATE TABLE fp (sku VARCHAR(10), name VARCHAR(20)) WITH VALIDTIME \
     TEMPORAL PRIMARY KEY (sku)";
    "INSERT INTO fp (sku, name, begin_time, end_time) VALUES ('a', 'A', \
     DATE '2010-01-01', DATE '9999-12-31')";
    "TEMPORAL MERGE INTO fp USING (SELECT 'a' AS sku, 'A2' AS name, DATE \
     '2010-03-01' AS begin_time, DATE '2010-04-01' AS end_time) MODE PATCH";
    "INSERT INTO plain VALUES (5, 'five')";
    "DELETE FROM plain WHERE k = 1";
    "INSERT INTO plain VALUES (6, 'six')";
    "INSERT INTO plain VALUES (7, 'seven')";
    "INSERT INTO plain VALUES (8, 'eight')";
  ]

(* One seeded fault point: arm Fault.arm_io_seeded, run the workload
   through an attached store catching typed aborts, then verify the
   recovery contract.  Returns (site, fault, fired, outcome) where
   outcome is `Exact (recovery reproduced the live state), `Prefix
   (fault detected loudly, recovery landed on a recorded acked state),
   `Overshoot (the one unacked in-flight commit survived — at-least-once
   ambiguity, Wal_sync only), `Loud (attach or recovery failed with a
   typed error explained by the fault), `Unfired (countdown never
   reached) or `Violation reason. *)
let disk_fuzz_point ~seed =
  Fault.arm_io_seeded ~seed;
  let site, fault, countdown =
    match Fault.io_armed () with Some a -> a | None -> assert false
  in
  let policy =
    match seed mod 3 with
    | 0 -> Durable.Wal.Always
    | 1 -> Durable.Wal.Batch 4
    | _ -> Durable.Wal.Off
  in
  let dir = Filename.temp_dir "taupsm_diskfuzz" "" in
  let finish outcome =
    Fault.disarm_io ();
    rm_rf dir;
    (site, fault, outcome)
  in
  let e = Engine.create () in
  Stratum.install e;
  match Sqleval.Persist.attach ~policy ~snapshot_every:4 ~dir e with
  | exception Taupsm_error.Error _ when Fault.io_fired () ->
      finish `Loud (* init refused; nothing was ever acked *)
  | h -> (
      let states = Hashtbl.create 32 in
      let record () =
        Hashtbl.replace states
          (Durable.Store.serial (Sqleval.Persist.store h))
          (Sqldb.Database.copy (Engine.database e))
      in
      record ();
      (* an aborted CREATE cascades: later statements on the missing
         table fail with plain engine errors, not storage errors — any
         raising statement is simply "not acked" for verdict purposes *)
      (* Track the serial across BOTH outcomes: a failed commit can bump
         the serial without acking (its record may be durable — the
         overshoot case), and a later zero-row write is acked without
         advancing it.  Only a statement that moves the serial past
         everything seen defines a new recovery point. *)
      let aborted = ref 0 in
      let last_seen = ref (Sqleval.Persist.serial h) in
      List.iter
        (fun sql ->
          (match Stratum.exec_sql e sql with
          | _ -> if Sqleval.Persist.serial h > !last_seen then record ()
          | exception _ -> incr aborted);
          last_seen := max !last_seen (Sqleval.Persist.serial h))
        disk_fuzz_workload;
      (* the acked horizon is what was RECORDED, not Store.serial: a
         commit whose fsync failed bumps the serial without ever being
         acknowledged to the caller *)
      let smax = Hashtbl.fold (fun s _ m -> max s m) states (-1) in
      let live = Hashtbl.find states smax in
      (try Sqleval.Persist.detach h with _ -> ());
      let fired_in_run = Fault.io_fired () in
      let exact (e', r) =
        r.Durable.Store.last_serial = smax
        && Taupsm.Resilient.db_diff live (Engine.database e') = None
      in
      let on_acked_state (e', r) =
        match Hashtbl.find_opt states r.Durable.Store.last_serial with
        | None -> false
        | Some g -> Taupsm.Resilient.db_diff g (Engine.database e') = None
      in
      let loud (r : Durable.Store.report) =
        (match r.Durable.Store.stop with
        | "bad_crc" | "bad_record" | "bad_magic" | "io_error" -> true
        | _ -> false)
        || r.Durable.Store.snapshots_skipped > 0
      in
      if site = Fault.Recovery_read then (
        (* the armed fault fires during recovery itself (double fault):
           first recovery must be loud or exact, the one-shot rerun
           must be exact *)
        let first_ok =
          match Sqleval.Persist.recover ~dir () with
          | exception _ -> Fault.io_fired ()
          | er ->
              if not (Fault.io_fired ()) then exact er
              else exact er || (loud (snd er) && on_acked_state er)
        in
        Fault.disarm_io ();
        if not first_ok then
          finish (`Violation "recovery-read fault: silent divergence")
        else
          match Sqleval.Persist.recover ~dir () with
          | exception exn ->
              finish
                (`Violation
                  (Printf.sprintf "clean rerun raised %s"
                     (Printexc.to_string exn)))
          | er ->
              if exact er then finish `Exact
              else finish (`Violation "clean rerun diverges from live"))
      else
        match Sqleval.Persist.recover ~dir () with
        | exception Taupsm_error.Error _ when fired_in_run ->
            (* e.g. a bit flip landed in the sole generation's snapshot
               body: unrecoverable single-copy loss, reported loudly *)
            finish `Loud
        | exception exn ->
            finish
              (`Violation
                (Printf.sprintf "recovery raised %s without a fired fault"
                   (Printexc.to_string exn)))
        | er ->
            if exact er then
              finish (if fired_in_run then `Exact else `Unfired)
            else if not fired_in_run then
              finish (`Violation "diverged with no fired fault")
            else if loud (snd er) && on_acked_state er then finish `Prefix
            else if
              (* the dying statement's group may have fully reached the
                 file before its fsync failed: the unacked commit
                 survives — allowed, but it must be deterministic *)
              site = Fault.Wal_sync
              && (snd er).Durable.Store.last_serial = smax + 1
              && (match Sqleval.Persist.recover ~dir () with
                 | e2, r2 ->
                     r2.Durable.Store.last_serial = smax + 1
                     && Taupsm.Resilient.db_diff
                          (Engine.database (fst er))
                          (Engine.database e2)
                        = None
                 | exception _ -> false)
            then finish `Overshoot
            else
              finish
                (`Violation
                  (Printf.sprintf
                     "silent divergence (countdown=%d acked=[%s] stop=%s \
                      serial=%d smax=%d gen=%d skipped=%d: %s)"
                     countdown
                     (String.concat ";"
                        (List.sort compare
                           (Hashtbl.fold
                              (fun k _ a -> string_of_int k :: a)
                              states [])))
                     (snd er).Durable.Store.stop
                     (snd er).Durable.Store.last_serial smax
                     (snd er).Durable.Store.wal_generation
                     (snd er).Durable.Store.snapshots_skipped
                     (match
                        Taupsm.Resilient.db_diff live
                          (Engine.database (fst er))
                      with
                     | Some d -> d
                     | None -> "serial mismatch only"))))

(* Backup legs: hot backup under a live concurrent writer restores
   bit-identically to its captured commit; PITR reproduces exact
   historical states for several commit points. *)
let disk_fuzz_backup_legs () =
  let violations = ref 0 in
  (* hot backup under writers *)
  let dir = Filename.temp_dir "taupsm_dfbk" "" in
  let target = Filename.concat dir "archive" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Sqleval.Persist.attach ~policy:Durable.Wal.Off ~snapshot_every:8 ~dir e in
  ignore (Stratum.exec_sql e "CREATE TABLE t (k INT)");
  let golden = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let record () =
    Mutex.lock mu;
    Hashtbl.replace golden
      (Durable.Store.serial (Sqleval.Persist.store h))
      (Sqldb.Database.copy (Engine.database e));
    Mutex.unlock mu
  in
  record ();
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to 60 do
          ignore
            (Stratum.exec_sql e (Printf.sprintf "INSERT INTO t VALUES (%d)" i));
          record ()
        done)
  in
  Unix.sleepf 0.003;
  let hot = Sqleval.Persist.backup h ~target in
  Domain.join writer;
  let final = Sqleval.Persist.serial h in
  Sqleval.Persist.detach h;
  let rdir = Filename.concat dir "restore" in
  (match Sqleval.Persist.restore ~archive:target ~dir:rdir () with
  | er, hr, rr ->
      Sqleval.Persist.detach hr;
      let serial = rr.Durable.Store.last_serial in
      if serial <> hot.Durable.Store.backup_serial then begin
        incr violations;
        Printf.printf "VIOLATION hot backup: archive serial %d <> %d\n%!"
          serial hot.Durable.Store.backup_serial
      end
      else (
        match Hashtbl.find_opt golden serial with
        | None ->
            incr violations;
            Printf.printf "VIOLATION hot backup serial %d never acked\n%!"
              serial
        | Some g -> (
            match Taupsm.Resilient.db_diff g (Engine.database er) with
            | None -> ()
            | Some d ->
                incr violations;
                Printf.printf "VIOLATION hot backup diverges at %d: %s\n%!"
                  serial d))
  | exception exn ->
      incr violations;
      Printf.printf "VIOLATION hot backup restore raised %s\n%!"
        (Printexc.to_string exn));
  Printf.printf
    "hot backup under a live writer: captured commit %d restored exactly\n%!"
    hot.Durable.Store.backup_serial;
  (* PITR: three distinct commit points out of the same archive.  A
     backup is one generation pair, so its restore window is [snapshot
     serial of the archived generation, last commit] — points inside
     the live WAL (61 commits, snapshot_every 8 → floor 56); a point
     below the floor must be refused with a typed error, not silently
     rounded up. *)
  let cold = Filename.concat dir "cold" in
  ignore (Durable.Store.backup_dir ~dir ~target:cold ());
  (match
     Sqleval.Persist.restore ~as_of_serial:2 ~archive:cold
       ~dir:(Filename.concat dir "pitr-floor") ()
   with
  | _, hr, _ ->
      Sqleval.Persist.detach hr;
      incr violations;
      Printf.printf
        "VIOLATION pitr below the archive floor silently accepted\n%!"
  | exception Taupsm_error.Error _ -> ()
  | exception exn ->
      incr violations;
      Printf.printf "VIOLATION pitr floor refusal raised %s (untyped)\n%!"
        (Printexc.to_string exn));
  let points = [ final - 4; final - 2; final ] in
  List.iter
    (fun serial ->
      let pdir = Filename.concat dir (Printf.sprintf "pitr%d" serial) in
      match
        Sqleval.Persist.restore ~as_of_serial:serial ~archive:cold ~dir:pdir ()
      with
      | er, hr, rr ->
          Sqleval.Persist.detach hr;
          let golden_ok =
            match Hashtbl.find_opt golden serial with
            | Some g -> Taupsm.Resilient.db_diff g (Engine.database er) = None
            | None -> false
          in
          if rr.Durable.Store.last_serial <> serial || not golden_ok then begin
            incr violations;
            Printf.printf "VIOLATION pitr %d diverges\n%!" serial
          end
      | exception exn ->
          incr violations;
          Printf.printf "VIOLATION pitr %d raised %s\n%!" serial
            (Printexc.to_string exn))
    points;
  Printf.printf "point-in-time restore: %d commit points reproduced exactly\n%!"
    (List.length points);
  rm_rf dir;
  !violations

let disk_fuzz () =
  let title =
    "Disk fuzz — seeded syscall faults (ENOSPC / EIO / short write / lying \
     fsync / bit flip) across WAL, snapshot, rotation and recovery sites"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let points =
    match Sys.getenv_opt "TAUPSM_DISK_FUZZ_POINTS" with
    | Some s -> ( try max 14 (int_of_string s) with Failure _ -> 300)
    | None -> 300
  in
  let tally = Hashtbl.create 16 in
  let bump key field =
    let c =
      match Hashtbl.find_opt tally key with
      | Some c -> c
      | None ->
          let c = [| 0; 0; 0; 0; 0; 0; 0 |] in
          Hashtbl.replace tally key c;
          c
    in
    c.(field) <- c.(field) + 1
  in
  let violations = ref 0 in
  for seed = 0 to points - 1 do
    let site, fault, outcome = disk_fuzz_point ~seed in
    let key = (site, fault) in
    bump key 0;
    (match outcome with
    | `Exact -> bump key 1
    | `Prefix -> bump key 2
    | `Overshoot -> bump key 3
    | `Loud -> bump key 4
    | `Unfired -> bump key 5
    | `Violation reason ->
        incr violations;
        bump key 6;
        Printf.printf "VIOLATION seed %d (%s/%s): %s\n%!" seed
          (Fault.io_site_name site) (Fault.io_fault_name fault) reason);
    if (seed + 1) mod 50 = 0 then
      Printf.printf "  %d fault points done (%d violations)\n%!" (seed + 1)
        !violations
  done;
  Printf.printf "%-28s %6s %6s %7s %9s %5s %8s %5s\n" "site/fault" "armed"
    "exact" "prefix" "overshoot" "loud" "unfired" "viol";
  let queries = ref [] in
  let covered = ref 0 in
  Array.iter
    (fun (site, fault) ->
      let c =
        match Hashtbl.find_opt tally (site, fault) with
        | Some c -> c
        | None -> [| 0; 0; 0; 0; 0; 0; 0 |]
      in
      let name =
        Printf.sprintf "%s/%s" (Fault.io_site_name site)
          (Fault.io_fault_name fault)
      in
      if c.(0) > 0 && c.(0) > c.(5) then incr covered;
      Printf.printf "%-28s %6d %6d %7d %9d %5d %8d %5d\n" name c.(0) c.(1)
        c.(2) c.(3) c.(4) c.(5) c.(6);
      queries :=
        Jobj
          [
            ("query", Jstr name);
            ("armed", Jint c.(0));
            ("exact", Jint c.(1));
            ("prefix", Jint c.(2));
            ("overshoot", Jint c.(3));
            ("loud", Jint c.(4));
            ("unfired", Jint c.(5));
            ("violations", Jint c.(6));
          ]
        :: !queries)
    Fault.io_matrix;
  let backup_violations = disk_fuzz_backup_legs () in
  let total_viol = !violations + backup_violations in
  Printf.printf
    "disk fuzz: %d fault points, %d/%d fault classes exercised, %d \
     violations (%d backup-leg)\n%!"
    points !covered
    (Array.length Fault.io_matrix)
    total_viol backup_violations;
  write_bench ~pr:9 ~target:"disk-fuzz"
    ~geomean:(if total_viol = 0 then 1.0 else 0.5)
    ~extra:
      [
        ("fault_points", Jint points);
        ("fault_classes", Jint (Array.length Fault.io_matrix));
        ("fault_classes_fired", Jint !covered);
        ("violations", Jint total_viol);
        ("pitr_points", Jint 3);
      ]
    ~queries:(List.rev !queries) "BENCH_pr9.json";
  if total_viol > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* PR 10: adaptive strategy choice                                     *)
(* ------------------------------------------------------------------ *)

(* Auto (the live §VII-F chooser with learned calibration) against the
   two static policies on the 16-query suite, plus the memoized
   constant-period path on a merge-heavy mixed workload.  Two
   preflights gate the timings: every query's Auto result must equal
   its forced-MAX result (up to coalescing and order), and the
   memo-on/memo-off mixed workloads must land on identical final
   states.  Writes BENCH_pr10.json; exits nonzero when a preflight
   fails — the timing gates are reported, not enforced, because CI
   wall clocks are noisy. *)
let adaptive_bench () =
  let title =
    "Adaptive strategy — Auto vs always-MAX vs always-PERST (PR 10)"
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let spec = { Datasets.ds = Datasets.DS1; size = Heuristic.Small } in
  let e0 = apply_env_jobs (Datasets.load spec) in
  Queries.install e0;
  let days = 30 in
  let e_max = Engine.copy e0 and e_perst = Engine.copy e0 in
  let e_auto = Engine.copy e0 in
  (Engine.catalog e_auto).Sqleval.Catalog.options.Sqleval.Catalog.auto_strategy <-
    true;
  let parse q =
    Sqlparse.Parser.parse_temporal_stmt
      (Queries.sequenced ~context:(context_of days) q)
  in
  let sorted_rows e ts ~strategy =
    let r =
      match strategy with
      | Some s -> Stratum.exec ~strategy:s e ts
      | None -> Stratum.exec e ts
    in
    match r with
    | Sqleval.Eval.Rows rs ->
        List.sort compare (Stratum.coalesce_result rs).Sqleval.Result_set.rows
    | _ -> []
  in
  (* ---- preflight: Auto result = forced-MAX result, per query ---- *)
  Printf.printf "preflight: Auto/MAX equivalence on %d queries\n%!"
    (List.length Queries.all);
  List.iter
    (fun (q : Queries.t) ->
      let ts = parse q in
      let a = sorted_rows e_auto ts ~strategy:None in
      let m = sorted_rows e_max ts ~strategy:(Some Stratum.Max) in
      if a <> m then begin
        Printf.eprintf
          "PREFLIGHT FAILURE: %s under Auto diverges from forced MAX\n"
          q.Queries.id;
        exit 1
      end)
    Queries.all;
  Printf.printf "preflight: OK\n%!";
  (* ---- the suite: per-query medians under the three policies ---- *)
  Printf.printf "%-5s %10s %10s %10s   %s\n" "query" "MAX" "PERST" "Auto"
    "auto choice";
  let points =
    List.map
      (fun (q : Queries.t) ->
        let ts = parse q in
        let t_max =
          time_run (fun () -> Stratum.exec ~strategy:Stratum.Max e_max ts)
        in
        (* always-PERST is measured with the fallback a user forcing it
           gets: an inapplicable statement costs its MAX time *)
        let t_perst, perst_native =
          if not q.Queries.perst_supported then (t_max, false)
          else
            match
              time_run (fun () ->
                  Stratum.exec ~strategy:Stratum.Perst e_perst ts)
            with
            | t -> (t, true)
            | exception Taupsm.Perst_slicing.Perst_unsupported _ ->
                (t_max, false)
        in
        (* Let the chooser converge before timing: run under Auto until
           the decision comes from calibration (both arms measured) or
           settles.  The preflight above already seeded one run per
           query; a handful more covers the explore probe of the second
           arm.  Timing the learning window instead would charge Auto
           for its (one-off) exploration on every measured iteration. *)
        let rec converge n =
          if n > 0 then begin
            ignore (Stratum.exec e_auto ts);
            let _, src = Stratum.decide e_auto ts in
            if src <> Stratum.Calibrated then converge (n - 1)
          end
        in
        converge 6;
        let t_auto = time_run (fun () -> Stratum.exec e_auto ts) in
        let choice, source = Stratum.decide e_auto ts in
        Printf.printf "%-5s %10.4f %10.4f %10.4f   %s (%s)\n%!" q.Queries.id
          t_max t_perst t_auto
          (Stratum.strategy_to_string choice)
          (Stratum.decision_source_to_string source);
        (q, t_max, t_perst, perst_native, t_auto, choice, source))
      Queries.all
  in
  let geo f =
    exp
      (List.fold_left (fun acc p -> acc +. log (f p)) 0.0 points
      /. float_of_int (max 1 (List.length points)))
  in
  let max_geo = geo (fun (_, m, _, _, _, _, _) -> m) in
  let perst_geo = geo (fun (_, _, p, _, _, _, _) -> p) in
  let auto_geo = geo (fun (_, _, _, _, a, _, _) -> a) in
  let best_geo = Float.min max_geo perst_geo in
  let worst_geo = Float.max max_geo perst_geo in
  let loss_vs_best = auto_geo /. best_geo in
  let win_vs_worst = worst_geo /. auto_geo in
  let gate_best = loss_vs_best <= 1.05 in
  let gate_worst = win_vs_worst >= 1.2 in
  Printf.printf
    "geomeans: MAX %.4fs, PERST(+fallback) %.4fs, Auto %.4fs\n\
     Auto vs best static: %.3fx (gate <= 1.05: %s)\n\
     Auto vs worst static: %.2fx faster (gate >= 1.2: %s)\n%!"
    max_geo perst_geo auto_geo loss_vs_best
    (if gate_best then "OK" else "MISS")
    win_vs_worst
    (if gate_worst then "OK" else "MISS");
  (* ---- merge-heavy mixed workload: memoized constant periods ---- *)
  let nsku = 100 and rounds = 30 in
  let sku i = Printf.sprintf "m%03d" i in
  let fresh () =
    let e = Engine.create ~now:(Date.of_ymd ~y:2010 ~m:6 ~d:1) () in
    Stratum.install e;
    ignore
      (Stratum.exec_sql e
         "CREATE TABLE mstock (sku VARCHAR(10), qty INT) WITH VALIDTIME \
          TEMPORAL PRIMARY KEY (sku)");
    ignore
      (Stratum.exec_sql e
         (Printf.sprintf
            "INSERT INTO mstock (sku, qty, begin_time, end_time) VALUES %s"
            (String.concat ", "
               (List.init nsku (fun i ->
                    Printf.sprintf
                      "('%s', %d, DATE '2010-01-01', DATE '9999-12-31')"
                      (sku i) (i mod 50))))));
    e
  in
  let e_mixed = fresh () in
  let read_sql =
    "VALIDTIME [DATE '2010-02-01', DATE '2010-05-01') SELECT sku, qty FROM \
     mstock WHERE qty > 25"
  in
  let workload ~memo e =
    (Engine.catalog e).Sqleval.Catalog.options
      .Sqleval.Catalog.memoize_constant_periods <- memo;
    for r = 1 to rounds do
      ignore
        (Stratum.exec_sql e
           (Printf.sprintf
              "TEMPORAL MERGE INTO mstock USING (SELECT '%s' AS sku, %d AS \
               qty, DATE '2010-03-01' AS begin_time, DATE '2010-04-01' AS \
               end_time) MODE UPSERT"
              (sku (r mod nsku))
              (100 + r)));
      ignore (Stratum.exec_sql ~strategy:Stratum.Max e read_sql);
      ignore (Stratum.exec_sql ~strategy:Stratum.Max e read_sql)
    done;
    e
  in
  let state e =
    (Stratum.query e
       "NONSEQUENCED VALIDTIME SELECT sku, qty, begin_time, end_time FROM \
        mstock ORDER BY sku, begin_time, end_time")
      .Sqleval.Result_set.rows
  in
  Printf.printf "preflight: memo-on/memo-off mixed-workload equivalence\n%!";
  if
    state (workload ~memo:true (Engine.copy e_mixed))
    <> state (workload ~memo:false (Engine.copy e_mixed))
  then begin
    Printf.eprintf
      "PREFLIGHT FAILURE: memoized constant periods change the workload's \
       final state\n";
    exit 1
  end;
  Printf.printf "preflight: OK\n%!";
  let t_memo_on =
    time_run (fun () -> ignore (workload ~memo:true (Engine.copy e_mixed)))
  in
  let t_memo_off =
    time_run (fun () -> ignore (workload ~memo:false (Engine.copy e_mixed)))
  in
  let memo_speedup = t_memo_off /. t_memo_on in
  Printf.printf
    "mixed merge+query (%d rounds): memo on %.4fs, off %.4fs — %.2fx\n%!"
    rounds t_memo_on t_memo_off memo_speedup;
  write_bench ~pr:10 ~target:"adaptive" ~geomean:auto_geo
    ~extra:
      [
        ("ctx_days", Jint days);
        ("max_geo", Jfloat max_geo);
        ("perst_geo", Jfloat perst_geo);
        ("auto_geo", Jfloat auto_geo);
        ("auto_vs_best", Jfloat loss_vs_best);
        ("auto_vs_worst", Jfloat win_vs_worst);
        ("gate_within_5pct_of_best", Jstr (if gate_best then "ok" else "miss"));
        ("gate_beats_worst_1_2x", Jstr (if gate_worst then "ok" else "miss"));
        ("memo_rounds", Jint rounds);
        ("memo_on_seconds", Jfloat t_memo_on);
        ("memo_off_seconds", Jfloat t_memo_off);
        ("memo_speedup", Jfloat memo_speedup);
        ("preflight", Jstr "ok");
      ]
    ~queries:
      (List.map
         (fun (q, m, p, native, a, choice, source) ->
           Jobj
             [
               ("query", Jstr q.Queries.id);
               ("max_seconds", Jfloat m);
               ("perst_seconds", Jfloat p);
               ( "perst_mode",
                 Jstr (if native then "native" else "fallback_to_max") );
               ("auto_seconds", Jfloat a);
               ("auto_choice", Jstr (Stratum.strategy_to_string choice));
               ( "auto_source",
                 Jstr (Stratum.decision_source_to_string source) );
             ])
         points)
    "BENCH_pr10.json"

(* ------------------------------------------------------------------ *)
(* BENCH_*.json schema check                                           *)
(* ------------------------------------------------------------------ *)

(* Validate every BENCH_*.json in the working directory against the
   shared schema (pr / commit / target / geomean / host_cores /
   queries).  CI runs this so a hand-edited or truncated results file
   fails loudly; exit 3 mirrors [bench_schema_check]. *)
let bench_check () =
  let files =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    Printf.eprintf "bench check: no BENCH_*.json files found in %s\n%!"
      (Sys.getcwd ());
    exit 3
  end;
  let bad = ref 0 in
  List.iter
    (fun file ->
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      match Serve.Json.parse s with
      | Error m ->
          incr bad;
          Printf.printf "%-20s BAD: unparseable (%s)\n%!" file m
      | Ok j ->
          let module J = Serve.Json in
          let ok_int k = match J.member_int j k with Some _ -> true | None -> false in
          let ok_str k =
            match J.member_string j k with Some s -> s <> "" | _ -> false
          in
          let ok_num k =
            match J.member k j with
            | Some (J.Float f) -> Float.is_finite f && f > 0.0
            | Some (J.Int n) -> n > 0
            | _ -> false
          in
          let ok_queries =
            match J.member "queries" j with
            | Some (J.List (_ :: _ as qs)) ->
                List.for_all
                  (fun q ->
                    match J.member "query" q with
                    | Some (J.Str _) -> true
                    | _ -> false)
                  qs
            | _ -> false
          in
          let missing =
            List.filter_map
              (fun (k, ok) -> if ok then None else Some k)
              [
                ("pr", ok_int "pr");
                ("commit", ok_str "commit");
                ("target", ok_str "target");
                ("geomean", ok_num "geomean");
                ("host_cores", ok_int "host_cores");
                ("queries", ok_queries);
              ]
          in
          if missing = [] then
            Printf.printf "%-20s ok (pr %s, target %s, %d queries)\n%!" file
              (match J.member_int j "pr" with
              | Some n -> string_of_int n
              | None -> "?")
              (match J.member_string j "target" with
              | Some t -> t
              | None -> "?")
              (match J.member "queries" j with
              | Some (J.List qs) -> List.length qs
              | _ -> 0)
          else begin
            incr bad;
            Printf.printf "%-20s BAD: missing/ill-typed %s\n%!" file
              (String.concat ", " missing)
          end)
    files;
  Printf.printf "bench check: %d file(s), %d bad\n%!" (List.length files) !bad;
  if !bad > 0 then exit 3

let () =
  let targets =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
        [ "correctness"; "fig7"; "fig12"; "fig13"; "fig14"; "fig15";
          "heuristic"; "nontemporal"; "ablation"; "index"; "bechamel" ]
  in
  List.iter
    (fun t ->
      match t with
      | "fig12" -> fig12 ()
      | "fig13" -> fig13 ()
      | "fig14" -> fig14 ()
      | "fig15" -> fig15 ()
      | "fig7" -> fig7 ()
      | "heuristic" -> heuristic_report ()
      | "bechamel" -> bechamel ()
      | "ablation" -> ablation ()
      | "index" -> index_ablation ()
      | "guards" -> guards_bench ()
      | "faults" -> faults_sweep ()
      | "wal" -> wal_bench ()
      | "recovery-fuzz" -> recovery_fuzz ()
      | "parallel" -> parallel_bench ()
      | "compile" -> compile_bench ()
      | "merge" -> merge_bench ()
      | "adaptive" -> adaptive_bench ()
      | "serve" -> serve_bench ()
      | "serve-fuzz" -> serve_fuzz ()
      | "disk-fuzz" -> disk_fuzz ()
      | "check" -> bench_check ()
      | "nontemporal" -> nontemporal ()
      | "correctness" -> correctness ()
      | other ->
          Printf.eprintf
            "unknown target %s (expected fig7|fig12|fig13|fig14|fig15|\
             heuristic|nontemporal|ablation|index|guards|faults|wal|\
             recovery-fuzz|parallel|compile|merge|adaptive|serve|serve-fuzz|\
             disk-fuzz|check|bechamel|correctness)\n"
            other;
          exit 2)
    targets
