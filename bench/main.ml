(* The τPSM benchmark harness: regenerates every figure of the paper's
   evaluation (§VII).

     fig12        MAX vs PERST over temporal-context length, DS1-SMALL
     fig13        the same on DS1-LARGE
     fig14        scalability over dataset size (S/M/L)
     fig15        data characteristics (DS1 vs DS2 vs DS3, SMALL)
     fig7         the call-count comparison of Figure 7 (asterisks)
     heuristic    the §VII-F strategy-selection heuristic over all points
                  measured by the figure targets before it
     nontemporal  the conventional PSM queries vs their sequenced variants

   `bench/main.exe` with no argument runs them all.  Absolute times are
   those of this in-memory OCaml engine, not the paper's DB2 setup; the
   *shape* (who wins, crossovers, trends) is the reproduction target
   (see DESIGN.md and EXPERIMENTS.md).  Performance claims cite the
   repository benchmark (benchmark/, BENCHMARK.json) instead. *)

module Engine = Sqleval.Engine
module Stratum = Taupsm.Stratum
module Heuristic = Taupsm.Heuristic
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries
module Date = Sqldb.Date

let ctx_start = Date.of_ymd ~y:2010 ~m:6 ~d:1

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

let () =
  let figures =
    [
      ("fig7", fig7);
      ("fig12", fig12);
      ("fig13", fig13);
      ("fig14", fig14);
      ("fig15", fig15);
      ("heuristic", heuristic_report);
      ("nontemporal", nontemporal);
    ]
  in
  let targets =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst figures
  in
  List.iter
    (fun t ->
      match List.assoc_opt t figures with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown target %s (expected %s)\n" t
            (String.concat "|" (List.map fst figures));
          exit 2)
    targets
