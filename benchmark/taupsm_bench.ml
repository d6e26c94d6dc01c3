(* The repository benchmark: four seeded τPSM workloads, their
   end-to-end metrics, and a traced mode for the per-layer metrics.

     taupsm_bench [run] [--workload NAME|all] [--seed N] [--seconds S]
                  [--trace 0|1] [--repeat N] [--smoke] [--spec FILE]
     taupsm_bench check FILE... [--spec FILE]

   `run` prints each metric by name and unit, checks the workload's
   outputs, and ends with one JSON line; it exits 1 when a statement or
   a correctness check failed.  BENCHMARK.json (the --spec) declares the
   workloads and metrics; README.md explains them. *)

module J = Serve.Json

let host_cores = Domain.recommended_domain_count ()
let smoke_seconds = 0.4

(* ------------------------------------------------------------------ *)
(* Metrics of one run                                                  *)
(* ------------------------------------------------------------------ *)

type metric = string * float * string (* name, value, unit *)

let rate (ph : Workloads.phase) =
  float_of_int (List.length ph.reads + List.length ph.writes) /. ph.elapsed

(* Latency is the median of each statement class (each query, and
   writes as one class), combined across classes by the geometric mean:
   the paper's per-query view, which does not depend on the mix.
   Pooled percentiles of a few fixed statements jump between classes,
   and the tail of a fixed statement measures the host's noise. *)
let end_to_end (o : Workloads.outcome) : metric list =
  let ph = o.untraced in
  let classes =
    Stats.group ph.reads
    @ if ph.writes = [] then [] else [ ("write", ph.writes) ]
  in
  let medians = List.map (fun (_, xs) -> Stats.median xs) classes in
  [
    ("setup_s", o.setup_s, "s");
    ("stmts_per_s", rate ph, "1/s");
    ("geomean_p50_ms", Stats.geomean medians, "ms");
  ]

(* Printed for the workloads that have them; a percentile only with at
   least ten samples beyond it. *)
let info (o : Workloads.outcome) : metric list =
  let ph = o.untraced in
  let percentiles kind xs =
    List.filter_map
      (fun (p, q) ->
        if float_of_int (List.length xs) *. (1. -. q) >= 10. then
          Some (Printf.sprintf "%s_p%d_ms" kind p, Stats.quantile q xs, "ms")
        else None)
      [ (50, 0.5); (90, 0.9); (99, 0.99) ]
  in
  let writes =
    if ph.writes = [] then []
    else
      ( "write_stmts_per_s",
        float_of_int (List.length ph.writes) /. ph.elapsed,
        "1/s" )
      :: percentiles "write" ph.writes
  in
  writes
  @ percentiles "read" (List.map snd ph.reads)
  @ o.info
  @ [
      ( "error_rate",
        float_of_int ph.failed /. float_of_int (max 1 ph.attempted),
        "frac" );
    ]

let per_layer (o : Workloads.outcome) : metric list =
  match o.traced with
  | Some (ph, layers) ->
      Layers.metrics layers ~overhead:(1. -. (rate ph /. rate o.untraced))
  | None -> []

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_fields r =
  let metric (name, v, u) =
    (name, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])
  in
  [
    ("correct", J.Bool r.correct);
    ("attempted", J.Int r.attempted);
    ("failed", J.Int r.failed);
    ("metrics", J.Obj (List.map metric r.metrics));
  ]

let print_metric prefix (name, v, u) =
  Printf.printf "%s%-34s %14.6g %s\n" prefix name v u

let run_workload ~(cfg : Workloads.config) (name, f) =
  Printf.printf "workload %s (seed %d, %gs, trace %b)\n%!" name cfg.seed
    cfg.seconds cfg.trace;
  let dir = Filename.concat cfg.dir name in
  Unix.mkdir dir 0o755;
  let o =
    Fun.protect
      ~finally:(fun () -> Workloads.rm_rf dir)
      (fun () -> f { cfg with dir })
  in
  let phases =
    o.Workloads.untraced :: Option.to_list (Option.map fst o.traced)
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
  let failed_checks = List.filter (fun (_, ok) -> not ok) o.checks in
  let failed = sum (fun p -> p.Workloads.failed) + List.length failed_checks in
  let metrics = if cfg.trace then per_layer o else end_to_end o in
  List.iter (print_metric "  ") metrics;
  if not cfg.trace then List.iter (print_metric "  info ") (info o);
  List.iter
    (fun (check, ok) ->
      Printf.printf "  check %s: %s\n" check (if ok then "ok" else "FAILED"))
    o.checks;
  Printf.printf "%!";
  {
    workload = name;
    correct = failed = 0;
    attempted = sum (fun p -> p.Workloads.attempted);
    failed;
    metrics;
  }

let results_json ~seed ~seconds ~trace results =
  let workload r = J.Obj (("name", J.Str r.workload) :: result_fields r) in
  J.Obj
    [
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("trace", J.Bool trace);
      ("host_cores", J.Int host_cores);
      ("ocaml", J.Str Sys.ocaml_version);
      ("workloads", J.List (List.map workload results));
    ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type spec = {
  workloads : string list;
  e2e : (string * string * float) list; (* name, unit, bound *)
  layer_units : (string * string) list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let load_spec path =
  match J.parse (read_file path) with
  | exception Sys_error e -> fail "cannot read the benchmark spec: %s" e
  | Error e -> fail "%s: %s" path e
  | Ok j ->
      let list key =
        match J.member key j with Some (J.List l) -> l | _ -> []
      in
      let str k o = Option.value ~default:"" (J.member_string o k) in
      let bound m = Option.value ~default:0. (J.member_float m "bound") in
      {
        workloads = List.map (str "name") (list "workloads");
        e2e =
          List.map
            (fun m -> (str "name" m, str "unit" m, bound m))
            (list "end_to_end");
        layer_units =
          List.map (fun m -> (str "name" m, str "unit" m)) (list "per_layer");
      }

(* Problems with one result object against the spec. *)
let check_result spec ?workload (metrics : (string * J.t) list) =
  let e2e_units = List.map (fun (n, u, _) -> (n, u)) spec.e2e in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match workload with
  | Some w when not (List.mem w spec.workloads) ->
      err "undeclared workload %S" w
  | _ -> ());
  List.iter
    (fun (name, m) ->
      let unit = Option.value ~default:"" (J.member_string m "unit") in
      (match
         ( List.assoc_opt name e2e_units,
           List.assoc_opt name spec.layer_units )
       with
      | Some u, _ | None, Some u ->
          if u <> unit then err "%s: unit %S, declared %S" name unit u
      | None, None -> err "undeclared metric %S" name);
      if J.member_float m "value" = None then err "%s: no numeric value" name)
    metrics;
  (* a result with any metric of a set must have all of that set *)
  let required set =
    if List.exists (fun (n, _) -> List.mem_assoc n metrics) set then
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n metrics) then err "missing metric %S" n)
        set
  in
  required e2e_units;
  required spec.layer_units;
  if metrics = [] then err "no metrics";
  List.rev_map
    (fun e -> match workload with Some w -> w ^ ": " ^ e | None -> e)
    !errors

(* A single run's result, or a results object of several workloads. *)
let check_json spec j =
  let metrics o =
    match J.member "metrics" o with Some (J.Obj m) -> m | _ -> []
  in
  match J.member "workloads" j with
  | Some (J.List []) -> [ "no workloads" ]
  | Some (J.List ws) ->
      List.concat_map
        (fun w ->
          check_result spec ?workload:(J.member_string w "name") (metrics w))
        ws
  | _ ->
      let keys = match j with J.Obj kvs -> List.map fst kvs | _ -> [] in
      (if
         List.sort compare keys
         <> [ "attempted"; "correct"; "failed"; "metrics" ]
       then
         [ "a run's result needs exactly correct, attempted, failed, metrics" ]
       else [])
      @ check_result spec (metrics j)

let check_file spec path =
  let text = read_file path in
  let parsed =
    match J.parse text with
    | Ok j -> Ok j
    | Error _ -> (
        (* a run's whole output: its last line is the result *)
        let lines = String.split_on_char '\n' text in
        match List.rev (List.filter (( <> ) "") lines) with
        | last :: _ -> J.parse last
        | [] -> Error "empty file")
  in
  match parsed with
  | Error e ->
      Printf.printf "%s: not JSON (%s)\n" path e;
      1
  | Ok j -> (
      match check_json spec j with
      | [] ->
          Printf.printf "%s: ok\n" path;
          0
      | errors ->
          List.iter (Printf.printf "%s: %s\n" path) errors;
          1)

(* ------------------------------------------------------------------ *)
(* --repeat                                                            *)
(* ------------------------------------------------------------------ *)

(* The result line of a fresh process running one workload. *)
let child_run ~spec_path ~seed ~seconds ~trace workload =
  let args =
    [|
      Sys.executable_name; "run"; "--workload"; workload;
      "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if trace then "1" else "0");
      "--spec"; spec_path;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match J.parse last with
      | Ok j -> Ok j
      | Error e -> Error ("unparsable result: " ^ e))
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "exit %d" c)
  | _, _ -> Error "killed"

(* Each workload in [n] fresh processes, seeds [seed] to [seed+n-1]:
   every metric's median, quartiles and spread (IQR over median),
   flagged when the spread exceeds the metric's bound. *)
let repeat ~spec ~spec_path ~seed ~seconds ~trace ~n workloads =
  let flagged = ref [] in
  let summarise w runs (name, unit) =
    let value j =
      Option.bind (J.member "metrics" j) (fun m ->
          Option.bind (J.member name m) (fun v -> J.member_float v "value"))
    in
    let xs = List.filter_map value runs in
    let med = Stats.median xs and q1, q3 = Stats.quartiles xs in
    let spread = Stats.spread xs in
    let bound =
      List.find_map
        (fun (n, _, b) -> if n = name then Some b else None)
        spec.e2e
    in
    let over = match bound with Some b -> spread > b | None -> false in
    if over then flagged := Printf.sprintf "%s/%s" w name :: !flagged;
    Printf.printf "  %-34s median %12.6g %-5s IQR [%g, %g] spread %.3f%s\n"
      name med unit q1 q3 spread
      (match bound with
      | Some b ->
          Printf.sprintf " (bound %.2f%s)" b (if over then ", EXCEEDED" else "")
      | None -> "");
    ( name,
      J.Obj
        [
          ("value", J.Float med);
          ("unit", J.Str unit);
          ("q1", J.Float q1);
          ("q3", J.Float q3);
          ("spread", J.Float spread);
          ("values", J.List (List.map (fun x -> J.Float x) xs));
        ] )
  in
  let per_workload w =
    let runs =
      List.init n (fun i ->
          match child_run ~spec_path ~seed:(seed + i) ~seconds ~trace w with
          | Ok j -> j
          | Error e -> fail "%s seed %d: %s" w (seed + i) e)
    in
    let names =
      match J.member "metrics" (List.hd runs) with
      | Some (J.Obj m) ->
          List.map
            (fun (k, v) ->
              (k, Option.value ~default:"" (J.member_string v "unit")))
            m
      | _ -> []
    in
    Printf.printf "%s: %d runs, seeds %d..%d\n%!" w n seed (seed + n - 1);
    let metrics = List.map (summarise w runs) names in
    let correct =
      List.for_all (fun j -> J.member_bool j "correct" = Some true) runs
    in
    J.Obj
      [
        ("name", J.Str w);
        ("correct", J.Bool correct);
        ("metrics", J.Obj metrics);
      ]
  in
  let ws = List.map per_workload workloads in
  (match List.rev !flagged with
  | [] -> print_endline "every spread is within its bound"
  | l -> Printf.printf "spread above bound: %s\n" (String.concat ", " l));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("seeds", J.List (List.init n (fun i -> J.Int (seed + i))));
            ("seconds", J.Float seconds);
            ("trace", J.Bool trace);
            ("host_cores", J.Int host_cores);
            ("ocaml", J.Str Sys.ocaml_version);
            ("workloads", J.List ws);
            ("over_bound", J.List (List.rev_map (fun s -> J.Str s) !flagged));
          ]));
  if List.for_all (fun j -> J.member_bool j "correct" = Some true) ws then 0
  else 1

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let scratch = ".taupsm-bench"

(* Run the selected workloads with stores under a per-process scratch
   directory, removed afterwards. *)
let with_runs ~seed ~seconds ~smoke selected f =
  let root = Filename.concat scratch (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir scratch 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir root 0o755;
  let run ~trace =
    let cfg = { Workloads.seed; seconds; trace; smoke; dir = root } in
    List.map (run_workload ~cfg) selected
  in
  Fun.protect
    ~finally:(fun () ->
      Workloads.rm_rf root;
      try Unix.rmdir scratch with Unix.Unix_error _ -> ())
    (fun () -> f run)

(* Every workload at tiny scale in both modes, validated against the
   spec; no timing assertions. *)
let smoke ~spec ~seed selected =
  with_runs ~seed ~seconds:smoke_seconds ~smoke:true selected (fun run ->
      let errors =
        List.concat_map
          (fun trace ->
            let rs = run ~trace in
            check_json spec
              (results_json ~seed ~seconds:smoke_seconds ~trace rs)
            @ List.filter_map
                (fun r ->
                  if r.correct then None else Some (r.workload ^ ": incorrect"))
                rs)
          [ false; true ]
      in
      List.iter (Printf.printf "smoke: %s\n") errors;
      print_endline (if errors = [] then "smoke: ok" else "smoke: FAILED");
      if errors = [] then 0 else 1)

let run ~seed ~seconds ~trace selected =
  with_runs ~seed ~seconds ~smoke:false selected (fun run ->
      let rs = run ~trace in
      let result =
        match rs with
        | [ r ] -> J.Obj (result_fields r)
        | rs -> results_json ~seed ~seconds ~trace rs
      in
      print_endline (J.to_string result);
      if List.for_all (fun r -> r.correct) rs then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: taupsm_bench [run] [--workload NAME|all] [--seed N] [--seconds S]\n\
  \                    [--trace 0|1] [--repeat N] [--smoke] [--spec FILE]\n\
  \       taupsm_bench check FILE... [--spec FILE]"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, args =
    match args with
    | (("run" | "check") as c) :: rest -> (c, rest)
    | _ -> ("run", args)
  in
  let workload = ref "all" and seed = ref 42 and seconds = ref 20. in
  let trace = ref false and repeat_n = ref 0 and smoke_mode = ref false in
  let spec_path = ref "BENCHMARK.json" and files = ref [] in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "%s: not an integer: %s" name v
  in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> fail "--seconds: not a positive number: %s" v);
        parse rest
    | "--trace" :: v :: rest -> trace := int_arg "--trace" v <> 0; parse rest
    | "--repeat" :: v :: rest -> repeat_n := int_arg "--repeat" v; parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | "--spec" :: v :: rest -> spec_path := v; parse rest
    | ("-h" | "--help") :: _ -> print_endline usage; exit 0
    | f :: rest when cmd = "check" && f <> "" && f.[0] <> '-' ->
        files := f :: !files;
        parse rest
    | a :: _ -> fail "unknown argument %S\n%s" a usage
    | [] -> ()
  in
  parse args;
  let selected =
    if !workload = "all" then Workloads.all
    else
      match List.assoc_opt !workload Workloads.all with
      | Some f -> [ (!workload, f) ]
      | None ->
          fail "unknown workload %S (%s)" !workload
            (String.concat ", " (List.map fst Workloads.all))
  in
  exit
    (match cmd with
    | "check" ->
        if !files = [] then fail "%s" usage;
        let spec = load_spec !spec_path in
        List.fold_left
          (fun acc f -> max acc (check_file spec f))
          0 (List.rev !files)
    | _ when !repeat_n > 0 ->
        repeat ~spec:(load_spec !spec_path) ~spec_path:!spec_path ~seed:!seed
          ~seconds:!seconds ~trace:!trace ~n:!repeat_n
          (List.map fst selected)
    | _ when !smoke_mode ->
        smoke ~spec:(load_spec !spec_path) ~seed:!seed selected
    | _ -> run ~seed:!seed ~seconds:!seconds ~trace:!trace selected)
