(* Plan compilation: run a SELECT through closures built once per
   statement instead of walking its AST on every evaluation.

   Planning and the join loop are not here: the compiler takes the
   shared plan from [Sqleval.Select_plan] — the same join order, conjunct
   placement and access paths (hash / interval-index / full scan) the
   interpreter computes — maps its expression compiler over it once, and
   hands the compiled plan to the same join loop the interpreter runs,
   so trace counters, events and guard charges match by construction.
   What this module adds is the expression compiler (column references
   pre-resolved to array offsets, int/date comparison fast paths) and
   row/hash caches that survive across the many runs of one statement
   while the scanned table is unchanged.

   A plan lives in the evaluator's per-statement slot for its SELECT
   node ([Eval.memo_slot]), whose stamp — catalog generation, database
   version, temp-table epoch — starts it over whenever the schema the
   plan was compiled against may have moved.  Nothing outlives the
   statement.

   Coverage is partial by design: a SELECT whose FROM holds something
   other than base-table references (views, derived tables, table
   functions) falls back to the interpreter.  Expressions always compile
   — a construct without a specialised closure (aggregates, subquery
   predicates, stored-function calls) gets a generic closure that
   re-enters the interpreter for that node only, keeping recursion depth
   guards, fault injection and routine memoisation intact. *)

open Sqlast.Ast
module Value = Sqldb.Value
module Date = Sqldb.Date
module Table = Sqldb.Table
module Database = Sqldb.Database
module Eval = Sqleval.Eval
module Catalog = Sqleval.Catalog
module Builtins = Sqleval.Builtins
module Result_set = Sqleval.Result_set
module Select_plan = Sqleval.Select_plan

(* Raised during compilation when the SELECT uses a shape the compiler
   does not cover; the node's slot then keeps [None], so the analysis
   is not repeated at every evaluation in the statement. *)
exception Unsupported

let lc = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Compiled forms                                                      *)
(* ------------------------------------------------------------------ *)

(* The runtime context a compiled closure runs against: the live
   evaluation environment (for subquery fallbacks, PSM variables and
   guards) plus this plan's own bindings, freshly allocated per run so
   re-entrant evaluations (a routine called from a projection re-running
   the same plan) cannot clobber each other's rows. *)
type rt = { env : Eval.env; binds : Eval.binding array }

type cexpr = rt -> Value.t

(* Per-source row/hash caches, valid for one physical table at one
   mutation version.  Physical identity tells a temp table re-created
   with the same schema — which moves no stamp — from the table the
   cache was built over. *)
type entry = {
  e_table : Table.t;
  e_version : int;
  mutable e_rows : Value.t array list option;  (* tt-filtered scan *)
  mutable e_hash : (Value.t, Value.t array list) Hashtbl.t option;
}

type cplan = {
  p_select : select;  (* for the shared distinct/sort/group tail *)
  p_names : string array;  (* table lookup names; resolved per run *)
  p_plan : cexpr Select_plan.t;
  p_proj : rt -> Value.t list;
  p_keys : cexpr list;
  p_entries : entry option array;  (* per source, across runs *)
}

type Eval.compiled += Plan of cplan option

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Specialised comparison: the interpreter's [v_compare] goes through
   [Value.compare_sql]'s full type dispatch; the common INT/INT and
   DATE/DATE cases (period arithmetic is all int-backed dates) short-
   circuit here with the identical result.  [t] tests the three-way
   result for the comparison operator [op]. *)
let cmp op t a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Bool (t (Int.compare x y))
  | Value.Date x, Value.Date y -> Value.Bool (t (Date.compare x y))
  | _ -> Eval.v_compare op a b

let arith op a b =
  match (op, a, b) with
  | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | _ -> Eval.v_arith op a b

let compile_select_exn (cat : Catalog.t) (s : select) : cplan =
  let from, join_conjuncts = Select_plan.flatten s in
  (* Only base-table references compile: views, derived tables and table
     functions need the interpreter's materialisation machinery. *)
  let names, sources =
    List.split
      (List.map
         (fun (tr, on) ->
           match tr with
           | Select_plan.From_name (name, alias) -> (
               match Database.find_table cat.Catalog.db name with
               | Some t ->
                   let schema = Table.schema t in
                   ( name,
                     {
                       Select_plan.alias;
                       cols = Select_plan.columns schema;
                       kind = Select_plan.Base schema;
                       on;
                     } )
               | None -> raise Unsupported)
           | _ -> raise Unsupported)
         from)
  in
  let plan = Select_plan.plan cat s join_conjuncts sources in
  let levels = plan.Select_plan.levels in
  let n = Array.length levels in
  let find_alias lq =
    let rec go i =
      if i >= n then None
      else if levels.(i).Select_plan.l_alias = lq then Some i
      else go (i + 1)
    in
    go 0
  in
  (* The generic fallback re-enters the interpreter for one node; since
     the plan's bindings are pushed as the innermost frame at run time,
     name resolution there behaves exactly as in interpreted mode. *)
  let generic e = fun rt -> Eval.eval_expr rt.env e in
  let rec comp (e : expr) : cexpr =
    match e with
    | Lit v -> fun _ -> v
    | Col (q, name) -> (
        let lname = lc name in
        match q with
        | Some qq -> (
            match find_alias (lc qq) with
            | Some bi -> (
                let cols = levels.(bi).Select_plan.l_cols in
                match Select_plan.column_offset cols lname with
                | Some ci -> fun rt -> rt.binds.(bi).Eval.b_row.(ci)
                | None -> fun _ -> Eval.sql_error "no column %s in %s" name qq)
            | None -> generic e)
        | None -> (
            let hits = ref [] in
            Array.iteri
              (fun i l ->
                match Select_plan.column_offset l.Select_plan.l_cols lname with
                | Some ci -> hits := (i, ci) :: !hits
                | None -> ())
              levels;
            match !hits with
            | [ (bi, ci) ] -> fun rt -> rt.binds.(bi).Eval.b_row.(ci)
            | [] -> generic e
            | _ -> fun _ -> Eval.sql_error "ambiguous column reference %s" name))
    | Binop (And, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> Eval.v_and (ca rt) (cb rt)
    | Binop (Or, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> Eval.v_or (ca rt) (cb rt)
    | Binop (Eq, a, b) -> comparison Eq (fun c -> c = 0) a b
    | Binop (Neq, a, b) -> comparison Neq (fun c -> c <> 0) a b
    | Binop (Lt, a, b) -> comparison Lt (fun c -> c < 0) a b
    | Binop (Le, a, b) -> comparison Le (fun c -> c <= 0) a b
    | Binop (Gt, a, b) -> comparison Gt (fun c -> c > 0) a b
    | Binop (Ge, a, b) -> comparison Ge (fun c -> c >= 0) a b
    | Binop (Concat, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> Eval.v_concat (ca rt) (cb rt)
    | Binop (op, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> arith op (ca rt) (cb rt)
    | Unop (Not, a) ->
        let ca = comp a in
        fun rt -> Eval.v_not (ca rt)
    | Unop (Neg, a) -> (
        let ca = comp a in
        fun rt ->
          match ca rt with
          | Value.Null -> Value.Null
          | Value.Int i -> Value.Int (-i)
          | Value.Float f -> Value.Float (-.f)
          | v -> Eval.sql_error "cannot negate %s" (Value.to_string v))
    | Fun_call (name, args) when Builtins.is_builtin name ->
        let cargs = List.map comp args in
        fun rt ->
          let argv = List.map (fun c -> c rt) cargs in
          Builtins.call ~now:rt.env.Eval.now name argv
    | Cast (e1, ty) ->
        let c = comp e1 in
        fun rt -> Value.cast ~ty (c rt)
    | Case c -> (
        let cop = Option.map comp c.case_operand in
        let cbr = List.map (fun (w, t) -> (comp w, comp t)) c.case_branches in
        let cel = Option.map comp c.case_else in
        match cop with
        | Some cv ->
            fun rt ->
              let v = cv rt in
              let rec go = function
                | [] -> (
                    match cel with Some ce -> ce rt | None -> Value.Null)
                | (cw, ct) :: rest ->
                    if Eval.truthy (Eval.v_compare Eq v (cw rt)) then ct rt
                    else go rest
              in
              go cbr
        | None ->
            fun rt ->
              let rec go = function
                | [] -> (
                    match cel with Some ce -> ce rt | None -> Value.Null)
                | (cw, ct) :: rest ->
                    if Eval.truthy (cw rt) then ct rt else go rest
              in
              go cbr)
    | In_pred (e1, In_list es, neg) ->
        let ce = comp e1 in
        let ces = List.map comp es in
        fun rt ->
          let v = ce rt in
          let members = List.map (fun c -> c rt) ces in
          let result =
            if Value.is_null v then Value.Null
            else
              let any_null = List.exists Value.is_null members in
              if
                List.exists
                  (fun m -> (not (Value.is_null m)) && Value.equal m v)
                  members
              then Value.Bool true
              else if any_null then Value.Null
              else Value.Bool false
          in
          if neg then Eval.v_not result else result
    | Between (e1, lo, hi, neg) ->
        let ce = comp e1 in
        let clo = comp lo and chi = comp hi in
        fun rt ->
          let v = ce rt in
          let l = clo rt and h = chi rt in
          let r = Eval.v_and (Eval.v_compare Le l v) (Eval.v_compare Le v h) in
          if neg then Eval.v_not r else r
    | Is_null (e1, neg) ->
        let ce = comp e1 in
        fun rt ->
          let isnull = Value.is_null (ce rt) in
          Value.Bool (if neg then not isnull else isnull)
    | Like (e1, pat, neg) -> (
        let ce = comp e1 and cp = comp pat in
        fun rt ->
          let v = ce rt and pv = cp rt in
          match (v, pv) with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | _ ->
              let m =
                Builtins.like_match
                  ~pattern:(Value.to_str_exn pv)
                  (Value.to_str_exn v)
              in
              Value.Bool (if neg then not m else m))
    | Exists _ | Scalar_subquery _ | Agg _ | Fun_call _
    | In_pred (_, In_query _, _) ->
        generic e
  and comparison op t a b =
    let ca = comp a and cb = comp b in
    fun rt -> cmp op t (ca rt) (cb rt)
  in
  let proj_items =
    List.map
      (function
        | Star ->
            fun rt ->
              Array.fold_right
                (fun b acc -> Array.to_list b.Eval.b_row @ acc)
                rt.binds []
        | Qual_star q -> (
            match find_alias (lc q) with
            | Some k -> fun rt -> Array.to_list rt.binds.(k).Eval.b_row
            | None -> fun _ -> Eval.sql_error "unknown alias %s.*" q)
        | Proj_expr (e, _) ->
            let c = comp e in
            fun rt -> [ c rt ])
      s.proj
  in
  {
    p_select = s;
    p_names = Array.of_list names;
    p_plan = Select_plan.map comp plan;
    p_proj = (fun rt -> List.concat_map (fun f -> f rt) proj_items);
    p_keys = List.map (fun (e, _) -> comp e) s.order_by;
    p_entries = Array.make (List.length names) None;
  }

let compile_select cat s =
  match compile_select_exn cat s with
  | p -> Some p
  | exception Unsupported -> None

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_plan (p : cplan) (env : Eval.env) : Result_set.t =
  let cat = env.Eval.cat in
  (* Resolve source tables against the live database in source order; a
     vanished table raises the interpreter's own resolution error (in
     practice a drop moves the slot's stamp first, and the node is
     compiled afresh). *)
  let tabs =
    Array.map
      (fun name ->
        match Database.find_table cat.Catalog.db name with
        | Some t -> t
        | None -> Eval.sql_error "unknown table or view %s" name)
      p.p_names
  in
  let n = Array.length tabs in
  let binds = Select_plan.bindings p.p_plan in
  let rt = { env; binds } in
  let entry_for i =
    let t = tabs.(i) in
    match p.p_entries.(i) with
    | Some e when e.e_table == t && e.e_version = t.Table.version -> e
    | _ ->
        let e =
          {
            e_table = t;
            e_version = t.Table.version;
            e_rows = None;
            e_hash = None;
          }
        in
        p.p_entries.(i) <- Some e;
        e
  in
  (* The per-run memo matches the interpreter's per-evaluation laziness:
     within one run the row list and hash index are frozen at first use
     (a mid-run mutation by a routine does not refresh them), while
     across runs the persistent entry revalidates against the table's
     identity and version. *)
  let run_rows = Array.make n None in
  let run_hash = Array.make n None in
  let rows i =
    match run_rows.(i) with
    | Some rows -> rows
    | None ->
        let e = entry_for i in
        let rows =
          match e.e_rows with
          | Some rows -> rows
          | None ->
              let rows =
                Select_plan.base_rows
                  ~temporal_index:cat.Catalog.options.Catalog.temporal_index
                  env.Eval.tt_mode tabs.(i)
              in
              e.e_rows <- Some rows;
              rows
        in
        run_rows.(i) <- Some rows;
        rows
  in
  let hash i ci =
    match run_hash.(i) with
    | Some h -> h
    | None ->
        let e = entry_for i in
        let h =
          match e.e_hash with
          | Some h -> h
          | None ->
              let h = Select_plan.hash_rows ci (rows i) in
              e.e_hash <- Some h;
              h
        in
        run_hash.(i) <- Some h;
        h
  in
  let base i =
    let t = tabs.(i) in
    Some (t, Select_plan.tt_filter (Table.schema t) env.Eval.tt_mode)
  in
  let pass (checks : cexpr array) =
    let m = Array.length checks in
    let rec go j = j >= m || (Eval.truthy (checks.(j) rt) && go (j + 1)) in
    go 0
  in
  Eval.run_select env p.p_select p.p_plan binds
    ~value:(fun c -> c rt)
    ~pass
    { Select_plan.rows; hash; base }
    ~flat_row:(fun () ->
      let out = p.p_proj rt in
      let keys = List.map (fun k -> k rt) p.p_keys in
      Array.of_list (out @ keys))

(* ------------------------------------------------------------------ *)
(* The evaluator hook                                                  *)
(* ------------------------------------------------------------------ *)

(* The node's plan for this statement, compiled at its first
   evaluation. *)
let lookup_plan (env : Eval.env) (slot : Eval.memo_slot) (s : select) :
    cplan option =
  match slot.Eval.ms_plan with
  | Some (Plan p) -> p
  | _ ->
      let p = compile_select env.Eval.cat s in
      slot.Eval.ms_plan <- Some (Plan p);
      p

let select_hook (env : Eval.env) slot (s : select) : Result_set.t option =
  match lookup_plan env slot s with
  | None -> None
  | Some p -> Some (run_plan p env)

let install () = Eval.select_compiler := select_hook
