(* The SELECT planner and join loop shared by the interpreter and the
   closure compiler; see select_plan.mli. *)

open Sqlast.Ast
module Value = Sqldb.Value
module Date = Sqldb.Date
module Schema = Sqldb.Schema
module Table = Sqldb.Table

(* The evaluator's error, defined here because the planner is the first
   module of the library to raise it; [Eval] re-exports it. *)
exception Sql_error of string

let sql_error fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt
let lc = String.lowercase_ascii

type binding = {
  b_alias : string;
  b_cols : string array;
  mutable b_row : Value.t array;
}

type tt_mode = [ `Current | `Asof of Date.t | `All ]

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type kind = Base of Schema.t | Derived | Lateral

let columns (schema : Schema.t) =
  Array.of_list (List.map (fun c -> lc c.Schema.col_name) schema.Schema.columns)

let column_offset cols c =
  let rec go j =
    if j >= Array.length cols then None
    else if cols.(j) = c then Some j
    else go (j + 1)
  in
  go 0

type source = {
  alias : string;
  cols : string array;
  kind : kind;
  on : expr option;
}

type 'e bound = { bd : 'e; bd_incl : bool }

type 'e period = {
  pd_bi : int;
  pd_ei : int;
  pd_ubs : 'e bound list;
  pd_lbs : 'e bound list;
  pd_sat : int;
  pd_checks_exact : 'e array;
}

type 'e hash = { h_ci : int; h_probe : 'e; h_checks : 'e array }

type 'e level = {
  l_alias : string;
  l_cols : string array;
  l_name : string;
  l_lateral : bool;
  l_on : 'e option;
  l_checks : 'e array;
  l_hash : 'e hash option;
  l_period : 'e period option;
}

type 'e t = {
  levels : 'e level array;
  const_checks : 'e array;
  grouped : bool;
  join_event : string;
}

let rec split_conjuncts = function
  | Binop (And, a, b) -> split_conjuncts a @ split_conjuncts b
  | e -> [ e ]

(* ------------------------------------------------------------------ *)
(* FROM items                                                          *)
(* ------------------------------------------------------------------ *)

type item =
  | From_name of string * string
  | From_query of query * string
  | From_fun of string * expr list * string

let item_alias = function
  | From_name (_, a) | From_query (_, a) | From_fun (_, _, a) -> a

(* The items of a FROM entry, prepended to [acc] in reverse order;
   [ons], the ON conditions of its joins. *)
let rec leaves acc = function
  | Tjoin (l, _, r, _) -> leaves (leaves acc l) r
  | Tref (name, alias) ->
      From_name (name, lc (Option.value alias ~default:name)) :: acc
  | Tsub (q, alias) -> From_query (q, lc alias) :: acc
  | Tfun (f, args, alias) -> From_fun (f, args, lc alias) :: acc

let rec ons acc = function
  | Tjoin (l, _, r, on) -> ons (ons (on :: acc) l) r
  | _ -> acc

let from_items from = List.rev (List.fold_left leaves [] from)

(* Flatten explicit joins: inner-join ON conditions become ordinary
   conjuncts; a left join marks its right side with the ON condition so
   the join loop can null-extend unmatched combinations. *)
let flatten (s : select) : (item * expr option) list * expr list =
  let rec go (tr : table_ref) =
    match tr with
    | Tjoin (l, Jinner, r, on) ->
        let ul, cl = go l in
        let ur, cr = go r in
        (ul @ ur, cl @ cr @ [ on ])
    | Tjoin (_, Jleft, Tjoin _, _) ->
        sql_error "a nested join on the right of a LEFT JOIN is not supported"
    | Tjoin (l, Jleft, r, on) ->
        let ul, cl = go l in
        (ul @ List.map (fun it -> (it, Some on)) (leaves [] r), cl)
    | _ -> (List.map (fun it -> (it, None)) (leaves [] tr), [])
  in
  List.fold_left
    (fun (us, cs) tr ->
      let u, c = go tr in
      (us @ u, cs @ c))
    ([], []) s.from

let column_name = function
  | Col (_, c) -> c
  | Agg ((Count_star | Count), _, _) -> "count"
  | Agg (Sum, _, _) -> "sum"
  | Agg (Avg, _, _) -> "avg"
  | Agg (Min, _, _) -> "min"
  | Agg (Max, _, _) -> "max"
  | _ -> "?column?"

let table_fun_columns (cat : Catalog.t) fname =
  match Catalog.find_native_table_fun cat fname with
  | Some ntf -> Ok (Array.of_list (List.map lc ntf.Catalog.ntf_cols))
  | None -> (
      match Catalog.find_function cat fname with
      | Some { r_returns = Some (Ret_table cds); _ } ->
          Ok (Array.of_list (List.map (fun cd -> lc cd.cd_name) cds))
      | Some _ -> Error (Printf.sprintf "%s is not a table function" fname)
      | None -> Error (Printf.sprintf "unknown table function %s" fname))

(* A view a FROM item names; [seen] holds the views being expanded, so a
   view defined over itself is not entered again. *)
let view_of (cat : Catalog.t) seen name =
  match Catalog.from_view cat name with
  | Some q when not (List.mem (lc name) seen) -> Some (q, lc name :: seen)
  | _ -> None

(* Output columns, statically and lowercase, named as the evaluator
   names them. *)
let rec item_cols cat seen = function
  | From_name (name, _) -> (
      match Catalog.resolve_from cat name with
      | `Table t -> Some (columns (Table.schema t))
      | `View q when not (List.mem (lc name) seen) ->
          query_cols cat (lc name :: seen) q
      | `View _ | `Unknown -> None)
  | From_query (q, _) -> query_cols cat seen q
  | From_fun (f, _, _) -> Result.to_option (table_fun_columns cat f)

and query_cols cat seen = function
  | Union (_, a, _) | Except (_, a, _) | Intersect (_, a, _) ->
      query_cols cat seen a
  | Select s ->
      let items = from_items s.from in
      let proj = function
        | Star ->
            List.fold_left
              (fun acc it ->
                match (acc, item_cols cat seen it) with
                | Some acc, Some cols -> Some (acc @ [ cols ])
                | _ -> None)
              (Some []) items
        | Qual_star q ->
            Option.bind
              (List.find_opt (fun it -> item_alias it = lc q) items)
              (fun it -> Option.map (fun c -> [ c ]) (item_cols cat seen it))
        | Proj_expr (_, Some a) -> Some [ [| lc a |] ]
        | Proj_expr (e, None) -> Some [ [| lc (column_name e) |] ]
      in
      List.fold_left
        (fun acc p ->
          match (acc, proj p) with
          | Some acc, Some cols -> Some (acc @ cols)
          | _ -> None)
        (Some []) s.proj
      |> Option.map Array.concat

let query_columns cat q = query_cols cat [] q

(* Every expression of a SELECT outside its FROM items, in evaluation
   order: the LEFT JOIN and inner-join ONs, projection, WHERE, GROUP BY,
   HAVING, ORDER BY, OFFSET and FETCH FIRST. *)
let select_exprs (s : select) =
  let opt = Option.to_list in
  List.fold_left ons [] s.from
  @ List.filter_map (function Proj_expr (e, _) -> Some e | _ -> None) s.proj
  @ opt s.where @ s.group_by @ opt s.having @ List.map fst s.order_by
  @ opt s.offset @ opt s.fetch_first

(* Whether [q] names the view [target] in some FROM, directly or
   through other views, at any depth.  A name counts as a view's even
   where a table of that name shadows it now: the table may be dropped
   later, and then the view reads itself. *)
let reaches_view (cat : Catalog.t) target q =
  let target = lc target in
  let rec query seen q = List.exists (select seen) (query_selects q)
  and select seen s =
    List.exists (item seen) (from_items s.from)
    || List.exists (expr seen) (select_exprs s)
  and expr seen e = fold_expr_queries (fun acc q -> acc || query seen q) false e
  and item seen = function
    | From_name (name, _) -> (
        let name = lc name in
        name = target
        ||
        match Catalog.find_view cat name with
        | Some q when not (List.mem name seen) -> query (name :: seen) q
        | _ -> false)
    | From_query (q, _) -> query seen q
    | From_fun (_, args, _) -> List.exists (expr seen) args
  in
  query [] q

(* A column reference that leaves the scopes of the expression or query
   holding it: its qualifier and name (lowercase), and whether an inner
   scope had statically unknown columns, so that an unqualified name may
   resolve there after all. *)
type outward = { o_qual : string option; o_col : string; o_maybe_inner : bool }

(* The outward references of a FROM item, found the way {!Eval}'s
   column lookup resolves names: a qualifier names the innermost FROM
   item with that alias; an unqualified name, the innermost scope with a
   FROM item carrying that column.  Routine bodies run in their own
   environment, so calls are not entered; view bodies are. *)
let outward_refs (cat : Catalog.t) (it : item) : outward list =
  let resolve scopes acc q c =
    let c = lc c in
    match q with
    | Some q ->
        let q = lc q in
        if List.exists (List.exists (fun (a, _) -> a = q)) scopes then acc
        else { o_qual = Some q; o_col = c; o_maybe_inner = false } :: acc
    | None ->
        let carries = function
          | _, Some cols -> Array.mem c cols
          | _, None -> false
        in
        if List.exists (List.exists carries) scopes then acc
        else
          {
            o_qual = None;
            o_col = c;
            o_maybe_inner =
              List.exists (List.exists (fun (_, cols) -> cols = None)) scopes;
          }
          :: acc
  in
  let rec expr seen scopes acc e =
    match e with
    | Col (q, c) -> resolve scopes acc q c
    | Exists q | Scalar_subquery q -> query seen scopes acc q
    | In_pred (_, In_query q, _) ->
        query seen scopes (fold_expr_children (expr seen scopes) acc e) q
    | _ -> fold_expr_children (expr seen scopes) acc e
  and query seen scopes acc q =
    List.fold_left (select seen scopes) acc (query_selects q)
  and select seen scopes acc s =
    let items = from_items s.from in
    let scopes =
      List.map (fun it -> (item_alias it, item_cols cat seen it)) items
      :: scopes
    in
    let acc = List.fold_left (item seen scopes) acc items in
    List.fold_left (expr seen scopes) acc (select_exprs s)
  and item seen scopes acc = function
    | From_name (name, _) -> (
        match view_of cat seen name with
        | Some (q, seen) -> query seen scopes acc q
        | None -> acc)
    | From_query (q, _) -> query seen scopes acc q
    | From_fun (_, args, _) -> List.fold_left (expr seen scopes) acc args
  in
  item [] [] [] it

let correlated (cat : Catalog.t) (items : item array) : bool array =
  let n = Array.length items in
  let cols = Array.map (fun it -> lazy (item_cols cat [] it)) items in
  let rec first p j stop =
    if j >= stop then None else if p j then Some j else first p (j + 1) stop
  in
  let not_preceding i j col =
    let a = item_alias items.(i) in
    if i = j then sql_error "FROM item %s refers to itself" a
    else
      sql_error
        "FROM item %s refers to %s%s, which follows it: a FROM item sees only \
         the items before it"
        a
        (match col with Some c -> "column " ^ c ^ " of " | None -> "")
        (item_alias items.(j))
  in
  Array.mapi
    (fun i it ->
      List.fold_left
        (fun corr r ->
          match r.o_qual with
          | Some q -> (
              match first (fun j -> item_alias items.(j) = q) 0 n with
              | Some j when j < i -> true
              | Some j -> not_preceding i j None
              | None -> corr)
          | None -> (
              (* a sibling whose columns are not known statically may
                 carry the name: that makes an item before this one a
                 dependence, but an item after it no error *)
              let carries ~unknown j =
                match Lazy.force cols.(j) with
                | Some cs -> Array.mem r.o_col cs
                | None -> unknown
              in
              if first (carries ~unknown:true) 0 i <> None then true
              else
                match first (carries ~unknown:false) (i + 1) n with
                | Some j when not r.o_maybe_inner ->
                    not_preceding i j (Some r.o_col)
                | _ -> corr))
        false (outward_refs cat it))
    items

let rec has_agg e =
  match e with
  | Agg _ -> true
  | _ -> fold_expr_children (fun acc e -> acc || has_agg e) false e

let has_fun_call e =
  fold_expr_funcalls
    (fun acc name _ -> acc || not (Builtins.is_builtin name))
    false e

(* What a SELECT's result is a function of, when nothing else can move
   it: the base tables it reads at every depth (lowercase, each once)
   and its outward references, as column expressions.  [None] when some
   FROM item is a view, derived table or table function, some call is a
   stored routine, an outward reference might resolve inside after all,
   or no table is read at all (a FROM-less SELECT is as cheap to run as
   to look up). *)
let memo_inputs (cat : Catalog.t) (s : select) =
  let exception Impure in
  let tables = ref [] in
  let rec query q = List.iter select (query_selects q)
  and select s =
    List.iter
      (function
        | From_name (name, _)
          when Sqldb.Database.find_table cat.Catalog.db name <> None ->
            if not (List.mem (lc name) !tables) then
              tables := lc name :: !tables
        | _ -> raise Impure)
      (from_items s.from);
    List.iter expr (select_exprs s)
  and expr e =
    if has_fun_call e then raise Impure;
    fold_expr_queries (fun () q -> query q) () e
  in
  match select s with
  | exception Impure -> None
  | () when !tables = [] -> None
  | () ->
      let refs = outward_refs cat (From_query (Select s, "")) in
      if List.exists (fun r -> r.o_maybe_inner) refs then None
      else
        Some
          ( Array.of_list (List.rev !tables),
            Array.of_list
              (List.sort_uniq compare
                 (List.map (fun r -> Col (r.o_qual, r.o_col)) refs)) )

let plan (cat : Catalog.t) (s : select) (join_conjuncts : expr list)
    (sources : source list) : expr t =
  let o = cat.Catalog.options in
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let find p =
    let rec go i =
      if i >= n then None else if p srcs.(i) then Some i else go (i + 1)
    in
    go 0
  in
  let level_of_alias q =
    let q = lc q in
    find (fun sr -> sr.alias = q)
  in
  let conjuncts =
    join_conjuncts
    @ match s.where with None -> [] | Some w -> split_conjuncts w
  in
  (* Which levels does an expression reference?  An unqualified column
     counts for the first source carrying it; subqueries contribute
     their outward (correlated) references. *)
  let level_of q c =
    match q with
    | Some q -> level_of_alias q
    | None -> find (fun sr -> Array.exists (String.equal (lc c)) sr.cols)
  in
  let rec levels acc (e : expr) =
    let add lvl acc = match lvl with Some l -> l :: acc | None -> acc in
    match e with
    | Col (q, c) -> add (level_of q c) acc
    | _ ->
        let acc =
          match e with
          | Exists q | Scalar_subquery q | In_pred (_, In_query q, _) ->
              List.fold_left
                (fun acc r -> add (level_of r.o_qual r.o_col) acc)
                acc
                (outward_refs cat (From_query (q, "")))
          | _ -> acc
        in
        fold_expr_children levels acc e
  in
  let bound_before i e = List.for_all (fun lvl -> lvl < i) (levels [] e) in
  (* Each conjunct runs at the earliest level binding every alias it
     references; cheap conjuncts (no stored-function calls) run first. *)
  let level_conjuncts = Array.make (max n 1) [] in
  List.iter
    (fun c ->
      let lvl = List.fold_left max 0 (levels [] c) in
      level_conjuncts.(lvl) <- c :: level_conjuncts.(lvl))
    conjuncts;
  Array.iteri
    (fun i cs ->
      let cheap, costly = List.partition (fun c -> not (has_fun_call c)) cs in
      level_conjuncts.(i) <- cheap @ costly)
    level_conjuncts;
  (* The column offset of source [i] that [e] names, if any; an
     unqualified column must belong to source [i] and no other. *)
  let col_of_source i (e : expr) =
    let sr = srcs.(i) in
    match e with
    | Col (Some q, c) when lc q = sr.alias -> column_offset sr.cols (lc c)
    | Col (None, c) ->
        let c = lc c in
        let elsewhere sr' =
          sr'.alias <> sr.alias && Array.exists (String.equal c) sr'.cols
        in
        if Array.exists elsewhere srcs then None else column_offset sr.cols c
    | _ -> None
  in
  let without used cs =
    Array.of_list (List.filter (fun c -> not (List.memq c used)) cs)
  in
  (* Hash-join detection: at an inner level, a conjunct
     col_of_source_i = expr_bound_earlier lets the level probe a hash
     index on that column. *)
  let hash_plan i =
    let rec scan = function
      | [] -> None
      | (Binop (Eq, a, b) as c) :: rest -> (
          match (col_of_source i a, bound_before i b) with
          | Some ci, true -> Some (ci, b, c)
          | _ -> (
              match (col_of_source i b, bound_before i a) with
              | Some ci, true -> Some (ci, a, c)
              | _ -> scan rest))
      | _ :: rest -> scan rest
    in
    match srcs.(i) with
    | { kind = Lateral; _ } | { on = Some _; _ } -> None
    | _ when not o.Catalog.hash_joins -> None
    | _ ->
        Option.map
          (fun (ci, probe, used) ->
            {
              h_ci = ci;
              h_probe = probe;
              h_checks = without [ used ] level_conjuncts.(i);
            })
          (scan level_conjuncts.(i))
  in
  (* Period-window detection: at a level over a temporal base table,
     range conjuncts on begin_time/end_time whose other side is bound
     earlier describe a window [l, u) every surviving row must overlap,
     so the interval index yields the candidates.  Upper bounds u:
     begin_time < u; lower bounds l: end_time > l; inclusive comparisons
     are widened by one day when evaluated.  A bound must be
     side-effect free (it is evaluated once per scan, not per row).
     Every comparison but Eq is implied by the window outright, so when
     the index has no residual rows the scan may skip re-checking it;
     the rest are still checked per candidate, so the index only has to
     return a superset. *)
  let period_plan i =
    match srcs.(i) with
    | { kind = Base schema; cols; on; _ }
      when schema.Schema.temporal && o.Catalog.temporal_index ->
        let which e =
          match col_of_source i e with
          | Some j when cols.(j) = Schema.begin_time_col -> Some `Begin
          | Some j when cols.(j) = Schema.end_time_col -> Some `End
          | _ -> None
        in
        let usable e = bound_before i e && not (has_fun_call e) in
        let ubs = ref [] and lbs = ref [] in
        let flip = function
          | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op
        in
        let consider c =
          let add r e incl exact = r := (e, incl, c, exact) :: !r in
          (* Orient the comparison as [timestamp op bound]. *)
          let oriented =
            match c with
            | Binop (op, x, y) -> (
                match (which x, which y) with
                | Some side, None when usable y -> Some (side, op, y)
                | None, Some side when usable x -> Some (side, flip op, x)
                | _ -> None)
            | _ -> None
          in
          match oriented with
          | Some (`Begin, Le, e) -> add ubs e true true
          | Some (`Begin, Eq, e) -> add ubs e true false
          | Some (`Begin, Lt, e) -> add ubs e false true
          | Some (`End, Ge, e) -> add lbs e true true
          | Some (`End, Eq, e) -> add lbs e true false
          | Some (`End, Gt, e) -> add lbs e false true
          | _ -> ()
        in
        (* A LEFT JOIN's matches are selected by its ON condition. *)
        List.iter consider
          (match on with
          | None -> level_conjuncts.(i)
          | Some on -> split_conjuncts on);
        if !ubs = [] && !lbs = [] then None
        else
          let bounds =
            List.map (fun (e, incl, _, _) -> { bd = e; bd_incl = incl })
          in
          let sat =
            List.filter_map
              (fun (_, _, c, exact) -> if exact then Some c else None)
              (!ubs @ !lbs)
          in
          Some
            {
              pd_bi = Schema.begin_index schema;
              pd_ei = Schema.end_index schema;
              pd_ubs = bounds !ubs;
              pd_lbs = bounds !lbs;
              pd_sat = List.length sat;
              pd_checks_exact = without sat level_conjuncts.(i);
            }
    | _ -> None
  in
  let levels =
    Array.mapi
      (fun i sr ->
        {
          l_alias = sr.alias;
          l_cols = sr.cols;
          l_name =
            (match sr.kind with Base sch -> sch.Schema.name | _ -> sr.alias);
          l_lateral = sr.kind = Lateral;
          l_on = sr.on;
          l_checks = Array.of_list level_conjuncts.(i);
          l_hash = hash_plan i;
          l_period = period_plan i;
        })
      srcs
  in
  (* The statically chosen access path per level, for the [join] event
     (a period plan can still fall back at runtime on a non-date bound;
     that shows up as [scan.residual_fallback]). *)
  let path l =
    if l.l_lateral then "lateral"
    else
      match (l.l_hash, l.l_period) with
      | Some h, _ -> "hash(" ^ l.l_cols.(h.h_ci) ^ ")"
      | None, Some _ -> "index"
      | None, None -> "full"
  in
  {
    levels;
    const_checks =
      (if n = 0 then Array.of_list level_conjuncts.(0) else [||]);
    grouped =
      s.group_by <> [] || s.having <> None
      || List.exists
           (function Proj_expr (e, _) -> has_agg e | _ -> false)
           s.proj;
    join_event =
      "order="
      ^ String.concat ","
          (Array.to_list
             (Array.map (fun l -> l.l_alias ^ ":" ^ path l) levels));
  }

let map f p =
  let checks = Array.map f in
  let level l =
    {
      l with
      l_on = Option.map f l.l_on;
      l_checks = checks l.l_checks;
      l_hash =
        Option.map
          (fun h ->
            {
              h_ci = h.h_ci;
              h_probe = f h.h_probe;
              h_checks = checks h.h_checks;
            })
          l.l_hash;
      l_period =
        Option.map
          (fun pd ->
            let bound b = { b with bd = f b.bd } in
            {
              pd with
              pd_ubs = List.map bound pd.pd_ubs;
              pd_lbs = List.map bound pd.pd_lbs;
              pd_checks_exact = checks pd.pd_checks_exact;
            })
          l.l_period;
    }
  in
  {
    p with
    levels = Array.map level p.levels;
    const_checks = checks p.const_checks;
  }

let bindings p =
  Array.map
    (fun l -> { b_alias = l.l_alias; b_cols = l.l_cols; b_row = [||] })
    p.levels

(* ------------------------------------------------------------------ *)
(* Row sources                                                         *)
(* ------------------------------------------------------------------ *)

(* Transaction-time filtering is system-enforced at the scan: the exact
   predicate of the statement's reading mode, [None] when every row
   qualifies. *)
let tt_filter (schema : Schema.t) (mode : tt_mode) =
  if not schema.Schema.transaction then None
  else
    let bi = Schema.tt_begin_index schema
    and ei = Schema.tt_end_index schema in
    match mode with
    | `All -> None
    | `Current ->
        Some (fun (r : Value.t array) -> Value.to_date_exn r.(ei) = Date.forever)
    | `Asof d ->
        Some
          (fun (r : Value.t array) ->
            Value.to_date_exn r.(bi) <= d && d < Value.to_date_exn r.(ei))

(* A base table's rows under the reading mode.  With the interval index
   enabled, the AS OF / CURRENT filters become stabbing queries on the
   (tt_begin, tt_end) pair; candidates are still re-checked by the exact
   predicate, so the rows match the filtered full scan. *)
let base_rows ~temporal_index (mode : tt_mode) t =
  let schema = Table.schema t in
  match tt_filter schema mode with
  | None -> Table.to_list t
  | Some p when temporal_index ->
      let begin_, end_ =
        match mode with `Asof d -> (d, d + 1) | _ -> (Date.forever - 1, max_int)
      in
      List.filter p
        (Table.overlapping t ~bi:(Schema.tt_begin_index schema)
           ~ei:(Schema.tt_end_index schema) ~begin_ ~end_)
  | Some p -> List.filter p (Table.to_list t)

(* An equi-join hash index on column [ci]; NULL keys never match. *)
let hash_rows ci rows =
  let h = Hashtbl.create 256 in
  List.iter
    (fun (r : Value.t array) ->
      let k = r.(ci) in
      if not (Value.is_null k) then
        Hashtbl.replace h k
          (r :: Option.value (Hashtbl.find_opt h k) ~default:[]))
    rows;
  h

type access = {
  rows : int -> Value.t array list;
  hash : int -> int -> (Value.t, Value.t array list) Hashtbl.t;
  base : int -> (Table.t * (Value.t array -> bool) option) option;
}

(* ------------------------------------------------------------------ *)
(* The join loop                                                       *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  let scan_indexed = "scan.indexed"
  let scan_full = "scan.full"
  let scan_hash = "scan.hash"
  let scan_residual_fallback = "scan.residual_fallback"
  let rows_probed = "rows.probed"
  let rows_matched = "rows.matched"
  let conjuncts_elided = "conjuncts.elided"
  let select_memo_hit = "select.memo_hit"
end

let run obs (p : 'e t) (binds : binding array) ~(value : 'e -> Value.t)
    ~(pass : 'e array -> bool) (a : access) ~(emit : unit -> unit) =
  let n = Array.length p.levels in
  let traced = Trace.enabled obs in
  (* Run a level's period plan: evaluate the bounds (declining unless
     every one yields a DATE) and query the interval index.  Candidates
     come back in scan order, so results are indistinguishable from a
     full scan.  The count is of the conjuncts the window enforces
     exactly — valid only when the index has no residual rows, since
     residuals are returned unchecked. *)
  let period_scan i pd =
    match a.base i with
    | None -> None
    | Some (t, tt_filter) -> (
        let fold init pick adjust bounds =
          List.fold_left
            (fun acc b ->
              match acc with
              | None -> None
              | Some v -> (
                  match value b.bd with
                  | Value.Date d -> Some (pick v (adjust d b.bd_incl))
                  | _ -> None))
            (Some init) bounds
        in
        let u =
          fold max_int min (fun d incl -> if incl then d + 1 else d) pd.pd_ubs
        in
        let l =
          fold min_int max (fun d incl -> if incl then d - 1 else d) pd.pd_lbs
        in
        match (l, u) with
        | Some l, Some u ->
            let bi = pd.pd_bi and ei = pd.pd_ei in
            let cands = Table.overlapping t ~bi ~ei ~begin_:l ~end_:u in
            let nsat =
              if Table.overlap_residuals t ~bi ~ei = 0 then pd.pd_sat else 0
            in
            if traced then begin
              let tname = Table.name t in
              Trace.count obs Counter.scan_indexed 1;
              Trace.count obs (Counter.scan_indexed ^ ":" ^ tname) 1;
              Trace.count obs Counter.rows_probed (List.length cands);
              let bound d inf =
                if d = min_int || d = max_int then inf else Date.to_string d
              in
              Trace.event obs "scan"
                (Printf.sprintf
                   "indexed table=%s window=(%s,%s) probes=%d elided=%d" tname
                   (bound l "-inf") (bound u "+inf") (List.length cands) nsat)
            end;
            let cands =
              match tt_filter with Some f -> List.filter f cands | None -> cands
            in
            Some (cands, nsat)
        | _ ->
            if traced then begin
              Trace.count obs Counter.scan_residual_fallback 1;
              Trace.event obs "scan"
                (Printf.sprintf "fallback table=%s (non-date bound)"
                   (Table.name t))
            end;
            None)
  in
  let probed counter rows =
    if traced then begin
      Trace.count obs counter 1;
      Trace.count obs Counter.rows_probed (List.length rows)
    end
  in
  let full i l =
    let rows = a.rows i in
    if traced then Trace.count obs (Counter.scan_full ^ ":" ^ l.l_name) 1;
    probed Counter.scan_full rows;
    (rows, l.l_checks)
  in
  let rec extend i =
    if i = n then begin if n > 0 || pass p.const_checks then emit () end
    else begin
      let l = p.levels.(i) in
      let b = binds.(i) in
      match l.l_on with
      | Some on ->
          (* LEFT JOIN: the ON condition selects matches; when none
             match, the right side is null-extended and the level's
             WHERE conjuncts apply to the extended row.  ON is
             evaluated whole, so the window's conjuncts are not
             elided. *)
          let matched = ref false in
          let indexed =
            match l.l_period with Some pd -> period_scan i pd | None -> None
          in
          let rows =
            match indexed with
            | Some (cands, _) -> cands
            | None ->
                let rows = a.rows i in
                probed Counter.scan_full rows;
                rows
          in
          List.iter
            (fun row ->
              b.b_row <- row;
              match value on with
              | Value.Bool true ->
                  matched := true;
                  if pass l.l_checks then begin
                    Trace.count obs Counter.rows_matched 1;
                    extend (i + 1)
                  end
              | _ -> ())
            rows;
          if not !matched then begin
            b.b_row <- Array.make (Array.length l.l_cols) Value.Null;
            if pass l.l_checks then extend (i + 1)
          end
      | None ->
          let rows, checks =
            if l.l_lateral then begin
              let rows = a.rows i in
              probed "scan.lateral" rows;
              (rows, l.l_checks)
            end
            else
              match (l.l_hash, l.l_period) with
              | Some h, _ ->
                  let rows =
                    let k = value h.h_probe in
                    if Value.is_null k then []
                    else
                      Option.value ~default:[]
                        (Hashtbl.find_opt (a.hash i h.h_ci) k)
                  in
                  probed Counter.scan_hash rows;
                  if traced then Trace.count obs Counter.conjuncts_elided 1;
                  (rows, h.h_checks)
              | None, Some pd -> (
                  match period_scan i pd with
                  | Some (cands, nsat) when nsat > 0 ->
                      if traced then
                        Trace.count obs Counter.conjuncts_elided nsat;
                      (cands, pd.pd_checks_exact)
                  | Some (cands, _) -> (cands, l.l_checks)
                  | None -> full i l)
              | None, None -> full i l
          in
          List.iter
            (fun row ->
              b.b_row <- row;
              if pass checks then begin
                Trace.count obs Counter.rows_matched 1;
                extend (i + 1)
              end)
            rows
    end
  in
  if traced && n > 0 then Trace.event obs "join" p.join_event;
  extend 0
