(* Compile-time analysis for the temporal transformations.

   The central question (paper §V-A, §V-C): which tables does a statement
   reach, *directly or indirectly* — through views, through stored
   functions called in expressions, through table functions in FROM,
   through procedures CALLed from those routines?  The answers drive:

   - which tables contribute constant periods (MAX);
   - which routines need a transformed variant, and which can be left
     untouched because they never touch temporal data (the paper's
     optimization);
   - the feature vector of the §VII-F heuristic (per-period cursor use,
     PERST applicability). *)

open Sqlast.Ast
module Catalog = Sqleval.Catalog
module SS = Set.Make (String)

type t = {
  tables : SS.t;  (* all reachable base tables, lowercase *)
  temporal_tables : SS.t;  (* the temporal subset *)
  routines : SS.t;  (* all reachable stored routines *)
  temporal_routines : SS.t;  (* routines that (transitively) reach temporal data *)
  has_cursor_over_temporal : bool;
      (* a reachable routine iterates a cursor / FOR loop over a query
         that touches temporal data — the paper's "cursors on a
         per-period basis" cost driver for PERST *)
  has_inner_modifier : bool;
      (* some reachable routine contains VALIDTIME / NONSEQUENCED inside
         its body (only legal under a nonsequenced invocation, §IV-A) *)
}

let empty =
  {
    tables = SS.empty;
    temporal_tables = SS.empty;
    routines = SS.empty;
    temporal_routines = SS.empty;
    has_cursor_over_temporal = false;
    has_inner_modifier = false;
  }

type acc = {
  mutable a_tables : SS.t;
  mutable a_routines : SS.t;
  mutable a_cursor_temporal : bool;
  mutable a_inner_modifier : bool;
  mutable a_views : string list;
      (* the views being walked, innermost first: one met again inside
         its own body is a cycle, an SQL error rather than a walk without
         end (CREATE VIEW rejects cycles; recovered DDL is not checked) *)
  (* routine -> tables it reaches (memo across the traversal) *)
  visited : (string, unit) Hashtbl.t;
}

let is_temporal_table cat name =
  match Sqldb.Database.find_table cat.Catalog.db name with
  | Some t -> (Sqldb.Table.schema t).Sqldb.Schema.temporal
  | None -> false

let rec walk_query cat acc (q : query) =
  List.iter (walk_select cat acc) (query_selects q)

and walk_select cat acc (s : select) =
  let rec walk_from = function
    | Tref (name, _) -> (
        match Catalog.find_view cat name with
        | Some vq ->
            let v = String.lowercase_ascii name in
            if List.mem v acc.a_views then
              Sqleval.Eval.sql_error "view %s is defined in terms of itself" v;
            let saved = acc.a_views in
            acc.a_views <- v :: saved;
            walk_query cat acc vq;
            acc.a_views <- saved
        | None -> acc.a_tables <- SS.add (String.lowercase_ascii name) acc.a_tables)
    | Tsub (q, _) -> walk_query cat acc q
    | Tfun (fname, args, _) ->
        walk_routine cat acc fname;
        List.iter (walk_expr cat acc) args
    | Tjoin (l, _, r, on) ->
        walk_from l;
        walk_from r;
        walk_expr cat acc on
  in
  List.iter walk_from s.from;
  List.iter
    (function Proj_expr (e, _) -> walk_expr cat acc e | Star | Qual_star _ -> ())
    s.proj;
  Option.iter (walk_expr cat acc) s.where;
  List.iter (walk_expr cat acc) s.group_by;
  Option.iter (walk_expr cat acc) s.having;
  List.iter (fun (e, _) -> walk_expr cat acc e) s.order_by

and walk_expr cat acc (e : expr) =
  ignore
    (fold_expr_funcalls
       (fun () name _args -> walk_routine cat acc name)
       () e);
  ignore (fold_expr_queries (fun () q -> walk_query cat acc q) () e)

and walk_routine cat acc name =
  if Sqleval.Builtins.is_builtin name then ()
  else
    let key = String.lowercase_ascii name in
    if not (Hashtbl.mem acc.visited key) then begin
      Hashtbl.add acc.visited key ();
      match Catalog.find_routine cat name with
      | Some (_, r) ->
          acc.a_routines <- SS.add key acc.a_routines;
          (* a view read again through a call is recursion, bounded at
             run time by the depth guard; the body starts afresh *)
          let saved = acc.a_views in
          acc.a_views <- [];
          List.iter (walk_stmt cat acc) r.r_body;
          acc.a_views <- saved
      | None -> ()
    end

and walk_stmt cat acc (s : stmt) =
  match s with
  | Squery q -> walk_query cat acc q
  | Sinsert (t, _, src) -> (
      acc.a_tables <- SS.add (String.lowercase_ascii t) acc.a_tables;
      match src with
      | Ivalues rows -> List.iter (List.iter (walk_expr cat acc)) rows
      | Iquery q -> walk_query cat acc q)
  | Supdate (t, sets, where) ->
      acc.a_tables <- SS.add (String.lowercase_ascii t) acc.a_tables;
      List.iter (fun (_, e) -> walk_expr cat acc e) sets;
      Option.iter (walk_expr cat acc) where
  | Sdelete (t, where) ->
      acc.a_tables <- SS.add (String.lowercase_ascii t) acc.a_tables;
      Option.iter (walk_expr cat acc) where
  | Smerge m ->
      acc.a_tables <- SS.add (String.lowercase_ascii m.m_target) acc.a_tables;
      walk_query cat acc m.m_source
  | Screate_table ct -> Option.iter (walk_query cat acc) ct.ct_as
  | Sdrop_table _ -> ()
  | Screate_view (_, q) -> walk_query cat acc q
  | Screate_function r | Screate_procedure r ->
      List.iter (walk_stmt cat acc) r.r_body
  | Scall (name, args) ->
      walk_routine cat acc name;
      List.iter (walk_expr cat acc) args
  | Sdeclare (_, _, init) -> Option.iter (walk_expr cat acc) init
  | Sdeclare_cursor (_, q) ->
      let sub = sub_analysis cat q in
      if not (SS.is_empty sub) then acc.a_cursor_temporal <- true;
      walk_query cat acc q
  | Sdeclare_handler h -> walk_stmt cat acc h
  | Sset (_, e) -> walk_expr cat acc e
  | Sselect_into (sel, _) -> walk_select cat acc sel
  | Sif (branches, els) ->
      List.iter
        (fun (c, body) ->
          walk_expr cat acc c;
          List.iter (walk_stmt cat acc) body)
        branches;
      Option.iter (List.iter (walk_stmt cat acc)) els
  | Scase_stmt (op, branches, els) ->
      Option.iter (walk_expr cat acc) op;
      List.iter
        (fun (c, body) ->
          walk_expr cat acc c;
          List.iter (walk_stmt cat acc) body)
        branches;
      Option.iter (List.iter (walk_stmt cat acc)) els
  | Swhile (_, c, body) ->
      walk_expr cat acc c;
      List.iter (walk_stmt cat acc) body
  | Srepeat (_, body, c) ->
      List.iter (walk_stmt cat acc) body;
      walk_expr cat acc c
  | Sfor f ->
      let sub = sub_analysis cat f.for_query in
      if not (SS.is_empty sub) then acc.a_cursor_temporal <- true;
      walk_query cat acc f.for_query;
      List.iter (walk_stmt cat acc) f.for_body
  | Sloop (_, body) -> List.iter (walk_stmt cat acc) body
  | Sleave _ | Siterate _ | Sopen _ | Sclose _ | Sfetch _ -> ()
  | Sreturn e -> Option.iter (walk_expr cat acc) e
  | Sreturn_query q -> walk_query cat acc q
  | Sbegin body -> List.iter (walk_stmt cat acc) body
  | Stemporal (_, s) ->
      acc.a_inner_modifier <- true;
      walk_stmt cat acc s

(* The temporal tables a single query reaches (fresh traversal). *)
and sub_analysis cat q : SS.t =
  let acc =
    {
      a_tables = SS.empty;
      a_routines = SS.empty;
      a_cursor_temporal = false;
      a_inner_modifier = false;
      a_views = [];
      visited = Hashtbl.create 8;
    }
  in
  walk_query cat acc q;
  SS.filter (is_temporal_table cat) acc.a_tables

let finish cat acc =
  let temporal_tables = SS.filter (is_temporal_table cat) acc.a_tables in
  (* A routine is temporal iff it reaches a temporal table. *)
  let temporal_routines =
    SS.filter
      (fun rname ->
        match Catalog.find_routine cat rname with
        | Some (_, r) ->
            let sub =
              {
                a_tables = SS.empty;
                a_routines = SS.empty;
                a_cursor_temporal = false;
                a_inner_modifier = false;
                a_views = [];
                visited = Hashtbl.create 8;
              }
            in
            List.iter (walk_stmt cat sub) r.r_body;
            SS.exists (is_temporal_table cat) sub.a_tables
        | None -> false)
      acc.a_routines
  in
  {
    tables = SS.map String.lowercase_ascii acc.a_tables;
    temporal_tables;
    routines = acc.a_routines;
    temporal_routines;
    has_cursor_over_temporal = acc.a_cursor_temporal;
    has_inner_modifier = acc.a_inner_modifier;
  }

let of_stmt cat (s : stmt) : t =
  let acc =
    {
      a_tables = SS.empty;
      a_routines = SS.empty;
      a_cursor_temporal = false;
      a_inner_modifier = false;
      a_views = [];
      visited = Hashtbl.create 8;
    }
  in
  walk_stmt cat acc s;
  finish cat acc

let of_query cat (q : query) : t = of_stmt cat (Squery q)

(* Does this routine (transitively) touch temporal data?  Drives the
   paper's optimization of not passing the period parameters to routines
   that never need them. *)
let routine_is_temporal cat name =
  match Catalog.find_routine cat name with
  | Some (_, r) ->
      let a = of_stmt cat (Sbegin r.r_body) in
      not (SS.is_empty a.temporal_tables)
  | None -> false

let temporal_tables_list a = SS.elements a.temporal_tables
let tables_list a = SS.elements a.tables
let routines_list a = SS.elements a.routines
