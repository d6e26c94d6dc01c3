(* Per-statement slicing (paper §VI, Figure 11).

   Each sequenced routine becomes a conventional routine ps_<name> that
   operates over temporal tables for a whole evaluation period [bt, et):

   - the signature gains two parameters taupsm_bt/taupsm_et, and the
     result becomes a temporal table: scalar functions return
     TABLE (taupsm_result, begin_time, end_time);
   - each *time-varying* local variable becomes a temporary "variable
     table" (value, begin_time, end_time);
   - SET is a sequenced delete (splice) followed by an insert of the
     sequenced value expression; RETURN accumulates into a result table,
     returned at the end of the body;
   - control flow over time-varying conditions is sliced: a generated
     loop over the condition's constant periods narrows the evaluation
     period statement by statement;
   - FOR loops and cursors over temporal queries are processed "on a
     per-period basis" through auxiliary tables (the paper's cost driver
     for q7/q7b), with cursor FETCH emulated by ORDER BY/OFFSET;
   - a *non-nested* FETCH — an outer cursor fetched from inside a sliced
     per-period region (benchmark q17b) — cannot be placed and raises
     {!Perst_unsupported}, as in the paper;
   - in the invoking query, a call f(args) becomes a lateral join with
     TABLE(ps_f(args, bt, et)), the result period being the intersection
     (LAST_INSTANCE of begins, FIRST_INSTANCE of ends) of all temporal
     participants, as in Figure 11.

   Statements whose sequenced semantics needs per-instant evaluation
   (aggregation, DISTINCT) are sliced *locally*: a single SQL statement
   joined with the runtime constant periods of just that statement's
   inputs — slicing at statement granularity rather than the query-global
   slicing of MAX. *)

open Sqlast.Ast
open Transform_util
module Catalog = Sqleval.Catalog
module Rewrite = Sqlast.Rewrite
module Value = Sqldb.Value
module SS = Set.Make (String)

exception Perst_unsupported of string

let unsupported fmt =
  Printf.ksprintf (fun s -> raise (Perst_unsupported s)) fmt

type plan = { prep : stmt list; routines : stmt list; main : stmt }

let plan_statements p = p.prep @ p.routines @ [ p.main ]

let val_col = "taupsm_val"
let bcol = Names.begin_col
let ecol = Names.end_col

(* The evaluation-period context threaded through statement generation:
   begin/end expressions and whether we are inside a sliced (per-period)
   region. *)
type pctx = { pb : expr; pe : expr; sliced : bool }

type rgen = {
  cat : Catalog.t;
  rname : string;  (* routine being transformed; "" for the main query *)
  is_temporal_routine : string -> bool;
  tv_vars : SS.t;  (* time-varying variables of this routine *)
  cursors : (string, cursor_info) Hashtbl.t;
  mutable local_temporal : SS.t;  (* temp tables created temporal in-body *)
  mutable counter : int;
  mutable handler_stmt : stmt option;  (* declared NOT FOUND handler *)
  mutable handler_flag : string option;  (* the flag it sets, if that shape *)
}

and cursor_info = { ci_query : query; ci_temporal : bool; ci_aux : string; ci_pos : string }

let fresh g prefix =
  g.counter <- g.counter + 1;
  Printf.sprintf "taupsm_%s_%s_%d" prefix (String.lowercase_ascii g.rname) g.counter

let lc = String.lowercase_ascii

let is_temporal_source g name =
  is_temporal_table g.cat name || SS.mem (lc name) g.local_temporal

(* ------------------------------------------------------------------ *)
(* Expression classification                                           *)
(* ------------------------------------------------------------------ *)

(* Does a query reach time-varying data, under this routine's context? *)
let rec query_is_temporal g (q : query) =
  List.exists (select_is_temporal g) (query_selects q)

and select_is_temporal g (s : select) =
  let rec from_is_temporal = function
    | Tref (name, _) -> (
        is_temporal_source g name
        ||
        match Catalog.from_view g.cat name with
        | Some vq -> query_is_temporal g vq
        | None -> false)
    | Tsub (q, _) -> query_is_temporal g q
    | Tfun (f, args, _) ->
        g.is_temporal_routine f || List.exists (expr_is_temporal g) args
    | Tjoin (l, _, r, on) ->
        from_is_temporal l || from_is_temporal r || expr_is_temporal g on
  in
  List.exists from_is_temporal s.from
  || List.exists
       (function Proj_expr (e, _) -> expr_is_temporal g e | _ -> false)
       s.proj
  || Option.fold ~none:false ~some:(expr_is_temporal g) s.where
  || List.exists (expr_is_temporal g) s.group_by
  || Option.fold ~none:false ~some:(expr_is_temporal g) s.having

and expr_is_temporal g (e : expr) =
  match e with
  | Lit _ -> false
  | Col (None, v) -> SS.mem (lc v) g.tv_vars
  | Col (Some _, _) -> false  (* resolved against the enclosing FROM *)
  | Binop (_, a, b) -> expr_is_temporal g a || expr_is_temporal g b
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> expr_is_temporal g a
  | Fun_call (name, args) ->
      g.is_temporal_routine name || List.exists (expr_is_temporal g) args
  | Agg (_, _, arg) -> Option.fold ~none:false ~some:(expr_is_temporal g) arg
  | Case c ->
      Option.fold ~none:false ~some:(expr_is_temporal g) c.case_operand
      || List.exists
           (fun (w, t) -> expr_is_temporal g w || expr_is_temporal g t)
           c.case_branches
      || Option.fold ~none:false ~some:(expr_is_temporal g) c.case_else
  | Exists q | Scalar_subquery q | In_pred (_, In_query q, _) ->
      query_is_temporal g q
  | In_pred (a, In_list es, _) ->
      expr_is_temporal g a || List.exists (expr_is_temporal g) es
  | Between (a, lo, hi, _) -> List.exists (expr_is_temporal g) [ a; lo; hi ]
  | Like (a, p, _) -> expr_is_temporal g a || expr_is_temporal g p

(* A select block needs local slicing (rather than the inline period-
   intersection form) when its value at an instant is not a join of
   per-participant rows: aggregation, DISTINCT, or temporal subqueries. *)
let rec block_needs_slicing g (s : select) =
  s.distinct || s.group_by <> [] || s.having <> None
  || List.exists
       (function
         | Proj_expr (e, _) -> expr_has_agg e || expr_has_temporal_subquery g e
         | _ -> false)
       s.proj
  || Option.fold ~none:false ~some:(expr_has_temporal_subquery g) s.where

and expr_has_agg (e : expr) =
  match e with
  | Agg _ -> true
  | Lit _ | Col _ -> false
  | Binop (_, a, b) -> expr_has_agg a || expr_has_agg b
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> expr_has_agg a
  | Fun_call (_, args) -> List.exists expr_has_agg args
  | Case c ->
      Option.fold ~none:false ~some:expr_has_agg c.case_operand
      || List.exists (fun (w, t) -> expr_has_agg w || expr_has_agg t) c.case_branches
      || Option.fold ~none:false ~some:expr_has_agg c.case_else
  | Exists _ | Scalar_subquery _ -> false
  | In_pred (a, In_list es, _) -> expr_has_agg a || List.exists expr_has_agg es
  | In_pred (a, In_query _, _) -> expr_has_agg a
  | Between (a, lo, hi, _) -> List.exists expr_has_agg [ a; lo; hi ]
  | Like (a, p, _) -> expr_has_agg a || expr_has_agg p

and expr_has_temporal_subquery g (e : expr) =
  match e with
  | Exists q | Scalar_subquery q | In_pred (_, In_query q, _) ->
      query_is_temporal g q
  | Lit _ | Col _ -> false
  | Binop (_, a, b) ->
      expr_has_temporal_subquery g a || expr_has_temporal_subquery g b
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> expr_has_temporal_subquery g a
  | Fun_call (_, args) -> List.exists (expr_has_temporal_subquery g) args
  | Agg (_, _, arg) ->
      Option.fold ~none:false ~some:(expr_has_temporal_subquery g) arg
  | Case c ->
      Option.fold ~none:false ~some:(expr_has_temporal_subquery g) c.case_operand
      || List.exists
           (fun (w, t) ->
             expr_has_temporal_subquery g w || expr_has_temporal_subquery g t)
           c.case_branches
      || Option.fold ~none:false ~some:(expr_has_temporal_subquery g) c.case_else
  | In_pred (a, In_list es, _) ->
      expr_has_temporal_subquery g a
      || List.exists (expr_has_temporal_subquery g) es
  | Between (a, lo, hi, _) -> List.exists (expr_has_temporal_subquery g) [ a; lo; hi ]
  | Like (a, p, _) ->
      expr_has_temporal_subquery g a || expr_has_temporal_subquery g p

(* ------------------------------------------------------------------ *)
(* Time-varying variable inference                                     *)
(* ------------------------------------------------------------------ *)

(* Fixpoint: a variable is time-varying iff some assignment to it has a
   time-varying source.  Cursor queries and OUT params of temporal
   procedures also propagate. *)
let infer_tv_vars cat ~is_temporal_routine (r : routine) : SS.t =
  (* Pre-pass: temporary tables created in the body become temporal under
     PERST, so reads from them count as time-varying sources. *)
  let local_temps = ref SS.empty in
  let cursor_queries = Hashtbl.create 4 in
  let rec pre_scan (s : stmt) =
    match s with
    | Sdeclare_cursor (c, q) -> Hashtbl.replace cursor_queries (lc c) q
    | Screate_table ct when ct.ct_temp ->
        local_temps := SS.add (lc ct.ct_name) !local_temps
    | Sif (bs, els) | Scase_stmt (_, bs, els) ->
        List.iter (fun (_, body) -> List.iter pre_scan body) bs;
        Option.iter (List.iter pre_scan) els
    | Swhile (_, _, body) | Sloop (_, body) | Sbegin body ->
        List.iter pre_scan body
    | Srepeat (_, body, _) -> List.iter pre_scan body
    | Sfor f -> List.iter pre_scan f.for_body
    | _ -> ()
  in
  List.iter pre_scan r.r_body;
  let g0 tv =
    {
      cat;
      rname = r.r_name;
      is_temporal_routine;
      tv_vars = tv;
      cursors = Hashtbl.create 4;
      local_temporal = !local_temps;
      counter = 0;
      handler_stmt = None;
      handler_flag = None;
    }
  in
  let tv = ref SS.empty in
  let changed = ref true in
  let add v =
    let v = lc v in
    if not (SS.mem v !tv) then begin
      tv := SS.add v !tv;
      changed := true
    end
  in
  (* A loop whose body fetches from a temporal cursor is rewritten into
     per-period form, so its whole body is a time-varying region. *)
  let rec has_temporal_fetch tv (s : stmt) =
    match s with
    | Sfetch (c, _) -> (
        match Hashtbl.find_opt cursor_queries (lc c) with
        | Some q -> query_is_temporal (g0 tv) q
        | None -> false)
    | Sif (bs, els) | Scase_stmt (_, bs, els) ->
        List.exists (fun (_, body) -> List.exists (has_temporal_fetch tv) body) bs
        || Option.fold ~none:false
             ~some:(List.exists (has_temporal_fetch tv))
             els
    | Swhile (_, _, body) | Sloop (_, body) | Sbegin body ->
        List.exists (has_temporal_fetch tv) body
    | Srepeat (_, body, _) -> List.exists (has_temporal_fetch tv) body
    | Sfor f -> List.exists (has_temporal_fetch tv) f.for_body
    | _ -> false
  in
  (* [in_tv] is true inside a region that will be sliced per period
     (temporal FOR loop, cursor loop, or control flow over a
     time-varying condition): any assignment there is per-period, so its
     target is time-varying even when the assigned expression is stable
     (e.g. a loop counter). *)
  let rec scan in_tv (s : stmt) =
    let g = g0 !tv in
    match s with
    | Sset (v, e) -> if in_tv || expr_is_temporal g e then add v
    | Sselect_into (sel, vars) ->
        if in_tv || select_is_temporal g sel then List.iter add vars
    | Sfetch (c, vars) -> (
        match Hashtbl.find_opt cursor_queries (lc c) with
        | Some q -> if in_tv || query_is_temporal g q then List.iter add vars
        | None -> if in_tv then List.iter add vars)
    | Sdeclare (vars, _, Some init) ->
        if expr_is_temporal g init then List.iter add vars
    | Scall (p, args) when is_temporal_routine p ->
        (* OUT positions become temporal. *)
        (match Catalog.find_procedure cat p with
        | Some proc ->
            List.iter2
              (fun prm arg ->
                match (prm.p_mode, arg) with
                | (Pout | Pinout), Col (None, v) -> add v
                | _ -> ())
              proc.r_params args
        | None -> ())
    | Sif (bs, els) ->
        let tv_cond =
          List.exists (fun (c, _) -> expr_is_temporal g c) bs
        in
        List.iter (fun (_, body) -> List.iter (scan (in_tv || tv_cond)) body) bs;
        Option.iter (List.iter (scan (in_tv || tv_cond))) els
    | Scase_stmt (op, bs, els) ->
        let tv_cond =
          Option.fold ~none:false ~some:(expr_is_temporal g) op
          || List.exists (fun (c, _) -> expr_is_temporal g c) bs
        in
        List.iter (fun (_, body) -> List.iter (scan (in_tv || tv_cond)) body) bs;
        Option.iter (List.iter (scan (in_tv || tv_cond))) els
    | Swhile (_, c, body) ->
        let tv_region =
          in_tv || expr_is_temporal g c
          || List.exists (has_temporal_fetch !tv) body
        in
        List.iter (scan tv_region) body
    | Srepeat (_, body, c) ->
        let tv_region =
          in_tv || expr_is_temporal g c
          || List.exists (has_temporal_fetch !tv) body
        in
        List.iter (scan tv_region) body
    | Sfor f ->
        List.iter (scan (in_tv || query_is_temporal g f.for_query)) f.for_body
    | Sloop (_, body) | Sbegin body ->
        let tv_region = in_tv || List.exists (has_temporal_fetch !tv) body in
        List.iter (scan tv_region) body
    | Sdeclare_handler h -> scan in_tv h
    | _ -> ()
  in
  while !changed do
    changed := false;
    List.iter (scan false) r.r_body
  done;
  !tv

(* ------------------------------------------------------------------ *)
(* Atoms: the temporal participants of an inline sequenced expression   *)
(* ------------------------------------------------------------------ *)

type atom = {
  a_src : table_ref;
  a_begin : expr;  (* this participant's begin-time expression *)
  a_end : expr;
}

let var_table_name g v = Names.var_table g.rname v

(* Rewrite a scalar expression for inline sequenced evaluation: each
   time-varying variable and each temporal function call becomes a FROM
   participant; the expression reads their value columns.  Fails (for
   the caller to fall back to slicing) on aggregates or temporal
   subqueries. *)
let rec collect_atoms g pc (e : expr) : expr * atom list =
  let atoms = ref [] in
  let add_atom src value_col =
    let alias =
      match src with
      | Tref (_, Some a) | Tsub (_, a) | Tfun (_, _, a) -> a
      | Tref (n, None) -> n
      | Tjoin _ -> assert false  (* atoms are always plain sources *)
    in
    atoms :=
      {
        a_src = src;
        a_begin = Col (Some alias, bcol);
        a_end = Col (Some alias, ecol);
      }
      :: !atoms;
    Col (Some alias, value_col)
  in
  let rec go (e : expr) : expr =
    match e with
    | Col (None, v) when SS.mem (lc v) g.tv_vars ->
        let alias = fresh g "w" in
        add_atom (Tref (var_table_name g v, Some alias)) val_col
    | Fun_call (name, args) when g.is_temporal_routine name ->
        let args = List.map go args in
        let alias = fresh g "f" in
        add_atom
          (Tfun (Names.ps name, args @ [ pc.pb; pc.pe ], alias))
          Names.ps_result_col
    | Agg _ -> unsupported "aggregate in an inline sequenced expression"
    | Exists q | In_pred (_, In_query q, _) when query_is_temporal g q ->
        unsupported "temporal subquery in an inline sequenced expression"
    | Scalar_subquery q when query_is_temporal g q ->
        (* A temporal scalar subquery joins as a derived-table
           participant (its sequenced form has value + period columns). *)
        let sq = seq_simple_query g pc q ~result_col:val_col in
        let alias = fresh g "q" in
        add_atom (Tsub (sq, alias)) val_col
    | _ -> Rewrite.default_expr go_mapper e
  and go_mapper =
    { Rewrite.default with expr = (fun _ e -> go e) }
  in
  let e' = go e in
  (e', List.rev !atoms)

(* The sequenced form of a *simple* single-block query (no aggregation /
   DISTINCT / temporal subqueries): join all temporal participants, the
   result valid over the intersection of their periods clipped to the
   evaluation period. *)
and seq_simple_query g pc (q : query) ~result_col : query =
  match q with
  | Select s -> Select (seq_simple_select g pc ~result_col:(Some result_col) s)
  | _ -> unsupported "set operation in an inline sequenced expression"

and seq_simple_select g pc ?(extra_atoms = []) ~result_col (s : select) : select
    =
  if block_needs_slicing g s then
    unsupported "block needs per-period slicing (inline form requested)";
  let atoms = ref extra_atoms in
  (* FROM: keep conventional sources; temporal ones become participants. *)
  let from =
    List.map
      (fun tr ->
        match tr with
        | Tref (name, alias) when is_temporal_source g name ->
            let a = Option.value alias ~default:name in
            atoms :=
              {
                a_src = tr;
                a_begin = Col (Some a, bcol);
                a_end = Col (Some a, ecol);
              }
              :: !atoms;
            tr
        | Tref (name, alias) -> (
            match Catalog.from_view g.cat name with
            | Some vq when query_is_temporal g vq ->
                let a = Option.value alias ~default:name in
                (* One allocation: the atom's source must be physically
                   the FROM item, or the dedup below would double it. *)
                let tr' = Tsub (seq_view_query g pc vq, a) in
                atoms :=
                  {
                    a_src = tr';
                    a_begin = Col (Some a, bcol);
                    a_end = Col (Some a, ecol);
                  }
                  :: !atoms;
                tr'
            | _ -> tr)
        | Tsub (q, a) ->
            if query_is_temporal g q then begin
              let tr' = Tsub (seq_view_query g pc q, a) in
              atoms :=
                {
                  a_src = tr';
                  a_begin = Col (Some a, bcol);
                  a_end = Col (Some a, ecol);
                }
                :: !atoms;
              tr'
            end
            else tr
        | Tfun (f, args, a) when g.is_temporal_routine f ->
            let args', arg_atoms = collect_atoms_list g pc args in
            if arg_atoms <> [] then
              unsupported "time-varying argument to a table function in FROM";
            let tr' = Tfun (Names.ps f, args' @ [ pc.pb; pc.pe ], a) in
            atoms :=
              {
                a_src = tr';
                a_begin = Col (Some a, bcol);
                a_end = Col (Some a, ecol);
              }
              :: !atoms;
            tr'
        | Tfun _ -> tr
        | Tjoin (_, _, _, _) ->
            (* Inner joins are normalized away before PERST runs; a
               remaining join is a LEFT JOIN, whose null-extension the
               period-intersection form cannot express. *)
            unsupported "outer join under per-statement slicing (MAX applies)")
      s.from
  in
  (* Rewrite WHERE and the projection, accumulating new atoms for
     time-varying variables and scalar function calls. *)
  let rewrite e =
    let e', new_atoms = collect_atoms g pc e in
    atoms := new_atoms @ !atoms;
    e'
  in
  let where = Option.map rewrite s.where in
  let proj =
    List.map
      (function
        | Proj_expr (e, a) ->
            let e' = rewrite e in
            Proj_expr (e', a)
        | p -> p)
      s.proj
  in
  let atoms = List.rev !atoms in
  let from =
    from
    @ List.filter_map
        (fun a ->
          (* Atoms sourced from this block's own FROM are already there. *)
          if List.memq a.a_src from then None else Some a.a_src)
        atoms
  in
  let begins = List.map (fun a -> a.a_begin) atoms @ [ pc.pb ] in
  let ends = List.map (fun a -> a.a_end) atoms @ [ pc.pe ] in
  let b_expr = last_instance begins and e_expr = first_instance ends in
  let proj =
    (match result_col with
    | Some rc -> (
        match proj with
        | [ Proj_expr (e, _) ] -> [ Proj_expr (e, Some rc) ]
        | _ -> unsupported "inline sequenced value must project one column")
    | None -> proj)
    @ [ Proj_expr (b_expr, Some bcol); Proj_expr (e_expr, Some ecol) ]
  in
  let where = add_conjunct where (Binop (Lt, b_expr, e_expr)) in
  { s with proj; from; where }

and collect_atoms_list g pc es =
  List.fold_right
    (fun e (es', atoms) ->
      let e', a = collect_atoms g pc e in
      (e' :: es', a @ atoms))
    es ([], [])

(* A temporal view / derived table, sequenced: its SELECT list keeps the
   original columns and appends begin_time/end_time. *)
and seq_view_query g pc (q : query) : query =
  match q with
  | Select s -> Select (seq_simple_select g pc ~result_col:None s)
  | Union (all, a, b) -> Union (all, seq_view_query g pc a, seq_view_query g pc b)
  | _ -> unsupported "EXCEPT/INTERSECT in a temporal view under PERST"

(* ------------------------------------------------------------------ *)
(* Locally-sliced select: one SQL statement joined with the runtime     *)
(* constant periods of its own inputs                                   *)
(* ------------------------------------------------------------------ *)

(* Build the points temp table for a set of sources (tables whose
   begin/end columns contribute event points). *)
let points_prep g (sources : string list) : string * stmt =
  let pts = fresh g "pts" in
  let one_select col t =
    Select
      {
        select_default with
        proj = [ Proj_expr (Col (None, col), Some "time_point") ];
        from = [ Tref (t, None) ];
      }
  in
  let selects = List.concat_map (fun t -> [ one_select bcol t; one_select ecol t ]) sources in
  let q =
    match selects with
    | [] ->
        Select
          {
            select_default with
            proj = [ Proj_expr (current_date, Some "time_point") ];
            where = Some (Lit (Value.Bool false));
          }
    | s :: rest -> List.fold_left (fun acc s' -> Union (false, acc, s')) s rest
  in
  ( pts,
    Screate_table
      { ct_name = pts; ct_cols = []; ct_temporal = false; ct_transaction = false; ct_temp = true; ct_constraints = []; ct_as = Some q } )

(* Value of an expression at a single instant [at]: time-varying
   variables become timeslice lookups, temporal function calls evaluate
   over the one-granule period [at, at+1), temporal tables in subqueries
   get validity predicates. *)
let rec value_at g (at : expr) (e : expr) : expr =
  let m =
    {
      Rewrite.default with
      expr =
        (fun m e ->
          match e with
          | Col (None, v) when SS.mem (lc v) g.tv_vars ->
              Scalar_subquery
                (Select
                   {
                     select_default with
                     proj = [ Proj_expr (Col (None, val_col), None) ];
                     from = [ Tref (var_table_name g v, None) ];
                     where =
                       Some
                         (Binop (Le, Col (None, bcol), at)
                         &&& Binop (Lt, at, Col (None, ecol)));
                   })
          | Fun_call (name, args) when g.is_temporal_routine name ->
              let args = List.map (m.Rewrite.expr m) args in
              let alias = fresh g "fa" in
              Scalar_subquery
                (Select
                   {
                     select_default with
                     proj = [ Proj_expr (Col (Some alias, Names.ps_result_col), None) ];
                     from =
                       [
                         Tfun
                           ( Names.ps name,
                             args @ [ at; Binop (Add, at, Lit (Value.Int 1)) ],
                             alias );
                       ];
                   })
          | _ -> Rewrite.default_expr m e);
      select =
        (fun m s ->
          let s = Rewrite.default_select m s in
          let preds =
            List.filter_map
              (function
                | Tref (name, alias) when is_temporal_source g name ->
                    Some (valid_at ~alias:(Option.value alias ~default:name) at)
                | _ -> None)
              s.from
          in
          { s with where = List.fold_left add_conjunct s.where preds });
    }
  in
  m.Rewrite.expr m e

(* The sources (base tables, local temporal temps, variable tables) whose
   changes can affect this expression/select — they feed the points
   table for local slicing. *)
and slicing_sources g (e_or_s : [ `Expr of expr | `Select of select ]) :
    string list =
  let acc = ref SS.empty in
  let add name = acc := SS.add (lc name) !acc in
  let expr m e =
    (match e with
    | Col (None, v) when SS.mem (lc v) g.tv_vars -> add (var_table_name g v)
    | Fun_call (name, _) when g.is_temporal_routine name ->
        (* The function's own inputs: its reachable temporal tables. *)
        let a = Analysis.of_stmt g.cat (Squery (Select { select_default with proj = [Proj_expr (e, None)] })) in
        List.iter add (Analysis.temporal_tables_list a)
    | _ -> ());
    Rewrite.default_expr m e
  in
  let select m s =
    List.iter
      (function
        | Tref (name, _) when is_temporal_source g name -> add name
        | Tref (name, _) -> (
            match Catalog.from_view g.cat name with
            | Some vq ->
                let a = Analysis.of_query g.cat vq in
                List.iter add (Analysis.temporal_tables_list a)
            | None -> ())
        | _ -> ())
      s.from;
    Rewrite.default_select m s
  in
  let m = { Rewrite.default with expr; select } in
  (match e_or_s with
  | `Expr e -> ignore (m.Rewrite.expr m e)
  | `Select s -> ignore (m.Rewrite.select m s));
  SS.elements !acc

(* A select block evaluated per constant period of its own inputs: one
   query cross-joined with the runtime constant periods. *)
and sliced_select g pc (s : select) : stmt list * select =
  let pure_aggregate =
    s.group_by = [] && s.having = None && not s.distinct
    && List.for_all (function Proj_expr _ -> true | _ -> false) s.proj
    && List.exists
         (function Proj_expr (e, _) -> expr_has_agg e | _ -> false)
         s.proj
  in
  if pure_aggregate then sliced_select_scalarized g pc s
  else sliced_select_joined g pc s

(* A pure-aggregate block: one scalar subquery per projection item,
   evaluated at each constant period — preserves SQL's empty-aggregate
   semantics (a row per period even when no input row qualifies). *)
and sliced_select_scalarized g pc (s : select) : stmt list * select =
  let sources = slicing_sources g (`Select s) in
  let pts, prep = points_prep g sources in
  let cps = fresh g "cps" in
  let at = Col (Some cps, bcol) in
  let proj =
    List.map
      (function
        | Proj_expr (e, a) ->
            let sub =
              Select { s with proj = [ Proj_expr (e, None) ]; order_by = [] }
            in
            Proj_expr (value_at g at (Scalar_subquery sub), a)
        | p -> p)
      s.proj
    @ [
        Proj_expr (Col (Some cps, bcol), Some bcol);
        Proj_expr (Col (Some cps, ecol), Some ecol);
      ]
  in
  ( [ prep ],
    {
      select_default with
      proj;
      from =
        [
          Tfun
            (Names.constant_periods_fun, [ Lit (Value.Str pts); pc.pb; pc.pe ], cps);
        ];
      order_by = s.order_by;
    } )

and sliced_select_joined g pc (s : select) : stmt list * select =
  let sources = slicing_sources g (`Select s) in
  let pts, prep = points_prep g sources in
  let cps = fresh g "cps" in
  let at = Col (Some cps, bcol) in
  (* Validity predicates for this block's temporal tables, and instant
     rewrites for variables/functions/subqueries. *)
  let preds =
    List.filter_map
      (function
        | Tref (name, alias) when is_temporal_source g name ->
            Some (valid_at ~alias:(Option.value alias ~default:name) at)
        | _ -> None)
      s.from
  in
  let rw e = value_at g at e in
  let proj =
    List.map
      (function Proj_expr (e, a) -> Proj_expr (rw e, a) | p -> p)
      s.proj
  in
  let where = List.fold_left add_conjunct (Option.map rw s.where) preds in
  let group_by = List.map rw s.group_by in
  let having = Option.map rw s.having in
  let grouped =
    group_by <> [] || having <> None
    || List.exists
         (function Proj_expr (e, _) -> expr_has_agg e | _ -> false)
         proj
  in
  let from =
    s.from
    @ [
        Tfun
          ( Names.constant_periods_fun,
            [ Lit (Value.Str pts); pc.pb; pc.pe ],
            cps );
      ]
  in
  let proj =
    proj
    @ [
        Proj_expr (Col (Some cps, bcol), Some bcol);
        Proj_expr (Col (Some cps, ecol), Some ecol);
      ]
  in
  let group_by =
    if grouped then group_by @ [ Col (Some cps, bcol); Col (Some cps, ecol) ]
    else group_by
  in
  ([ prep ], { s with proj; from; where; group_by; having })

(* The sequenced form of a select, choosing inline vs locally-sliced.
   Returns prep statements and the query; the result has the original
   columns plus begin_time/end_time. *)
and seq_select g pc (s : select) : stmt list * query =
  if block_needs_slicing g s then
    let prep, s' = sliced_select g pc s in
    (prep, Select s')
  else ([], Select (seq_simple_select g pc ~result_col:None s))

(* The sequenced single-column value of an expression over the current
   evaluation period: prep statements plus a query producing
   (taupsm_val, begin_time, end_time). *)
and seq_value g pc (e : expr) : stmt list * query =
  match e with
  | Scalar_subquery (Select s) when select_is_temporal g s ->
      if block_needs_slicing g s then
        (* Evaluate the whole scalar subquery once per constant period of
           its inputs.  The scalarized form keeps SQL's empty-aggregate
           semantics (COUNT over no rows is 0, not an absent row). *)
        let sources = slicing_sources g (`Select s) in
        let pts, prep = points_prep g sources in
        let cps = fresh g "cps" in
        let at = Col (Some cps, bcol) in
        ( [ prep ],
          Select
            {
              select_default with
              proj =
                [
                  Proj_expr (value_at g at (Scalar_subquery (Select s)), Some val_col);
                  Proj_expr (Col (Some cps, bcol), Some bcol);
                  Proj_expr (Col (Some cps, ecol), Some ecol);
                ];
              from =
                [
                  Tfun
                    ( Names.constant_periods_fun,
                      [ Lit (Value.Str pts); pc.pb; pc.pe ],
                      cps );
                ];
            } )
      else ([], Select (seq_simple_select g pc ~result_col:(Some val_col) s))
  | _ ->
      let e', atoms = collect_atoms g pc e in
      if atoms = [] then
        ( [],
          Select
            {
              select_default with
              proj =
                [
                  Proj_expr (e', Some val_col);
                  Proj_expr (pc.pb, Some bcol);
                  Proj_expr (pc.pe, Some ecol);
                ];
            } )
      else begin
        let begins = List.map (fun a -> a.a_begin) atoms @ [ pc.pb ] in
        let ends = List.map (fun a -> a.a_end) atoms @ [ pc.pe ] in
        let b_expr = last_instance begins and e_expr = first_instance ends in
        ( [],
          Select
            {
              select_default with
              proj =
                [
                  Proj_expr (e', Some val_col);
                  Proj_expr (b_expr, Some bcol);
                  Proj_expr (e_expr, Some ecol);
                ];
              from = List.map (fun a -> a.a_src) atoms;
              where = Some (Binop (Lt, b_expr, e_expr));
            } )
      end

(* ------------------------------------------------------------------ *)
(* Variable-table splicing                                             *)
(* ------------------------------------------------------------------ *)

(* Remove a variable's validity within [pb, pe), keeping the clipped
   remnants outside (the sequenced DELETE of the paper's assignment
   transformation). *)
let splice_out ~table ~cols pc : stmt list =
  let overlaps =
    Binop (Lt, Col (None, bcol), pc.pe) &&& Binop (Lt, pc.pb, Col (None, ecol))
  in
  let remnant where lo hi =
    Sinsert
      ( table,
        None,
        Iquery
          (Select
             {
               select_default with
               proj =
                 List.map (fun c -> Proj_expr (Col (None, c), None)) cols
                 @ [ Proj_expr (lo, None); Proj_expr (hi, None) ];
               from = [ Tref (table, None) ];
               where = Some where;
             }) )
  in
  [
    (* Left remnant [begin, pb) of rows straddling pb. *)
    remnant
      (Binop (Lt, Col (None, bcol), pc.pb) &&& Binop (Lt, pc.pb, Col (None, ecol)))
      (Col (None, bcol)) pc.pb;
    (* Right remnant [pe, end) of rows straddling pe. *)
    remnant
      (Binop (Lt, Col (None, bcol), pc.pe) &&& Binop (Lt, pc.pe, Col (None, ecol)))
      pc.pe (Col (None, ecol));
    Sdelete (table, Some overlaps);
  ]

(* SET v = e over the current period: materialize the sequenced value
   (which may read v's own table, e.g. SET n = n + 1), splice out the
   old validity, then insert the new rows. *)
let assign_tv g pc v (e : expr) : stmt list =
  let table = var_table_name g v in
  let prep, vq = seq_value g pc e in
  let staging = fresh g "set" in
  prep
  @ [
      Screate_table
        { ct_name = staging; ct_cols = []; ct_temporal = false; ct_transaction = false; ct_temp = true; ct_constraints = [];
          ct_as = Some vq };
    ]
  @ splice_out ~table ~cols:[ val_col ] pc
  @ [
      Sinsert
        ( table,
          None,
          Iquery
            (Select
               { select_default with proj = [ Star ]; from = [ Tref (staging, None) ] })
        );
    ]

(* ------------------------------------------------------------------ *)
(* Statement transformation                                            *)
(* ------------------------------------------------------------------ *)

let var_table_def ty =
  [
    { cd_name = val_col; cd_ty = ty };
    { cd_name = bcol; cd_ty = Value.Tdate };
    { cd_name = ecol; cd_ty = Value.Tdate };
  ]

let create_var_table g v ty : stmt =
  Screate_table
    {
      ct_name = var_table_name g v;
      ct_cols = var_table_def ty;
      ct_temporal = false; ct_transaction = false;
      ct_temp = true; ct_constraints = [];
      ct_as = None;
    }

(* Statement-sequence transformation.  Sequences of the cursor-loop
   idiom

     OPEN c; FETCH c INTO vars; WHILE flag = 0 DO body; FETCH ... END
     (or the LOOP/LEAVE variant)

   are rewritten as the paper describes (§VI-C): two loops, the outer
   over the constant periods of the cursor's sequenced query, the inner
   over the tuples within each constant period, the loop body evaluated
   with the constant period as its evaluation period. *)
let rec xstmts g pc (stmts : stmt list) : stmt list =
  match stmts with
  | Sopen c :: rest when cursor_is_temporal g c -> (
      match match_cursor_loop g c rest with
      | Some (prime_vars, label, body, leftover) ->
          (* Left-to-right sequencing matters: [xstmt] mutates the
             generator state (cursor registry, name counter). *)
          let here = two_loop_rewrite g pc c ~vars:prime_vars ~label ~body in
          here @ xstmts g pc leftover
      | None ->
          let here = xstmt g pc (Sopen c) in
          here @ xstmts g pc rest)
  | s :: rest ->
      let here = xstmt g pc s in
      here @ xstmts g pc rest
  | [] -> []

and cursor_is_temporal g c =
  match Hashtbl.find_opt g.cursors (lc c) with
  | Some ci -> ci.ci_temporal
  | None -> false

(* Recognize [FETCH c INTO vars; (WHILE cond DO body END | label: LOOP
   body END)] right after OPEN c. *)
and match_cursor_loop _g c rest =
  match rest with
  | Sfetch (c', vars) :: Swhile (_, _cond, body) :: tail
    when lc c' = lc c ->
      Some (vars, None, body, tail)
  | Sfetch (c', vars) :: Sloop (label, body) :: tail when lc c' = lc c ->
      Some (vars, label, body, tail)
  | _ -> None

(* Strip the idiom's bookkeeping from the loop body: top-level re-FETCHes
   of this cursor, and IF <handler-flag test> THEN LEAVE/ITERATE blocks.
   Deeper fetches of the cursor remain and will be rejected as
   non-nested FETCHes during transformation. *)
and strip_cursor_bookkeeping g c (body : stmt list) : stmt list =
  let is_flag_test e =
    match (g.handler_flag, e) with
    | Some flag, Binop ((Eq | Neq), Col (None, v), Lit _) -> lc v = lc flag
    | _ -> false
  in
  List.filter
    (fun s ->
      match s with
      | Sfetch (c', _) when lc c' = lc c -> false
      | Sif ([ (cond, [ (Sleave _ | Siterate _) ]) ], None)
        when is_flag_test cond ->
          false
      | _ -> true)
    body

and two_loop_rewrite g pc c ~vars ~label ~body : stmt list =
  let ci = Hashtbl.find g.cursors (lc c) in
  let sel =
    match ci.ci_query with
    | Select s -> s
    | _ -> unsupported "set operation in a cursor query"
  in
  (* Materialize the sequenced cursor query, then its event points. *)
  let prep, q = seq_select g pc sel in
  let create_aux =
    Screate_table
      { ct_name = ci.ci_aux; ct_cols = []; ct_temporal = false; ct_transaction = false; ct_temp = true; ct_constraints = [];
        ct_as = Some q }
  in
  let pts, pts_prep = points_prep g [ ci.ci_aux ] in
  let cps = fresh g "cps" in
  let pb_name = fresh g "pb" and pe_name = fresh g "pe" in
  let outer_query =
    Select
      {
        select_default with
        proj =
          [
            Proj_expr (Col (Some cps, bcol), Some pb_name);
            Proj_expr (Col (Some cps, ecol), Some pe_name);
          ];
        from =
          [
            Tfun
              (Names.constant_periods_fun, [ Lit (Value.Str pts); pc.pb; pc.pe ], cps);
          ];
        order_by = [ (Col (Some cps, bcol), Asc) ];
      }
  in
  let pc' = { pb = Col (None, pb_name); pe = Col (None, pe_name); sliced = true } in
  (* Tuples of the aux table valid in this constant period. *)
  let inner_query =
    Select
      {
        select_default with
        proj = [ Star ];
        from = [ Tref (ci.ci_aux, None) ];
        where =
          Some
            (Binop (Le, Col (None, bcol), Col (None, pb_name))
            &&& Binop (Lt, Col (None, pb_name), Col (None, ecol)));
      }
  in
  let out_cols =
    List.mapi
      (fun i p ->
        match p with
        | Proj_expr (_, Some a) -> a
        | Proj_expr (Col (_, cn), None) -> cn
        | _ -> Printf.sprintf "col%d" i)
      sel.proj
  in
  let assigns =
    List.concat
      (List.map2
         (fun v col ->
           if not (SS.mem (lc v) g.tv_vars) then
             unsupported "FETCH INTO a stable variable from temporal data"
           else
             splice_out ~table:(var_table_name g v) ~cols:[ val_col ] pc'
             @ [
                 Sinsert
                   ( var_table_name g v,
                     None,
                     Ivalues [ [ Col (None, col); pc'.pb; pc'.pe ] ] );
               ])
         vars out_cols)
  in
  let body' = xstmts g pc' (strip_cursor_bookkeeping g c body) in
  let inner_for =
    Sfor { for_label = label; for_query = inner_query; for_body = assigns @ body' }
  in
  let outer_for =
    Sfor { for_label = None; for_query = outer_query; for_body = [ inner_for ] }
  in
  prep @ [ create_aux; pts_prep; outer_for ]
  @
  (* Post-loop code sees the cursor as exhausted. *)
  match g.handler_flag with
  | Some flag -> [ Sset (flag, lit_int 1) ]
  | None -> []

and xstmt g pc (s : stmt) : stmt list =
  match s with
  | Sdeclare (vars, ty, init) ->
      List.concat_map
        (fun v ->
          if SS.mem (lc v) g.tv_vars then
            create_var_table g v ty
            ::
            (match init with
            | Some e -> assign_tv g pc v e
            | None -> [])
          else [ Sdeclare ([ v ], ty, init) ])
        vars
  | Sset (v, e) ->
      if SS.mem (lc v) g.tv_vars then assign_tv g pc v e else [ s ]
  | Sselect_into (sel, vars) ->
      if not (select_is_temporal g sel) then [ s ]
      else begin
        (* Materialize the sequenced select, then splice each variable
           from its column. *)
        let prep, q = seq_select g pc sel in
        let aux = fresh g "aux" in
        let create =
          Screate_table
            { ct_name = aux; ct_cols = []; ct_temporal = false; ct_transaction = false; ct_temp = true; ct_constraints = [];
              ct_as = Some q }
        in
        let out_cols =
          (* The materialized query projects the original columns then
             the period; variables match positionally. *)
          match sel.proj with
          | ps
            when List.for_all (function Proj_expr _ -> true | _ -> false) ps
            ->
              List.mapi
                (fun i p ->
                  match p with
                  | Proj_expr (_, Some a) -> a
                  | Proj_expr (Col (_, c), None) -> c
                  | _ -> Printf.sprintf "col%d" i)
                ps
          | _ -> unsupported "SELECT INTO with * projection"
        in
        let assigns =
          List.concat
            (List.map2
               (fun v col ->
                 if not (SS.mem (lc v) g.tv_vars) then
                   unsupported
                     "SELECT INTO a stable variable from temporal data"
                 else
                   splice_out ~table:(var_table_name g v) ~cols:[ val_col ] pc
                   @ [
                       Sinsert
                         ( var_table_name g v,
                           None,
                           Iquery
                             (Select
                                {
                                  select_default with
                                  proj =
                                    [
                                      Proj_expr (Col (None, col), None);
                                      Proj_expr (Col (None, bcol), None);
                                      Proj_expr (Col (None, ecol), None);
                                    ];
                                  from = [ Tref (aux, None) ];
                                }) );
                     ])
               vars out_cols)
        in
        prep @ [ create ] @ assigns
      end
  | Squery q ->
      if query_is_temporal g (Select { select_default with proj = [Star]; from = [Tsub (q, "x")] })
      then begin
        match q with
        | Select sel ->
            let prep, q' = seq_select g pc sel in
            prep @ [ Squery q' ]
        | _ -> [ s ]
      end
      else [ s ]
  | Sif (branches, els) ->
      let conds_stable =
        List.for_all (fun (c, _) -> not (expr_is_temporal g c)) branches
      in
      if conds_stable then
        [
          Sif
            ( List.map (fun (c, body) -> (c, xstmts g pc body)) branches,
              Option.map (xstmts g pc) els );
        ]
      else
        sliced_control g pc
          ~sources:
            (List.concat_map (fun (c, _) -> slicing_sources g (`Expr c)) branches)
          (fun pc' at ->
            [
              Sif
                ( List.map
                    (fun (c, body) -> (value_at g at c, xstmts g pc' body))
                    branches,
                  Option.map (xstmts g pc') els );
            ])
  | Scase_stmt (operand, branches, els) ->
      let temporal =
        Option.fold ~none:false ~some:(expr_is_temporal g) operand
        || List.exists (fun (c, _) -> expr_is_temporal g c) branches
      in
      if not temporal then
        [
          Scase_stmt
            ( operand,
              List.map (fun (c, body) -> (c, xstmts g pc body)) branches,
              Option.map (xstmts g pc) els );
        ]
      else begin
        (* Convert to an IF chain and slice uniformly. *)
        let conds =
          match operand with
          | Some op -> List.map (fun (w, body) -> (Binop (Eq, op, w), body)) branches
          | None -> branches
        in
        xstmt g pc (Sif (conds, els))
      end
  | Swhile (label, cond, body) ->
      if not (expr_is_temporal g cond) then
        [ Swhile (label, cond, xstmts g pc body) ]
      else
        (* The paper's two-loop form: outer over constant periods of the
           condition's inputs, inner WHILE re-evaluating the condition at
           the period start (variable tables are re-read each test). *)
        sliced_control g pc ~sources:(slicing_sources g (`Expr cond))
          (fun pc' at ->
            [ Swhile (label, value_at g at cond, xstmts g pc' body) ])
  | Srepeat (label, body, cond) ->
      if not (expr_is_temporal g cond) then
        [ Srepeat (label, xstmts g pc body, cond) ]
      else
        sliced_control g pc ~sources:(slicing_sources g (`Expr cond))
          (fun pc' at ->
            [ Srepeat (label, xstmts g pc' body, value_at g at cond) ])
  | Sfor f ->
      if not (query_is_temporal g f.for_query) then
        [ Sfor { f with for_body = xstmts g pc f.for_body } ]
      else begin
        (* Per-period processing through an auxiliary table: the paper's
           PERST cost driver for cursor-style queries. *)
        let sel =
          match f.for_query with
          | Select s -> s
          | _ -> unsupported "set operation in a FOR loop query"
        in
        let prep, q = seq_select g pc sel in
        let aux = fresh g "aux" in
        let create =
          Screate_table
            { ct_name = aux; ct_cols = []; ct_temporal = false; ct_transaction = false; ct_temp = true; ct_constraints = [];
              ct_as = Some q }
        in
        let pb_name = fresh g "pb" and pe_name = fresh g "pe" in
        let loop_query =
          Select
            {
              select_default with
              proj =
                [
                  Star;
                  Proj_expr (Col (None, bcol), Some pb_name);
                  Proj_expr (Col (None, ecol), Some pe_name);
                ];
              from = [ Tref (aux, None) ];
              order_by = [ (Col (None, bcol), Asc) ];
            }
        in
        let pc' =
          { pb = Col (None, pb_name); pe = Col (None, pe_name); sliced = true }
        in
        prep @ [ create ]
        @ [
            Sfor
              {
                for_label = f.for_label;
                for_query = loop_query;
                for_body = xstmts g pc' f.for_body;
              };
          ]
      end
  | Sloop (label, body) -> [ Sloop (label, xstmts g pc body) ]
  | Sdeclare_cursor (c, q) ->
      let temporal = query_is_temporal g q in
      let aux = fresh g "cur" in
      let pos = fresh g "pos" in
      Hashtbl.replace g.cursors (lc c)
        { ci_query = q; ci_temporal = temporal; ci_aux = aux; ci_pos = pos };
      if temporal then [ Sdeclare ([ pos ], Value.Tint, Some (lit_int 0)) ]
      else [ s ]
  | Sopen c -> (
      match Hashtbl.find_opt g.cursors (lc c) with
      | Some ci when ci.ci_temporal ->
          let sel =
            match ci.ci_query with
            | Select s -> s
            | _ -> unsupported "set operation in a cursor query"
          in
          let prep, q = seq_select g pc sel in
          prep
          @ [
              Screate_table
                { ct_name = ci.ci_aux; ct_cols = []; ct_temporal = false; ct_transaction = false;
                  ct_temp = true; ct_constraints = []; ct_as = Some q };
              Sset (ci.ci_pos, lit_int 0);
            ]
      | _ -> [ s ])
  | Sclose c -> (
      match Hashtbl.find_opt g.cursors (lc c) with
      | Some ci when ci.ci_temporal -> [ Sset (ci.ci_pos, lit_int 0) ]
      | _ -> [ s ])
  | Sfetch (c, vars) -> (
      match Hashtbl.find_opt g.cursors (lc c) with
      | Some ci when ci.ci_temporal -> fetch_tv g pc ci vars
      | _ -> [ s ])
  | Scall (p, args) when g.is_temporal_routine p -> call_tv g pc p args
  | Scall _ -> [ s ]
  | Sreturn (Some e) ->
      let prep, vq = seq_value g pc e in
      (* Rename the value column to the routine's result column. *)
      let vq =
        map_query_selects
          (fun s ->
            match s.proj with
            | Proj_expr (v, _) :: rest ->
                { s with proj = Proj_expr (v, Some Names.ps_result_col) :: rest }
            | _ -> s)
          vq
      in
      prep @ [ Sinsert (Names.ret_table g.rname, None, Iquery vq) ]
  | Sreturn None -> [ s ]
  | Sreturn_query q -> (
      (* A table function: its sequenced result carries periods. *)
      match q with
      | Select sel ->
          let prep, q' = seq_select g pc sel in
          prep @ [ Sinsert (Names.ret_table g.rname, None, Iquery q') ]
      | _ -> unsupported "set operation in RETURN TABLE under PERST")
  | Sbegin body -> [ Sbegin (xstmts g pc body) ]
  | Screate_table ct when ct.ct_temp ->
      (* A temporary table created inside a sequenced routine becomes
         temporal-shaped; later statements treat it as a temporal
         source (benchmark q11). *)
      g.local_temporal <- SS.add (lc ct.ct_name) g.local_temporal;
      (match ct.ct_as with
      | Some (Select sel) when select_is_temporal g sel ->
          let prep, q = seq_select g pc sel in
          prep @ [ Screate_table { ct with ct_as = Some q; ct_temporal = true } ]
      | Some _ | None -> (
          match ct.ct_cols with
          | [] -> [ Screate_table ct ]
          | cols ->
              [
                Screate_table
                  {
                    ct with
                    ct_cols =
                      cols
                      @ [
                          { cd_name = bcol; cd_ty = Value.Tdate };
                          { cd_name = ecol; cd_ty = Value.Tdate };
                        ];
                  };
              ]))
  | Sinsert (t, cols, src) when SS.mem (lc t) g.local_temporal -> (
      match src with
      | Iquery (Select sel) when select_is_temporal g sel ->
          let prep, q = seq_select g pc sel in
          (* The sequenced query already appends the period columns. *)
          let cols = Option.map (fun cs -> cs @ [ bcol; ecol ]) cols in
          prep @ [ Sinsert (t, cols, Iquery q) ]
      | Iquery _ | Ivalues _ ->
          (* Constant rows: valid over the whole evaluation period. *)
          (match src with
          | Ivalues rows ->
              [
                Sinsert
                  ( t,
                    Option.map (fun cs -> cs @ [ bcol; ecol ]) cols,
                    Ivalues (List.map (fun vs -> vs @ [ pc.pb; pc.pe ]) rows) );
              ]
          | Iquery q ->
              [
                Sinsert
                  ( t,
                    Option.map (fun cs -> cs @ [ bcol; ecol ]) cols,
                    Iquery
                      (Select
                         {
                           select_default with
                           proj =
                             [ Star; Proj_expr (pc.pb, None); Proj_expr (pc.pe, None) ];
                           from = [ Tsub (q, "taupsm_src") ];
                         }) );
              ]))
  | Sinsert (t, _, _) | Supdate (t, _, _) | Sdelete (t, _) ->
      if is_temporal_source g t then
        unsupported
          "a routine invoked from a sequenced query must not modify a \
           temporal table"
      else [ Rewrite.default_stmt Rewrite.default s ]
  | Smerge _ ->
      unsupported
        "a routine invoked from a sequenced query must not contain TEMPORAL \
         MERGE"
  | Stemporal _ ->
      semantic_error
        "a routine containing a temporal statement modifier can only be \
         invoked from a nonsequenced context"
  | Sdeclare_handler h ->
      (* Remember the handler for generated FETCH code and for the
         cursor-loop idiom rewrite. *)
      g.handler_stmt <- Some h;
      (match h with
      | Sset (v, _) -> g.handler_flag <- Some v
      | _ -> ());
      [ Sdeclare_handler (Sbegin (xstmt g pc h)) ]
  | Sleave _ | Siterate _ | Sdrop_table _ -> [ s ]
  | Screate_table _ | Screate_view _ | Screate_function _ | Screate_procedure _
    ->
      [ s ]

(* Sliced control flow: loop over the constant periods of [sources]
   within the current evaluation period, generating the body per period. *)
and sliced_control g pc ~sources (body_at : pctx -> expr -> stmt list) :
    stmt list =
  let pts, prep = points_prep g (List.sort_uniq compare sources) in
  let cps = fresh g "cps" in
  let pb_name = fresh g "pb" and pe_name = fresh g "pe" in
  let loop_query =
    Select
      {
        select_default with
        proj =
          [
            Proj_expr (Col (Some cps, bcol), Some pb_name);
            Proj_expr (Col (Some cps, ecol), Some pe_name);
          ];
        from =
          [
            Tfun
              (Names.constant_periods_fun, [ Lit (Value.Str pts); pc.pb; pc.pe ], cps);
          ];
        order_by = [ (Col (Some cps, bcol), Asc) ];
      }
  in
  let pc' = { pb = Col (None, pb_name); pe = Col (None, pe_name); sliced = true } in
  [
    prep;
    Sfor
      {
        for_label = None;
        for_query = loop_query;
        for_body = body_at pc' (Col (None, pb_name));
      };
  ]

(* FETCH from a temporal cursor: read row #pos of the auxiliary table
   (ORDER BY period, OFFSET pos), then splice each target variable over
   that row's period.  A fetch inside a sliced per-period region is the
   paper's non-nested FETCH (q17b): not expressible under PERST. *)
and fetch_tv g pc ci vars : stmt list =
  if pc.sliced then
    raise
      (Perst_unsupported
         "non-nested FETCH: an outer cursor fetched from within a sliced \
          per-period region (cf. benchmark query q17b)");
  let fetch_tbl = fresh g "fetch" in
  let row_query =
    Select
      {
        select_default with
        proj = [ Star ];
        from = [ Tref (ci.ci_aux, None) ];
        order_by = [ (Col (None, bcol), Asc); (Col (None, ecol), Asc) ];
        offset = Some (Col (None, ci.ci_pos));
        fetch_first = Some (lit_int 1);
      }
  in
  let count_fetched =
    Scalar_subquery
      (Select
         {
           select_default with
           proj = [ Proj_expr (Agg (Count_star, false, None), None) ];
           from = [ Tref (fetch_tbl, None) ];
         })
  in
  let row_period =
    {
      pb =
        Scalar_subquery
          (Select
             {
               select_default with
               proj = [ Proj_expr (Col (None, bcol), None) ];
               from = [ Tref (fetch_tbl, None) ];
             });
      pe =
        Scalar_subquery
          (Select
             {
               select_default with
               proj = [ Proj_expr (Col (None, ecol), None) ];
               from = [ Tref (fetch_tbl, None) ];
             });
      sliced = pc.sliced;
    }
  in
  (* Column names of the cursor's SELECT list, positionally. *)
  let sel =
    match ci.ci_query with Select s -> s | _ -> assert false
  in
  let out_cols =
    List.mapi
      (fun i p ->
        match p with
        | Proj_expr (_, Some a) -> a
        | Proj_expr (Col (_, c), None) -> c
        | _ -> Printf.sprintf "col%d" i)
      sel.proj
  in
  let assigns =
    List.concat
      (List.map2
         (fun v col ->
           if not (SS.mem (lc v) g.tv_vars) then
             unsupported "FETCH INTO a stable variable from temporal data"
           else
             splice_out ~table:(var_table_name g v) ~cols:[ val_col ] row_period
             @ [
                 Sinsert
                   ( var_table_name g v,
                     None,
                     Iquery
                       (Select
                          {
                            select_default with
                            proj =
                              [
                                Proj_expr (Col (None, col), None);
                                Proj_expr (Col (None, bcol), None);
                                Proj_expr (Col (None, ecol), None);
                              ];
                            from = [ Tref (fetch_tbl, None) ];
                          }) );
               ])
         vars out_cols)
  in
  [
    Screate_table
      { ct_name = fetch_tbl; ct_cols = []; ct_temporal = false; ct_transaction = false; ct_temp = true; ct_constraints = [];
        ct_as = Some row_query };
    Sif
      ( [
          ( Binop (Eq, count_fetched, lit_int 0),
            (* NOT FOUND: the conventional handler convention applies. *)
            [ Sset (ci.ci_pos, Col (None, ci.ci_pos)) ] );
        ],
        Some (assigns @ [ Sset (ci.ci_pos, Binop (Add, Col (None, ci.ci_pos), lit_int 1)) ]) );
  ]

(* CALL of a temporal procedure: pass the period; OUT arguments come back
   through the procedure's out-tables and are spliced into the caller's
   variable tables. *)
and call_tv g pc p args : stmt list =
  let proc =
    match Catalog.find_procedure g.cat p with
    | Some r -> r
    | None -> unsupported "CALL of unknown procedure %s" p
  in
  let in_args, out_copies =
    List.fold_right2
      (fun prm arg (ins, outs) ->
        match prm.p_mode with
        | Pin ->
            if expr_is_temporal g arg then
              unsupported "time-varying IN argument to a procedure call"
            else (arg :: ins, outs)
        | Pout -> (
            match arg with
            | Col (None, v) -> (ins, (prm.p_name, v) :: outs)
            | _ -> unsupported "OUT argument must be a variable")
        | Pinout -> unsupported "INOUT parameter under PERST")
      proc.r_params args ([], [])
  in
  let call = Scall (Names.ps p, in_args @ [ pc.pb; pc.pe ]) in
  let copies =
    List.concat_map
      (fun (param, v) ->
        if not (SS.mem (lc v) g.tv_vars) then
          unsupported "OUT argument into a stable variable"
        else
          splice_out ~table:(var_table_name g v) ~cols:[ val_col ] pc
          @ [
              Sinsert
                ( var_table_name g v,
                  None,
                  Iquery
                    (Select
                       {
                         select_default with
                         proj = [ Star ];
                         from = [ Tref (Names.out_table p param, None) ];
                       }) );
            ])
      out_copies
  in
  (call :: copies)

(* ------------------------------------------------------------------ *)
(* Routine transformation                                              *)
(* ------------------------------------------------------------------ *)

let period_params =
  [
    { p_name = Names.ps_bt_param; p_ty = Value.Tdate; p_mode = Pin };
    { p_name = Names.ps_et_param; p_ty = Value.Tdate; p_mode = Pin };
  ]

let initial_pctx =
  {
    pb = Col (None, Names.ps_bt_param);
    pe = Col (None, Names.ps_et_param);
    sliced = false;
  }

let transform_routine cat ~is_temporal_routine kind (r : routine) : stmt =
  (* Normalize explicit inner joins inside the body so the sequenced
     select machinery only ever sees cross products and LEFT JOINs. *)
  let r = { r with r_body = List.map normalize_inner_joins r.r_body } in
  let tv = infer_tv_vars cat ~is_temporal_routine r in
  let g =
    {
      cat;
      rname = r.r_name;
      is_temporal_routine;
      tv_vars = tv;
      cursors = Hashtbl.create 4;
      local_temporal = SS.empty;
      counter = 0;
      handler_stmt = None;
      handler_flag = None;
    }
  in
  let pc = initial_pctx in
  (* Parameters that the fixpoint marked time-varying get a variable
     table seeded with the scalar argument over the whole period;
     OUT parameters start empty. *)
  let param_setup =
    List.concat_map
      (fun prm ->
        if not (SS.mem (lc prm.p_name) tv) then []
        else
          create_var_table g prm.p_name prm.p_ty
          ::
          (match prm.p_mode with
          | Pout -> []
          | Pin | Pinout ->
              [
                Sinsert
                  ( var_table_name g prm.p_name,
                    None,
                    Ivalues [ [ Col (None, prm.p_name); pc.pb; pc.pe ] ] );
              ]))
      r.r_params
  in
  let body = xstmts g pc r.r_body in
  match (kind, r.r_returns) with
  | Catalog.Rfunction, Some (Ret_scalar ty) ->
      let ret = Names.ret_table r.r_name in
      let create_ret =
        Screate_table
          {
            ct_name = ret;
            ct_cols =
              [
                { cd_name = Names.ps_result_col; cd_ty = ty };
                { cd_name = bcol; cd_ty = Value.Tdate };
                { cd_name = ecol; cd_ty = Value.Tdate };
              ];
            ct_temporal = false; ct_transaction = false;
            ct_temp = true; ct_constraints = [];
            ct_as = None;
          }
      in
      let final_return =
        Sreturn_query
          (Select
             { select_default with proj = [ Star ]; from = [ Tref (ret, None) ] })
      in
      Screate_function
        {
          r_name = Names.ps r.r_name;
          r_params = r.r_params @ period_params;
          r_returns =
            Some
              (Ret_table
                 [
                   { cd_name = Names.ps_result_col; cd_ty = ty };
                   { cd_name = bcol; cd_ty = Value.Tdate };
                   { cd_name = ecol; cd_ty = Value.Tdate };
                 ]);
          r_body = (create_ret :: param_setup) @ body @ [ final_return ];
        }
  | Catalog.Rfunction, Some (Ret_table cds) ->
      let ret = Names.ret_table r.r_name in
      let cds' =
        cds
        @ [
            { cd_name = bcol; cd_ty = Value.Tdate };
            { cd_name = ecol; cd_ty = Value.Tdate };
          ]
      in
      let create_ret =
        Screate_table
          { ct_name = ret; ct_cols = cds'; ct_temporal = false; ct_transaction = false; ct_temp = true; ct_constraints = [];
            ct_as = None }
      in
      let final_return =
        Sreturn_query
          (Select
             { select_default with proj = [ Star ]; from = [ Tref (ret, None) ] })
      in
      Screate_function
        {
          r_name = Names.ps r.r_name;
          r_params = r.r_params @ period_params;
          r_returns = Some (Ret_table cds');
          r_body = (create_ret :: param_setup) @ body @ [ final_return ];
        }
  | Catalog.Rprocedure, _ ->
      (* OUT parameters exported through well-known out-tables. *)
      let exports =
        List.filter_map
          (fun prm ->
            match prm.p_mode with
            | Pout | Pinout ->
                Some
                  (Screate_table
                     {
                       ct_name = Names.out_table r.r_name prm.p_name;
                       ct_cols = [];
                       ct_temporal = false; ct_transaction = false;
                       ct_temp = true; ct_constraints = [];
                       ct_as =
                         Some
                           (Select
                              {
                                select_default with
                                proj = [ Star ];
                                from =
                                  [ Tref (var_table_name g prm.p_name, None) ];
                              });
                     })
            | Pin -> None)
          r.r_params
      in
      Screate_procedure
        {
          r_name = Names.ps r.r_name;
          r_params =
            List.map (fun prm -> { prm with p_mode = Pin })
              (List.filter (fun prm -> prm.p_mode = Pin) r.r_params)
            @ period_params;
          r_returns = None;
          r_body = param_setup @ body @ exports;
        }
  | Catalog.Rfunction, None -> assert false

(* ------------------------------------------------------------------ *)
(* The invoking (outer) query                                          *)
(* ------------------------------------------------------------------ *)

let transform_outer cat ~is_temporal_routine ~context (q : query) :
    stmt list * query =
  let bt, et = context_exprs context in
  let g =
    {
      cat;
      rname = "main";
      is_temporal_routine;
      tv_vars = SS.empty;
      cursors = Hashtbl.create 1;
      local_temporal = SS.empty;
      counter = 0;
      handler_stmt = None;
      handler_flag = None;
    }
  in
  let pc = { pb = bt; pe = et; sliced = false } in
  let prep = ref [] in
  let q' =
    map_query_selects
      (fun s ->
        if block_needs_slicing g s then begin
          let p, s' = sliced_select g pc s in
          prep := !prep @ p;
          s'
        end
        else seq_simple_select g pc ~result_col:None s)
      q
  in
  (!prep, q')

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Reject recursion among temporal routines: variable and result tables
   are per-routine temporary tables, so recursive invocations of the
   same transformed routine would collide. *)
let check_no_recursion cat routines =
  let calls name =
    match Catalog.find_routine cat name with
    | Some (_, r) ->
        let a = Analysis.of_stmt cat (Sbegin r.r_body) in
        a.Analysis.routines
    | None -> Analysis.SS.empty
  in
  List.iter
    (fun name ->
      let rec dfs seen n =
        Analysis.SS.iter
          (fun callee ->
            if callee = lc name then
              raise
                (Perst_unsupported
                   (Printf.sprintf "recursive temporal routine %s" name));
            if not (SS.mem callee seen) then dfs (SS.add callee seen) callee)
          (calls n)
      in
      dfs SS.empty name)
    routines

let transform cat ~context (stmt0 : stmt) : plan =
  let stmt0 = normalize_inner_joins stmt0 in
  let analysis = Analysis.of_stmt cat stmt0 in
  if analysis.Analysis.has_inner_modifier then
    semantic_error
      "a routine containing a temporal statement modifier can only be \
       invoked from a nonsequenced context";
  let is_temporal_routine name =
    Analysis.SS.mem (lc name) analysis.Analysis.temporal_routines
  in
  let temporal_routines =
    List.filter is_temporal_routine (Analysis.routines_list analysis)
  in
  check_no_recursion cat temporal_routines;
  let routines =
    List.filter_map
      (fun rname ->
        match Catalog.find_routine cat rname with
        | Some (kind, r) ->
            Some (transform_routine cat ~is_temporal_routine kind r)
        | None -> None)
      temporal_routines
  in
  match stmt0 with
  | Squery q ->
      let prep, q' = transform_outer cat ~is_temporal_routine ~context q in
      { prep; routines; main = Squery q' }
  | Scall (name, args) when is_temporal_routine name ->
      let bt, et = context_exprs context in
      { prep = []; routines; main = Scall (Names.ps name, args @ [ bt; et ]) }
  | Scall _ as s -> { prep = []; routines; main = s }
  | _ ->
      unsupported
        "sequenced semantics applies to queries and routine calls; use the \
         stratum's sequenced DML entry points for modifications"
