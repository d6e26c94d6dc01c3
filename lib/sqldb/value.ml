(* SQL values and types.

   NULL is a first-class value; three-valued-logic comparison semantics
   live in the evaluator — this module only provides total orderings
   (NULL first) used for sorting, grouping and DISTINCT, plus arithmetic
   helpers that propagate NULL. *)

type ty = Tint | Tfloat | Tstring | Tbool | Tdate

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of Date.t

let ty_to_string = function
  | Tint -> "INTEGER"
  | Tfloat -> "DOUBLE"
  | Tstring -> "VARCHAR"
  | Tbool -> "BOOLEAN"
  | Tdate -> "DATE"

let ty_equal (a : ty) (b : ty) = a = b

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool
  | Date _ -> Some Tdate

let is_null = function Null -> true | _ -> false

(* Total ordering used by ORDER BY / GROUP BY / DISTINCT: NULL sorts first,
   then by type rank, then by value.  Int and Float compare numerically so
   that mixed-type arithmetic results group consistently. *)
let compare_total a b =
  let rank = function
    | Null -> 0 | Bool _ -> 1 | Int _ -> 2 | Float _ -> 2 | Str _ -> 3 | Date _ -> 4
  in
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Date x, Date y -> Date.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare_total a b = 0

(* SQL comparison: None when either side is NULL (unknown). *)
let compare_sql a b =
  match (a, b) with Null, _ | _, Null -> None | _ -> Some (compare_total a b)

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f ->
      (* %.12g rounds away binary-arithmetic noise (e.g. 5600 * 1.4); the
         suffix keeps the value recognizably a float. *)
      let s = Printf.sprintf "%.12g" f in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s
      then s
      else s ^ ".0"
  | Str s -> s
  | Bool b -> if b then "TRUE" else "FALSE"
  | Date d -> Date.to_string d

(* SQL-literal rendering: strings quoted, dates as DATE 'YYYY-MM-DD'. *)
let to_literal = function
  | Str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | Date d -> Printf.sprintf "DATE '%s'" (Date.to_string d)
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)
let pp_ty ppf ty = Format.pp_print_string ppf (ty_to_string ty)

(* Numeric coercions, propagating NULL; raise on type errors. *)
exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let to_float_exn = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected a number, got %s" (to_string v)

let to_int_exn = function
  | Int i -> i
  | Float f -> int_of_float f
  | v -> type_error "expected an integer, got %s" (to_string v)

let to_bool_exn = function
  | Bool b -> b
  | v -> type_error "expected a boolean, got %s" (to_string v)

let to_date_exn = function
  | Date d -> d
  | Str s -> (
      match Date.of_string s with
      | Some d -> d
      | None -> type_error "expected a date, got %S" s)
  | v -> type_error "expected a date, got %s" (to_string v)

let to_str_exn = function
  | Str s -> s
  | v -> type_error "expected a string, got %s" (to_string v)

(* Checked cast used by CAST and by INSERT coercion. *)
let cast ~ty v =
  match (ty, v) with
  | _, Null -> Null
  | Tint, Int _ -> v
  | Tint, Float f -> Int (int_of_float f)
  | Tint, Str s -> (
      match int_of_string_opt (String.trim s) with
      | Some i -> Int i
      | None -> type_error "cannot cast %S to INTEGER" s)
  | Tfloat, Float _ -> v
  | Tfloat, Int i -> Float (float_of_int i)
  | Tfloat, Str s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> Float f
      | None -> type_error "cannot cast %S to DOUBLE" s)
  | Tstring, _ -> Str (to_string v)
  | Tbool, Bool _ -> v
  | Tdate, Date _ -> v
  | Tdate, Str s -> (
      match Date.of_string s with
      | Some d -> Date d
      | None -> type_error "cannot cast %S to DATE" s)
  | _ ->
      type_error "cannot cast %s to %s" (to_string v) (ty_to_string ty)
