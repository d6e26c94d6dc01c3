(* A minimal growable array, used for table row storage (OCaml 5.1 has no
   stdlib Dynarray).  Indices are stable until a [remove_sorted]. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let of_list l =
  let data = Array.of_list l in
  { data; len = Array.length data }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let ensure_capacity v n =
  if n > Array.length v.data then begin
    let cap = max 8 (max n (2 * Array.length v.data)) in
    let data = Array.make cap v.data.(0) in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  if Array.length v.data = 0 then begin
    v.data <- Array.make 8 x;
    v.len <- 1
  end
  else begin
    ensure_capacity v (v.len + 1);
    v.data.(v.len) <- x;
    v.len <- v.len + 1
  end

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.len - 1) []

(* Remove the elements at [gone] (ascending, distinct, in range),
   shifting the rest down. *)
let remove_sorted v gone =
  let g = Array.length gone in
  if g > 0 then begin
    let dst = ref gone.(0) in
    for i = 0 to g - 1 do
      let src = gone.(i) + 1 in
      let stop = if i + 1 < g then gone.(i + 1) else v.len in
      Array.blit v.data src v.data !dst (stop - src);
      dst := !dst + (stop - src)
    done;
    v.len <- v.len - g
  end

let map_in_place f v =
  for i = 0 to v.len - 1 do
    v.data.(i) <- f v.data.(i)
  done

let clear v = v.len <- 0

(* Shallow copy of the live prefix; O(len).  Elements are shared. *)
let snapshot v = Array.sub v.data 0 v.len

(* A new vector record over the *same* backing array (elements shared,
   length pinned at the current value).  Used by copy-on-write snapshot
   publication: the frozen side keeps this record while the live side
   calls {!unshare} before its next in-place mutation. *)
let shallow v = { data = v.data; len = v.len }

(* Break backing-array sharing introduced by {!shallow}: replace [data]
   with a private copy so subsequent in-place mutation cannot reach rows
   a published snapshot still iterates. *)
let unshare v = if Array.length v.data > 0 then v.data <- Array.copy v.data

(* Replace the contents with [arr], taking ownership of the array. *)
let restore v arr =
  v.data <- arr;
  v.len <- Array.length arr

(* Drop elements beyond the first [n]; no-op if already shorter. *)
let truncate v n = if n >= 0 && n < v.len then v.len <- n

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0
