(* A blocking line-oriented client for the serving protocol.  Used by
   the CLI `client` subcommand, the repository benchmark and the tests;
   also a worked example of the protocol for other implementations. *)

type t = {
  fd : Unix.file_descr;
  mutable acc : string;
  chunk : Bytes.t;
  mutable session : int;  (* from the hello banner *)
  mutable next_request : int;
}

exception Protocol_error of string

let rec write_all fd s pos len =
  if len > 0 then
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)

(* Read one '\n'-terminated line (blocking). *)
let read_line_exn c =
  let rec go () =
    match String.index_opt c.acc '\n' with
    | Some i ->
        let line = String.sub c.acc 0 i in
        c.acc <- String.sub c.acc (i + 1) (String.length c.acc - i - 1);
        line
    | None -> (
        match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
        | 0 -> raise (Protocol_error "server closed the connection")
        | n ->
            c.acc <- c.acc ^ Bytes.sub_string c.chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let read_json c =
  let line = read_line_exn c in
  match Json.parse line with
  | Ok j -> j
  | Error m -> raise (Protocol_error (Printf.sprintf "bad server JSON: %s" m))

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let c =
    { fd; acc = ""; chunk = Bytes.create 65536; session = 0; next_request = 1 }
  in
  (* the first line is either the hello banner or an admission
     rejection ({"error":{"code":"overloaded"}}) *)
  let banner = read_json c in
  (match Json.member "hello" banner with
  | Some _ ->
      c.session <-
        Option.value ~default:0 (Json.member_int banner "session")
  | None -> (
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match Wire.error_code banner with
      | Some code ->
          raise
            (Protocol_error (Printf.sprintf "connection rejected: %s" code))
      | None -> raise (Protocol_error "no hello banner")));
  c

let session c = c.session

(* Send [req] (an object; an "id" is added), return the matching
   response.  The protocol is strictly request/response per session, so
   matching is positional; the id is still checked when echoed. *)
let roundtrip c (fields : (string * Json.t) list) =
  let id = c.next_request in
  c.next_request <- id + 1;
  let line = Json.to_string (Json.Obj (("id", Json.Int id) :: fields)) ^ "\n" in
  write_all c.fd line 0 (String.length line);
  let resp = read_json c in
  (match Json.member_int resp "id" with
  | Some id' when id' <> id ->
      raise
        (Protocol_error (Printf.sprintf "response id %d for request %d" id' id))
  | _ -> ());
  resp

let stmt ?strategy c sql =
  roundtrip c
    (("op", Json.Str "stmt") :: ("sql", Json.Str sql)
    :: (match strategy with Some s -> [ ("strategy", Json.Str s) ] | None -> []))

let ping c = roundtrip c [ ("op", Json.Str "ping") ]
let stats c = roundtrip c [ ("op", Json.Str "stats") ]
let scrub c = roundtrip c [ ("op", Json.Str "scrub") ]

let backup c ~target =
  roundtrip c [ ("op", Json.Str "backup"); ("target", Json.Str target) ]

let close c =
  (try ignore (roundtrip c [ ("op", Json.Str "close") ])
   with Protocol_error _ | Unix.Unix_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Abandon the socket without the close handshake (tests use this to
   model a client vanishing mid-session). *)
let abandon c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Result helpers                                                      *)
(* ------------------------------------------------------------------ *)

let ok = Wire.is_ok
let error_code = Wire.error_code

let affected resp = Json.member_int resp "affected"

let rows resp =
  match Json.member "rows" resp with
  | Some (Json.Obj _ as r) -> (
      match (Json.member "cols" r, Json.member "rows" r) with
      | Some (Json.List cols), Some (Json.List rows) ->
          Some
            ( List.filter_map Json.to_string_opt cols,
              List.map
                (function Json.List vs -> vs | v -> [ v ])
                rows )
      | _ -> None)
  | _ -> None

(* Flatten a rows response to a sorted multiset of rendered rows —
   order-insensitive comparison for equivalence checks. *)
let row_bag resp =
  match rows resp with
  | None -> None
  | Some (_, rows) ->
      Some (List.sort compare (List.map (fun r -> Json.to_string (Json.List r)) rows))
