(* One description per document shape, read in both directions. A
   decoder raises [Fail] with the path so far; each member and list
   element it passes through on the way out prepends its own segment,
   so the path is built only when something is wrong, and [of_json]
   is the one place that turns the exception back into a result. *)

exception Fail of string list * string

type 'a t = {
  enc : 'a -> Json.t;
  dec : Json.t -> 'a;
  header : (string * int * ('a -> string)) option;  (* schema, version, describe *)
}

let fail msg = raise (Fail ([], msg))
let at seg dec j = try dec j with Fail (p, m) -> raise (Fail (seg :: p, m))
let codec enc dec = { enc; dec; header = None }

let of_json c j =
  try Ok (c.dec j) with
  | Fail ([], m) -> Error m
  | Fail (seg :: p, m) ->
    let path =
      List.fold_left
        (fun acc s -> if String.starts_with ~prefix:"[" s then acc ^ s else acc ^ "." ^ s)
        seg p
    in
    Error (path ^ ": " ^ m)

let to_json c v = c.enc v
let of_string c s = Result.bind (Json.parse s) (of_json c)

let to_string ~what c v =
  match Json.to_string_strict (c.enc v) with
  | Ok s -> s
  | Error { Json.path; value } ->
    failwith (Printf.sprintf "%s: non-finite value %h at %s — refusing to write" what value path)

let load c path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error (path ^ ": cannot read")
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string c s)

(* ---------------- values ---------------- *)

let scalar what get mk =
  codec mk (fun j -> match get j with Some v -> v | None -> fail ("expected " ^ what))

let int = scalar "an integer" Json.int_value (fun i -> Json.Int i)
let float = scalar "a number" Json.float_value (fun f -> Json.Float f)
let string = scalar "a string" Json.string_value (fun s -> Json.String s)
let bool = scalar "a boolean" Json.bool_value (fun b -> Json.Bool b)

let list c =
  codec
    (fun l -> Json.List (List.map c.enc l))
    (function
      | Json.List l -> List.mapi (fun i j -> at (Printf.sprintf "[%d]" i) c.dec j) l
      | _ -> fail "expected an array")

let pair a b =
  codec
    (fun (x, y) -> Json.List [ a.enc x; b.enc y ])
    (function
      | Json.List [ x; y ] -> (at "[0]" a.dec x, at "[1]" b.dec y)
      | _ -> fail "expected a 2-element array")

let triple a b c =
  codec
    (fun (x, y, z) -> Json.List [ a.enc x; b.enc y; c.enc z ])
    (function
      | Json.List [ x; y; z ] -> (at "[0]" a.dec x, at "[1]" b.dec y, at "[2]" c.dec z)
      | _ -> fail "expected a 3-element array")

let nullable c =
  codec
    (function None -> Json.Null | Some v -> c.enc v)
    (function Json.Null -> None | j -> Some (c.dec j))

let enum cases =
  codec
    (fun v -> Json.String (fst (List.find (fun (_, v') -> v' = v) cases)))
    (fun j ->
      let s = string.dec j in
      match List.assoc_opt s cases with
      | Some v -> v
      | None ->
        fail
          (Printf.sprintf "expected %s, got %S"
             (String.concat " or " (List.map (fun (k, _) -> Printf.sprintf "%S" k) cases))
             s))

let lit v =
  codec
    (fun () -> v)
    (fun j -> if j <> v then fail (Printf.sprintf "expected %s" (Json.to_string v)))

let map f g c = codec (fun v -> c.enc (g v)) (fun j -> f (c.dec j))

let check ok c =
  {
    c with
    dec =
      (fun j ->
        let v = c.dec j in
        match ok v with Ok () -> v | Error m -> fail m);
  }

(* ---------------- records and unions ---------------- *)

type ('r, 'a) mem =
  | Req : string * 'a t * ('r -> 'a) -> ('r, 'a) mem
  | Opt : string * 'a t * ('r -> 'a option) -> ('r, 'a option) mem
  | Flat : 'a t * ('r -> 'a) -> ('r, 'a) mem
  | Skip : 'a -> ('r, 'a) mem

let req name c get = Req (name, c, get)
let opt name c get = Opt (name, c, get)
let flat c get = Flat (c, get)
let skip v = Skip v

type ('f, 'r) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) mem * ('f, 'r) fields -> ('a -> 'f, 'r) fields

type 'a arg = Arg : string * 'a t -> 'a arg | Inline : 'a t -> 'a arg

let arg name c = Arg (name, c)
let inline c = Inline c

type ('f, 'r) args = [] : ('r, 'r) args | ( :: ) : 'a arg * ('f, 'r) args -> ('a -> 'f, 'r) args

type ('f, 'r) values =
  | [] : ('r, 'r) values
  | ( :: ) : 'a * ('f, 'r) values -> ('a -> 'f, 'r) values

let members c v =
  match c.enc v with Json.Obj kvs -> kvs | _ -> invalid_arg "Codec: not an object description"

let member kvs name c =
  match List.assoc_opt name kvs with
  | Some v -> at name c.dec v
  | None -> fail (Printf.sprintf "missing field %S" name)

let rec encode_fields : type f r. (f, r) fields -> r -> (string * Json.t) list =
 fun fs v ->
  match fs with
  | [] -> []
  | Req (n, c, get) :: fs -> (n, c.enc (get v)) :: encode_fields fs v
  | Opt (n, c, get) :: fs -> (
    match get v with
    | None -> encode_fields fs v
    | Some x -> (n, c.enc x) :: encode_fields fs v)
  | Flat (c, get) :: fs -> members c (get v) @ encode_fields fs v
  | Skip _ :: fs -> encode_fields fs v

let rec decode_fields : type f r. (f, r) fields -> Json.t -> (string * Json.t) list -> f -> r =
 fun fs j kvs k ->
  match fs with
  | [] -> k
  | Req (n, c, _) :: fs -> decode_fields fs j kvs (k (member kvs n c))
  | Opt (n, c, _) :: fs ->
    decode_fields fs j kvs (k (Option.map (at n c.dec) (List.assoc_opt n kvs)))
  | Flat (c, _) :: fs -> decode_fields fs j kvs (k (c.dec j))
  | Skip v :: fs -> decode_fields fs j kvs (k v)

let rec encode_args : type f r. (f, r) args -> (f, r) values -> (string * Json.t) list =
 fun args vs ->
  match (args, vs) with
  | Arg (n, c) :: args, v :: vs -> (n, c.enc v) :: encode_args args vs
  | Inline c :: args, v :: vs -> members c v @ encode_args args vs
  | _ -> []

let rec decode_args : type f r. (f, r) args -> Json.t -> (string * Json.t) list -> f -> r =
 fun args j kvs k ->
  match args with
  | [] -> k
  | Arg (n, c) :: args -> decode_args args j kvs (k (member kvs n c))
  | Inline c :: args -> decode_args args j kvs (k (c.dec j))

let obj f = function Json.Obj kvs as j -> f j kvs | _ -> fail "expected an object"

let record make fields =
  codec
    (fun v -> Json.Obj (encode_fields fields v))
    (obj (fun j kvs -> decode_fields fields j kvs make))

type 'a case = Case : Json.t * ('f, 'a) args * 'f * ('a -> ('f, 'a) values option) -> 'a case

let case tag args make parts = Case (tag, args, make, parts)

let union tag cases =
  let rec enc v (cases : _ case list) =
    match cases with
    | [] -> invalid_arg "Codec.union: no case matches"
    | Case (t, args, _, parts) :: rest -> (
      match parts v with
      | Some vs -> Json.Obj ((tag, t) :: encode_args args vs)
      | None -> enc v rest)
  in
  codec
    (fun v -> enc v cases)
    (obj (fun j kvs ->
         let t = member kvs tag (codec Fun.id Fun.id) in
         match List.find_opt (fun (Case (t', _, _, _)) -> t' = t) cases with
         | Some (Case (_, args, make, _)) -> decode_args args j kvs make
         | None -> fail (Printf.sprintf "unknown %s %s" tag (Json.to_string t))))

(* ---------------- schema-versioned documents ---------------- *)

let document ~schema ~version ~describe c =
  let head = record (fun s v -> (s, v)) [ req "schema" string fst; req "version" int snd ] in
  let dec j =
    let s, v = head.dec j in
    if s <> schema then fail (Printf.sprintf "schema is %S, expected %S" s schema);
    if v <> version then
      fail (Printf.sprintf "unsupported %s version %d (reader supports %d)" schema v version);
    c.dec j
  in
  {
    enc = (fun x -> Json.Obj (members head (schema, version) @ members c x));
    dec;
    header = Some (schema, version, describe);
  }

type any = Any : 'a t -> any

let validate docs = function
  | Json.Obj kvs as j -> (
    match List.assoc_opt "schema" kvs with
    | None -> None
    | Some (Json.String s) ->
      let describe (Any c) =
        match c.header with
        | Some (name, version, describe) when name = s ->
          let line v = Printf.sprintf "%s v%d, %s" s version (describe v) in
          Some (Result.map line (of_json c j))
        | _ -> None
      in
      Some
        (match List.find_map describe docs with
        | Some r -> r
        | None -> Error (Printf.sprintf "unknown schema %S" s))
    | Some _ -> Some (Error "\"schema\" member is not a string"))
  | _ -> None
