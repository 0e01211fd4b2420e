(** Field-combinator codecs: each JSON document shape is described once,
    and its encoder, its result-typed decoder and its validator all come
    from that one description.

    A record is a constructor plus its members in order, each a name, a
    value codec and a getter; a variant is a tagged union of such member
    lists; a group of fields two documents share is one description
    {!flat}tened into both. Decoding ignores members the
    description does not name, reports the first failure with its path
    ([entries\[0\].ns_per_query: missing field "mean"]), and never
    raises for any input. Encoding writes members in description order,
    so a document's bytes are fixed by its description. *)

type 'a t

val to_json : 'a t -> 'a -> Json.t
val of_json : 'a t -> Json.t -> ('a, string) result
val of_string : 'a t -> string -> ('a, string) result

val to_string : what:string -> 'a t -> 'a -> string
(** Strict ({!Json.to_string_strict}); raises [Failure] naming [what]
    and the JSON path of a NaN or infinity. *)

val load : 'a t -> string -> ('a, string) result
(** Read and decode a file; errors are prefixed with its path. *)

val fail : string -> 'a
(** Reject the value being decoded, from a constructor or a {!check}. *)

(** {1 Values} *)

val int : int t
val float : float t
(** Also accepts an integer-spelled number. *)

val string : string t
val bool : bool t
val list : 'a t -> 'a list t
val pair : 'a t -> 'b t -> ('a * 'b) t
(** A 2-element array; {!triple} a 3-element one. *)

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val nullable : 'a t -> 'a option t
(** [None] is [null]. *)

val enum : (string * 'a) list -> 'a t
(** A string drawn from a fixed set. *)

val lit : Json.t -> unit t
(** Exactly this value. *)

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

val check : ('a -> (unit, string) result) -> 'a t -> 'a t
(** An invariant checked after decoding. *)

(** {1 Records and unions} *)

type ('r, 'a) mem
(** One member of a record ['r], holding an ['a]. *)

val req : string -> 'a t -> ('r -> 'a) -> ('r, 'a) mem
(** A member that must be present, read from a record by the getter. *)

val opt : string -> 'a t -> ('r -> 'a option) -> ('r, 'a option) mem
(** A member that is absent for [None]; present, it must decode. *)

val flat : 'a t -> ('r -> 'a) -> ('r, 'a) mem
(** An object description whose members are inlined in the enclosing
    object — a field group two documents share. *)

val skip : 'a -> ('r, 'a) mem
(** A field this view of a shared description leaves off the wire:
    never written, and decoded as the given value. *)

type ('f, 'r) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) mem * ('f, 'r) fields -> ('a -> 'f, 'r) fields

val record : 'f -> ('f, 'r) fields -> 'r t
(** [record make fields]: an object written member by member in the
    order of [fields], and read back by applying [make] to the decoded
    members in that order. [make] may reject with {!fail}. *)

type 'a arg
(** A member of a union case. Inline-record constructors have no field
    getters, so a case is written from the values its destructor
    returns. *)

val arg : string -> 'a t -> 'a arg
val inline : 'a t -> 'a arg

type ('f, 'r) args = [] : ('r, 'r) args | ( :: ) : 'a arg * ('f, 'r) args -> ('a -> 'f, 'r) args

type ('f, 'r) values =
  | [] : ('r, 'r) values
  | ( :: ) : 'a * ('f, 'r) values -> ('a -> 'f, 'r) values

type 'a case

val case : Json.t -> ('f, 'a) args -> 'f -> ('a -> ('f, 'a) values option) -> 'a case
(** One variant: its tag value, members, constructor, and a destructor
    that answers [None] for the other variants. *)

val union : string -> 'a case list -> 'a t
(** An object whose member [tag] selects the case; the tag is written
    first. *)

(** {1 Schema-versioned documents} *)

val document : schema:string -> version:int -> describe:('a -> string) -> 'a t -> 'a t
(** An object description behind the [schema]/[version] header every
    [lowcon-*] document starts with; decoding checks both first.
    [describe] summarises a decoded document in one line. *)

type any = Any : 'a t -> any

val validate : any list -> Json.t -> (string, string) result option
(** Decode a document with whichever of the given {!document}s its
    ["schema"] member names: [Some (Ok "<schema> v<version>, <describe>")]
    or [Some (Error _)] (also for an unknown schema); [None] when it has
    no ["schema"] member. *)
