(* The benchmark's own span recorder.

   Spans are opened and closed around calls into the libraries, from
   the benchmark's side of the boundary, on the main domain only. They
   live in memory until [write] dumps them as JSON. The recorder is
   deliberately independent of [Lc_obs.Span]: a change to the repo's
   telemetry cannot change how the benchmark measures. When disabled,
   [span] is a plain call and [count] does nothing. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  start_ns : int;
  mutable stop_ns : int;
  mutable counts : (string * float) list;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s = { id = !next_id; parent; name; start_ns = now_ns (); stop_ns = 0; counts = [] } in
    incr next_id;
    spans := s :: !spans;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        stack := List.tl !stack)
      f
  end

(* Attach a count to the innermost open span. *)
let count key v =
  match !stack with s :: _ when !enabled -> s.counts <- (key, v) :: s.counts | _ -> ()

(* Self time: a span's duration minus the durations of its direct
   children (children never overlap: one recorder, one domain). *)
let self_times () =
  let all = List.rev !spans in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.stop_ns - s.start_ns in
        Hashtbl.replace child s.parent (d + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    all;
  List.map
    (fun s -> (s, s.stop_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    all

(* Total self time and call count per span name, in first-seen order. *)
let self_by_name () =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name (1, self)
      | Some (n, t) -> Hashtbl.replace tbl s.name (n + 1, t + self))
    (self_times ());
  List.rev_map (fun name -> let n, t = Hashtbl.find tbl name in (name, n, t)) !order

let write path =
  let oc = open_out path in
  let origin = match List.rev !spans with s :: _ -> s.start_ns | [] -> 0 in
  output_string oc "{\"spans\": [\n";
  List.iteri
    (fun i (s, self) ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \
         \"self_ns\": %d, \"counts\": {%s}}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.name (s.start_ns - origin) (s.stop_ns - origin) self
        (String.concat ", "
           (List.rev_map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) s.counts)))
    (self_times ());
  output_string oc "\n]}\n";
  close_out oc
