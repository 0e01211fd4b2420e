(* Wire-format tests for every document the reproduction writes: the
   committed artifacts re-encode byte for byte, the hand-formatted
   fixtures survive decode -> encode -> decode, and each live route's
   ordered member names (values stripped) are pinned, so a change to
   any document description that moves, renames or drops a member
   fails here. Also: the lint-report decoder rejects ill-typed members
   instead of reading them as empty, and the HTTP head reader serves
   requests however the head is split across reads. *)

module Json = Lc_obs.Json
module Http = Lc_obs.Http
module Heavy = Lc_obs.Heavy
module Artifact = Lc_perf.Artifact
module Postmortem = Lc_perf.Postmortem
module Engine = Lc_parallel.Engine
module Controller = Lc_control.Controller
module Report = Lc_lint.Report
module Sarif = Lc_lint.Sarif
module Rule = Lc_lint.Rule
module Finding = Lc_lint.Finding
module Rng = Lc_prim.Rng
module Keyset = Lc_workload.Keyset
module Qdist = Lc_cellprobe.Qdist
module Codec = Lc_obs.Codec
module Scaling = Lc_perf.Scaling

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let read path = In_channel.with_open_bin path In_channel.input_all

let parse s =
  match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "does not parse: %s" e

(* Ordered member names with the values stripped; a list shows its
   first element's shape, a null stays visible (it is a shape). *)
let rec skeleton = function
  | Json.Obj kvs -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ skeleton v) kvs) ^ "}"
  | Json.List [] -> "[]"
  | Json.List (x :: _) -> "[" ^ skeleton x ^ "]"
  | Json.Null -> "null"
  | _ -> "_"

(* ------------------------------------------------------------------ *)
(* Committed artifacts and fixtures                                     *)
(* ------------------------------------------------------------------ *)

let test_bench_bytes () =
  let raw = read "../BENCH_0.json" in
  match Artifact.of_string raw with
  | Error e -> Alcotest.failf "BENCH_0.json: %s" e
  | Ok a -> checks "BENCH_0.json re-encodes byte for byte" raw (Artifact.to_string a)

let test_postmortem_bytes () =
  let raw = read "../artifacts/t18-postmortem.json" in
  match Postmortem.of_string raw with
  | Error e -> Alcotest.failf "t18-postmortem.json: %s" e
  | Ok pm ->
    checkb "t18-postmortem.json re-encodes byte for byte" true (raw = Postmortem.to_string pm)

let test_control_bytes () =
  let raw = read "../artifacts/t18-control.json" in
  match Codec.of_string Engine.Monitor.control_codec raw with
  | Error e -> Alcotest.failf "t18-control.json: %s" e
  | Ok c ->
    checks "t18-control.json re-encodes byte for byte" raw
      (Json.to_string (Codec.to_json Engine.Monitor.control_codec c))

let test_fixtures_stable () =
  List.iter
    (fun name ->
      match Artifact.of_string (read ("fixtures/" ^ name)) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok a -> (
        match Artifact.of_string (Artifact.to_string a) with
        | Error e -> Alcotest.failf "%s re-read: %s" name e
        | Ok a' -> checkb (name ^ " survives decode -> encode -> decode") true (a = a')))
    [ "bench_a.json"; "bench_b_regressed.json" ]

(* ------------------------------------------------------------------ *)
(* Route skeletons                                                      *)
(* ------------------------------------------------------------------ *)

let route mon path =
  match List.assoc_opt path (Engine.Monitor.routes mon) with
  | Some f -> parse (f ()).Http.body
  | None -> Alcotest.failf "no route %s" path

let static_monitor =
  lazy
    (let rng = Rng.create 71 in
     let universe = 1 lsl 16 and n = 128 in
     let keys = Keyset.random rng ~universe ~n in
     let inst = Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys) in
     let mon = Engine.Monitor.create ~interval_s:0.02 ~domains:2 inst in
     ignore
       (Engine.run
          (Engine.Config.make ~monitor:mon ~domains:2 ~seed:72 ())
          (Engine.Static
             { inst; qdist = Qdist.uniform ~name:"pos" keys; queries_per_domain = 500 })
         : Engine.outcome);
     mon)

let dynamic_monitor =
  lazy
    (let module Epoch = Lc_dynamic.Epoch in
     let module Opstream = Lc_workload.Opstream in
     let rng = Rng.create 73 in
     let universe = 1 lsl 16 and n = 128 in
     let keys = Keyset.random rng ~universe ~n in
     let epoch = Epoch.create rng ~universe () in
     Array.iter (Epoch.insert epoch) keys;
     Epoch.publish epoch;
     let snap0 = Epoch.current epoch in
     let ops =
       Opstream.generate
         ~mix:(Opstream.read_write_mix ~read_fraction:0.6)
         ~initial_pool:keys rng ~universe ~length:1_000 ~working_set:(2 * n)
     in
     let mon =
       Engine.Monitor.create_for ~interval_s:0.02 ~domains:1 ~space:(Epoch.space snap0)
         ~max_probes:(Epoch.max_probes snap0) ()
     in
     ignore
       (Engine.run
          (Engine.Config.make ~monitor:mon ~domains:1 ~seed:74 ())
          (Engine.Dynamic { epoch; ops; publish_every = 32 })
         : Engine.outcome);
     mon)

(* A controller driven through two raises, attached to an idle monitor. *)
let controlled_monitor () =
  let mon = Engine.Monitor.create_for ~interval_s:3600.0 ~domains:1 ~space:1024 ~max_probes:8 () in
  let ctl = Controller.create ~space:1024 ~max_probes:8 ~boost:1 () in
  Engine.Monitor.attach_controller mon ctl;
  for i = 1 to 8 do
    ignore
      (Controller.observe ctl ~window:i ~queries:1000 [ { Heavy.item = 42; count = i * 4000; err = 3 } ]
        : Controller.decision option)
  done;
  mon

let window_skel =
  "{index:_,t_start_s:_,t_end_s:_,queries:_,probes:_,qps:_,probes_per_s:_,p50_ns:_,p99_ns:_,max_cell:_,max_share:_,hotspot_ratio:_,alert:_,cum_queries:_}"

let coheat_skel =
  "{line_cells:_,lines:_,total_probes:_,ratio:_,uniform_bound:_,hottest_line:_,hottest_line_heat:_,hottest_line_share:_}"

let test_route_skeletons () =
  let st = Lazy.force static_monitor and dy = Lazy.force dynamic_monitor in
  checks "/windows.json"
    ("{windows:[" ^ window_skel ^ "],alert_active:_,alert_fired_total:_}")
    (skeleton (route st "/windows.json"));
  checks "/cells.json"
    ("{total_observed:_,error_bound:_,coheat:" ^ coheat_skel
   ^ ",top:[{cell:_,count:_,err:_}],count_histogram:[[_]]}")
    (skeleton (route st "/cells.json"));
  checks "/updates.json (static)"
    "{schema:_,version:_,updates_seen:_,cumulative:null,windows:[]}"
    (skeleton (route st "/updates.json"));
  checks "/updates.json (dynamic)"
    "{schema:_,version:_,updates_seen:_,cumulative:{inserts:_,deletes:_,publications:_,reclaimed:_,cells_written:_,write_amp:_,epoch:_,retired_pending:_,reader_lag:_},windows:[{index:_,t_start_s:_,t_end_s:_,inserts:_,deletes:_,ups:_,publications:_,pubs_per_s:_,cells_written:_,write_amp:_,rebuild_p50_ns:_,rebuild_p99_ns:_,epoch:_,retired_pending:_,reader_lag:_}]}"
    (skeleton (route dy "/updates.json"));
  checks "/scaling.json"
    ("{schema:_,version:_,domains:_,phases:{probe_ns:_,tally_ns:_,publish_ns:_,pin_ns:_,other_ns:_,wall_ns:_,idle_ns:_},gc:{minor_words:_,promoted_words:_,major_words:_,windows:[{index:_,t_start_s:_,t_end_s:_,queries:_,minor_words:_,promoted_words:_,major_words:_,minor_collections:_,major_collections:_,alloc_per_query:_,heap_words:_}]},coheat:"
   ^ coheat_skel ^ "}")
    (skeleton (route st "/scaling.json"));
  checks "/control.json (not attached)" "{schema:_,version:_,attached:_}"
    (skeleton (route st "/control.json"));
  checks "/control.json (attached)"
    "{schema:_,version:_,attached:_,boost:{base:_,target:_,applied:_},policy:{high_ratio:_,low_ratio:_,hot_contrib:_,cool_contrib:_,high_threshold:_,low_threshold:_,cooldown_windows:_,min_boost:_,max_boost:_,step:_},state:{score:_,cooldown:_,windows_seen:_,last_ratio:_},decisions_total:_,decisions:[{id:_,window:_,ratio:_,cell:_,count:_,err:_,score:_,action:_,old_boost:_,new_boost:_,cooldown:_}]}"
    (skeleton (route (controlled_monitor ()) "/control.json"))

(* ------------------------------------------------------------------ *)
(* Lint report and SARIF                                                *)
(* ------------------------------------------------------------------ *)

(* Every optional shape present: a suppressed LC008 finding with words
   and an expiry, an active finding, a parse error, a baseline summary
   with one entry in each list. *)
let full_report () =
  {
    Report.root = ".";
    files_scanned = 3;
    rules = Rule.all;
    results =
      [
        {
          Report.finding =
            {
              (Finding.make ~rule:Rule.LC008 ~file:"lib/a.ml" ~line:8 ~col:14 ~context:"deep"
                 ~message:"closure on the hot path")
              with
              Finding.words = Some 3;
            };
          suppressed =
            Some { Report.justification = "owner=x"; expires = Some "2027-06-30"; entry_line = 4 };
        };
        {
          Report.finding =
            Finding.make ~rule:Rule.LC001 ~file:"lib/b.ml" ~line:2 ~col:0 ~context:"bump"
              ~message:"shared write";
          suppressed = None;
        };
      ];
    parse_errors = [ { Report.pe_file = "lib/c.ml"; pe_line = 1; pe_col = 5; pe_message = "syntax" } ];
    baseline =
      Some
        {
          Report.baseline_path = "lint-baseline.txt";
          entries = 3;
          used = 1;
          unused = [ ("LC005 lib/d.ml gone -- stale", 7) ];
          expired = [ ("LC001 lib/e.ml f expires=2020-01-01 -- old", 8) ];
          untagged = [ ("LC002 lib/f.ml g -- prose", 9) ];
        };
  }

let test_lint_skeletons () =
  let r = full_report () in
  checks "lint report"
    "{schema:_,version:_,root:_,files_scanned:_,rules:[{id:_,title:_,intent:_}],findings:[{rule:_,file:_,line:_,col:_,context:_,message:_,words:_,suppressed:_,suppression:{justification:_,entry_line:_,expires:_}}],parse_errors:[{file:_,line:_,col:_,message:_}],summary:{active:_,suppressed:_,parse_errors:_,exit_code:_},baseline:{path:_,entries:_,used:_,unused:[{entry:_,line:_}],expired:[{entry:_,line:_}],untagged:[{entry:_,line:_}]}}"
    (skeleton (Report.to_json r));
  checks "SARIF log"
    "{$schema:_,version:_,runs:[{tool:{driver:{name:_,version:_,rules:[{id:_,name:_,shortDescription:{text:_},fullDescription:{text:_},defaultConfiguration:{level:_}}]}},invocations:[{executionSuccessful:_,exitCode:_,toolExecutionNotifications:[{level:_,message:{text:_},locations:[{physicalLocation:{artifactLocation:{uri:_},region:{startLine:_,startColumn:_}}}]}]}],results:[{ruleId:_,ruleIndex:_,level:_,message:{text:_},locations:[{physicalLocation:{artifactLocation:{uri:_},region:{startLine:_,startColumn:_}}}],properties:{context:_,wordsPerCall:_},suppressions:[{kind:_,justification:_}]}]}]}"
    (skeleton (Sarif.of_report r));
  let s = Json.to_string (Report.to_json r) in
  match Report.of_json (parse s) with
  | Error e -> Alcotest.failf "full report does not decode: %s" e
  | Ok r' -> checks "full report re-encodes byte for byte" s (Json.to_string (Report.to_json r'))

(* Ill-typed members must be errors, not empty lists or absent options. *)
let test_lint_rejects_ill_typed () =
  let doc = Report.to_json (full_report ()) in
  let rec set path v j =
    match (path, j) with
    | [ k ], Json.Obj kvs -> Json.Obj (List.map (fun (k', x) -> if k' = k then (k', v) else (k', x)) kvs)
    | k :: rest, Json.Obj kvs ->
      Json.Obj (List.map (fun (k', x) -> if k' = k then (k', set rest v x) else (k', x)) kvs)
    | "0" :: rest, Json.List (x :: xs) -> Json.List (set rest v x :: xs)
    | _ -> j
  in
  List.iter
    (fun (label, path, v) ->
      checkb label true (Result.is_error (Report.of_json (set path v doc))))
    [
      ("rules: 5", [ "rules" ], Json.Int 5);
      ("findings: \"x\"", [ "findings" ], Json.String "x");
      ("parse_errors: {}", [ "parse_errors" ], Json.Obj []);
      ("baseline.unused: 7", [ "baseline"; "unused" ], Json.Int 7);
      ("baseline.expired: null", [ "baseline"; "expired" ], Json.Null);
      ("baseline.untagged: true", [ "baseline"; "untagged" ], Json.Bool true);
      ("findings[0].words: \"three\"", [ "findings"; "0"; "words" ], Json.String "three");
      ( "findings[0].suppression.expires: 2027",
        [ "findings"; "0"; "suppression"; "expires" ],
        Json.Int 2027 );
    ]

(* ------------------------------------------------------------------ *)
(* HTTP head reader                                                     *)
(* ------------------------------------------------------------------ *)

(* Send [head] in the given pieces, pausing between them so each lands
   in its own read, and return the response status. *)
let request_in_pieces port pieces =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt sock Unix.TCP_NODELAY true;
      List.iter
        (fun p ->
          ignore (Unix.write_substring sock p 0 (String.length p) : int);
          Unix.sleepf 0.002)
        pieces;
      let buf = Buffer.create 256 and chunk = Bytes.create 1024 in
      let rec drain () =
        let k = Unix.read sock chunk 0 (Bytes.length chunk) in
        if k > 0 then (Buffer.add_subbytes buf chunk 0 k; drain ())
      in
      drain ();
      match String.split_on_char ' ' (Buffer.contents buf) with
      | _ :: code :: _ -> int_of_string code
      | _ -> -1)

let test_http_split_heads () =
  let server = Http.start ~port:0 [ ("/ok", fun () -> Http.text "ok\n") ] in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let port = Http.port server in
      let head = "GET /ok HTTP/1.1\r\nHost: localhost\r\n\r\n" in
      checki "head sent one byte per write" 200
        (request_in_pieces port (List.init (String.length head) (fun i -> String.make 1 head.[i])));
      (* Pad a header so the CRLFCRLF starts at byte 510: two of its
         bytes end the first 512-byte read, two begin the next. *)
      let prefix = "GET /ok HTTP/1.1\r\nX-Pad: " in
      let padded = prefix ^ String.make (510 - String.length prefix) 'a' ^ "\r\n\r\n" in
      checki "terminator at 510" 510 (String.length padded - 4);
      checki "terminator straddling a 512-byte read" 200
        (request_in_pieces port [ String.sub padded 0 512; String.sub padded 512 2 ]);
      checki "terminator straddling, split one byte earlier" 200
        (request_in_pieces port [ String.sub padded 0 511; String.sub padded 511 3 ]))

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing                                                      *)
(* ------------------------------------------------------------------ *)

let rec nodes is_target j =
  let own = if is_target j then 1 else 0 in
  match j with
  | Json.Obj kvs -> List.fold_left (fun a (_, v) -> a + nodes is_target v) own kvs
  | Json.List xs -> List.fold_left (fun a v -> a + nodes is_target v) own xs
  | _ -> own

let retype = function
  | Json.Int _ -> Json.String "7"
  | Json.String _ -> Json.Bool true
  | Json.Bool _ -> Json.Float 0.5
  | Json.Float _ -> Json.List []
  | Json.List _ -> Json.Obj []
  | Json.Obj _ -> Json.Int 7
  | Json.Null -> Json.Int 0

(* Rewrite the [n]th node (in document order) that [is_target] selects;
   [None] from [f] deletes it (a member, or a list element). *)
let rewrite is_target n f doc =
  let k = ref (-1) in
  let rec go j =
    if is_target j then incr k;
    if !k = n && is_target j then f j
    else
      match j with
      | Json.Obj kvs ->
        Some (Json.Obj (List.filter_map (fun (key, v) -> Option.map (fun v -> (key, v)) (go v)) kvs))
      | Json.List xs -> Some (Json.List (List.filter_map go xs))
      | j -> Some j
  in
  Option.value (go doc) ~default:Json.Null

(* One mutation: half the time a list is cut to a random prefix (which
   often leaves a valid document, so the re-encoding check runs);
   otherwise a uniformly chosen node is deleted, retyped or nulled. *)
let mutate st doc =
  let is_list = function Json.List _ -> true | _ -> false and any _ = true in
  let lists = nodes is_list doc in
  if lists > 0 && Random.State.bool st then
    rewrite is_list (Random.State.int st lists)
      (function
        | Json.List xs ->
          let keep = Random.State.int st (List.length xs + 1) in
          Some (Json.List (List.filteri (fun i _ -> i < keep) xs))
        | j -> Some j)
      doc
  else
    rewrite any
      (Random.State.int st (nodes any doc))
      (fun j ->
        match Random.State.int st 3 with 0 -> None | 1 -> Some Json.Null | _ -> Some (retype j))
      doc

(* Decoding never raises, and whatever decodes re-encodes to a document
   that decodes to the same value. *)
let stable codec j =
  match Codec.of_json codec j with
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
  | Error _ -> true
  | Ok v -> (
    match Codec.of_json codec (Codec.to_json codec v) with
    | Ok v' -> v = v' || QCheck.Test.fail_report "re-encoding changed the value"
    | Error e -> QCheck.Test.fail_reportf "re-encoding does not decode: %s" e)

let fuzz name codec doc =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name
       QCheck.(pair int (int_range 1 3))
       (fun (seed, n) ->
         let doc = Lazy.force doc and st = Random.State.make [| seed |] in
         let rec apply k j = if k = 0 then j else apply (k - 1) (mutate st j) in
         stable codec doc && stable codec (apply n doc)))

(* A postmortem small enough to fuzz quickly that still holds one event
   of each of the eleven kinds the committed dump has, and windows with
   their update and GC groups (member deletion covers their absence). *)
let small_postmortem =
  lazy
    (match parse (read "../artifacts/t18-postmortem.json") with
    | Json.Obj kvs ->
      let firsts evs =
        List.fold_left
          (fun (seen, acc) e ->
            let kind = Json.member "type" e in
            if List.mem kind seen then (seen, acc) else (kind :: seen, e :: acc))
          ([], []) evs
        |> snd |> List.rev
      in
      Json.Obj
        (List.map
           (function
             | "events", Json.List evs -> ("events", Json.List (firsts evs))
             | "windows", Json.List ws -> ("windows", Json.List (List.filteri (fun i _ -> i < 3) ws))
             | kv -> kv)
           kvs)
    | _ -> Alcotest.fail "postmortem is not an object")

let scaling_doc =
  lazy
    (Scaling.to_json
       (Scaling.run ~seed:3
          {
            Scaling.structure = "lc";
            workload = "pos";
            domain_counts = [ 1; 2; 3 ];
            queries_per_domain = 100;
            trials = 2;
            n = 64;
          }))

let fuzz_tests =
  [
    fuzz "lowcon-bench" Artifact.codec (lazy (parse (read "../BENCH_0.json")));
    fuzz "lowcon-scaling" Scaling.codec scaling_doc;
    fuzz "lowcon-postmortem" Postmortem.codec small_postmortem;
    fuzz "lowcon-lint" Report.codec (lazy (Report.to_json (full_report ())));
    fuzz "SARIF" Sarif.log (lazy (Sarif.of_report (full_report ())));
    fuzz "lowcon-updates" Engine.Monitor.updates_codec
      (lazy (route (Lazy.force dynamic_monitor) "/updates.json"));
    fuzz "lowcon-scaling-live" Engine.Monitor.scaling_codec
      (lazy (route (Lazy.force static_monitor) "/scaling.json"));
    fuzz "lowcon-control" Engine.Monitor.control_codec
      (lazy (parse (read "../artifacts/t18-control.json")));
  ]

let () =
  Alcotest.run "lc_codec"
    [
      ( "golden",
        [
          Alcotest.test_case "BENCH_0 byte round-trip" `Quick test_bench_bytes;
          Alcotest.test_case "t18 postmortem byte round-trip" `Quick test_postmortem_bytes;
          Alcotest.test_case "t18 control byte round-trip" `Quick test_control_bytes;
          Alcotest.test_case "bench fixtures stable" `Quick test_fixtures_stable;
          Alcotest.test_case "route skeletons" `Quick test_route_skeletons;
          Alcotest.test_case "lint and SARIF skeletons" `Quick test_lint_skeletons;
        ] );
      ( "lint-report",
        [ Alcotest.test_case "rejects ill-typed members" `Quick test_lint_rejects_ill_typed ] );
      ("http", [ Alcotest.test_case "split request heads" `Quick test_http_split_heads ]);
      ("fuzz", fuzz_tests);
    ]
