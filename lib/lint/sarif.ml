(* SARIF 2.1.0 export of a lint report, for GitHub code scanning.

   One run, one driver ("lowcon-lint"), one rule descriptor per LC
   rule, one result per finding. Suppressed findings are exported with
   a [suppressions] entry of kind "external" (the baseline file is
   external to the source), which code-scanning UIs render as resolved
   rather than dropping silently — the allowlist stays visible. Parse
   errors become tool-execution notifications on the invocation, and
   flip [executionSuccessful] to false.

   [validate] is the checker behind `lowcon validate`: it decodes with
   the description [of_report] writes with (version string, run, tool
   and driver shape, every result's ruleId declared by the driver,
   1-based regions, the suppression kind), so CI catches a malformed
   export before the upload step does. *)

module Json = Lc_obs.Json
module Codec = Lc_obs.Codec

let version = "2.1.0"
let schema_uri = "https://json.schemastore.org/sarif-2.1.0.json"

(* The level every result, notification and rule default carries. *)
let error = Codec.lit (Json.String "error")

(* A one-member object, and a one-element list. *)
let wrap name c = Codec.(record Fun.id [ req name c Fun.id ])
let one x = [ x ]

let text = wrap "text" Codec.string

(* SARIF regions are 1-based in both coordinates; findings carry
   compiler-style 0-based columns and lines of at least 1. *)
let region =
  Codec.record
    (fun line col ->
      if line < 1 then Codec.fail "region.startLine must be 1-based";
      if col < 1 then Codec.fail "region.startColumn must be 1-based";
      (line, col - 1))
    Codec.
      [
        req "startLine" int (fun (line, _) -> max 1 line);
        req "startColumn" int (fun (_, col) -> col + 1);
      ]

let location =
  wrap "physicalLocation"
    (Codec.record
       (fun file (line, col) -> (file, line, col))
       Codec.
         [
           req "artifactLocation" (wrap "uri" string) (fun (file, _, _) -> file);
           req "region" region (fun (_, line, col) -> (line, col));
         ])

let one_location = function [ l ] -> l | _ -> Codec.fail "expected exactly one location"

let rule_descriptor =
  Codec.record
    (fun rule _name _short _full () -> rule)
    Codec.
      [
        req "id" Report.rule_codec Fun.id;
        req "name" string Rule.id;
        req "shortDescription" text Rule.title;
        req "fullDescription" text Rule.intent;
        req "defaultConfiguration" (record Fun.id [ req "level" error ignore ]) ignore;
      ]

let properties =
  Codec.record
    (fun context words -> (context, words))
    Codec.[ req "context" string fst; opt "wordsPerCall" int snd ]

(* Suppressed findings are exported with a suppression of kind
   "external" (the baseline file is external to the source), which
   code-scanning UIs render as resolved rather than dropping silently —
   the allowlist stays visible. SARIF keeps neither the expiry nor the
   baseline line of a suppression. *)
let suppression =
  Codec.record
    (fun () justification -> { Report.justification; expires = None; entry_line = 0 })
    Codec.
      [
        req "kind" (lit (Json.String "external")) ignore;
        req "justification" string (fun s -> s.Report.justification);
      ]

(* A result, with the driver index of its rule. *)
let result =
  Codec.record
    (fun rule index () message locations (context, words) suppressions ->
      let file, line, col = one_location locations in
      let suppressed =
        match suppressions with
        | None -> None
        | Some [ s ] -> Some s
        | Some _ -> Codec.fail "expected at most one suppression"
      in
      let finding = { Finding.rule; file; line; col; context; message; words } in
      (index, { Report.finding; suppressed }))
    Codec.
      [
        req "ruleId" Report.rule_codec (fun (_, a) -> a.Report.finding.Finding.rule);
        opt "ruleIndex" int fst;
        req "level" error ignore;
        req "message" text (fun (_, a) -> a.Report.finding.Finding.message);
        req "locations" (list location) (fun (_, { Report.finding = f; _ }) ->
            one (f.file, f.line, f.col));
        req "properties" properties (fun (_, { Report.finding = f; _ }) -> (f.context, f.words));
        opt "suppressions" (list suppression) (fun (_, a) -> Option.map one a.Report.suppressed);
      ]

(* Parse errors become tool-execution notifications on the invocation,
   and flip [executionSuccessful] to false. *)
let notification =
  Codec.record
    (fun () pe_message locations ->
      let pe_file, pe_line, pe_col = one_location locations in
      { Report.pe_file; pe_line; pe_col; pe_message })
    Codec.
      [
        req "level" error ignore;
        req "message" text (fun pe -> pe.Report.pe_message);
        req "locations" (list location) (fun pe ->
            one (pe.Report.pe_file, pe.Report.pe_line, pe.Report.pe_col));
      ]

let driver =
  Codec.record
    (fun () () rules -> rules)
    Codec.
      [
        req "name" (lit (Json.String Report.schema_name)) ignore;
        req "version" (lit (Json.String (string_of_int Report.schema_version))) ignore;
        req "rules" (list rule_descriptor) Fun.id;
      ]

let invocation =
  Codec.record
    (fun ok code notes -> (ok, code, Option.value ~default:[] notes))
    Codec.
      [
        req "executionSuccessful" bool (fun (ok, _, _) -> ok);
        req "exitCode" int (fun (_, code, _) -> code);
        opt "toolExecutionNotifications" (list notification) (fun (_, _, pes) ->
            if pes = Stdlib.List.[] then None else Some pes);
      ]

let index_of rules rule =
  let rec go i = function [] -> None | r :: _ when r = rule -> Some i | _ :: tl -> go (i + 1) tl in
  go 0 rules

let indexed rules (a : Report.annotated) = (index_of rules a.finding.rule, a)
let invocation_of (r : Report.t) = (r.parse_errors = [], Report.exit_code r, r.parse_errors)

(* One run, one driver, one rule descriptor per LC rule, one result per
   finding. Decoding checks what the writer guarantees: every result's
   rule is declared by the driver at its [ruleIndex], and the one
   invocation agrees with the parse errors and the exit code. The
   report's root, file count and baseline are not part of SARIF. *)
let run =
  Codec.record
    (fun rules invocations results ->
      List.iter
        (fun (index, (a : Report.annotated)) ->
          let id = Rule.id a.finding.rule in
          if not (List.mem a.finding.rule rules) then
            Codec.fail (Printf.sprintf "result ruleId %S not declared by the driver" id);
          if index <> index_of rules a.finding.rule then
            Codec.fail (Printf.sprintf "result ruleIndex does not point at %S" id))
        results;
      let parse_errors =
        match invocations with
        | [ (_, _, pes) ] -> pes
        | _ -> Codec.fail "expected exactly one invocation"
      in
      let r =
        {
          Report.root = "";
          files_scanned = 0;
          rules;
          results = List.map snd results;
          parse_errors;
          baseline = None;
        }
      in
      if invocations <> [ invocation_of r ] then
        Codec.fail "invocation disagrees with the parse errors and exit code";
      r)
    Codec.
      [
        req "tool" (wrap "driver" driver) (fun r -> r.Report.rules);
        req "invocations" (list invocation) (fun r -> one (invocation_of r));
        req "results" (list result) (fun r -> List.map (indexed r.Report.rules) r.Report.results);
      ]

let non_empty = function [] -> Error "runs is empty" | _ -> Ok ()

let log =
  Codec.record
    (fun () () runs -> runs)
    Codec.
      [
        req "$schema" (lit (Json.String schema_uri)) ignore;
        req "version" (lit (Json.String version)) ignore;
        req "runs" (check non_empty (list run)) Fun.id;
      ]

let of_report r = Codec.to_json log [ r ]

(* The checker behind `lowcon validate`: decoding with the description
   of_report writes with, so CI catches a malformed export before the
   upload step does. *)
let validate j = Result.map ignore (Codec.of_json log j)
