(* The lint report: findings annotated with their suppression status,
   parse errors, baseline accounting, and the schema-versioned JSON
   encoding ("lowcon-lint" v2) that `lowcon validate` checks. v2 over
   v1: findings may carry "words" (LC008's estimated words allocated
   per call) and the baseline summary carries "untagged" (prose-only
   entries that declare neither owner= nor protocol=).

   Exit-code contract (shared with the CLI and documented in
   `lowcon --help`): 0 = clean or fully suppressed, 1 = active
   findings, 2 = usage or parse error. Parse errors dominate findings:
   a tree the linter cannot read is not a tree it can vouch for. *)

module Codec = Lc_obs.Codec

let schema_name = "lowcon-lint"
let schema_version = 2

type suppression = {
  justification : string;
  expires : string option;  (* YYYY-MM-DD *)
  entry_line : int;  (* line in the baseline file *)
}

type annotated = { finding : Finding.t; suppressed : suppression option }

type parse_error = { pe_file : string; pe_line : int; pe_col : int; pe_message : string }

type baseline_summary = {
  baseline_path : string;
  entries : int;
  used : int;
  unused : (string * int) list;  (* entry text, baseline line *)
  expired : (string * int) list;
  untagged : (string * int) list;  (* prose-only entries: no owner=/protocol= *)
}

type t = {
  root : string;
  files_scanned : int;
  rules : Rule.t list;
  results : annotated list;
  parse_errors : parse_error list;
  baseline : baseline_summary option;
}

let active r = List.filter (fun a -> a.suppressed = None) r.results
let suppressed r = List.filter (fun a -> a.suppressed <> None) r.results

let exit_code r =
  if r.parse_errors <> [] then 2 else if active r <> [] then 1 else 0

(* ------------------------------------------------------------------ *)
(* The lowcon-lint description (to_json, of_json and validate)         *)
(* ------------------------------------------------------------------ *)

let rule_codec = Codec.enum (List.map (fun r -> (Rule.id r, r)) Rule.all)

let suppression_codec =
  Codec.record
    (fun justification entry_line expires -> { justification; expires; entry_line })
    Codec.
      [
        req "justification" string (fun s -> s.justification);
        req "entry_line" int (fun s -> s.entry_line);
        opt "expires" string (fun s -> s.expires);
      ]

let annotated_codec =
  Codec.record
    (fun rule file line col context message words flag suppressed ->
      if flag <> (suppressed <> None) then
        Codec.fail "\"suppressed\" disagrees with \"suppression\"";
      { finding = { Finding.rule; file; line; col; context; message; words }; suppressed })
    Codec.
      [
        req "rule" rule_codec (fun a -> a.finding.Finding.rule);
        req "file" string (fun a -> a.finding.Finding.file);
        req "line" int (fun a -> a.finding.Finding.line);
        req "col" int (fun a -> a.finding.Finding.col);
        req "context" string (fun a -> a.finding.Finding.context);
        req "message" string (fun a -> a.finding.Finding.message);
        opt "words" int (fun a -> a.finding.Finding.words);
        req "suppressed" bool (fun a -> a.suppressed <> None);
        opt "suppression" suppression_codec (fun a -> a.suppressed);
      ]

let rule_info_codec =
  Codec.record
    (fun rule _title _intent -> rule)
    Codec.
      [ req "id" rule_codec Fun.id; req "title" string Rule.title; req "intent" string Rule.intent ]

let parse_error_codec =
  Codec.record
    (fun pe_file pe_line pe_col pe_message -> { pe_file; pe_line; pe_col; pe_message })
    Codec.
      [
        req "file" string (fun pe -> pe.pe_file);
        req "line" int (fun pe -> pe.pe_line);
        req "col" int (fun pe -> pe.pe_col);
        req "message" string (fun pe -> pe.pe_message);
      ]

(* The summary is derived from the findings; a decoded report must agree
   with its own recomputation. *)
let summary_counts r =
  (List.length (active r), List.length (suppressed r), List.length r.parse_errors, exit_code r)

let summary_codec =
  Codec.record
    (fun a s p e -> (a, s, p, e))
    Codec.
      [
        req "active" int (fun (a, _, _, _) -> a);
        req "suppressed" int (fun (_, s, _, _) -> s);
        req "parse_errors" int (fun (_, _, p, _) -> p);
        req "exit_code" int (fun (_, _, _, e) -> e);
      ]

let baseline_codec =
  let entry_lines =
    Codec.(list (record (fun e l -> (e, l)) [ req "entry" string fst; req "line" int snd ]))
  in
  Codec.record
    (fun baseline_path entries used unused expired untagged ->
      { baseline_path; entries; used; unused; expired; untagged })
    Codec.
      [
        req "path" string (fun b -> b.baseline_path);
        req "entries" int (fun b -> b.entries);
        req "used" int (fun b -> b.used);
        req "unused" entry_lines (fun b -> b.unused);
        req "expired" entry_lines (fun b -> b.expired);
        req "untagged" entry_lines (fun b -> b.untagged);
      ]

let codec =
  Codec.document ~schema:schema_name ~version:schema_version
    ~describe:(fun r ->
      let a, s, _, _ = summary_counts r in
      Printf.sprintf "%d file(s) scanned, %d active / %d suppressed finding(s)" r.files_scanned a s)
    (Codec.record
       (fun root files_scanned rules results parse_errors summary baseline ->
         let r = { root; files_scanned; rules; results; parse_errors; baseline } in
         let a, s, p, e = summary_counts r in
         if summary <> (a, s, p, e) then
           Codec.fail
             (Printf.sprintf
                "summary disagrees with the findings, which imply active %d, suppressed %d, \
                 parse_errors %d, exit_code %d"
                a s p e);
         r)
       Codec.
         [
           req "root" string (fun r -> r.root);
           req "files_scanned" int (fun r -> r.files_scanned);
           req "rules" (list rule_info_codec) (fun r -> r.rules);
           req "findings" (list annotated_codec) (fun r -> r.results);
           req "parse_errors" (list parse_error_codec) (fun r -> r.parse_errors);
           req "summary" summary_codec summary_counts;
           opt "baseline" baseline_codec (fun r -> r.baseline);
         ])

let to_json = Codec.to_json codec
let of_json = Codec.of_json codec

(* ------------------------------------------------------------------ *)
(* Renderings                                                          *)
(* ------------------------------------------------------------------ *)

let render_text ?(show_suppressed = false) r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun pe ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: parse error: %s\n" pe.pe_file pe.pe_line pe.pe_col
           pe.pe_message))
    r.parse_errors;
  List.iter
    (fun a -> Buffer.add_string buf (Finding.to_string a.finding ^ "\n"))
    (active r);
  if show_suppressed then
    List.iter
      (fun a ->
        match a.suppressed with
        | Some s ->
          Buffer.add_string buf
            (Printf.sprintf "%s  [suppressed: %s]\n" (Finding.to_string a.finding)
               s.justification)
        | None -> ())
      r.results;
  (match r.baseline with
  | Some b ->
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf
          (Printf.sprintf "%s:%d: warning: unused baseline entry: %s\n" b.baseline_path line
             text))
      b.unused;
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf
          (Printf.sprintf "%s:%d: note: expired baseline entry (finding resurfaces): %s\n"
             b.baseline_path line text))
      b.expired;
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf
          (Printf.sprintf
             "%s:%d: warning: prose-only baseline entry (add owner= or protocol=): %s\n"
             b.baseline_path line text))
      b.untagged
  | None -> ());
  let n_active = List.length (active r) in
  Buffer.add_string buf
    (Printf.sprintf "%d file(s) scanned, %d active finding(s), %d suppressed, %d parse error(s)\n"
       r.files_scanned n_active
       (List.length (suppressed r))
       (List.length r.parse_errors));
  Buffer.contents buf

(* GitHub job-summary flavour: a table of active findings. *)
let render_markdown r =
  let buf = Buffer.create 1024 in
  let n_active = List.length (active r) in
  Buffer.add_string buf
    (Printf.sprintf "## lc_lint: %d active finding(s), %d suppressed, %d file(s) scanned\n\n"
       n_active
       (List.length (suppressed r))
       r.files_scanned);
  if r.parse_errors <> [] then begin
    Buffer.add_string buf "### Parse errors\n\n";
    List.iter
      (fun pe ->
        Buffer.add_string buf
          (Printf.sprintf "- `%s:%d:%d` %s\n" pe.pe_file pe.pe_line pe.pe_col pe.pe_message))
      r.parse_errors;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "### Active findings by rule\n\n";
  Buffer.add_string buf "| Rule | Title | Active | Suppressed |\n|------|-------|-------:|-----------:|\n";
  List.iter
    (fun rule ->
      if List.mem rule r.rules then begin
        let of_list l = List.length (List.filter (fun a -> a.finding.Finding.rule = rule) l) in
        Buffer.add_string buf
          (Printf.sprintf "| %s | %s | %d | %d |\n" (Rule.id rule) (Rule.title rule)
             (of_list (active r)) (of_list (suppressed r)))
      end)
    Rule.all;
  Buffer.add_char buf '\n';
  if n_active > 0 then begin
    Buffer.add_string buf "| Rule | Location | Context | Message |\n";
    Buffer.add_string buf "|------|----------|---------|--------|\n";
    List.iter
      (fun a ->
        let f = a.finding in
        Buffer.add_string buf
          (Printf.sprintf "| %s | `%s:%d:%d` | `%s` | %s |\n" (Rule.id f.Finding.rule)
             f.Finding.file f.Finding.line f.Finding.col f.Finding.context f.Finding.message))
      (active r)
  end
  else if r.parse_errors = [] then Buffer.add_string buf "No unsuppressed findings. :white_check_mark:\n";
  (match r.baseline with
  | Some b when b.unused <> [] ->
    Buffer.add_string buf "\n### Unused baseline entries\n\n";
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf (Printf.sprintf "- line %d: `%s`\n" line text))
      b.unused
  | _ -> ());
  Buffer.contents buf
