(* Schema-versioned bench artifacts: the BENCH_<n>.json documents a perf
   trajectory is made of. An artifact is only useful if a future session
   can trust it, so everything that could silently change the numbers —
   toolchain, machine, engine calibration constants, seed, git revision
   — is pinned in a fingerprint, the writer rejects non-finite floats
   with a typed error instead of emitting nulls, and the reader
   validates schema name and version before believing a single field. *)

module Codec = Lc_obs.Codec

let schema_name = "lowcon-bench"
let schema_version = 1

type ci = { mean : float; lo : float; hi : float; samples : float list }

type entry = {
  structure : string;
  workload : string;
  domains : int;
  queries_per_domain : int;
  trials : int;
  ns_per_query : ci;
  probes_per_query : ci;
  p50_ns : float;
  p99_ns : float;
  hotspot_ratio : float;
  queries : int;
  probes : int;
  ns_per_update : ci option;
  write_amp : float option;
  minor_words_per_query : float option;
  major_collections : int option;
}

type fingerprint = {
  ocaml_version : string;
  os_type : string;
  word_size : int;
  cores : int;
  git_rev : string;
  seed : int;
  clock_overhead_ns : float;
  probe_sample_period : int;
  created_unix : float;
}

type t = { fingerprint : fingerprint; entries : entry list }

(* ---------------- fingerprinting ---------------- *)

let read_file_opt path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception End_of_file -> None)

(* Resolve HEAD by hand (no git subprocess): follow the symbolic ref to
   its loose file, fall back to packed-refs, then to "unknown" — an
   artifact written outside a checkout is still valid, just unpinned. *)
let git_rev () =
  let rec find_root dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir ".git/HEAD") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent (depth + 1)
  in
  match find_root (Sys.getcwd ()) 0 with
  | None -> "unknown"
  | Some root -> (
    match read_file_opt (Filename.concat root ".git/HEAD") with
    | None -> "unknown"
    | Some head -> (
      let head = String.trim head in
      match String.length head >= 5 && String.sub head 0 5 = "ref: " with
      | false -> head (* detached HEAD: the hash itself *)
      | true -> (
        let r = String.sub head 5 (String.length head - 5) in
        match read_file_opt (Filename.concat root (Filename.concat ".git" r)) with
        | Some rev -> String.trim rev
        | None -> (
          match read_file_opt (Filename.concat root ".git/packed-refs") with
          | None -> "unknown"
          | Some packed ->
            let suffix = " " ^ r in
            let matches line =
              String.length line > String.length suffix
              && String.sub line
                   (String.length line - String.length suffix)
                   (String.length suffix)
                 = suffix
            in
            (match List.find_opt matches (String.split_on_char '\n' packed) with
            | Some line -> String.sub line 0 (String.index line ' ')
            | None -> "unknown")))))

let clock_overhead_ns () =
  let reps = 1024 in
  let t0 = Lc_obs.Clock.now_ns () in
  for _ = 2 to reps do
    ignore (Lc_obs.Clock.now_ns () : int64)
  done;
  let t1 = Lc_obs.Clock.now_ns () in
  Int64.to_float (Int64.sub t1 t0) /. float_of_int reps

let fingerprint ~seed =
  {
    ocaml_version = Sys.ocaml_version;
    os_type = Sys.os_type;
    word_size = Sys.word_size;
    cores = Domain.recommended_domain_count ();
    git_rev = git_rev ();
    seed;
    clock_overhead_ns = clock_overhead_ns ();
    probe_sample_period = Lc_parallel.Engine.probe_sample_period;
    created_unix = Unix.time ();
  }

(* ---------------- the lowcon-bench description ---------------- *)

let ci_codec =
  Codec.record
    (fun mean lo hi samples ->
      if samples = [] then Codec.fail "samples must be non-empty";
      if lo > hi then Codec.fail "confidence interval has lo > hi";
      { mean; lo; hi; samples })
    Codec.
      [
        req "mean" float (fun c -> c.mean);
        req "lo" float (fun c -> c.lo);
        req "hi" float (fun c -> c.hi);
        req "samples" (list float) (fun c -> c.samples);
      ]

(* The update-path fields (ns_per_update, write_amp) are written only for
   configurations that exercised the update path, and the GC fields only
   by suites that measured them, so artifacts from older suites stay
   byte-compatible and read back with [None]. *)
let entry_codec =
  Codec.record
    (fun structure workload domains queries_per_domain trials ns_per_query probes_per_query p50_ns
         p99_ns hotspot_ratio queries probes ns_per_update write_amp minor_words_per_query
         major_collections ->
      if domains < 1 then Codec.fail "domains must be >= 1";
      if trials < 1 then Codec.fail "trials must be >= 1";
      {
        structure;
        workload;
        domains;
        queries_per_domain;
        trials;
        ns_per_query;
        probes_per_query;
        p50_ns;
        p99_ns;
        hotspot_ratio;
        queries;
        probes;
        ns_per_update;
        write_amp;
        minor_words_per_query;
        major_collections;
      })
    Codec.
      [
        req "structure" string (fun e -> e.structure);
        req "workload" string (fun e -> e.workload);
        req "domains" int (fun e -> e.domains);
        req "queries_per_domain" int (fun e -> e.queries_per_domain);
        req "trials" int (fun e -> e.trials);
        req "ns_per_query" ci_codec (fun e -> e.ns_per_query);
        req "probes_per_query" ci_codec (fun e -> e.probes_per_query);
        req "p50_ns" float (fun e -> e.p50_ns);
        req "p99_ns" float (fun e -> e.p99_ns);
        req "hotspot_ratio" float (fun e -> e.hotspot_ratio);
        req "queries" int (fun e -> e.queries);
        req "probes" int (fun e -> e.probes);
        opt "ns_per_update" ci_codec (fun e -> e.ns_per_update);
        opt "write_amp" float (fun e -> e.write_amp);
        opt "minor_words_per_query" float (fun e -> e.minor_words_per_query);
        opt "major_collections" int (fun e -> e.major_collections);
      ]

let fingerprint_codec =
  Codec.record
    (fun ocaml_version os_type word_size cores git_rev seed clock_overhead_ns probe_sample_period
         created_unix ->
      {
        ocaml_version;
        os_type;
        word_size;
        cores;
        git_rev;
        seed;
        clock_overhead_ns;
        probe_sample_period;
        created_unix;
      })
    Codec.
      [
        req "ocaml_version" string (fun f -> f.ocaml_version);
        req "os_type" string (fun f -> f.os_type);
        req "word_size" int (fun f -> f.word_size);
        req "cores" int (fun f -> f.cores);
        req "git_rev" string (fun f -> f.git_rev);
        req "seed" int (fun f -> f.seed);
        req "clock_overhead_ns" float (fun f -> f.clock_overhead_ns);
        req "probe_sample_period" int (fun f -> f.probe_sample_period);
        req "created_unix" float (fun f -> f.created_unix);
      ]

let codec =
  Codec.document ~schema:schema_name ~version:schema_version
    ~describe:(fun t ->
      Printf.sprintf "%d entries, seed %d" (List.length t.entries) t.fingerprint.seed)
    (Codec.record
       (fun fingerprint entries ->
         if entries = [] then Codec.fail "entries must be non-empty";
         { fingerprint; entries })
       Codec.
         [
           req "fingerprint" fingerprint_codec (fun t -> t.fingerprint);
           req "entries" (list entry_codec) (fun t -> t.entries);
         ])

let to_json = Codec.to_json codec
let to_string = Codec.to_string ~what:"Artifact.to_string" codec
let of_json = Codec.of_json codec
let of_string = Codec.of_string codec
let load = Codec.load codec
let json_of_fingerprint = Codec.to_json fingerprint_codec
let json_of_ci = Codec.to_json ci_codec
let ci_of_json name = Codec.of_json (Codec.record Fun.id Codec.[ req name ci_codec Fun.id ])

let fingerprint_of_json =
  Codec.of_json (Codec.record Fun.id Codec.[ req "fingerprint" fingerprint_codec Fun.id ])

let write ~path t = Lc_obs.Export.write_file ~path (to_string t)

let next_path ~dir =
  let taken n = Sys.file_exists (Filename.concat dir (Printf.sprintf "BENCH_%d.json" n)) in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let max_n =
    Array.fold_left
      (fun acc name ->
        match Scanf.sscanf_opt name "BENCH_%d.json%!" (fun n -> n) with
        | Some n -> max acc n
        | None -> acc)
      (-1) entries
  in
  let n = max_n + 1 in
  assert (not (taken n));
  Filename.concat dir (Printf.sprintf "BENCH_%d.json" n)

let key (e : entry) = (e.structure, e.workload, e.domains)
