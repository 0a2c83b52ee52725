(* Every bench key, pinned.

   Runs bench/main.exe once with no flags, in a fresh temporary directory
   so no BENCH_results.json is left behind, and compares the experiments
   object of its results file with test/corpus/golden/bench_experiments.json
   key by key.  Every key is a virtual-time metric, so any difference is a
   moved key: the failure lists each one as [table.key: golden -> got].

   Regenerate the golden only when a key is meant to move, from the
   experiments object of a full bench/main.exe run, and list each moved key
   with the change. *)

module J = Thc_obsv.Json

(* Under `dune runtest` the cwd is the sandboxed test directory; under
   `dune exec test/test_bench_golden.exe` it is the workspace root. *)
let find_path candidates = List.find Sys.file_exists candidates

let golden_path () =
  find_path
    [ "corpus/golden/bench_experiments.json";
      "test/corpus/golden/bench_experiments.json" ]

let bench_exe () =
  let exe = find_path [ "../bench/main.exe"; "_build/default/bench/main.exe" ] in
  if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe

let parse_file path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" path e

(* Run the bench in a temporary directory and return its results file. *)
let run_bench () =
  let exe = bench_exe () in
  let dir = Filename.temp_dir "thc-bench-" "" in
  let results = Filename.concat dir "BENCH_results.json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists results then Sys.remove results;
      Sys.rmdir dir)
    (fun () ->
      let cmd =
        Printf.sprintf "cd %s && %s > %s" (Filename.quote dir)
          (Filename.quote exe) Filename.null
      in
      let code = Sys.command cmd in
      if code <> 0 then Alcotest.failf "%s exited %d" exe code;
      parse_file results)

let tables what = function
  | J.Obj ts ->
    List.map
      (function
        | t, J.Obj kvs -> (t, kvs)
        | t, _ -> Alcotest.failf "%s: table %s is not an object" what t)
      ts
  | _ -> Alcotest.failf "%s: experiments is not an object" what

(* Every (table, key) in either object whose value differs, rendered as
   [table.key: golden -> got]. *)
let moved ~golden ~got =
  let keys ts =
    List.concat_map (fun (t, kvs) -> List.map (fun (k, _) -> (t, k)) kvs) ts
  in
  let find ts (t, k) = Option.bind (List.assoc_opt t ts) (List.assoc_opt k) in
  let show = Option.fold ~none:"<missing>" ~some:J.to_string in
  List.filter_map
    (fun ((t, k) as key) ->
      let g = find golden key and v = find got key in
      if Option.equal J.equal g v then None
      else Some (Printf.sprintf "%s.%s: %s -> %s" t k (show g) (show v)))
    (List.sort_uniq compare (keys golden @ keys got))

let test_every_key_pinned () =
  let doc = run_bench () in
  Alcotest.(check (option string))
    "schema" (Some "thc-bench/v2")
    (Option.bind (J.member "schema" doc) J.to_str);
  let got =
    match J.member "experiments" doc with
    | Some e -> tables "BENCH_results.json" e
    | None -> Alcotest.fail "BENCH_results.json has no experiments object"
  in
  let golden = tables "golden" (parse_file (golden_path ())) in
  match moved ~golden ~got with
  | [] -> ()
  | keys ->
    Alcotest.failf "%d bench key(s) moved:\n%s" (List.length keys)
      (String.concat "\n" keys)

let () =
  Alcotest.run "bench-golden"
    [
      ( "bench",
        [ Alcotest.test_case "every key matches golden" `Quick
            test_every_key_pinned ] );
    ]
