(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md's experiment index), the ablation
   studies, and the bechamel microbenchmarks.

   Usage: main.exe [table1|table2|fig5|fig6|fig7|ablations|lint|fleet|engine|serve|pufrel|obf|verif|micro|all]... *)

let experiments =
  [ ("table1", Experiments.table1);
    ("table2", Experiments.table2);
    ("fig5", Experiments.fig5);
    ("fig6", Experiments.fig6);
    ("fig7", Experiments.fig7);
    ("ablations", Experiments.ablations);
    ("lint", Experiments.lint);
    ("fleet", Experiments.fleet);
    ("engine", Experiments.engine);
    ("serve", Experiments.serve);
    ("pufrel", Experiments.pufrel);
    ("obf", Experiments.obf);
    ("verif", Experiments.verif);
    ("micro", Micro.run) ]

let run_all () = List.iter (fun (_, f) -> f ()) experiments

(* Dump every bench.result{suite,metric,unit} gauge the run recorded
   (see Report.record) as machine-readable JSON, one row per metric.
   Suites not exercised by this run keep their rows from the existing
   file, so a partial run (e.g. `main.exe verif`) refreshes its own
   numbers without discarding everyone else's. *)
let results_file = "BENCH_results.json"

(* (suite, row) pairs of the existing results file; a file that does
   not parse keeps nothing. *)
let existing_rows () =
  if not (Sys.file_exists results_file) then []
  else
    match
      Eric_telemetry.Json.of_string (In_channel.with_open_bin results_file In_channel.input_all)
    with
    | Ok (Eric_telemetry.Json.List rows) ->
      List.filter_map
        (fun row ->
          Option.map
            (fun suite -> (suite, Eric_telemetry.Json.to_string row))
            (Option.bind (Eric_telemetry.Json.member "suite" row) Eric_telemetry.Json.to_str))
        rows
    | Ok _ | Error _ -> []

let write_results () =
  let snapshot = Eric_telemetry.Snapshot.capture () in
  let rows =
    List.filter_map
      (fun (name, labels, value) ->
        if name <> "bench.result" then None
        else
          let label key = Option.value ~default:"" (List.assoc_opt key labels) in
          Some
            ( label "suite",
              Eric_telemetry.Json.to_string
                (Eric_telemetry.Json.Obj
                   [ ("suite", Eric_telemetry.Json.Str (label "suite"));
                     ("metric", Eric_telemetry.Json.Str (label "metric"));
                     ("value", Eric_telemetry.Json.Num value);
                     ("unit", Eric_telemetry.Json.Str (label "unit")) ]) ))
      snapshot.Eric_telemetry.Snapshot.gauges
  in
  if rows <> [] then begin
    let fresh_suites = List.map fst rows in
    let kept =
      List.filter (fun (suite, _) -> not (List.mem suite fresh_suites)) (existing_rows ())
    in
    let all = List.map snd kept @ List.map snd rows in
    let oc = open_out results_file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc ("[" ^ String.concat "," all ^ "]");
        output_char oc '\n');
    Printf.printf "\n%d results -> %s (%d kept from previous runs)\n" (List.length rows)
      results_file (List.length kept)
  end

let () =
  (match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> run_all ()
  | _ :: picks ->
    List.iter
      (fun pick ->
        match List.assoc_opt pick experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; known: %s all\n" pick
            (String.concat " " (List.map fst experiments));
          exit 2)
      picks
  | [] -> run_all ());
  write_results ()
