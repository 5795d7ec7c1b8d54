(* Tests of the benchmark's own rules: percentiles, the fleet schedule,
   seed determinism and span trees. *)

open Perfbench

let sorted_1_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_nearest_rank () =
  let p pct n = Stats.percentile ~pct (sorted_1_to n) in
  Alcotest.(check (option (float 0.0))) "p50 of 100" (Some 50.0) (p 50 100);
  Alcotest.(check (option (float 0.0))) "p90 of 100" (Some 90.0) (p 90 100);
  Alcotest.(check (option (float 0.0))) "p90 of 250" (Some 225.0) (p 90 250);
  Alcotest.(check (option (float 0.0))) "p50 of 21 is rank 11" (Some 11.0) (p 50 21)

let test_percentile_needs_tail () =
  let p pct n = Stats.percentile ~pct (sorted_1_to n) in
  Alcotest.(check (option (float 0.0))) "p90 of 99: 9 beyond" None (p 90 99);
  Alcotest.(check (option (float 0.0))) "p50 of 19: 9 beyond" None (p 50 19);
  Alcotest.(check (option (float 0.0))) "empty" None (p 50 0);
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.min_samples ~pct:90);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.min_samples ~pct:50)

(* With every warm redeploy faster than every rotation, p50 reads a warm
   operation and p90 a rotation, whatever the run length. *)
let test_fleet_schedule_classes () =
  for n = Stats.min_samples ~pct:90 to 3000 do
    let lat =
      Array.init n (fun i ->
          match Stats.fleet_class i with Stats.Warm -> 20.0 +. float_of_int (i mod 3) | Stats.Rotate -> 250.0)
    in
    Array.sort compare lat;
    Alcotest.(check bool) (Printf.sprintf "p50 is a warm redeploy at n=%d" n) true
      (match Stats.percentile ~pct:50 lat with Some v -> v < 25.0 | None -> false);
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "p90 is a rotation at n=%d" n) (Some 250.0)
      (Stats.percentile ~pct:90 lat)
  done

let test_seed_determinism () =
  let progs seed = Workload.oracle_programs ~seed 8 in
  Alcotest.(check (array string)) "same seed, same programs" (progs 1L) (progs 1L);
  Alcotest.(check bool) "other seed, other programs" true (progs 1L <> progs 2L);
  let ids seed = Workload.device_ids ~seed 128 in
  Alcotest.(check (list int64)) "same seed, same devices" (ids 5L) (ids 5L);
  Alcotest.(check bool) "other seed, other devices" true (ids 5L <> ids 6L);
  Alcotest.(check int) "device ids distinct" 128 (List.length (List.sort_uniq compare (ids 5L)))

let ev name ~start ~dur ~depth =
  { Eric_telemetry.Span.name; cat = "test"; start_ns = start; dur_ns = dur; depth }

let test_tree_self_times () =
  let events =
    [ ev "b" ~start:12L ~dur:3L ~depth:2;
      ev "a" ~start:10L ~dur:10L ~depth:1;
      ev "c" ~start:25L ~dur:5L ~depth:1;
      ev "op" ~start:0L ~dur:40L ~depth:0 ]
  in
  match Stats.tree events with
  | Error msg -> Alcotest.fail msg
  | Ok nodes ->
    let self name = (List.find (fun n -> n.Stats.name = name) nodes).Stats.self_ns in
    Alcotest.(check int64) "op self" 25L (self "op");
    Alcotest.(check int64) "a self" 7L (self "a");
    Alcotest.(check int64) "outermost cover" 10L (Stats.covered ~names:[ "a"; "b" ] nodes)

let test_root_covers () =
  let ms x = Int64.of_float (x *. 1e6) in
  let covers lat root = Stats.root_covers ~latency_ns:(ms lat) (ms root) in
  Alcotest.(check bool) "equal" true (covers 20.0 20.0);
  Alcotest.(check bool) "span bookkeeping outside the root" true (covers 20.0 19.5);
  Alcotest.(check bool) "root misses most of the operation" false (covers 20.0 10.0);
  Alcotest.(check bool) "root longer than the operation" false (covers 20.0 21.0);
  Alcotest.(check bool) "clock rounding" true (covers 0.05 0.06)

let test_tree_rejects_overrun () =
  let events = [ ev "op" ~start:0L ~dur:10L ~depth:0; ev "late" ~start:5L ~dur:10L ~depth:1 ] in
  Alcotest.(check bool) "child past its parent" true (Result.is_error (Stats.tree events));
  let two_roots = [ ev "op" ~start:0L ~dur:10L ~depth:0; ev "op" ~start:20L ~dur:1L ~depth:0 ] in
  Alcotest.(check bool) "two roots" true (Result.is_error (Stats.tree two_roots))

(* A real traced operation of each cheap workload: every child span lies
   inside its parent, and the root span accounts for the operation as the
   monotonic clock timed it. *)
let traced_op (spec : Workload.spec) i =
  let w = spec.Workload.setup ~seed:3L in
  for j = 0 to i - 1 do
    ignore (w.Workload.run_op j)
  done;
  Eric_telemetry.Span.reset ();
  let t0 = Monotonic_clock.now () in
  let r =
    Eric_telemetry.Control.with_enabled (fun () ->
        Eric_telemetry.Span.with_ ~name:"op" (fun () -> w.Workload.run_op i))
  in
  let latency_ns = Int64.sub (Monotonic_clock.now ()) t0 in
  let events = Eric_telemetry.Span.completed () in
  Eric_telemetry.Span.reset ();
  Alcotest.(check bool) "operation succeeded" true (Result.is_ok r);
  match Stats.tree events with
  | Error msg -> Alcotest.fail msg
  | Ok (root :: _ as nodes) ->
    Alcotest.(check string) "root is the operation" "op" root.Stats.name;
    Alcotest.(check bool) "root covers the operation" true
      (Stats.root_covers ~latency_ns root.Stats.dur_ns);
    Alcotest.(check bool) "has child spans" true (List.length nodes > 1)
  | Ok [] -> Alcotest.fail "empty tree"

(* The probe must leave the program's GC untouched, and its scaling must
   cancel a uniform slowdown of the host. *)
let test_probe_allocates_nothing () =
  Host.kernel ();
  let w0 = Gc.minor_words () in
  Host.kernel ();
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. w0)

let test_scaled () =
  let r = Int64.of_float Host.reference_ns in
  let fast = Host.scaled ~times:[| 10L; 20L |] ~probes:[| r; r; r |] in
  let slow = Host.scaled ~times:[| 16L; 32L |] ~probes:[| Int64.mul r 2L; Int64.div (Int64.mul r 6L) 5L; Int64.mul r 2L |] in
  Alcotest.(check (array (float 1e-9))) "at reference speed" [| 10.0; 20.0 |] fast;
  Alcotest.(check (array (float 1e-9))) "each interval by its own probes" [| 10.0; 20.0 |] slow;
  Alcotest.check_raises "probe count" (Invalid_argument "Host.scaled: one probe more than intervals expected")
    (fun () -> ignore (Host.scaled ~times:[| 1L |] ~probes:[| 1L |]))

let test_traced_oracle () = traced_op Workload.oracle 0

(* Operation 4 is the first rotate+redeploy. *)
let test_traced_fleet_rotation () = traced_op Workload.fleet 4

let () =
  Alcotest.run "perfbench"
    [ ("percentile",
       [ Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
         Alcotest.test_case "tail needs ten samples" `Quick test_percentile_needs_tail ]);
      ("host",
       [ Alcotest.test_case "probe allocates nothing" `Quick test_probe_allocates_nothing;
         Alcotest.test_case "scaling" `Quick test_scaled ]);
      ("fleet", [ Alcotest.test_case "p50 warm, p90 rotate" `Quick test_fleet_schedule_classes ]);
      ("seed", [ Alcotest.test_case "inputs follow the seed" `Quick test_seed_determinism ]);
      ("trace",
       [ Alcotest.test_case "self times" `Quick test_tree_self_times;
         Alcotest.test_case "overrun rejected" `Quick test_tree_rejects_overrun;
         Alcotest.test_case "root covers the operation" `Quick test_root_covers;
         Alcotest.test_case "oracle operation" `Quick test_traced_oracle;
         Alcotest.test_case "fleet rotation" `Quick test_traced_fleet_rotation ]) ]
