(* One benchmark run of one workload, in its own process.

     bench.exe --workload oracle|fig7|fleet --seed N --seconds S --trace 0|1
               --count-only 0|1

   Set-up runs the workload's fixed number of times (setup_s is their
   median; the last one is kept), then the timed loop runs whole schedule
   cycles until [seconds] have passed and at least [min_ops] operations
   completed.  The host-speed probe ([Host.kernel]) runs before the first
   set-up and after every set-up and operation, outside their timing.
   Each set-up and operation is scaled by the mean of the two probes
   around it to the reference box's speed, and the end-to-end timings are
   taken over the scaled values; the info line carries the unscaled ones
   too.  peak_rss_mb is read after operation [min_ops], a point
   every run reaches, so that a faster program that completes more
   operations does not read as a larger one.

   The first [count_ops] operations are the exact-count segment: GC
   counts are taken around it, and it always runs with telemetry off,
   because the telemetry clock allocates only when time has advanced
   and would make the counts vary from run to run.  --count-only stops
   after the segment; a second process with the same seed must repeat
   its counts exactly.  The flag takes a value so that both processes
   parse equally long command lines: any allocation difference before
   the segment can move a major collection across its boundary.  With --trace 1 telemetry is on after the
   segment, every later operation is the root of its own span tree, and
   the output carries per-layer metrics instead of end-to-end ones.

   The last line of standard output is one JSON object. *)

open Perfbench

module Json = Eric_telemetry.Json
module Span = Eric_telemetry.Span

(* p90 needs ten samples beyond it. *)
let min_ops = Stats.min_samples ~pct:90

(* Stop even short of [min_ops] so the process always ends in time. *)
let hard_stop_s = 110.0

let usage () =
  prerr_endline
    "usage: bench.exe --workload oracle|fig7|fleet --seed N --seconds S --trace 0|1 \
       --count-only 0|1";
  exit 2

type args = { workload : string; seed : int64; seconds : float; trace : bool; count_only : bool }

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let count_only = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Int64.of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--count-only" :: ("0" | "1" as v) :: rest -> count_only := Some (v = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace, !count_only) with
  | Some workload, Some seed, Some seconds, Some trace, Some count_only ->
    { workload; seed; seconds; trace; count_only }
  | _ -> usage ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Allocation-free monotonic clock, so timing the loop leaves the GC
   counts untouched. *)
let now_ns = Monotonic_clock.now

let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let probe_ns () =
  let t0 = now_ns () in
  Host.kernel ();
  Int64.sub (now_ns ()) t0

(* Lists are kept newest first while the loop runs. *)
let scaled ~times ~probes =
  Host.scaled ~times:(Array.of_list (List.rev times)) ~probes:(Array.of_list (List.rev probes))

(* ------------------------------------------------------------------ *)
(* Per-layer aggregation over traced operations                        *)
(* ------------------------------------------------------------------ *)

let frontend =
  [ "cc.lex"; "cc.parse"; "cc.typecheck"; "cc.lower"; "cc.opt"; "cc.obf"; "lint.ir_verify" ]

let backend = [ "cc.codegen"; "cc.regalloc"; "cc.assemble" ]
let packaging = [ "core.prepare"; "core.encrypt"; "core.serialize"; "core.parse" ]

(* Raw per-operation values, summed per operation class. *)
let raw_values (nodes : Stats.node list) =
  let ns = Int64.to_float in
  let count name = float_of_int (List.length (List.filter (fun n -> n.Stats.name = name) nodes)) in
  let sum f name =
    List.fold_left (fun acc n -> if n.Stats.name = name then acc +. ns (f n) else acc) 0.0 nodes
  in
  let dur = sum (fun n -> n.Stats.dur_ns) and self = sum (fun n -> n.Stats.self_ns) in
  let engine_self_under parent =
    List.fold_left
      (fun acc n ->
        if n.Stats.name = "engine.run" && Stats.parent n = Some parent then acc +. ns n.Stats.self_ns
        else acc)
      0.0 nodes
  in
  [ ("cc.compile", ns (Stats.covered ~names:[ "cc.compile" ] nodes));
    ("cc.frontend", ns (Stats.covered ~names:frontend nodes));
    ("cc.backend", ns (Stats.covered ~names:backend nodes));
    ("cc.typecheck.count", count "cc.typecheck");
    ("sim.execute", ns (Stats.covered ~names:[ "sim.execute" ] nodes));
    ("sim.execute.count", count "sim.execute");
    ("core.package", ns (Stats.covered ~names:packaging nodes));
    ("ingest.receive", ns (Stats.covered ~names:[ "ingest.receive" ] nodes));
    ("core.personalize", dur "core.personalize");
    ("core.personalize.count", count "core.personalize");
    ("verif.oracle.self", self "verif.oracle");
    ("fleet.campaign", dur "fleet.campaign");
    ("fleet.campaign.count", count "fleet.campaign");
    ("fleet.campaign.self", self "fleet.campaign" +. engine_self_under "fleet.campaign");
    ("fleet.rotate", dur "fleet.rotate");
    ("fleet.rotate.count", count "fleet.rotate") ]

type traced = {
  by_class : (string * string, float) Hashtbl.t;  (** (class, raw name) -> sum *)
  self_by_span : (string, int64) Hashtbl.t;
  mutable op_ns : int64;
  mutable tree_errors : string list;
}

let traced_create () =
  {
    by_class = Hashtbl.create 64;
    self_by_span = Hashtbl.create 64;
    op_ns = 0L;
    tree_errors = [];
  }

(* The first few malformed operations are reported; one is enough to
   make the run incorrect. *)
let tree_error tr msg =
  if List.length tr.tree_errors < 5 then tr.tree_errors <- msg :: tr.tree_errors

(* [latency_ns] is the operation as the loop's own clock measured it; the
   root span must account for it (see [Stats.root_covers]). *)
let record_op tr ~cls ~latency_ns events =
  match Stats.tree events with
  | Error msg -> tree_error tr msg
  | Ok [] -> tree_error tr "no spans"
  | Ok (root :: _ as nodes) ->
    if not (Stats.root_covers ~latency_ns root.Stats.dur_ns) then
      tree_error tr
        (Printf.sprintf "root span %.3f ms does not account for the operation's %.3f ms"
           (Int64.to_float root.Stats.dur_ns /. 1e6) (Int64.to_float latency_ns /. 1e6));
    List.iter
      (fun (k, v) ->
        let key = (cls, k) in
        Hashtbl.replace tr.by_class key
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt tr.by_class key)))
      (raw_values nodes);
    List.iter
      (fun (n : Stats.node) ->
        Hashtbl.replace tr.self_by_span n.Stats.name
          (Int64.add n.Stats.self_ns
             (Option.value ~default:0L (Hashtbl.find_opt tr.self_by_span n.Stats.name))))
      nodes;
    tr.op_ns <- Int64.add tr.op_ns root.Stats.dur_ns

let raw tr ?cls k =
  Hashtbl.fold
    (fun (c, k') v acc -> if k' = k && (cls = None || cls = Some c) then acc +. v else acc)
    tr.by_class 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

let metric name unit_ value = (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ])

let () =
  let args = parse_args () in
  let spec =
    match List.find_opt (fun (w : Workload.spec) -> w.Workload.name = args.workload) Workload.all with
    | Some w -> w
    | None -> usage ()
  in
  let setup_times = ref [] and setup_probes = ref [ probe_ns () ] in
  let inst = ref None in
  for _ = 1 to spec.Workload.setups do
    inst := None;
    let t0 = now_ns () in
    let w = spec.Workload.setup ~seed:args.seed in
    setup_times := Int64.sub (now_ns ()) t0 :: !setup_times;
    setup_probes := probe_ns () :: !setup_probes;
    inst := Some w
  done;
  let w = Option.get !inst in
  let k = w.Workload.count_ops in
  let tr = traced_create () in
  let probes = ref [ probe_ns () ] in
  let lat = ref [] and n = ref 0 and failed = ref 0 and failures = ref [] in
  let gc0 = Gc.quick_stat () in
  let gc_seg = ref gc0 and rss_mb = ref nan in
  let t_start = now_ns () in
  let finished () =
    let elapsed = secs_since t_start in
    let timed_out =
      elapsed >= hard_stop_s
      || (elapsed >= args.seconds && !n >= min_ops && !n mod w.Workload.cycle = 0)
    in
    if args.count_only then !n >= k else timed_out
  in
  while not (finished ()) do
    let i = !n in
    if args.trace && i = k then Eric_telemetry.Control.enable ();
    let t0 = now_ns () in
    let r =
      Span.with_ ~cat:"bench" ~name:"op" (fun () ->
          try w.Workload.run_op i with e -> Error ("raised " ^ Printexc.to_string e))
    in
    let latency_ns = Int64.sub (now_ns ()) t0 in
    lat := latency_ns :: !lat;
    probes := probe_ns () :: !probes;
    if i = k - 1 then gc_seg := Gc.quick_stat ();
    if i = min_ops - 1 then rss_mb := peak_rss_mb ();
    (match r with
    | Ok () -> ()
    | Error msg ->
      incr failed;
      if List.length !failures < 5 then failures := msg :: !failures);
    if args.trace && i >= k then begin
      let events = Span.completed () in
      Span.reset ();
      record_op tr ~cls:(w.Workload.op_class i) ~latency_ns events
    end;
    incr n
  done;
  let loop_s = secs_since t_start in
  Eric_telemetry.Control.disable ();
  let fin = w.Workload.finish () in
  let per_op_seg x = x /. float_of_int k in
  let gc = !gc_seg in
  let exact =
    [ ("gc.minor_mwords", per_op_seg ((gc.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6));
      ("gc.major_collections",
       per_op_seg (float_of_int (gc.Gc.major_collections - gc0.Gc.major_collections))) ]
    @ fin.Workload.exact
  in
  let num_list l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  let ms_sorted a =
    let a = Array.map (fun ns -> ns /. 1e6) a in
    Array.sort compare a;
    a
  in
  let raw_ms = ms_sorted (Array.of_list (List.rev_map Int64.to_float !lat)) in
  let scaled_ns = scaled ~times:!lat ~probes:!probes in
  let sorted = ms_sorted scaled_ns in
  let setup_raw_s = Stats.median_float (List.map (fun ns -> Int64.to_float ns /. 1e9) !setup_times) in
  let setup_s =
    Stats.median_float
      (Array.to_list (Array.map (fun ns -> ns /. 1e9) (scaled ~times:!setup_times ~probes:!setup_probes)))
  in
  let probe_ms =
    Stats.median_float (List.map (fun ns -> Int64.to_float ns /. 1e6) (!probes @ !setup_probes))
  in
  let busy_s ms = Array.fold_left ( +. ) 0.0 ms /. 1e3 in
  let ops = float_of_int !n in
  let traced_ops = float_of_int (!n - k) in
  let exact_v k = Option.value ~default:0.0 (List.assoc_opt k (exact @ fin.Workload.loop)) in
  let metrics, errors =
    if not args.trace then begin
      let p50 = Stats.percentile ~pct:50 sorted and p90 = Stats.percentile ~pct:90 sorted in
      ( [ metric "ops_per_s" "1/s" (ops /. busy_s sorted);
          metric "op_p50_ms" "ms" (Option.value ~default:nan p50);
          metric "op_p90_ms" "ms" (Option.value ~default:nan p90);
          metric "setup_s" "s" setup_s;
          metric "peak_rss_mb" "MiB" !rss_mb;
          metric "cycles_overhead_pct" "%" (exact_v "cycles_overhead_pct") ],
        if (p50 = None || p90 = None) && not args.count_only then
          [ Printf.sprintf "%d operations are too few for p90" !n ]
        else [] )
    end
    else begin
      let per_op key = raw tr key /. traced_ops in
      let ms key = per_op key /. 1e6 in
      let cls_mean ~cls key ~per = ratio (raw tr ~cls key) (raw tr ~cls per) /. 1e6 in
      let campaigns = raw tr "fleet.campaign.count" in
      ( [ metric "cc.compile_ms" "ms" (ms "cc.compile");
          metric "cc.frontend_runs" "count" (per_op "cc.typecheck.count");
          metric "cc.frontend_ms" "ms" (ms "cc.frontend");
          metric "cc.backend_ms" "ms" (ms "cc.backend");
          metric "sim.execute_ms" "ms" (ms "sim.execute");
          metric "sim.runs" "count" (per_op "sim.execute.count");
          metric "sim.mips" "MIPS"
            (ratio (exact_v "sim.instructions" *. 1e3) (per_op "sim.execute"));
          metric "sim.alloc_mwords" "Mwords" (exact_v "sim.alloc_mwords");
          metric "sim.instructions" "count" (exact_v "sim.instructions");
          metric "sim.exec_cycles" "cycles" (exact_v "sim.exec_cycles");
          metric "hw.load_cycles" "cycles" (exact_v "hw.load_cycles");
          metric "sim.icache_hit_rate" "ratio" (exact_v "sim.icache_hit_rate");
          metric "sim.dcache_hit_rate" "ratio" (exact_v "sim.dcache_hit_rate");
          metric "core.package_ms" "ms" (ms "core.package");
          metric "core.ingest_ms" "ms" (ms "ingest.receive");
          metric "core.personalize_us_per_device" "us"
            (ratio (raw tr "core.personalize") (raw tr "core.personalize.count") /. 1e3);
          metric "verif.oracle_self_ms" "ms" (ms "verif.oracle.self");
          metric "fleet.deploy_ms" "ms"
            (cls_mean ~cls:"warm" "fleet.campaign" ~per:"fleet.campaign.count");
          metric "fleet.rotate_ms" "ms"
            (cls_mean ~cls:"rotate" "fleet.rotate" ~per:"fleet.rotate.count");
          metric "fleet.reboot_deploy_ms" "ms"
            (cls_mean ~cls:"rotate" "fleet.campaign" ~per:"fleet.campaign.count");
          metric "fleet.campaign_self_us_per_device" "us"
            (ratio (raw tr "fleet.campaign.self") (campaigns *. float_of_int w.Workload.devices)
            /. 1e3);
          metric "fleet.cache_hit_ratio" "ratio" (exact_v "fleet.cache_hit_ratio");
          metric "fleet.registry_kb_per_device" "KiB" (exact_v "fleet.registry_kb_per_device");
          metric "core.wire_bytes_per_device" "B" (exact_v "core.wire_bytes_per_device");
          metric "gc.minor_mwords" "Mwords" (exact_v "gc.minor_mwords");
          metric "gc.major_collections" "count" (exact_v "gc.major_collections");
          metric "traced_ops_per_s" "1/s"
            (traced_ops /. busy_s (Array.map (fun ns -> ns /. 1e6) (Array.sub scaled_ns k (!n - k))));
          metric "host.probe_ms" "ms" probe_ms ],
        List.rev tr.tree_errors )
    end
  in
  let self_ms =
    Hashtbl.fold (fun name v acc -> (name, Int64.to_float v /. 1e6 /. traced_ops) :: acc)
      tr.self_by_span []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let unscaled =
    [ ("ops_per_s", ops /. busy_s raw_ms);
      ("op_p50_ms", Option.value ~default:nan (Stats.percentile ~pct:50 raw_ms));
      ("op_p90_ms", Option.value ~default:nan (Stats.percentile ~pct:90 raw_ms));
      ("setup_s", setup_raw_s);
      ("loop_ops_per_s", ops /. loop_s);
      ("host.probe_ms", probe_ms) ]
  in
  let result =
    Json.Obj
      ([ ("workload", Json.Str spec.Workload.name);
         ("seed", Json.Str (Int64.to_string args.seed));
         ("trace", Json.Bool args.trace);
         ("attempted", Json.Num ops);
         ("failed", Json.Num (float_of_int !failed));
         ("failures", Json.List (List.rev_map (fun s -> Json.Str s) !failures));
         ("errors", Json.List (List.map (fun s -> Json.Str s) errors));
         ("counts", num_list exact);
         ("unscaled", num_list unscaled);
         ("ocaml", Json.Str Sys.ocaml_version);
         ("domains", Json.Bool Eric_engine.Pool.available);
         ("metrics", Json.Obj metrics) ]
      @
      if args.trace then
        [ ("op_ms_per_op", Json.Num (Int64.to_float tr.op_ns /. 1e6 /. traced_ops));
          ("self_ms_per_op", num_list self_ms) ]
      else [])
  in
  print_endline (Json.to_string result)
