(* The three workloads: the fuzz oracle, the Fig 7 build->ship->execute
   pass, and fleet campaigns.  Each is a closed loop with one caller: an
   operation starts only after the previous one returned and was checked.

   A workload's [setup] takes the seed and generates every input the
   program under test receives from it.  [run_op i] performs and checks
   operation [i]; a wrong output is an [Error], never a slow success.
   [finish] runs after the timed loop.  Its [exact] counts (simulated
   cycles, bytes, allocation) must repeat exactly for the same seed; its
   [loop] values describe the whole timed loop, whose length varies. *)

module Span = Eric_telemetry.Span
module Soc = Eric_sim.Soc

(* Benchmark-side span around one public call into the program. *)
let span name f = Span.with_ ~cat:"bench" ~name f

type t = {
  run_op : int -> (unit, string) result;
  op_class : int -> string;
  cycle : int;  (** the timed loop stops only after whole cycles of operations *)
  count_ops : int;  (** exact counts cover operations [0, count_ops) *)
  devices : int;  (** devices each campaign addresses (fleet only) *)
  finish : unit -> finish;
}

and finish = { exact : (string * float) list; loop : (string * float) list }

(* [setups] is fixed per workload, never time-dependent: the heap left
   by the set-ups decides where major collections fall in the exact-count
   segment. *)
type spec = { name : string; setups : int; setup : seed:int64 -> t }

(* splitmix64 finalizer: input [i] of seed [s] is [mix (s, i)]. *)
let mix seed i =
  let z = Int64.add seed (Int64.mul (Int64.of_int (i + 1)) 0x9e3779b97f4a7c15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Positive 48-bit device ids, distinct within one seed. *)
let device_ids ~seed n =
  let seen = Hashtbl.create n in
  let rec draw i acc k =
    if k = n then List.rev acc
    else
      let id = Int64.logand (mix (Int64.lognot seed) i) 0xFFFF_FFFF_FFFFL in
      if Hashtbl.mem seen id then draw (i + 1) acc k
      else begin
        Hashtbl.add seen id ();
        draw (i + 1) (id :: acc) (k + 1)
      end
  in
  draw 0 [] 0

let oracle_programs ~seed n =
  Array.init n (fun i -> (Eric_verif.Gen.generate ~seed:(mix seed i) ()).Eric_verif.Gen.source)

let pct_over ~eric ~plain = 100.0 *. Int64.to_float (Int64.sub eric plain) /. Int64.to_float plain

let plain_total image = Soc.total_cycles (Soc.run_program image)

let eric_total target image =
  let key = Eric.Protocol.provision target in
  let build = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
  match Eric.Target.execute target build.Eric.Source.package with
  | Ok r -> Soc.total_cycles r
  | Error e -> failwith (Format.asprintf "reference run refused: %a" Eric.Target.pp_load_error e)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The paper's Fig 7 metric on its own program set (the ten workloads,
   small dataset) for [target]: the mean over programs of ERIC load +
   exec against plain load + exec.  Every workload reports it from this
   one path, on its own device; oracle does not use its generated
   programs, because their overhead depends on the seed far beyond any
   bound (1% to 39% over 100 programs, across ten seeds). *)
let fig7_overhead_pct target =
  mean
    (List.map
       (fun (w : Eric_workloads.Workloads.t) ->
         let image = Eric_cc.Driver.compile_exn w.source_small in
         pct_over ~eric:(eric_total target image) ~plain:(plain_total image))
       Eric_workloads.Workloads.all)

(* ------------------------------------------------------------------ *)
(* oracle                                                              *)
(* ------------------------------------------------------------------ *)

(* Programs are generated in setup and reused round-robin when a run
   outlasts the pool. *)
let oracle_pool = 1000

let oracle_setup ~seed =
  let programs = oracle_programs ~seed oracle_pool in
  let device_id = List.hd (device_ids ~seed 1) in
  let exhausted = ref 0 in
  let count_ops = 100 in
  let run_op i =
    match
      span "verif.oracle" (fun () ->
          Eric_verif.Oracle.run ~device_id programs.(i mod oracle_pool))
    with
    | Error msg -> Error ("compile error: " ^ msg)
    | Ok r when Eric_verif.Oracle.exhausted r ->
      if i < count_ops then incr exhausted;
      Ok ()
    | Ok r when Eric_verif.Oracle.agree r -> Ok ()
    | Ok r -> Error (Format.asprintf "disagreement on program %d:@ %a" i Eric_verif.Oracle.pp_report r)
  in
  let finish () =
    { exact =
        [ ("cycles_overhead_pct", fig7_overhead_pct (Eric.Target.of_id device_id));
          ("verif.exhausted", float_of_int !exhausted) ];
      loop = [] }
  in
  { run_op; op_class = (fun _ -> "program"); cycle = 1; count_ops; devices = 0; finish }

let oracle = { name = "oracle"; setups = 25; setup = oracle_setup }

(* ------------------------------------------------------------------ *)
(* fig7                                                                *)
(* ------------------------------------------------------------------ *)

type sim_stats = {
  instructions : int64;
  exec_cycles : int64;
  load_cycles : int64;
  icache : float;
  dcache : float;
}

let stats_of (r : Soc.result) =
  {
    instructions = r.Soc.instructions;
    exec_cycles = r.Soc.exec_cycles;
    load_cycles = r.Soc.load_cycles;
    icache = r.Soc.icache_hit_rate;
    dcache = r.Soc.dcache_hit_rate;
  }

let fig7_setup ~seed =
  let target = Eric.Target.of_id (List.hd (device_ids ~seed 1)) in
  let key = Eric.Protocol.provision target in
  let programs =
    List.map
      (fun (w : Eric_workloads.Workloads.t) ->
        let ir =
          match Eric_cc.Driver.compile_to_ir w.source_small with
          | Ok ir -> ir
          | Error msg -> failwith (w.name ^ ": " ^ msg)
        in
        (w.name, w.source_small, Eric_cc.Ir_interp.run ir))
      Eric_workloads.Workloads.all
  in
  let first : sim_stats list option ref = ref None in
  let alloc_words = ref 0.0 in
  let count_ops = 2 in
  let run_one (name, source, (expect : Eric_cc.Ir_interp.outcome)) =
    let ( let* ) = Result.bind in
    let fail what = Error (Printf.sprintf "%s: %s" name what) in
    let* build =
      match span "fig7.build" (fun () -> Eric.Source.build ~mode:Eric.Config.Full ~key source) with
      | Ok b -> Ok b
      | Error msg -> fail ("build: " ^ msg)
    in
    let wire = span "core.serialize" (fun () -> Eric.Package.serialize build.Eric.Source.package) in
    let* pkg =
      match span "core.parse" (fun () -> Eric.Package.parse wire) with
      | Ok p -> Ok p
      | Error msg -> fail ("parse: " ^ msg)
    in
    let w0 = Gc.minor_words () in
    let res = span "fig7.execute" (fun () -> Eric.Target.execute target pkg) in
    let dw = Gc.minor_words () -. w0 in
    match res with
    | Error e -> fail (Format.asprintf "refused: %a" Eric.Target.pp_load_error e)
    | Ok r -> (
      match r.Soc.status with
      | Eric_sim.Cpu.Exited code
        when code = expect.Eric_cc.Ir_interp.exit_code
             && String.equal r.Soc.output expect.Eric_cc.Ir_interp.output ->
        Ok (stats_of r, dw)
      | _ -> fail "output or exit code differs from the IR interpreter")
  in
  let run_op i =
    let rec go acc dw = function
      | [] -> Ok (List.rev acc, dw)
      | p :: rest -> (
        match run_one p with
        | Ok (s, d) -> go (s :: acc) (dw +. d) rest
        | Error _ as e -> e)
    in
    match go [] 0.0 programs with
    | Error _ as e -> e
    | Ok (stats, dw) -> (
      if i < count_ops then alloc_words := !alloc_words +. dw;
      match !first with
      | None ->
        first := Some stats;
        Ok ()
      | Some s when s = stats -> Ok ()
      | Some _ -> Error "simulated statistics drifted from the first operation")
  in
  let finish () =
    let stats = Option.get !first in
    let sum f = List.fold_left (fun acc s -> Int64.add acc (f s)) 0L stats |> Int64.to_float in
    { exact =
        [ ("cycles_overhead_pct", fig7_overhead_pct target);
          ("sim.instructions", sum (fun s -> s.instructions));
          ("sim.exec_cycles", sum (fun s -> s.exec_cycles));
          ("hw.load_cycles", sum (fun s -> s.load_cycles));
          ("sim.icache_hit_rate", mean (List.map (fun s -> s.icache) stats));
          ("sim.dcache_hit_rate", mean (List.map (fun s -> s.dcache) stats));
          ("sim.alloc_mwords", !alloc_words /. float_of_int count_ops /. 1e6) ];
      loop = [] }
  in
  { run_op; op_class = (fun _ -> "pass"); cycle = 1; count_ops; devices = 0; finish }

let fig7 = { name = "fig7"; setups = 25; setup = fig7_setup }

(* ------------------------------------------------------------------ *)
(* fleet                                                               *)
(* ------------------------------------------------------------------ *)

let fleet_devices = 128

let fleet_firmware =
  match Eric_workloads.Workloads.by_name "crc32" with
  | Some w -> w.Eric_workloads.Workloads.source_small
  | None -> failwith "crc32 workload missing"

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

module Fleet = Eric_fleet

let enroll ids =
  let registry = Fleet.Registry.create () in
  List.iter
    (fun id ->
      match Fleet.Registry.enroll_legacy registry id with
      | Ok _ -> ()
      | Error msg -> failwith ("enroll: " ^ msg))
    ids;
  registry

(* Live-heap growth of enrolling [ids] into a fresh registry, in KiB per
   device; the registry is kept reachable until after the second count. *)
let registry_kb_per_device ids =
  let live0 = live_words () in
  let registry = enroll ids in
  let live1 = live_words () in
  ignore (Sys.opaque_identity registry);
  float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1024.0 /. float_of_int (List.length ids)

let fleet_setup ~seed =
  let ids = device_ids ~seed fleet_devices in
  let registry = enroll ids in
  let cache = Fleet.Artifact_cache.create () in
  let n = fleet_devices in
  let deploy () =
    match span "fleet.deploy" (fun () -> Fleet.Campaign.deploy ~cache ~registry fleet_firmware) with
    | Error msg -> Error ("deploy: " ^ msg)
    | Ok r ->
      if r.Fleet.Campaign.delivered = n && r.Fleet.Campaign.quarantined = 0
         && Fleet.Campaign.all_accounted r
      then Ok r
      else Error (Format.asprintf "campaign not clean:@ %a" Fleet.Campaign.pp_report r)
  in
  (* Warm-up: compile into the cache and boot every device. *)
  (match deploy () with Ok _ -> () | Error msg -> failwith msg);
  let epoch = ref (List.fold_left (fun m e -> max m e.Fleet.Registry.epoch) 0 (Fleet.Registry.entries registry)) in
  let count_ops = Array.length Stats.fleet_cycle in
  let wire_bytes = ref 0 and deploys = ref 0 in
  let hits0 = ref 0 and lookups0 = ref 0 in
  let run_op i =
    if i = 0 then begin
      hits0 := Fleet.Artifact_cache.hits cache + Fleet.Artifact_cache.disk_hits cache;
      lookups0 := Fleet.Artifact_cache.lookups cache
    end;
    let ( let* ) = Result.bind in
    let* () =
      match Stats.fleet_class i with
      | Stats.Warm -> Ok ()
      | Stats.Rotate ->
        incr epoch;
        let r =
          span "fleet.rotate_call" (fun () ->
              Fleet.Rotation.rotate ~method_:Fleet.Rotation.Local ~epoch:!epoch registry)
        in
        if r.Fleet.Rotation.rotated = n && r.Fleet.Rotation.failed = [] then Ok ()
        else Error (Format.asprintf "rotation not clean:@ %a" Fleet.Rotation.pp_report r)
    in
    let* r = deploy () in
    if i < count_ops then begin
      wire_bytes := !wire_bytes + r.Fleet.Campaign.wire_bytes;
      incr deploys
    end;
    Ok ()
  in
  let finish () =
    let hits = Fleet.Artifact_cache.hits cache + Fleet.Artifact_cache.disk_hits cache - !hits0 in
    let lookups = Fleet.Artifact_cache.lookups cache - !lookups0 in
    { exact =
        [ ("cycles_overhead_pct", fig7_overhead_pct (Eric.Target.of_id (List.hd ids)));
          ("core.wire_bytes_per_device", float_of_int !wire_bytes /. float_of_int (!deploys * n));
          ("fleet.registry_kb_per_device", registry_kb_per_device ids) ];
      loop = [ ("fleet.cache_hit_ratio", float_of_int hits /. float_of_int (max 1 lookups)) ] }
  in
  {
    run_op;
    op_class = (fun i -> Stats.class_label (Stats.fleet_class i));
    cycle = Array.length Stats.fleet_cycle;
    count_ops;
    devices = n;
    finish;
  }

let fleet = { name = "fleet"; setups = 5; setup = fleet_setup }

let all = [ oracle; fig7; fleet ]
