type status = Active | Quarantined of string

type entry = {
  device_id : Eric_puf.Device.id;
  epoch : int;
  label : string;
  key : bytes;
  firmware_epoch : int;
  status : status;
  helper : Eric_puf.Enroll.helper option;
      (* fuzzy-extractor helper data from reliability-aware enrollment;
         None for legacy (v1) entries, which boot by plain majority vote *)
  instability_ppm : int;
      (* worst per-bit instability seen at enrollment or the last field
         survey, in parts per million (0 for legacy entries) *)
}

exception Corrupt of string

(* One partition: an entry table plus the device/target memo of the
   devices it holds.  Dropping a partition drops its memo with it. *)
type partition = {
  mutable rev_order : Eric_puf.Device.id list; (* newest first *)
  byid : (Eric_puf.Device.id, entry) Hashtbl.t;
  devices : (Eric_puf.Device.id, Eric_puf.Device.t) Hashtbl.t;
      (* simulated silicon is manufactured once per partition, not once
         per shipment — the stand-in for the hardware simply existing *)
  targets : (Eric_puf.Device.id * int * string, Eric.Target.t) Hashtbl.t;
      (* per (device, KMU context): Target.create replays the PUF
         majority-vote key derivation, which real silicon does once per
         boot, not once per packet *)
  mutable dirty : bool; (* changed since last read from or written to disk *)
}

(* Where the partitions live between processes. *)
type home = Memory | File of string | Dir of string

type t = {
  home : home;
  parts : partition option array;
      (* one slot per partition; None = on disk, not in memory *)
  counts : int array; (* live entry count per partition (the manifest's) *)
  mutable hde : Eric_hw.Hde.config option;
      (* fleet-wide HDE provisioning override (None = hardware default);
         the serve layer sets this to enable the runtime integrity guard
         on every device the registry boots *)
  lock : Mutex.t;
      (* guards [parts], [counts] and every partition's tables so engine
         workers can address targets concurrently.  Boots themselves run
         outside the lock: a boot consumes the device's private noise
         stream, so concurrent boots must be for *distinct* devices — the
         engine's one-job-per-device partitioning guarantees that. *)
}

let magic = "EFRG"
let version = 2
let min_version = 1
let header_size = 12

let new_partition () =
  {
    rev_order = [];
    byid = Hashtbl.create 64;
    devices = Hashtbl.create 64;
    targets = Hashtbl.create 64;
    dirty = false;
  }

let make home parts =
  {
    home;
    parts;
    counts = Array.map (function Some p -> Hashtbl.length p.byid | None -> 0) parts;
    hde = None;
    lock = Mutex.create ();
  }

let create () = make Memory [| Some (new_partition ()) |]

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let shards t = Array.length t.parts

(* splitmix64's finalizer: a stable, well-mixed device-id -> shard map
   so sequential factory ids spread evenly instead of striping. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let shard_of ~shards id =
  Int64.to_int (Int64.rem (Int64.logand (mix64 id) Int64.max_int) (Int64.of_int shards))

(* A one-partition registry never hashes. *)
let part_index t id = if shards t = 1 then 0 else shard_of ~shards:(shards t) id

let shard_file dir i = Filename.concat dir (Printf.sprintf "shard-%04d.efrg" i)
let manifest_file dir = Filename.concat dir "MANIFEST"

let is_sharded path =
  Sys.file_exists path && Sys.is_directory path && Sys.file_exists (manifest_file path)

let part_path t i =
  match t.home with Memory -> None | File path -> Some path | Dir dir -> Some (shard_file dir i)

let part_entries p = List.rev_map (fun id -> Hashtbl.find p.byid id) p.rev_order

let part_add p entry =
  if Hashtbl.mem p.byid entry.device_id then
    Error (Printf.sprintf "device %Ld is already enrolled" entry.device_id)
  else begin
    Hashtbl.replace p.byid entry.device_id entry;
    p.rev_order <- entry.device_id :: p.rev_order;
    p.dirty <- true;
    Ok entry
  end

(* ------------------------------------------------------------------ *)
(* Wire format (version 2; version 1 still parses)                     *)
(*                                                                     *)
(*   off  size  field                                                  *)
(*   0    4     magic "EFRG"                                           *)
(*   4    2     version                                                *)
(*   6    2     reserved (must be zero)                                *)
(*   8    4     entry count                                            *)
(*   12   ...   entries:                                               *)
(*          u64 device id                                              *)
(*          u32 KMU epoch                                              *)
(*          u32 firmware epoch                                         *)
(*          u16 label length, label bytes                              *)
(*          u16 key length, key bytes                                  *)
(*          u8  status (0 = active, 1 = quarantined)                   *)
(*          if quarantined: u16 reason length, reason bytes            *)
(*          -- version >= 2 only --                                    *)
(*          u8  has_helper (0/1)                                       *)
(*          if has_helper: u32 helper length, helper blob ("EHLP")     *)
(*          u32 instability, parts per million                         *)
(*                                                                     *)
(* Version-1 files parse with [helper = None] and zero instability, so *)
(* fleets enrolled before the fuzzy extractor keep loading (and keep   *)
(* the plain majority-vote boot path).  Serialization always writes    *)
(* version 2.                                                          *)
(*                                                                     *)
(* Parsing is strict, like Package: reserved bytes must be zero, every  *)
(* declared length must land inside the buffer, duplicate device ids   *)
(* are rejected, helper blobs must themselves parse, and trailing bytes *)
(* fail the parse — a corrupt registry is refused loudly rather than    *)
(* half-loaded.                                                         *)
(*                                                                     *)
(* The entry decoder runs against a [Reader], a cursor abstract over an *)
(* in-memory buffer and a buffered channel, so files stream one entry  *)
(* at a time without ever materializing the whole file.                *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let buf_add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let buf_add_u32 buf v =
  let b = Bytes.create 4 in
  Eric_util.Bytesx.set_u32 b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let buf_add_u64 buf v =
  let b = Bytes.create 8 in
  Eric_util.Bytesx.set_u64 b 0 v;
  Buffer.add_bytes buf b

let add_header buf ~count =
  Buffer.add_string buf magic;
  buf_add_u16 buf version;
  buf_add_u16 buf 0;
  buf_add_u32 buf count

let header ~count =
  let buf = Buffer.create header_size in
  add_header buf ~count;
  Buffer.to_bytes buf

let serialize_entry buf e =
  buf_add_u64 buf e.device_id;
  buf_add_u32 buf e.epoch;
  buf_add_u32 buf e.firmware_epoch;
  buf_add_u16 buf (String.length e.label);
  Buffer.add_string buf e.label;
  buf_add_u16 buf (Bytes.length e.key);
  Buffer.add_bytes buf e.key;
  (match e.status with
  | Active -> Buffer.add_char buf '\000'
  | Quarantined reason ->
    Buffer.add_char buf '\001';
    buf_add_u16 buf (String.length reason);
    Buffer.add_string buf reason);
  (match e.helper with
  | None -> Buffer.add_char buf '\000'
  | Some h ->
    Buffer.add_char buf '\001';
    let blob = Eric_puf.Enroll.serialize h in
    buf_add_u32 buf (Bytes.length blob);
    Buffer.add_bytes buf blob);
  buf_add_u32 buf e.instability_ppm

let to_bytes es =
  let buf = Buffer.create (64 * (1 + List.length es)) in
  add_header buf ~count:(List.length es);
  List.iter (serialize_entry buf) es;
  Buffer.to_bytes buf

module Reader = struct
  type src = Buf of bytes | Chan of in_channel

  type t = { src : src; mutable pos : int }

  let of_bytes b = { src = Buf b; pos = 0 }
  let of_channel ic = { src = Chan ic; pos = 0 }

  let take r n what =
    let truncated () =
      Error (Printf.sprintf "registry truncated reading %s (at byte %d)" what r.pos)
    in
    match r.src with
    | Buf b ->
      if n >= 0 && r.pos + n <= Bytes.length b then begin
        let s = Bytes.sub b r.pos n in
        r.pos <- r.pos + n;
        Ok s
      end
      else truncated ()
    | Chan ic -> (
      if n < 0 then truncated ()
      else
        let b = Bytes.create n in
        match really_input ic b 0 n with
        | () ->
          r.pos <- r.pos + n;
          Ok b
        | exception End_of_file -> truncated ())

  let u8 r what =
    let* b = take r 1 what in
    Ok (Char.code (Bytes.get b 0))

  let u16 r what =
    let* b = take r 2 what in
    Ok (Eric_util.Bytesx.get_u16 b 0)

  let u32 r what =
    let* b = take r 4 what in
    let v = Int32.to_int (Eric_util.Bytesx.get_u32 b 0) in
    if v < 0 then Error (Printf.sprintf "negative %s" what) else Ok v

  let u64 r what =
    let* b = take r 8 what in
    Ok (Eric_util.Bytesx.get_u64 b 0)

  let str r what =
    let* n = u16 r (what ^ " length") in
    let* b = take r n what in
    Ok (Bytes.to_string b)

  (* Bytes remaining past the cursor (0 = cleanly consumed).  Used for
     the trailing-garbage strictness check; for a channel source it may
     consume, so only call it after the last entry. *)
  let excess r =
    match r.src with
    | Buf b -> Bytes.length b - r.pos
    | Chan ic -> (
      match input_char ic with
      | exception End_of_file -> 0
      | _ -> in_channel_length ic - pos_in ic + 1)
end

let read_header r =
  let* m = Reader.take r 4 "magic" in
  let* () =
    if Bytes.to_string m = magic then Ok () else Error "bad magic (not an ERIC registry)"
  in
  let* v = Reader.u16 r "version" in
  let* () =
    if v >= min_version && v <= version then Ok ()
    else Error (Printf.sprintf "unsupported registry version %d" v)
  in
  let* reserved = Reader.u16 r "reserved" in
  let* () = if reserved = 0 then Ok () else Error "reserved bytes set" in
  let* n = Reader.u32 r "entry count" in
  Ok (v, n)

let read_entry r ~version:v =
  let* device_id = Reader.u64 r "device id" in
  let* epoch = Reader.u32 r "epoch" in
  let* firmware_epoch = Reader.u32 r "firmware epoch" in
  let* label = Reader.str r "label" in
  let* key = Reader.str r "key" in
  let* tag = Reader.u8 r "status" in
  let* status =
    match tag with
    | 0 -> Ok Active
    | 1 ->
      let* reason = Reader.str r "quarantine reason" in
      Ok (Quarantined reason)
    | _ -> Error (Printf.sprintf "unknown status tag %d" tag)
  in
  let* helper, instability_ppm =
    if v < 2 then Ok (None, 0)
    else
      let* flag = Reader.u8 r "helper flag" in
      let* helper =
        match flag with
        | 0 -> Ok None
        | 1 ->
          let* blob_len = Reader.u32 r "helper length" in
          let* blob = Reader.take r blob_len "helper blob" in
          let* h =
            Result.map_error
              (fun e -> Printf.sprintf "device %Ld: %s" device_id e)
              (Eric_puf.Enroll.parse blob)
          in
          Ok (Some h)
        | _ -> Error (Printf.sprintf "unknown helper flag %d" flag)
      in
      let* ppm = Reader.u32 r "instability" in
      Ok (helper, ppm)
  in
  Ok { device_id; epoch; firmware_epoch; label; key = Bytes.of_string key; status; helper; instability_ppm }

(* Decode an EFRG stream entry by entry: strict about the header, every
   record and trailing bytes.  [f] can stop the fold with [Error]. *)
let fold_reader r ~init ~f =
  let* v, n = read_header r in
  let rec loop i acc =
    if i = n then Ok acc
    else
      let* e = read_entry r ~version:v in
      let* acc = f acc e in
      loop (i + 1) acc
  in
  let* acc = loop 0 init in
  match Reader.excess r with
  | 0 -> Ok acc
  | k -> Error (Printf.sprintf "%d trailing bytes after the last entry" k)

let read_partition r =
  let p = new_partition () in
  let* () =
    fold_reader r ~init:() ~f:(fun () e ->
        match part_add p e with
        | Ok _ -> Ok ()
        | Error m -> Error ("duplicate entry: " ^ m))
  in
  p.dirty <- false;
  Ok p

let parse b = Result.map (fun p -> make Memory [| Some p |]) (read_partition (Reader.of_bytes b))

(* Run [f] on a buffered cursor over [path]; errors name the file. *)
let with_file path f =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f (Reader.of_channel ic))
  with
  | exception Sys_error msg -> Error msg
  | r -> Result.map_error (fun e -> path ^ ": " ^ e) r

let fold_file path ~init ~f = with_file path (fun r -> fold_reader r ~init ~f)

(* ------------------------------------------------------------------ *)
(* Partitions and entry operations                                     *)
(* ------------------------------------------------------------------ *)

let observe_open_ns ~kind start =
  Eric_telemetry.Registry.observe
    ~labels:[ ("kind", kind) ]
    "fleet.registry.open_ns"
    (Int64.to_float (Int64.sub (Eric_telemetry.Clock.now_ns ()) start))

(* The partition in slot [i], read from its file on first touch (a
   missing file is an empty partition).  Call with the lock held. *)
let partition t i =
  match t.parts.(i) with
  | Some p -> p
  | None ->
    let start = Eric_telemetry.Clock.now_ns () in
    let p =
      match part_path t i with
      | Some path when Sys.file_exists path -> (
        match with_file path read_partition with Ok p -> p | Error e -> raise (Corrupt e))
      | Some _ | None -> new_partition ()
    in
    observe_open_ns ~kind:(match t.home with Dir _ -> "shard" | Memory | File _ -> "file") start;
    Eric_telemetry.Registry.inc "fleet.registry.shard.opens_total";
    t.parts.(i) <- Some p;
    t.counts.(i) <- Hashtbl.length p.byid;
    p

let owner t id = partition t (part_index t id)

let count t = locked t (fun () -> Array.fold_left ( + ) 0 t.counts)

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to shards t - 1 do
    match locked t (fun () -> Option.map part_entries t.parts.(i)) with
    | Some es -> List.iter (fun e -> acc := f !acc e) es
    | None -> (
      match part_path t i with
      | Some path when Sys.file_exists path -> (
        match
          fold_file path ~init:() ~f:(fun () e ->
              acc := f !acc e;
              Ok ())
        with
        | Ok () -> ()
        | Error e -> raise (Corrupt e))
      | Some _ | None -> ())
  done;
  !acc

let entries t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))
let find t id = locked t (fun () -> Hashtbl.find_opt (owner t id).byid id)
let mem t id = Option.is_some (find t id)
let active t = List.filter (fun e -> e.status = Active) (entries t)
let quarantined t = List.filter (fun e -> e.status <> Active) (entries t)

let context (e : entry) = { Eric.Kmu.epoch = e.epoch; label = e.label }

let device t id =
  match locked t (fun () -> Hashtbl.find_opt (owner t id).devices id) with
  | Some d -> d
  | None ->
    (* Manufacture is deterministic in [id], so a racing duplicate is
       identical; keep the first inserted instance as the one silicon. *)
    let d = Eric_puf.Device.manufacture id in
    locked t (fun () ->
        let p = owner t id in
        match Hashtbl.find_opt p.devices id with
        | Some d' -> d'
        | None ->
          Hashtbl.add p.devices id d;
          d)

let target_for ?env t ~context:(c : Eric.Kmu.context) id =
  let k = (id, c.Eric.Kmu.epoch, c.Eric.Kmu.label) in
  match locked t (fun () -> Hashtbl.find_opt (owner t id).targets k) with
  | Some tg -> tg
  | None ->
    (* An enrolled helper makes the fuzzy extractor the boot path for
       every context this device is addressed under (rotation included);
       legacy entries keep the plain majority-vote boot.  The boot runs
       outside the lock — see the [lock] invariant above. *)
    let hde = t.hde in
    let tg =
      match find t id with
      | Some { helper = Some h; _ } ->
        Eric.Target.create_with_helper ~context:c ?hde ?env (device t id) h
      | Some { helper = None; _ } | None -> Eric.Target.create ~context:c ?hde (device t id)
    in
    locked t (fun () ->
        let p = owner t id in
        match Hashtbl.find_opt p.targets k with
        | Some tg' -> tg'
        | None ->
          Hashtbl.add p.targets k tg;
          tg)

let target ?env t (e : entry) = target_for ?env t ~context:(context e) e.device_id

let set_hde t config =
  locked t (fun () ->
      t.hde <- Some config;
      (* Already-booted targets were built with the old silicon config;
         dropping the memo makes the next addressing re-boot under the
         new one (key reconstruction is re-paid — provisioning a fleet
         is rare, per-packet addressing is not). *)
      Array.iter (Option.iter (fun p -> Hashtbl.reset p.targets)) t.parts)

let invalidate_targets t id =
  locked t (fun () ->
      let p = owner t id in
      let stale =
        Hashtbl.fold
          (fun ((id', _, _) as k) _ acc -> if Int64.equal id' id then k :: acc else acc)
          p.targets []
      in
      List.iter (Hashtbl.remove p.targets) stale)

let add t entry =
  locked t (fun () ->
      let i = part_index t entry.device_id in
      let r = part_add (partition t i) entry in
      if Result.is_ok r then t.counts.(i) <- t.counts.(i) + 1;
      r)

let instability_to_ppm worst = int_of_float (Float.round (worst *. 1_000_000.0))
let validate_context ~epoch ~label =
  if epoch < 0 then Error "epoch must be non-negative"
  else if String.length label > 0xFFFF then Error "label too long"
  else Ok { Eric.Kmu.epoch; label }

let enroll ?(epoch = Eric.Kmu.default_context.Eric.Kmu.epoch)
    ?(label = Eric.Kmu.default_context.Eric.Kmu.label) ?enrollment t device_id =
  let ( let* ) = Result.bind in
  let* context = validate_context ~epoch ~label in
  let* e =
    match enrollment with
    | Some e -> Ok e
    | None ->
      Result.map_error
        (fun msg -> Printf.sprintf "device %Ld: %s" device_id msg)
        (Eric_puf.Enroll.enroll (device t device_id))
  in
  let key = Eric.Kmu.derive ~puf_key:e.Eric_puf.Enroll.key context in
  let r =
    add t
      {
        device_id;
        epoch;
        label;
        key;
        firmware_epoch = 0;
        status = Active;
        helper = Some e.Eric_puf.Enroll.helper;
        instability_ppm = instability_to_ppm e.Eric_puf.Enroll.worst_instability;
      }
  in
  if Result.is_ok r && Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc "fleet.registry.enrolled_total";
  r

let enroll_legacy ?(epoch = Eric.Kmu.default_context.Eric.Kmu.epoch)
    ?(label = Eric.Kmu.default_context.Eric.Kmu.label) t device_id =
  let ( let* ) = Result.bind in
  let* context = validate_context ~epoch ~label in
  (* The fast factory path: majority-vote PUF read at nominal conditions
     and no helper data.  The 8-sigma dark-bit mask makes the plain vote
     stable at nominal, which is exactly the pre-fuzzy-extractor (v1)
     provisioning flow — and roughly 5x cheaper than full reliability
     screening, which matters when enrolling 10^5-device benches. *)
  let key = Eric.Kmu.device_key ~context (device t device_id) in
  let r =
    add t
      {
        device_id;
        epoch;
        label;
        key;
        firmware_epoch = 0;
        status = Active;
        helper = None;
        instability_ppm = 0;
      }
  in
  if Result.is_ok r && Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc ~labels:[ ("path", "legacy") ]
      "fleet.registry.enrolled_total";
  r

(* A replaced entry only needs a fresh boot when a field the boot reads
   changed: KMU context (epoch, label), provisioned key, or helper data.
   Campaign bookkeeping (firmware_epoch) and quarantine flips leave the
   memoized target valid — re-booting every device because its firmware
   epoch advanced made warm redeployments pay a full PUF key
   reconstruction per device per campaign. *)
let boot_relevant_change old entry =
  old.epoch <> entry.epoch || old.label <> entry.label
  || not (Bytes.equal old.key entry.key)
  || old.helper <> entry.helper

let update t entry =
  let old =
    locked t (fun () ->
        let p = owner t entry.device_id in
        match Hashtbl.find_opt p.byid entry.device_id with
        | None ->
          invalid_arg
            (Printf.sprintf "Registry.update: device %Ld not enrolled" entry.device_id)
        | Some old ->
          Hashtbl.replace p.byid entry.device_id entry;
          p.dirty <- true;
          old)
  in
  if boot_relevant_change old entry then invalidate_targets t entry.device_id

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(*                                                                     *)
(* A directory registry is a manifest plus one EFRG file per shard:    *)
(*                                                                     *)
(*   off  size  field                                                  *)
(*   0    4     magic "EFRS"                                           *)
(*   4    2     version (1)                                            *)
(*   6    2     reserved (must be zero)                                *)
(*   8    4     shard count S (1..65535)                               *)
(*   12   4*S   per-shard entry counts (u32 each)                      *)
(*                                                                     *)
(* Shard i lives in shard-%04d.efrg; a missing shard file is an empty  *)
(* shard, so creating a directory registry costs one manifest write    *)
(* regardless of S.                                                    *)
(*                                                                     *)
(* Every file is written crash-safely: a temp file beside it, fsynced, *)
(* then renamed into place — partition files first, the manifest last *)
(* — so a crash leaves either the old or the new version of each file. *)
(* ------------------------------------------------------------------ *)

let serialize t = to_bytes (entries t)

let manifest_magic = "EFRS"
let manifest_version = 1
let max_shards = 0xFFFF

(* Write [data] to a temp file beside [path] and fsync it; renaming the
   temp file over [path] ([commit]) is what makes the write visible. *)
let stage path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let rec write off =
        if off < Bytes.length data then write (off + Unix.write fd data off (Bytes.length data - off))
      in
      write 0;
      Unix.fsync fd);
  (tmp, path)

let commit (tmp, path) = Unix.rename tmp path
let write_file path data = commit (stage path data)

let manifest_bytes t =
  let b = Bytes.create (12 + (4 * shards t)) in
  Bytes.blit_string manifest_magic 0 b 0 4;
  Eric_util.Bytesx.set_u16 b 4 manifest_version;
  Eric_util.Bytesx.set_u16 b 6 0;
  Eric_util.Bytesx.set_u32 b 8 (Int32.of_int (shards t));
  Array.iteri (fun i c -> Eric_util.Bytesx.set_u32 b (12 + (4 * i)) (Int32.of_int c)) t.counts;
  b

let parse_manifest b =
  let len = Bytes.length b in
  let* () = if len >= 12 then Ok () else Error "manifest truncated" in
  let* () =
    if Bytes.sub_string b 0 4 = manifest_magic then Ok ()
    else Error "bad manifest magic (not a sharded ERIC registry)"
  in
  let v = Eric_util.Bytesx.get_u16 b 4 in
  let* () =
    if v = manifest_version then Ok ()
    else Error (Printf.sprintf "unsupported manifest version %d" v)
  in
  let* () = if Eric_util.Bytesx.get_u16 b 6 = 0 then Ok () else Error "reserved bytes set" in
  let s = Int32.to_int (Eric_util.Bytesx.get_u32 b 8) in
  let* () =
    if s >= 1 && s <= max_shards then Ok ()
    else Error (Printf.sprintf "shard count %d out of range" s)
  in
  let* () =
    if len = 12 + (4 * s) then Ok ()
    else Error (Printf.sprintf "manifest length %d does not match %d shard(s)" len s)
  in
  let counts = Array.init s (fun i -> Int32.to_int (Eric_util.Bytesx.get_u32 b (12 + (4 * i)))) in
  if Array.for_all (fun c -> c >= 0) counts then Ok counts else Error "negative shard count"

(* Stage partition [i] if it changed and has a file, marking it clean.
   Call with the lock held. *)
let stage_dirty t i p =
  match part_path t i with
  | Some path when p.dirty ->
    p.dirty <- false;
    [ stage path (to_bytes (part_entries p)) ]
  | Some _ | None -> []

(* Rename staged partition files into place, then write the manifest. *)
let commit_all t staged =
  List.iter commit staged;
  match t.home with
  | Dir dir -> write_file (manifest_file dir) (locked t (fun () -> manifest_bytes t))
  | Memory | File _ -> ()

let save t path =
  match t.home with
  | (File home | Dir home) when home = path ->
    let staged = ref [] in
    locked t (fun () ->
        Array.iteri
          (fun i slot -> Option.iter (fun p -> staged := stage_dirty t i p @ !staged) slot)
          t.parts);
    commit_all t !staged
  | Memory | File _ | Dir _ -> write_file path (serialize t)

let walk t f =
  let staged = ref [] in
  (* an empty registry still gets one call, so a campaign over an empty
     fleet runs (and reports) its engine once *)
  let empty = count t = 0 in
  match
    for i = 0 to shards t - 1 do
      if (empty && i = 0) || locked t (fun () -> t.counts.(i)) > 0 then begin
        f (locked t (fun () -> Array.of_list (part_entries (partition t i))));
        if part_path t i <> None then
          locked t (fun () ->
              Option.iter (fun p -> staged := stage_dirty t i p @ !staged) t.parts.(i);
              t.parts.(i) <- None)
      end
    done
  with
  | () -> commit_all t !staged
  | exception e ->
    List.iter (fun (tmp, _) -> Sys.remove tmp) !staged;
    raise e

let create_sharded ~dir ~shards =
  if shards < 1 || shards > max_shards then
    Error (Printf.sprintf "shard count %d out of range (1..%d)" shards max_shards)
  else if is_sharded dir then Error (dir ^ ": already a sharded registry")
  else
    match
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
      else begin
        let t = make (Dir dir) (Array.make shards None) in
        commit_all t [];
        Ok t
      end
    with
    | exception Unix.Unix_error (e, _, _) -> Error (dir ^ ": " ^ Unix.error_message e)
    | exception Sys_error msg -> Error msg
    | r -> r

let load_manifest dir =
  let path = manifest_file dir in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | data ->
    Result.map_error
      (fun e -> path ^ ": " ^ e)
      (Result.map
         (fun counts ->
           { (make (Dir dir) (Array.make (Array.length counts) None)) with counts })
         (parse_manifest (Bytes.of_string data)))

let load path =
  Eric_telemetry.Span.with_ ~cat:"fleet" ~name:"fleet.registry.open" (fun () ->
      let start = Eric_telemetry.Clock.now_ns () in
      let kind, result =
        if is_sharded path then ("manifest", load_manifest path)
        else
          ("file", Result.map (fun p -> make (File path) [| Some p |]) (with_file path read_partition))
      in
      observe_open_ns ~kind start;
      result)

let migrate ~file ~dir ~shards =
  let* t = create_sharded ~dir ~shards in
  (* Stream: route each decoded entry straight to its shard's temp file
     (header written with count 0, patched at the end), so the
     single-file fleet is never resident. *)
  let outs = Array.make shards None in
  let out i =
    match outs.(i) with
    | Some (oc, _) -> oc
    | None ->
      let path = shard_file dir i in
      let oc = open_out_bin (path ^ ".tmp") in
      output_bytes oc (header ~count:0);
      outs.(i) <- Some (oc, path);
      oc
  in
  let seen = Hashtbl.create 1024 in
  let buf = Buffer.create 256 in
  let result =
    fold_file file ~init:() ~f:(fun () e ->
        if Hashtbl.mem seen e.device_id then
          Error (Printf.sprintf "duplicate entry: device %Ld is already enrolled" e.device_id)
        else begin
          Hashtbl.add seen e.device_id ();
          let i = shard_of ~shards e.device_id in
          Buffer.clear buf;
          serialize_entry buf e;
          Buffer.output_buffer (out i) buf;
          t.counts.(i) <- t.counts.(i) + 1;
          Ok ()
        end)
  in
  let finish i (oc, _) =
    if Result.is_ok result then begin
      seek_out oc 0;
      output_bytes oc (header ~count:t.counts.(i));
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc)
    end;
    close_out oc
  in
  Array.iteri (fun i -> Option.iter (finish i)) outs;
  let staged =
    List.filter_map (Option.map (fun (_, path) -> (path ^ ".tmp", path))) (Array.to_list outs)
  in
  match result with
  | Error e ->
    List.iter (fun (tmp, _) -> Sys.remove tmp) staged;
    raise (Corrupt e)
  | Ok () ->
    commit_all t staged;
    Ok t

let pp_status fmt = function
  | Active -> Format.pp_print_string fmt "active"
  | Quarantined reason -> Format.fprintf fmt "quarantined (%s)" reason

let pp_entry fmt e =
  Format.fprintf fmt "device %Ld  epoch %d  label %S  firmware %d  %a  %s" e.device_id
    e.epoch e.label e.firmware_epoch pp_status e.status
    (match e.helper with
    | None -> "legacy boot"
    | Some h ->
      Printf.sprintf "helper v%d (%d/%d chains, %d ppm)" h.Eric_puf.Enroll.version
        (Eric_puf.Enroll.kept_chains h) h.Eric_puf.Enroll.chains e.instability_ppm)

let pp_summary fmt t =
  let total, active, quarantined =
    fold t ~init:(0, 0, 0) ~f:(fun (n, a, q) e ->
        match e.status with Active -> (n + 1, a + 1, q) | Quarantined _ -> (n + 1, a, q + 1))
  in
  match t.home with
  | Dir _ ->
    Format.fprintf fmt "%d device(s) in %d shard(s), %d active, %d quarantined" total (shards t)
      active quarantined
  | Memory | File _ ->
    Format.fprintf fmt "%d device(s), %d active, %d quarantined" total active quarantined
