(** The software source's persistent view of its device population.

    Each enrolled device carries the KMU context it was provisioned under,
    the PUF-based key the provisioning handshake produced (never the PUF
    key itself — see {!Eric.Kmu}), the firmware epoch of its last
    successful deployment, and a quarantine flag set by the shipper when a
    device repeatedly refuses validly signed packages.

    A registry holds its entries in 1..S {e partitions}, each an entry
    table with its own device/target memo.  It lives in one of three
    places:
    - in memory ({!create}, {!parse}): one partition, no file;
    - a single EFRG file: one partition, parsed when {!load}ed;
    - an EFRS directory (a [MANIFEST] plus one EFRG file per shard): S
      partitions, devices routed by {!shard_of}, each parsed on first
      touch.  Opening reads the manifest only, and {!walk} releases each
      partition once it is done with it, so a fleet walk holds one
      partition in memory at a time.

    Both formats are strict and versioned (EFRG magic ["EFRG"], version
    2, version-1 files still parse; EFRS magic ["EFRS"], version 1),
    documented in [docs/fleet.md]: parsing rejects truncation, reserved
    bytes, duplicate ids and trailing garbage, so a corrupt file is
    refused rather than half-loaded.  Every file is written as a temp
    file, fsynced and renamed into place, the manifest last. *)

type status = Active | Quarantined of string  (** reason *)

type entry = {
  device_id : Eric_puf.Device.id;
  epoch : int;  (** KMU key epoch the stored key was derived under *)
  label : string;  (** KMU deployment-scope label *)
  key : bytes;  (** provisioned PUF-based key for that context *)
  firmware_epoch : int;  (** last campaign successfully deployed (0 = never) *)
  status : status;
  helper : Eric_puf.Enroll.helper option;
      (** fuzzy-extractor helper data (public) from reliability-aware
          enrollment; [None] on legacy v1 entries, which keep the plain
          majority-vote boot *)
  instability_ppm : int;
      (** worst per-bit instability at enrollment or last survey, ppm *)
}

type t

exception Corrupt of string
(** A registry file failed to parse after {!load} returned: a shard
    file on first touch, or the input of {!migrate}.  Raised by every
    function below that may open a partition (and so by the campaign,
    rotation and re-enrollment walks); the message names the file. *)

val create : unit -> t
(** An empty in-memory registry (one partition). *)

val create_sharded : dir:string -> shards:int -> (t, string) result
(** Make [dir] (which must not already hold a manifest) an empty EFRS
    registry of [shards] partitions (1..65535).  Only the manifest is
    written; a partition's file appears once it holds entries. *)

val load : string -> (t, string) result
(** Open an EFRG file (parsed whole, as a stream) or an EFRS directory
    (manifest only).  I/O and parse failures are [Error], never
    exceptions.  Records a [fleet.registry.open] span and observes
    [fleet.registry.open_ns{kind="file"|"manifest"}]. *)

val save : t -> string -> unit
(** Persist the registry at [path].  When [path] is where the registry
    was loaded from or created at, only its changed partitions are
    written (and, for a directory, the manifest); otherwise the whole
    registry is written as one EFRG file. *)

val is_sharded : string -> bool
(** True when [path] is a directory holding an EFRS manifest. *)

val shard_of : shards:int -> Eric_puf.Device.id -> int
(** Stable device-id → partition mapping (a splitmix64-style bit mix,
    mod [shards]).  Pure: identical across processes and runs. *)

val shards : t -> int
(** Number of partitions (1 unless loaded from or created as a
    directory). *)

val migrate : file:string -> dir:string -> shards:int -> (t, string) result
(** Stream an EFRG file (any supported version) into a fresh EFRS
    directory without materializing it: entries are routed to per-shard
    files as they decode, and each shard header's count is patched once
    the input is consumed.  [Error] when [dir] cannot be made a
    registry.
    @raise Corrupt if [file] does not parse; duplicate device ids count,
    matching {!parse}.  No shard file is left behind then. *)

val entries : t -> entry list
(** Partition-major, enrolment order within a partition (so enrolment
    order for a one-partition registry). *)

val count : t -> int
(** From the live and manifest counts; opens no partition. *)

val fold : t -> init:'acc -> f:('acc -> entry -> 'acc) -> 'acc
(** Every entry in {!entries} order.  Partitions not in memory stream
    from disk entry by entry and are not kept, so a full scan costs one
    entry of memory. *)

val walk : t -> (entry array -> unit) -> unit
(** [walk t f] calls [f] once per partition that holds entries (once,
    with no entries, on an empty registry) with that partition's
    entries.  While
    [f] runs the partition is in memory, so {!target}, {!device} and
    {!update} on its devices touch no file.  After [f], a partition with
    a home on disk is written back if it changed and released, dropping
    its memo.  The written partitions are renamed into place, manifest
    last, only after the whole walk: a walk that raises (a {!Corrupt}
    partition, say) changes no file, and the partitions it had released
    revert to what is on disk. *)

val find : t -> Eric_puf.Device.id -> entry option
val mem : t -> Eric_puf.Device.id -> bool
val active : t -> entry list
val quarantined : t -> entry list

val context : entry -> Eric.Kmu.context

val device : t -> Eric_puf.Device.id -> Eric_puf.Device.t
(** The simulated silicon, manufactured once per partition and memoized —
    the stand-in for the hardware simply existing in the field. *)

val target : ?env:Eric_puf.Env.t -> t -> entry -> Eric.Target.t
(** Address the device under its enrolled KMU context.  When the entry
    carries helper data the target boots through the fuzzy extractor
    (at [env], default nominal) — a boot that can {e fail}, leaving the
    target refusing every load with [Key_unavailable].  Memoized per
    (device, context): the PUF key derivation happens once per boot on
    real silicon, so the model pays it once per partition, not per packet. *)

val target_for :
  ?env:Eric_puf.Env.t -> t -> context:Eric.Kmu.context -> Eric_puf.Device.id ->
  Eric.Target.t
(** Same memoized addressing under an arbitrary context (key rotation). *)

val set_hde : t -> Eric_hw.Hde.config -> unit
(** Provision every device this registry boots with the given HDE
    configuration — how the serve layer turns on the runtime integrity
    guard ({!Eric_hw.Hde.config.guard}) fleet-wide.  Drops all memoized
    boots, so already-addressed devices re-boot under the new silicon
    config on next use. *)

val invalidate_targets : t -> Eric_puf.Device.id -> unit
(** Drop the memoized boots of one device (all contexts); the next
    addressing re-runs key reconstruction.  {!update} calls this itself
    when a boot-relevant field changed — exposed for campaigns that want
    a fresh boot at a new operating point without touching the entry. *)

val enroll :
  ?epoch:int -> ?label:string -> ?enrollment:Eric_puf.Enroll.enrollment ->
  t -> Eric_puf.Device.id -> (entry, string) result
(** Manufacture the device, run reliability-aware enrollment
    ({!Eric_puf.Enroll.enroll}) and record the entry — helper data, the
    context-derived key and the measured instability included.  Pass
    [enrollment] to record a factory enrollment already performed.  Fails
    on a duplicate id or a die that cannot field enough stable chains. *)

val enroll_legacy : ?epoch:int -> ?label:string -> t -> Eric_puf.Device.id ->
  (entry, string) result
(** The fast factory path: derive the context key from a plain
    majority-vote PUF read at nominal conditions and record the entry
    with no helper data ([helper = None]) — exactly what a version-1
    provisioning line produced.  Roughly 5x cheaper per device than
    {!enroll}'s full reliability screening, which is what makes
    enrolling 10^5-device fleets for benches and CI tractable.  The
    device keeps the plain majority-vote boot; {!Reenroll} upgrades
    legacy entries to helper-data boots in the field. *)

val add : t -> entry -> (entry, string) result
(** Record an externally provisioned entry verbatim. *)

val update : t -> entry -> unit
(** Replace the entry with the same [device_id].  The device's memoized
    boots are invalidated only when a boot-relevant field changed (KMU
    epoch, label, key, or helper data) — firmware-epoch bookkeeping and
    quarantine flips keep the booted target, so warm redeployments do
    not re-pay key reconstruction per device.
    @raise Invalid_argument if the device is not enrolled. *)

val serialize : t -> bytes
(** The whole registry as one EFRG (version 2) file image. *)

val parse : bytes -> (t, string) result
(** An EFRG file image as an in-memory registry. *)

val pp_status : Format.formatter -> status -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp_summary : Format.formatter -> t -> unit
