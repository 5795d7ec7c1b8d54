type config = { size_bytes : int; ways : int; line_bytes : int }

let table1_config = { size_bytes = 16 * 1024; ways = 4; line_bytes = 64 }

type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let valid = 1
let dirty = 2

(* Way [w] of set [s] lives at index [s * ways + w] of the flat arrays. *)
type t = {
  cfg : config;
  nsets : int;
  line_shift : int;
  set_shift : int;
  tags : int array;
  state : int array;  (** [valid] and [dirty] bits *)
  ages : int array;  (** LRU timestamp of the last touch *)
  stats_ : stats;
  mutable clock : int; (* monotonically increasing LRU timestamp *)
}

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let log2 v =
  let rec go n = if 1 lsl n >= v then n else go (n + 1) in
  go 0

let create cfg =
  if not (is_power_of_two cfg.line_bytes) then invalid_arg "Cache.create: line size not a power of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines mod cfg.ways <> 0 then invalid_arg "Cache.create: geometry does not divide";
  let nsets = lines / cfg.ways in
  if not (is_power_of_two nsets) then invalid_arg "Cache.create: set count not a power of two";
  {
    cfg;
    nsets;
    line_shift = log2 cfg.line_bytes;
    set_shift = log2 nsets;
    tags = Array.make lines 0;
    state = Array.make lines 0;
    ages = Array.make lines 0;
    stats_ = { accesses = 0; hits = 0; misses = 0; writebacks = 0 };
    clock = 0;
  }

let config t = t.cfg
let stats t = t.stats_

type outcome = Hit | Miss of { writeback : bool }

let miss_clean = Miss { writeback = false }
let miss_dirty = Miss { writeback = true }

let access t ~addr ~write =
  let s = t.stats_ in
  s.accesses <- s.accesses + 1;
  t.clock <- t.clock + 1;
  (* Shifts are division for the addresses a program can access;
     a wild negative address (which traps right after) keeps the line and
     tag that truncating division gives it. *)
  let line = if addr >= 0 then addr lsr t.line_shift else addr / t.cfg.line_bytes in
  let tag = if line >= 0 then line lsr t.set_shift else line / t.nsets in
  let ways = t.cfg.ways in
  let first = (line land (t.nsets - 1)) * ways in
  let last = first + ways - 1 in
  let w = ref first in
  while !w <= last && not (t.tags.(!w) = tag && t.state.(!w) land valid <> 0) do
    incr w
  done;
  if !w <= last then begin
    s.hits <- s.hits + 1;
    t.ages.(!w) <- t.clock;
    if write then t.state.(!w) <- t.state.(!w) lor dirty;
    Hit
  end
  else begin
    s.misses <- s.misses + 1;
    (* Evict the first invalid way if one exists, otherwise the least
       recently used one: an invalid way has age 0 and a valid one a
       positive age, so that is the first way of the lowest age. *)
    let v = ref first in
    for i = first + 1 to last do
      if t.ages.(i) < t.ages.(!v) then v := i
    done;
    let v = !v in
    let writeback = t.state.(v) = valid lor dirty in
    if writeback then s.writebacks <- s.writebacks + 1;
    t.tags.(v) <- tag;
    t.state.(v) <- (if write then valid lor dirty else valid);
    t.ages.(v) <- t.clock;
    if writeback then miss_dirty else miss_clean
  end

let flush t =
  Array.fill t.state 0 (Array.length t.state) 0;
  Array.fill t.ages 0 (Array.length t.ages) 0

let hit_rate t =
  if t.stats_.accesses = 0 then 0.0 else float_of_int t.stats_.hits /. float_of_int t.stats_.accesses
