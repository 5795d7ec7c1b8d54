open Eric_rv

type timing = {
  icache_miss_penalty : int;
  dcache_miss_penalty : int;
  writeback_penalty : int;
  load_use_stall : int;
  taken_branch_penalty : int;
  jump_penalty : int;
  jalr_penalty : int;
  mul_extra : int;
  div_extra : int;
}

let default_timing =
  {
    icache_miss_penalty = 20;
    dcache_miss_penalty = 20;
    writeback_penalty = 4;
    load_use_stall = 1;
    taken_branch_penalty = 2;
    jump_penalty = 1;
    jalr_penalty = 2;
    mul_extra = 3;
    div_extra = 31;
  }

type syscall_result = Sys_continue | Sys_exit of int

type status = Running | Exited of int | Faulted of string | Integrity_fault of string

exception Integrity_violation of string

(* One predecoded parcel: the instruction that starts there, its size
   in bytes and the bitmask of the registers it reads (for the load-use
   check). *)
type decoded = { inst : Inst.t; size : int; uses : int }

let undecoded = { inst = Inst.Fence; size = 0; uses = 0 }

(* Decode slots of a memory page nothing was fetched from yet. *)
let no_slots : decoded array = [||]

let page_size = 1 lsl Memory.page_bits
let parcels_per_page = page_size / 2

type t = {
  regs : Bytes.t;  (** x0..x31, eight bytes each *)
  mutable pc_ : int;
  memory : Memory.t;
  icache_ : Cache.t;
  dcache_ : Cache.t;
  timing : timing;
  mutable cycles_ : int;
  mutable instret : int;
  mutable status_ : status;
  mutable load_dest : int;
      (** bitmask of the register the previous instruction loaded, 0 when
          it was not a load *)
  mutable trace : (pc:int -> Inst.t -> unit) option;
  mutable on_store : (addr:int -> len:int -> unit) option;
  mutable on_ifetch_miss : (addr:int -> int) option;
  predictor : int array option;  (** bimodal 2-bit counters, pc-indexed *)
  out : Buffer.t;
  decoded : decoded array array;
      (** per memory page, one slot per parcel; [undecoded] until the
          parcel is fetched, and again after a store overlaps it *)
}

let get t (r : Reg.t) = Bytes.get_int64_ne t.regs ((r :> int) lsl 3) [@@inline]

let put t (r : Reg.t) v =
  let r = (r :> int) in
  if r <> 0 then Bytes.set_int64_ne t.regs (r lsl 3) v
[@@inline]

let create ?(timing = default_timing) ?(icache = Cache.table1_config)
    ?(dcache = Cache.table1_config) ?(branch_predictor = false) ~memory ~pc ~sp () =
  let t =
    {
      regs = Bytes.make (32 * 8) '\000';
      pc_ = pc;
      memory;
      icache_ = Cache.create icache;
      dcache_ = Cache.create dcache;
      timing;
      cycles_ = 0;
      instret = 0;
      status_ = Running;
      load_dest = 0;
      trace = None;
      on_store = None;
      on_ifetch_miss = None;
      predictor = (if branch_predictor then Some (Array.make 512 1) else None);
      out = Buffer.create 256;
      decoded = Array.make ((Memory.size memory + page_size - 1) / page_size) no_slots;
    }
  in
  put t Reg.sp (Int64.of_int sp);
  t

let reg t r = get t r
let set_reg t r v = put t r v
let pc t = t.pc_
let set_pc t pc = t.pc_ <- pc
let cycles t = Int64.of_int t.cycles_
let instructions t = Int64.of_int t.instret
let icache t = t.icache_
let dcache t = t.dcache_
let output t = Buffer.contents t.out
let status t = t.status_

let set_trace t hook = t.trace <- hook
let set_store_hook t hook = t.on_store <- hook
let set_ifetch_miss_hook t hook = t.on_ifetch_miss <- hook

let charge t n = t.cycles_ <- t.cycles_ + n

let fault_integrity t msg = t.status_ <- Integrity_fault msg

let miss_penalty t penalty = function
  | Cache.Hit -> 0
  | Cache.Miss { writeback } -> penalty + if writeback then t.timing.writeback_penalty else 0

(* I-side fetch charge: on a miss the line is filled from memory, which
   is where a fetch-checking integrity guard re-hashes the granule being
   filled (and may raise {!Integrity_violation}). *)
let charge_ifetch t ~addr =
  match Cache.access t.icache_ ~addr ~write:false with
  | Cache.Hit -> ()
  | miss ->
    charge t (miss_penalty t t.timing.icache_miss_penalty miss);
    (match t.on_ifetch_miss with
    | Some hook -> charge t (hook ~addr)
    | None -> ())

let charge_dcache t ~addr ~write =
  charge t (miss_penalty t t.timing.dcache_miss_penalty (Cache.access t.dcache_ ~addr ~write))

(* ------------------------------------------------------------------ *)
(* 64-bit arithmetic helpers                                           *)
(* ------------------------------------------------------------------ *)

(* All inlined, and the [exec_*] functions write the destination in every
   branch (a match returning the value would box it): register values
   stay unboxed from read to write. *)

let sext32 v = Int64.of_int32 (Int64.to_int32 v) [@@inline]
let low32_mask = 0xFFFFFFFFL
let ult (a : int64) b = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int [@@inline]
let bit c = if c then 1L else 0L [@@inline]
let shamt b mask = Int64.to_int b land mask [@@inline]

let mulhu a b =
  let open Int64 in
  let al = logand a low32_mask and ah = shift_right_logical a 32 in
  let bl = logand b low32_mask and bh = shift_right_logical b 32 in
  let ll = mul al bl in
  let lh = mul al bh in
  let hl = mul ah bl in
  let hh = mul ah bh in
  let mid = add (add lh (shift_right_logical ll 32)) (logand hl low32_mask) in
  add (add hh (shift_right_logical hl 32)) (shift_right_logical mid 32)
[@@inline]

let mulh a b =
  let r = mulhu a b in
  let r = if a < 0L then Int64.sub r b else r in
  if b < 0L then Int64.sub r a else r
[@@inline]

let mulhsu a b =
  let r = mulhu a b in
  if a < 0L then Int64.sub r b else r
[@@inline]

let div_signed a b =
  if b = 0L then -1L else if a = Int64.min_int && b = -1L then Int64.min_int else Int64.div a b
[@@inline]

let rem_signed a b =
  if b = 0L then a else if a = Int64.min_int && b = -1L then 0L else Int64.rem a b
[@@inline]

let div_unsigned a b = if b = 0L then -1L else Int64.unsigned_div a b [@@inline]
let rem_unsigned a b = if b = 0L then a else Int64.unsigned_rem a b [@@inline]

let exec_r t (op : Inst.r_op) rd a b =
  let open Int64 in
  match op with
  | Add -> put t rd (add a b)
  | Sub -> put t rd (sub a b)
  | Sll -> put t rd (shift_left a (shamt b 63))
  | Slt -> put t rd (bit (a < b))
  | Sltu -> put t rd (bit (ult a b))
  | Xor -> put t rd (logxor a b)
  | Srl -> put t rd (shift_right_logical a (shamt b 63))
  | Sra -> put t rd (shift_right a (shamt b 63))
  | Or -> put t rd (logor a b)
  | And -> put t rd (logand a b)
  | Addw -> put t rd (sext32 (add a b))
  | Subw -> put t rd (sext32 (sub a b))
  | Sllw -> put t rd (sext32 (shift_left a (shamt b 31)))
  | Srlw -> put t rd (sext32 (shift_right_logical (logand a low32_mask) (shamt b 31)))
  | Sraw -> put t rd (sext32 (shift_right (sext32 a) (shamt b 31)))
  | Mul -> put t rd (mul a b)
  | Mulh -> put t rd (mulh a b)
  | Mulhsu -> put t rd (mulhsu a b)
  | Mulhu -> put t rd (mulhu a b)
  | Div -> put t rd (div_signed a b)
  | Divu -> put t rd (div_unsigned a b)
  | Rem -> put t rd (rem_signed a b)
  | Remu -> put t rd (rem_unsigned a b)
  | Mulw -> put t rd (sext32 (mul a b))
  | Divw ->
    let a32 = sext32 a and b32 = sext32 b in
    if b32 = 0L then put t rd (-1L)
    else if a32 = of_int32 Int32.min_int && b32 = -1L then put t rd (sext32 a32)
    else put t rd (sext32 (div a32 b32))
  | Divuw ->
    let a32 = logand a low32_mask and b32 = logand b low32_mask in
    if b32 = 0L then put t rd (-1L) else put t rd (sext32 (unsigned_div a32 b32))
  | Remw ->
    let a32 = sext32 a and b32 = sext32 b in
    if b32 = 0L then put t rd a32
    else if a32 = of_int32 Int32.min_int && b32 = -1L then put t rd 0L
    else put t rd (sext32 (rem a32 b32))
  | Remuw ->
    let a32 = logand a low32_mask and b32 = logand b low32_mask in
    if b32 = 0L then put t rd (sext32 a32) else put t rd (sext32 (unsigned_rem a32 b32))
[@@inline]

let exec_i t (op : Inst.i_op) rd a imm =
  let open Int64 in
  let b = of_int imm in
  match op with
  | Addi -> put t rd (add a b)
  | Slti -> put t rd (bit (a < b))
  | Sltiu -> put t rd (bit (ult a b))
  | Xori -> put t rd (logxor a b)
  | Ori -> put t rd (logor a b)
  | Andi -> put t rd (logand a b)
  | Addiw -> put t rd (sext32 (add a b))
[@@inline]

let exec_shift t (op : Inst.shift_op) rd a sh =
  let open Int64 in
  match op with
  | Slli -> put t rd (shift_left a sh)
  | Srli -> put t rd (shift_right_logical a sh)
  | Srai -> put t rd (shift_right a sh)
  | Slliw -> put t rd (sext32 (shift_left a sh))
  | Srliw -> put t rd (sext32 (shift_right_logical (logand a low32_mask) sh))
  | Sraiw -> put t rd (sext32 (shift_right (sext32 a) sh))
[@@inline]

let branch_taken (op : Inst.branch_op) (a : int64) b =
  match op with
  | Beq -> a = b
  | Bne -> a <> b
  | Blt -> a < b
  | Bge -> a >= b
  | Bltu -> ult a b
  | Bgeu -> not (ult a b)
[@@inline]

(* ------------------------------------------------------------------ *)
(* Fetch / decode                                                      *)
(* ------------------------------------------------------------------ *)

exception Fault of string

let decode_at t pc =
  let half = Memory.read_u16 t.memory pc in
  let inst, size =
    if half land 0b11 = 0b11 then begin
      let word = Memory.read_u32 t.memory pc in
      match Decode.decode word with
      | Some inst -> (inst, 4)
      | None -> raise (Fault (Printf.sprintf "invalid instruction 0x%08lx at pc 0x%x" word pc))
    end
    else
      match Rvc.expand half with
      | Some inst -> (inst, 2)
      | None -> raise (Fault (Printf.sprintf "invalid compressed parcel 0x%04x at pc 0x%x" half pc))
  in
  let uses = List.fold_left (fun m r -> m lor (1 lsl Reg.to_int r)) 0 (Inst.uses inst) in
  { inst; size; uses }

let fetch_decode t =
  let pc = t.pc_ in
  if pc land 1 = 0 && pc >= 0 && pc < Memory.size t.memory then begin
    let page = pc lsr Memory.page_bits in
    let slots =
      match t.decoded.(page) with
      | slots when slots == no_slots ->
        let slots = Array.make parcels_per_page undecoded in
        t.decoded.(page) <- slots;
        slots
      | slots -> slots
    in
    let i = (pc lsr 1) land (parcels_per_page - 1) in
    let d = slots.(i) in
    if d != undecoded then d
    else begin
      let d = decode_at t pc in
      slots.(i) <- d;
      d
    end
  end
  else decode_at t pc

(* A store over [addr, addr+len) drops every decode slot whose
   instruction may overlap it, including a 4-byte one that starts in the
   parcel before [addr]. *)
let invalidate t ~addr ~len =
  for p = max 0 ((addr - 2) asr 1) to (addr + len - 1) asr 1 do
    let slots = t.decoded.(p / parcels_per_page) in
    if slots != no_slots then slots.(p land (parcels_per_page - 1)) <- undecoded
  done

(* ------------------------------------------------------------------ *)
(* Loads and stores                                                    *)
(* ------------------------------------------------------------------ *)

(* The CPU faults misaligned accesses, so no access here straddles a
   page. *)
let offset addr = addr land (page_size - 1) [@@inline]

let load t (op : Inst.load_op) rd addr =
  let m = t.memory in
  match op with
  | Lb -> put t rd (Int64.of_int (Bytes.get_int8 (Memory.read_page m addr 1) (offset addr)))
  | Lbu -> put t rd (Int64.of_int (Bytes.get_uint8 (Memory.read_page m addr 1) (offset addr)))
  | Lh -> put t rd (Int64.of_int (Bytes.get_int16_le (Memory.read_page m addr 2) (offset addr)))
  | Lhu -> put t rd (Int64.of_int (Bytes.get_uint16_le (Memory.read_page m addr 2) (offset addr)))
  | Lw -> put t rd (Int64.of_int32 (Bytes.get_int32_le (Memory.read_page m addr 4) (offset addr)))
  | Lwu ->
    let w = Bytes.get_int32_le (Memory.read_page m addr 4) (offset addr) in
    put t rd (Int64.logand (Int64.of_int32 w) low32_mask)
  | Ld -> put t rd (Bytes.get_int64_le (Memory.read_page m addr 8) (offset addr))

let store t (op : Inst.store_op) addr src =
  let m = t.memory and v = get t src in
  match op with
  | Sb -> Bytes.set_int8 (Memory.write_page m addr 1) (offset addr) (Int64.to_int v)
  | Sh -> Bytes.set_int16_le (Memory.write_page m addr 2) (offset addr) (Int64.to_int v)
  | Sw -> Bytes.set_int32_le (Memory.write_page m addr 4) (offset addr) (Int64.to_int32 v)
  | Sd -> Bytes.set_int64_le (Memory.write_page m addr 8) (offset addr) v

let alignment (op : Inst.load_op) =
  match op with Lb | Lbu -> 1 | Lh | Lhu -> 2 | Lw | Lwu -> 4 | Ld -> 8

let store_alignment (op : Inst.store_op) = match op with Sb -> 1 | Sh -> 2 | Sw -> 4 | Sd -> 8

let is_mul (op : Inst.r_op) = match op with Mul | Mulh | Mulhsu | Mulhu | Mulw -> true | _ -> false

let is_div (op : Inst.r_op) =
  match op with Div | Divu | Rem | Remu | Divw | Divuw | Remw | Remuw -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Syscalls                                                            *)
(* ------------------------------------------------------------------ *)

let syscall t =
  let a n = get t (Reg.a n) in
  match Int64.to_int (a 7) with
  | 64 ->
    let addr = Int64.to_int (a 1) and len = Int64.to_int (a 2) in
    Buffer.add_bytes t.out (Memory.read_bytes t.memory ~addr ~len);
    put t (Reg.a 0) (Int64.of_int len);
    Sys_continue
  | 93 -> Sys_exit (Int64.to_int (a 0))
  | n -> raise (Fault (Printf.sprintf "unsupported syscall %d at pc 0x%x" n t.pc_))

(* ------------------------------------------------------------------ *)
(* Step                                                                *)
(* ------------------------------------------------------------------ *)

let is_running t =
  match t.status_ with Running -> true | Exited _ | Faulted _ | Integrity_fault _ -> false

(* One instruction, raising [Fault], [Integrity_violation] or
   [Memory.Trap] on a fault; [trapping] turns those into the status. *)
let exec t =
  let pc = t.pc_ in
  (* The line fill precedes decode, as in silicon: a fetch-checking
     integrity guard must get to refuse the granule before a corrupted
     encoding can raise its own (less diagnosable) decode fault. *)
  charge_ifetch t ~addr:pc;
  let d = fetch_decode t in
  (match t.trace with Some hook -> hook ~pc d.inst | None -> ());
  (* Load-use hazard: stalls when an instruction consumes the result of
     the immediately preceding load. *)
  charge t (if d.uses land t.load_dest <> 0 then 1 + t.timing.load_use_stall else 1);
  t.load_dest <- 0;
  let next_pc =
    match d.inst with
    | Inst.R (op, rd, rs1, rs2) ->
      if is_mul op then charge t t.timing.mul_extra;
      if is_div op then charge t t.timing.div_extra;
      exec_r t op rd (get t rs1) (get t rs2);
      pc + d.size
    | Inst.I (op, rd, rs1, imm) ->
      exec_i t op rd (get t rs1) imm;
      pc + d.size
    | Inst.Shift (op, rd, rs1, sh) ->
      exec_shift t op rd (get t rs1) sh;
      pc + d.size
    | Inst.U (Lui, rd, imm) ->
      put t rd (Int64.of_int (imm lsl 12));
      pc + d.size
    | Inst.U (Auipc, rd, imm) ->
      put t rd (Int64.of_int (pc + (imm lsl 12)));
      pc + d.size
    | Inst.Load (op, rd, base, off) ->
      let addr = Int64.to_int (get t base) + off in
      if addr land (alignment op - 1) <> 0 then
        raise (Fault (Printf.sprintf "misaligned load at 0x%x (pc 0x%x)" addr pc));
      charge_dcache t ~addr ~write:false;
      load t op rd addr;
      t.load_dest <- 1 lsl (rd :> int);
      pc + d.size
    | Inst.Store (op, src, base, off) ->
      let addr = Int64.to_int (get t base) + off in
      let len = store_alignment op in
      if addr land (len - 1) <> 0 then
        raise (Fault (Printf.sprintf "misaligned store at 0x%x (pc 0x%x)" addr pc));
      charge_dcache t ~addr ~write:true;
      store t op addr src;
      invalidate t ~addr ~len;
      (match t.on_store with Some hook -> hook ~addr ~len | None -> ());
      pc + d.size
    | Inst.Branch (op, rs1, rs2, off) ->
      let taken = branch_taken op (get t rs1) (get t rs2) in
      (match t.predictor with
      | None -> if taken then charge t t.timing.taken_branch_penalty
      | Some counters ->
        (* Bimodal 2-bit saturating counters: penalty on mispredict only. *)
        let slot = (pc lsr 1) land (Array.length counters - 1) in
        let predicted_taken = counters.(slot) >= 2 in
        if predicted_taken <> taken then charge t t.timing.taken_branch_penalty;
        counters.(slot) <-
          (if taken then min 3 (counters.(slot) + 1) else max 0 (counters.(slot) - 1)));
      if taken then pc + off else pc + d.size
    | Inst.Jal (rd, off) ->
      put t rd (Int64.of_int (pc + d.size));
      charge t t.timing.jump_penalty;
      pc + off
    | Inst.Jalr (rd, rs1, imm) ->
      let target = (Int64.to_int (get t rs1) + imm) land lnot 1 in
      put t rd (Int64.of_int (pc + d.size));
      charge t t.timing.jalr_penalty;
      target
    | Inst.Ecall ->
      (match syscall t with
      | Sys_continue -> ()
      | Sys_exit code -> t.status_ <- Exited code);
      pc + d.size
    | Inst.Ebreak -> raise (Fault (Printf.sprintf "ebreak at pc 0x%x" pc))
    | Inst.Fence -> pc + d.size
    | Inst.Csrr (rd, csr) ->
      (match csr with
      | 0xC00 -> put t rd (Int64.of_int t.cycles_)
      | 0xC01 -> put t rd (Int64.of_int (t.cycles_ / 25)) (* microseconds at the 25 MHz clock *)
      | 0xC02 -> put t rd (Int64.of_int t.instret)
      | _ -> raise (Fault (Printf.sprintf "unsupported CSR 0x%x at pc 0x%x" csr pc)));
      pc + d.size
  in
  t.instret <- t.instret + 1;
  if is_running t then t.pc_ <- next_pc

let trapping t body =
  try body t with
  | Fault msg -> t.status_ <- Faulted msg
  | Integrity_violation msg -> t.status_ <- Integrity_fault msg
  | Memory.Trap msg -> t.status_ <- Faulted (msg ^ Printf.sprintf " (pc 0x%x)" t.pc_)

let step t = if is_running t then trapping t exec

(* One handler for the whole run: a fault ends the run anyway. *)
let run ?(fuel = 50_000_000) t =
  let remaining = ref fuel in
  trapping t (fun t ->
      while is_running t && !remaining > 0 do
        exec t;
        decr remaining
      done);
  if is_running t then t.status_ <- Faulted "out of fuel";
  t.status_
