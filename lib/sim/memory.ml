(* Memory is materialised lazily in fixed-size pages: every untouched
   page is one shared all-zero page, and the first write to a page gives
   it a private copy.  A 16 MiB address space costs only the pages a
   program touches, and creating one costs no zero-fill. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = { size : int; pages : Bytes.t array }

exception Trap of string

(* Never written: every writer goes through [own_page]. *)
let zero_page = Bytes.make page_size '\000'

let create ~size =
  if size <= 0 then invalid_arg "Memory.create: size must be positive";
  { size; pages = Array.make ((size + page_mask) lsr page_bits) zero_page }

let size t = t.size

let check t addr len =
  if addr < 0 || len < 0 || addr > t.size - len then
    raise (Trap (Printf.sprintf "memory access out of bounds: 0x%x (+%d)" addr len))

let own_page t i =
  let p = t.pages.(i) in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    p
  end

let read_page t addr len =
  check t addr len;
  t.pages.(addr lsr page_bits)

let write_page t addr len =
  check t addr len;
  own_page t (addr lsr page_bits)

let within_page addr len = addr land page_mask <= page_size - len

(* Byte-wise slow path for accesses that straddle a page boundary. *)
let get_byte t a = Char.code (Bytes.get t.pages.(a lsr page_bits) (a land page_mask))

let set_byte t a v =
  Bytes.set (own_page t (a lsr page_bits)) (a land page_mask) (Char.unsafe_chr (v land 0xFF))

let get_le t addr n =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor get_byte t (addr + i)
  done;
  !v

let set_le t addr n v =
  for i = 0 to n - 1 do
    set_byte t (addr + i) (v lsr (8 * i))
  done

let read_u8 t addr = Char.code (Bytes.get (read_page t addr 1) (addr land page_mask))

let read_u16 t addr =
  let p = read_page t addr 2 in
  if within_page addr 2 then Bytes.get_uint16_le p (addr land page_mask) else get_le t addr 2

let read_u32 t addr =
  let p = read_page t addr 4 in
  if within_page addr 4 then Bytes.get_int32_le p (addr land page_mask)
  else Int32.of_int (get_le t addr 4)

let read_u64 t addr =
  let p = read_page t addr 8 in
  if within_page addr 8 then Bytes.get_int64_le p (addr land page_mask)
  else
    Int64.logor
      (Int64.of_int (get_le t addr 4))
      (Int64.shift_left (Int64.of_int (get_le t (addr + 4) 4)) 32)

let write_u8 t addr v =
  Bytes.set (write_page t addr 1) (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

let write_u16 t addr v =
  let p = write_page t addr 2 in
  if within_page addr 2 then Bytes.set_uint16_le p (addr land page_mask) (v land 0xFFFF)
  else set_le t addr 2 v

let write_u32 t addr v =
  let p = write_page t addr 4 in
  if within_page addr 4 then Bytes.set_int32_le p (addr land page_mask) v
  else set_le t addr 4 (Int32.to_int v)

let write_u64 t addr v =
  let p = write_page t addr 8 in
  if within_page addr 8 then Bytes.set_int64_le p (addr land page_mask) v
  else begin
    set_le t addr 4 (Int64.to_int v);
    set_le t (addr + 4) 4 (Int64.to_int (Int64.shift_right_logical v 32))
  end

(* Visit [addr, addr+len) one page-sized chunk at a time. *)
let iter_chunks ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let n = min (len - !pos) (page_size - (a land page_mask)) in
    f (a lsr page_bits) (a land page_mask) !pos n;
    pos := !pos + n
  done

let blit_bytes t ~addr b =
  let len = Bytes.length b in
  check t addr len;
  iter_chunks ~addr ~len (fun i off src n -> Bytes.blit b src (own_page t i) off n)

let read_bytes t ~addr ~len =
  check t addr len;
  let out = Bytes.create len in
  iter_chunks ~addr ~len (fun i off dst n -> Bytes.blit t.pages.(i) off out dst n);
  out

let fill t ~addr ~len c =
  check t addr len;
  iter_chunks ~addr ~len (fun i off _ n ->
      (* Zero-filling an untouched page is already done. *)
      if not (c = '\000' && t.pages.(i) == zero_page) then Bytes.fill (own_page t i) off n c)
