(** Little-endian byte-addressable main memory, materialised lazily in
    fixed-size pages: untouched memory reads as zero through one shared
    zero page, and a page gets its own storage on its first write.

    All accesses are bounds-checked; an out-of-range access raises
    {!Trap}, which the CPU surfaces as an execution fault (the moral
    equivalent of a bus error on the real SoC).  Accesses that straddle
    a page boundary behave exactly like any other. *)

type t

exception Trap of string

val create : size:int -> t
val size : t -> int

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int32
val read_u64 : t -> int -> int64

val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int32 -> unit
val write_u64 : t -> int -> int64 -> unit

val blit_bytes : t -> addr:int -> bytes -> unit
(** Bulk copy into memory (the loader's DMA path). *)

val read_bytes : t -> addr:int -> len:int -> bytes

val fill : t -> addr:int -> len:int -> char -> unit

(** {2 Page access}

    The CPU's load/store path reads and writes naturally aligned values
    straight from a page, so that no value is boxed on its way to a
    register. *)

val page_bits : int
(** Pages hold [1 lsl page_bits] bytes, at page-aligned addresses. *)

val read_page : t -> int -> int -> bytes
(** [read_page t addr len] bounds-checks the [len]-byte access at [addr]
    like every accessor (raising {!Trap}) and returns the page holding
    [addr], to be read at offset [addr] modulo the page size.  An
    untouched page is the shared zero page: never write to the result.
    The access must not cross a page boundary (a naturally aligned
    access of at most 8 bytes never does). *)

val write_page : t -> int -> int -> bytes
(** As {!read_page}, for writing: gives the page its own storage first. *)
