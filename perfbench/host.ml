(* Host-speed probe.

   The benchmark runs on a shared VM whose speed changes in phases of
   seconds to minutes: runs of consecutive fleet redeploys read 18-19 ms,
   then 29-31 ms, for the same work on the same heap.  A fixed kernel
   timed next to every operation slows by the same factor in the same
   phase, so an operation's time divided by the kernel's reads the same
   in either phase.

   The kernel is not code of the program under test, so a change to the
   program moves the operation and not the kernel.  It never allocates
   on the OCaml heap and its buffers are out-of-heap bigarrays, so it
   neither adds GC work to the program nor pays for the program's GC
   debt: its time depends on the host alone.  It has three parts, each
   about a third of its time on the reference box, because the phases
   slow different kinds of code by different factors: a sequential
   sweep over 2 MiB (like allocation through the minor heap), a chain of
   dependent random loads over 4 MiB (like pointer chasing in the major
   heap), and a small bytecode interpreter (like the simulator core). *)

module A = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let ints n : ints = A.create Bigarray.int Bigarray.c_layout n

let stream_words = 1 lsl 18
let stream_buf = ints stream_words
let () = A.fill stream_buf 0

(* One cycle through every slot (Sattolo's algorithm, fixed seed), so the
   chain visits 4 MiB in an order the prefetcher cannot follow. *)
let chase_words = 1 lsl 19

let chase_buf =
  let a = ints chase_words in
  for i = 0 to chase_words - 1 do
    a.{i} <- i
  done;
  let rng = Random.State.make [| 0x5eed |] in
  for i = chase_words - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let code_len = 64
let code =
  let a = ints code_len in
  for i = 0 to code_len - 1 do
    a.{i} <- ((i * 37) + 11) land 7
  done;
  a

let regs = ints 8
let data = ints 4096

(* Results land here so that no loop can be dropped as dead. *)
let sink = ints 1

let stream () =
  let s = ref 0 in
  for r = 1 to 2 do
    for i = 0 to stream_words - 1 do
      stream_buf.{i} <- i + r
    done;
    for i = 0 to stream_words - 1 do
      s := !s + stream_buf.{i}
    done
  done;
  sink.{0} <- sink.{0} + !s

let chase () =
  let j = ref (sink.{0} land (chase_words - 1)) in
  for _ = 1 to 12_000 do
    j := chase_buf.{!j}
  done;
  sink.{0} <- sink.{0} + !j

let interp () =
  A.fill regs 1;
  let pc = ref 0 and acc = ref 0 in
  for _ = 1 to 300_000 do
    (match code.{!pc} with
    | 0 -> regs.{1} <- regs.{1} + regs.{2}
    | 1 -> regs.{2} <- regs.{2} lxor (regs.{1} lsl 3)
    | 2 -> data.{regs.{1} land 4095} <- regs.{2}
    | 3 -> regs.{3} <- data.{regs.{2} land 4095}
    | 4 -> if regs.{3} land 1 = 0 then incr acc
    | 5 -> regs.{4} <- (regs.{4} * 31) + regs.{3}
    | 6 -> regs.{1} <- regs.{1} land 0xffffff
    | _ -> regs.{2} <- regs.{2} + !acc);
    pc := (!pc + 1) land (code_len - 1)
  done;
  sink.{0} <- sink.{0} + !acc + regs.{4}

let kernel () =
  stream ();
  chase ();
  interp ()

(* Timings are reported at the speed of a host on which [kernel] takes
   [reference_ns]: a round figure near its median on the reference box
   (2 vCPU Intel Xeon VM, OCaml 5.1.1), so scaled and measured times are
   close there. *)
let reference_ns = 5.0e6

(* [times.(i)] is an interval timed between probes [probes.(i)] and
   [probes.(i + 1)], so [probes] has one element more.  Each interval is
   scaled by the mean of the two probes around it. *)
let scaled ~times ~probes =
  if Array.length probes <> Array.length times + 1 then
    invalid_arg "Host.scaled: one probe more than intervals expected";
  Array.mapi
    (fun i t ->
      let k = (Int64.to_float probes.(i) +. Int64.to_float probes.(i + 1)) /. 2.0 in
      Int64.to_float t *. reference_ns /. k)
    times
