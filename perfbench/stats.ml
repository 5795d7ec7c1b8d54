(* Pure helpers of the benchmark: the percentile rule, the fleet
   schedule, and self times over a traced operation's span tree. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let min_tail = 10

(* Nearest rank: the [pct]-th percentile of [n] samples is the sample of
   rank ceil(pct * n / 100) (1-based) in ascending order.  Integer
   arithmetic, so 90% of 100 is rank 90 and never 91. *)
let rank ~n ~pct = max 1 ((pct * n + 99) / 100)

(* A percentile is reported only when at least [min_tail] samples lie
   beyond it; below that a single outlier would be the tail. *)
let percentile ~pct sorted =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let r = rank ~n ~pct in
    if n - r < min_tail then None else Some sorted.(r - 1)

let min_samples ~pct =
  let rec go n = if n - rank ~n ~pct >= min_tail then n else go (n + 1) in
  go 1

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Fleet schedule                                                      *)
(* ------------------------------------------------------------------ *)

type op_class = Warm | Rotate

(* Four warm redeploys, then one rotate+redeploy.  Warm operations are
   80% of every whole cycle, so with rotations slower than redeploys the
   median falls inside the warm class and p90 in the middle of the
   rotate class (ranks 81%-100%), ten points from either boundary. *)
let fleet_cycle = [| Warm; Warm; Warm; Warm; Rotate |]

let fleet_class i = fleet_cycle.(i mod Array.length fleet_cycle)

let class_label = function Warm -> "warm" | Rotate -> "rotate"

(* ------------------------------------------------------------------ *)
(* Span trees                                                          *)
(* ------------------------------------------------------------------ *)

module Span = Eric_telemetry.Span

type node = {
  name : string;
  ancestors : string list;  (** enclosing span names, innermost first *)
  dur_ns : int64;
  self_ns : int64;  (** [dur_ns] minus the time its direct children cover *)
}

let end_ns (e : Span.event) = Int64.add e.Span.start_ns e.Span.dur_ns

(* Rebuild one operation's tree from its completed spans.  Spans record
   their depth; ordering by start (parents first on ties) and keeping the
   last open span per depth recovers every parent.  Fails unless there
   is exactly one root and every child lies inside its parent. *)
let tree (events : Span.event list) =
  let evs =
    List.sort
      (fun (a : Span.event) (b : Span.event) ->
        match compare a.Span.start_ns b.Span.start_ns with
        | 0 -> compare a.Span.depth b.Span.depth
        | c -> c)
      events
  in
  match evs with
  | [] -> Error "no spans"
  | root :: _ when root.Span.depth <> 0 -> Error "first span is not at depth 0"
  | _root :: rest ->
    let n = List.length evs in
    let arr = Array.of_list evs in
    let child_ns = Array.make n 0L in
    let ancestors = Array.make n [] in
    let open_at = Array.make (n + 1) (-1) in
    open_at.(0) <- 0;
    let err = ref None in
    List.iteri
      (fun j (e : Span.event) ->
        let i = j + 1 in
        let d = e.Span.depth in
        if d = 0 then err := Some (Printf.sprintf "second root span %s" e.Span.name)
        else if d > n || open_at.(d - 1) < 0 then
          err := Some (Printf.sprintf "span %s has no parent" e.Span.name)
        else begin
          let p = open_at.(d - 1) in
          let pe = arr.(p) in
          if e.Span.start_ns < pe.Span.start_ns || end_ns e > end_ns pe then
            err :=
              Some (Printf.sprintf "span %s exceeds its parent %s" e.Span.name pe.Span.name);
          ancestors.(i) <- pe.Span.name :: ancestors.(p);
          child_ns.(p) <- Int64.add child_ns.(p) e.Span.dur_ns;
          open_at.(d) <- i;
          (* a new span at depth d closes every deeper one *)
          if d + 1 <= n then open_at.(d + 1) <- -1
        end)
      rest;
    (match !err with
    | Some _ -> ()
    | None ->
      Array.iteri
        (fun i c ->
          if c > arr.(i).Span.dur_ns then
            err := Some (Printf.sprintf "children of %s exceed it" arr.(i).Span.name))
        child_ns);
    (match !err with
    | Some msg -> Error msg
    | None ->
      Ok
        (List.init n (fun i ->
             let e = arr.(i) in
             {
               name = e.Span.name;
               ancestors = ancestors.(i);
               dur_ns = e.Span.dur_ns;
               self_ns = Int64.sub e.Span.dur_ns child_ns.(i);
             })))

(* Self times add up to the root span by construction, so what can go
   wrong is the root itself: it must account for the operation as the
   loop's monotonic clock timed it.  The span clock is the wall clock,
   so the root may read up to 0.1% + 20 us long (slew, rounding); the
   loop's interval also holds the span's own bookkeeping and any GC slice
   that falls just outside it, so the root may read up to 10% + 2 ms
   short. *)
let root_covers ~latency_ns root_ns =
  let lat = Int64.to_float latency_ns and root = Int64.to_float root_ns in
  root -. lat <= (0.001 *. lat) +. 20e3 && lat -. root <= (0.1 *. lat) +. 2e6

let parent n = match n.ancestors with p :: _ -> Some p | [] -> None

(* Time covered by spans named in [names], counting a span only when no
   enclosing span is also in [names], so nested stages are not counted
   twice. *)
let covered ~names nodes =
  List.fold_left
    (fun acc n ->
      if List.mem n.name names && not (List.exists (fun a -> List.mem a names) n.ancestors)
      then Int64.add acc n.dur_ns
      else acc)
    0L nodes
