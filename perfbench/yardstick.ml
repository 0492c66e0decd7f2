(* The host-speed yardstick. The shared host this benchmark runs on
   changes speed by a third or more, for seconds to minutes at a time
   (other tenants' load, the processor's clock), and every host time of a
   run moves with it. The yardstick is a fixed piece of work in the
   benchmark's own code, which no change to the libraries can make faster
   or slower, timed after the cells of every pass. run.py divides each
   pass's host times by the yardstick's median time in that pass, so the
   gated times follow the program's speed rather than the host's.
   README.md, "Host-speed normalisation", gives the measurements behind
   this. *)

(* 256 KB of ints: the kernel stays in the processor's caches, so it
   measures the processor's speed, not memory traffic from the run. *)
let size = 1 lsl 15
let table = Array.make size 0

(* Pseudo-random read-modify-writes over [table]: integer, load and store
   work with no allocation, so the GC never runs inside it and the
   program's heap cannot change its time. About 0.65 ms on the VM the
   bounds were set on. *)
let kernel () =
  let seed = ref 12345 and acc = ref 0 in
  for r = 1 to 6 do
    for i = 0 to size - 1 do
      seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
      let j = !seed land (size - 1) in
      Array.unsafe_set table j (Array.unsafe_get table j + i + r);
      acc := !acc lxor Array.unsafe_get table (j * 7 land (size - 1))
    done
  done;
  !acc

(* A cell evicts [table]; read it back in before timing. *)
let warm () =
  let s = ref 0 in
  for i = 0 to size - 1 do
    s := !s + Array.unsafe_get table i
  done;
  !s

(* One kernel run per [interval_ns] of the pass, taken after its cells: a
   long cell is followed by several runs, up to [max_reps]. *)
let interval_ns = 50_000_000
let max_reps = 20

type t = { mutable last : int; mutable samples : int list; mutable spent : int }

let create () = { last = Tracer.now (); samples = []; spent = 0 }

let take y reps =
  if reps > 0 then begin
    let t0 = Tracer.now () in
    ignore (Sys.opaque_identity (warm ()));
    for _ = 1 to reps do
      let s = Tracer.now () in
      ignore (Sys.opaque_identity (kernel ()));
      y.samples <- (Tracer.now () - s) :: y.samples
    done;
    y.last <- Tracer.now ();
    y.spent <- y.spent + (y.last - t0)
  end

let after_cell y = take y (min max_reps ((Tracer.now () - y.last) / interval_ns))

(* Every pass has at least one run, however short it is. *)
let end_of_pass y = if y.samples = [] then take y 1
