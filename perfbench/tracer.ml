(* The facade tracer: the per-layer half of the benchmark. [wrap] is a
   facade transformer in the sense of Ace_harness.Driver's [wrap] hook —
   the same shape as Ace_check.Observe.wrap — so the application is
   compiled against the returned module, which timestamps every call that
   can reach the runtime and delegates to the backend untouched. Nothing
   inside lib/ is instrumented; the host clock is read only at facade
   boundaries and at the start and end of each processor's fiber.

   Self time comes from an exclusive wall-clock timeline over those
   boundaries. Simulated processors are fibers that switch only inside
   facade calls, so from a call's exit on processor P to P's next entry
   only P's application code runs: that gap is app time. Every other gap
   (inside a call, or across a fiber switch) is runtime time under the
   facade. The two telescope to the simulation's wall exactly.

   Pure accessors ([me], [nprocs], [rid], [data]) never reach the engine,
   so they are not spans: their cost is app time. *)

module Store = Ace_region.Store

let now () = Int64.to_int (Monotonic_clock.now ())

let kinds =
  [|
    "start_read"; "end_read"; "start_write"; "end_write"; "lock"; "unlock";
    "barrier"; "map"; "unmap"; "alloc"; "work"; "global_id";
    "change_protocol"; "adapt"; "bcast"; "allgather";
  |]

let k_start_read = 0
let k_end_read = 1
let k_start_write = 2
let k_end_write = 3
let k_lock = 4
let k_unlock = 5
let k_barrier = 6
let k_map = 7
let k_unmap = 8
let k_alloc = 9
let k_work = 10
let k_global_id = 11
let k_change_protocol = 12
let k_adapt = 13
let k_bcast = 14
let k_allgather = 15
let n_kinds = Array.length kinds

type backend = Ace | Crl

let backend_ix = function Ace -> 0 | Crl -> 1

(* One simulation's span: its id is shared by the facade-call spans it
   parents. *)
type sim_span = {
  id : int;
  name : string;
  backend : backend;
  start : int;
  stop : int;
}

type t = {
  (* the simulation in progress *)
  mutable last : int; (* timestamp of the latest boundary *)
  mutable last_app : int; (* processor that boundary handed to its app, or -1 *)
  mutable seq : int; (* boundaries seen so far *)
  mutable entry_seq : int array; (* per processor: [seq] at its open call's entry *)
  mutable entry_ts : int array;
  mutable sim : int;
  mutable bi : int; (* backend index of the simulation in progress *)
  mutable sims : sim_span list;
  (* totals, indexed by backend *)
  app_ns : int array;
  rt_ns : int array;
  waited : int array;
  calls : int array array; (* backend -> kind -> calls *)
  (* call spans, 4 ints each: sim id, kind + 256 * proc, start, duration *)
  mutable log : int array;
  mutable n : int;
}

let create () =
  {
    last = 0;
    last_app = -1;
    seq = 0;
    entry_seq = [||];
    entry_ts = [||];
    sim = -1;
    bi = 0;
    sims = [];
    app_ns = [| 0; 0 |];
    rt_ns = [| 0; 0 |];
    waited = [| 0; 0 |];
    calls = Array.init 2 (fun _ -> Array.make n_kinds 0);
    log = Array.make (1 lsl 16) 0;
    n = 0;
  }

let app_s t b = float_of_int t.app_ns.(backend_ix b) *. 1e-9
let runtime_s t b = float_of_int t.rt_ns.(backend_ix b) *. 1e-9
let calls t b k = t.calls.(backend_ix b).(k)
let total_calls t b = Array.fold_left ( + ) 0 t.calls.(backend_ix b)
let waited t b = t.waited.(backend_ix b)
let n_spans t = t.n / 4

(* [start_sim] and [stop_sim] take the caller's timestamps so the
   simulation's wall, as the caller measures it, is exactly app + runtime. *)
let start_sim t ~name ~backend ~nprocs ~ts =
  t.sim <- List.length t.sims;
  t.bi <- backend_ix backend;
  t.sims <- { id = t.sim; name; backend; start = ts; stop = ts } :: t.sims;
  t.last <- ts;
  t.last_app <- -1;
  if Array.length t.entry_seq < nprocs then begin
    t.entry_seq <- Array.make nprocs 0;
    t.entry_ts <- Array.make nprocs 0
  end

let stop_sim t ~ts =
  t.rt_ns.(t.bi) <- t.rt_ns.(t.bi) + (ts - t.last);
  t.last <- ts;
  match t.sims with
  | s :: rest -> t.sims <- { s with stop = ts } :: rest
  | [] -> ()

(* Processor [p] leaves the runtime for its app code (a call returns, or
   its fiber starts). *)
let[@inline] to_app t p ts =
  t.rt_ns.(t.bi) <- t.rt_ns.(t.bi) + (ts - t.last);
  t.last <- ts;
  t.last_app <- p;
  t.seq <- t.seq + 1

(* Processor [p] leaves its app code for the runtime (a call is entered,
   or its fiber ends). *)
let[@inline] to_runtime t p ts =
  let gap = ts - t.last in
  if t.last_app = p then t.app_ns.(t.bi) <- t.app_ns.(t.bi) + gap
  else t.rt_ns.(t.bi) <- t.rt_ns.(t.bi) + gap;
  t.last <- ts;
  t.last_app <- -1;
  t.seq <- t.seq + 1

let fiber_start t p = to_app t p (now ())
let fiber_end t p = to_runtime t p (now ())

let[@inline] enter t p =
  let ts = now () in
  to_runtime t p ts;
  t.entry_seq.(p) <- t.seq;
  t.entry_ts.(p) <- ts

let grow t =
  let bigger = Array.make (2 * Array.length t.log) 0 in
  Array.blit t.log 0 bigger 0 (Array.length t.log);
  t.log <- bigger

let[@inline] leave t p k =
  let ts = now () in
  (* another processor crossed a boundary while this call was open *)
  if t.seq <> t.entry_seq.(p) then t.waited.(t.bi) <- t.waited.(t.bi) + 1;
  to_app t p ts;
  let c = t.calls.(t.bi) in
  c.(k) <- c.(k) + 1;
  if t.n + 4 > Array.length t.log then grow t;
  let i = t.n in
  t.log.(i) <- t.sim;
  t.log.(i + 1) <- k + (256 * p);
  t.log.(i + 2) <- t.entry_ts.(p);
  t.log.(i + 3) <- ts - t.entry_ts.(p);
  t.n <- i + 4

(* Spans as tab-separated lines, one per simulation and one per facade
   call, timestamps in ns from the first simulation's start:
     sim  ID  NAME  BACKEND  START  DURATION
     call SIM KIND  PROC     START  DURATION *)
let write_spans t path =
  let sims = List.rev t.sims in
  let origin = match sims with s :: _ -> s.start | [] -> 0 in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "sim\t%d\t%s\t%s\t%d\t%d\n" s.id s.name
        (match s.backend with Ace -> "ace" | Crl -> "crl")
        (s.start - origin) (s.stop - s.start))
    sims;
  let i = ref 0 in
  while !i < t.n do
    let l = t.log in
    Printf.fprintf oc "call\t%d\t%s\t%d\t%d\t%d\n" l.(!i)
      kinds.(l.(!i + 1) land 255)
      (l.(!i + 1) lsr 8)
      (l.(!i + 2) - origin)
      l.(!i + 3);
    i := !i + 4
  done;
  close_out oc

let wrap (type c) t
    (module D : Ace_region.Dsm_intf.S with type ctx = c and type h = Store.meta)
    : (module Ace_region.Dsm_intf.S with type ctx = c and type h = Store.meta) =
  (module struct
    type ctx = c
    type h = Store.meta

    let me = D.me
    let nprocs = D.nprocs
    let rid = D.rid
    let data = D.data

    let alloc ctx ~space ~len =
      let p = D.me ctx in
      enter t p;
      let h = D.alloc ctx ~space ~len in
      leave t p k_alloc;
      h

    let map ctx r =
      let p = D.me ctx in
      enter t p;
      let h = D.map ctx r in
      leave t p k_map;
      h

    let unmap ctx h =
      let p = D.me ctx in
      enter t p;
      D.unmap ctx h;
      leave t p k_unmap

    let start_read ctx h =
      let p = D.me ctx in
      enter t p;
      D.start_read ctx h;
      leave t p k_start_read

    let end_read ctx h =
      let p = D.me ctx in
      enter t p;
      D.end_read ctx h;
      leave t p k_end_read

    let start_write ctx h =
      let p = D.me ctx in
      enter t p;
      D.start_write ctx h;
      leave t p k_start_write

    let end_write ctx h =
      let p = D.me ctx in
      enter t p;
      D.end_write ctx h;
      leave t p k_end_write

    let lock ctx h =
      let p = D.me ctx in
      enter t p;
      D.lock ctx h;
      leave t p k_lock

    let unlock ctx h =
      let p = D.me ctx in
      enter t p;
      D.unlock ctx h;
      leave t p k_unlock

    let barrier ctx ~space =
      let p = D.me ctx in
      enter t p;
      D.barrier ctx ~space;
      leave t p k_barrier

    let change_protocol ctx ~space name =
      let p = D.me ctx in
      enter t p;
      D.change_protocol ctx ~space name;
      leave t p k_change_protocol

    let adapt ctx ~space =
      let p = D.me ctx in
      enter t p;
      let r = D.adapt ctx ~space in
      leave t p k_adapt;
      r

    let work ctx cycles =
      let p = D.me ctx in
      enter t p;
      D.work ctx cycles;
      leave t p k_work

    let global_id ctx ~space ~owner ~seq =
      let p = D.me ctx in
      enter t p;
      let r = D.global_id ctx ~space ~owner ~seq in
      leave t p k_global_id;
      r

    let bcast ctx ~root f =
      let p = D.me ctx in
      enter t p;
      let r = D.bcast ctx ~root f in
      leave t p k_bcast;
      r

    let allgather ctx a =
      let p = D.me ctx in
      enter t p;
      let r = D.allgather ctx a in
      leave t p k_allgather;
      r
  end)
