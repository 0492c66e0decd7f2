(* An exact time-batched priority queue on (time, order).

   The simulator pops one event per simulated action, so this is the hottest
   data structure in the tree. Its access pattern is bursty: most pushes land
   on a timestamp that is already queued, and most of those on the previous
   push's timestamp (processors stepping in lockstep, a barrier releasing
   every waiter at once). So events live in per-event slots, chained into
   runs, and a 4-ary min-heap orders only the heads of the runs:

   - A run is a chain of slots at one timestamp, sorted by [order]. A push at
     the previous push's timestamp whose order exceeds that push's is linked
     behind it in O(1); the heap is not touched. Any other push starts a new
     run of one: a heap entry whose head is the event's own slot, with no
     separate batch record behind it.
   - The heap is keyed by (time, order of the run's head). Popping takes the
     root's head; if the run continues, its next slot becomes the head and
     is sifted down (under [Fifo] a run's orders are consecutive, so it stays
     at the root). Merging sorted runs by their heads yields exactly the
     (time, order) total order of a per-event heap, whatever the policy.
   - The heap arrays hold a bare [float array] of times (unboxed, so the
     comparisons that dominate sift cost touch flat memory) and an int array
     of head slots: a sift moves no pointer, so it pays no write barrier.
   - Float scalars sit in an all-float record, which OCaml stores flat:
     writing one never allocates. Popping returns the thunk (or writes it to
     the [popped_thunk] slot), so pops, and pushes that extend a run,
     allocate nothing.

   Ties (same timestamp) are broken by a pluggable policy. The policy's
   per-event priority [key] and the insertion number [seq] are packed into
   one word, [order = key lsl seq_bits lor seq], compared as a single int:
   lexicographic (key, seq) order. Under the default [Fifo] every key is 0,
   so [order] IS [seq] and ordering degenerates to insertion order — the
   historical behaviour, bit-identical to builds without policy support. *)

type policy =
  | Fifo
  | Random of int (* seed *)
  | Rotate of { stride : int; offset : int }

let validate_policy = function
  | Fifo | Random _ -> ()
  | Rotate { stride; offset } ->
      if stride < 2 || offset < 0 || offset >= stride then
        invalid_arg "Event_queue: Rotate needs stride >= 2 and 0 <= offset < stride"

let policy_to_string = function
  | Fifo -> "fifo"
  | Random seed -> Printf.sprintf "random:%d" seed
  | Rotate { stride; offset } -> Printf.sprintf "rotate:%d:%d" stride offset

let policy_of_string s =
  let fail () = invalid_arg ("Event_queue.policy_of_string: " ^ s) in
  match String.split_on_char ':' s with
  | [ "fifo" ] -> Fifo
  | [ "random"; seed ] -> (
      match int_of_string_opt seed with Some n -> Random n | None -> fail ())
  | [ "rotate"; stride; offset ] -> (
      match (int_of_string_opt stride, int_of_string_opt offset) with
      | Some st, Some off when st >= 2 && off >= 0 && off < st ->
          Rotate { stride = st; offset = off }
      | _ -> fail ())
  | _ -> fail ()

(* 40 bits of seq leaves 22 for the key on 63-bit ints. A queue would need
   a trillion pushes to overflow; [claim] checks anyway (one compare). *)
let seq_bits = 40
let max_seq = 1 lsl seq_bits
let max_key = 1 lsl (62 - seq_bits)

type clocks = {
  mutable popped : float; (* time of the last event removed by [pop_min] *)
  mutable latest : float; (* latest time popped or taken in place *)
  mutable last_push : float; (* time of the last push *)
}

type t = {
  (* heap of runs: times.(i) and the head slot heads.(i) of entry i *)
  mutable times : float array;
  mutable heads : int array;
  mutable size : int;
  (* event slots *)
  mutable orders : int array;
  mutable thunks : (unit -> unit) array;
  mutable next : int array; (* next slot of the run, or of the free list; -1 ends *)
  mutable free : int;
  mutable last : int; (* slot of the last push while it is pending, else -1 *)
  mutable count : int;
  mutable next_seq : int;
  mutable popped_thunk : unit -> unit;
  clk : clocks;
  policy : policy;
  rng : Det_rng.t option; (* Some iff policy is Random *)
}

let initial_capacity = 128

(* Chain slots [lo, hi) onto the front of the free list. *)
let free_range t lo hi =
  for s = hi - 1 downto lo do
    t.next.(s) <- t.free;
    t.free <- s
  done

let create ?(policy = Fifo) () =
  validate_policy policy;
  let t =
    {
      times = Array.make initial_capacity 0.;
      heads = Array.make initial_capacity 0;
      size = 0;
      orders = Array.make initial_capacity 0;
      thunks = Array.make initial_capacity ignore;
      next = Array.make initial_capacity (-1);
      free = -1;
      last = -1;
      count = 0;
      next_seq = 0;
      popped_thunk = ignore;
      clk = { popped = 0.; latest = 0.; last_push = 0. };
      policy;
      rng = (match policy with Random seed -> Some (Det_rng.create seed) | _ -> None);
    }
  in
  free_range t 0 initial_capacity;
  t

let policy t = t.policy

(* The policy's priority for the event about to get [seq]. Keys only matter
   relative to other same-timestamp events; [Rotate] delays every
   [stride]-th insertion (round-robin by [offset]) behind its tie group,
   [Random] draws a fresh priority per event from the seeded stream (push
   order is itself deterministic, so the whole run is deterministic per
   seed). *)
let next_key t seq =
  match t.policy with
  | Fifo -> 0
  | Random _ -> Det_rng.int (Option.get t.rng) max_key
  | Rotate { stride; offset } -> if seq mod stride = offset then 1 else 0

let claim t =
  let seq = t.next_seq in
  if seq >= max_seq then invalid_arg "Event_queue.push: seq overflow";
  t.next_seq <- seq + 1;
  (next_key t seq lsl seq_bits) lor seq

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_slots t =
  let n = Array.length t.thunks in
  t.orders <- extend t.orders (2 * n) 0;
  t.thunks <- extend t.thunks (2 * n) ignore;
  t.next <- extend t.next (2 * n) (-1);
  free_range t n (2 * n)

let grow_heap t =
  let n = Array.length t.times in
  t.times <- extend t.times (2 * n) 0.;
  t.heads <- extend t.heads (2 * n) 0

(* Move the entry at [i] up to its place, walking a hole: entries move at
   most once and the new one is written exactly once.

   Both sifts run once per new run or popped event — the simulator's
   innermost loop — so they take no float argument (that would box it),
   bind the arrays to locals and use unchecked accesses: every index is the
   hole, a parent (i-1)/4 < i, or a child index already compared against
   [size]; every slot is a live head. Ties on time compare the heads'
   orders, one indirection the common untied comparison never pays. *)
let sift_up t i =
  let times = t.times and heads = t.heads and orders = t.orders in
  let time = Array.unsafe_get times i and h = Array.unsafe_get heads i in
  let order = Array.unsafe_get orders h in
  let i = ref i in
  let placed = ref false in
  while (not !placed) && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get times parent in
    let ph = Array.unsafe_get heads parent in
    if pt < time || (pt = time && Array.unsafe_get orders ph < order) then
      placed := true
    else begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set heads !i ph;
      i := parent
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set heads !i h

(* Walk the root entry down, pulling the least of up to four children up
   each level, until it fits. *)
let sift_down t =
  let times = t.times and heads = t.heads and orders = t.orders in
  let size = t.size in
  let time = Array.unsafe_get times 0 and h = Array.unsafe_get heads 0 in
  let order = Array.unsafe_get orders h in
  let i = ref 0 in
  let placed = ref false in
  while not !placed do
    let base = (!i lsl 2) + 1 in
    if base >= size then placed := true
    else begin
      let best = ref base in
      let bt = ref (Array.unsafe_get times base) in
      let last = if base + 3 < size then base + 3 else size - 1 in
      for c = base + 1 to last do
        let ct = Array.unsafe_get times c in
        if
          ct < !bt
          || ct = !bt
             && Array.unsafe_get orders (Array.unsafe_get heads c)
                < Array.unsafe_get orders (Array.unsafe_get heads !best)
        then begin
          best := c;
          bt := ct
        end
      done;
      let bh = Array.unsafe_get heads !best in
      if !bt < time || (!bt = time && Array.unsafe_get orders bh < order) then begin
        Array.unsafe_set times !i !bt;
        Array.unsafe_set heads !i bh;
        i := !best
      end
      else placed := true
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set heads !i h

let check_time time =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.push: bad time"

let insert t ~time ~order thunk =
  if t.free < 0 then grow_slots t;
  let s = t.free in
  let next = t.next in
  t.free <- Array.unsafe_get next s;
  Array.unsafe_set next s (-1);
  Array.unsafe_set t.orders s order;
  Array.unsafe_set t.thunks s thunk;
  t.count <- t.count + 1;
  let last = t.last in
  t.last <- s;
  if last >= 0 && time = t.clk.last_push && order > Array.unsafe_get t.orders last
  then Array.unsafe_set next last s
  else begin
    t.clk.last_push <- time;
    if t.size = Array.length t.times then grow_heap t;
    let i = t.size in
    t.size <- i + 1;
    Array.unsafe_set t.times i time;
    Array.unsafe_set t.heads i s;
    sift_up t i
  end

let push t ~time thunk =
  check_time time;
  insert t ~time ~order:(claim t) thunk

let push_claimed t ~time ~order thunk =
  check_time time;
  insert t ~time ~order thunk

let take_if_next t ~time ~order =
  let first =
    t.size = 0
    ||
    let rt = Array.unsafe_get t.times 0 in
    time < rt
    || (time = rt && order < Array.unsafe_get t.orders (Array.unsafe_get t.heads 0))
  in
  if first && time > t.clk.latest then t.clk.latest <- time;
  first

(* Remove the least event (the queue is non-empty) and return its thunk. *)
let take t =
  let h = Array.unsafe_get t.heads 0 in
  let time = Array.unsafe_get t.times 0 in
  t.clk.popped <- time;
  if time > t.clk.latest then t.clk.latest <- time;
  let thunk = Array.unsafe_get t.thunks h in
  Array.unsafe_set t.thunks h ignore;
  let nx = Array.unsafe_get t.next h in
  Array.unsafe_set t.next h t.free;
  t.free <- h;
  t.count <- t.count - 1;
  if h = t.last then t.last <- -1;
  if nx >= 0 then begin
    Array.unsafe_set t.heads 0 nx;
    sift_down t
  end
  else begin
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      Array.unsafe_set t.times 0 (Array.unsafe_get t.times n);
      Array.unsafe_set t.heads 0 (Array.unsafe_get t.heads n);
      sift_down t
    end
  end;
  thunk

let pop_min t =
  t.size > 0
  && begin
       t.popped_thunk <- take t;
       true
     end

let popped_time t = t.clk.popped
let popped_thunk t = t.popped_thunk
let latest_time t = t.clk.latest

let drain t =
  while t.size > 0 do
    (take t) ()
  done;
  (* Drop any closure a [pop_min] left behind: it would keep one arbitrary
     run's whole closure graph (captured regions, handlers, continuations)
     live for as long as the queue object is — across every later grid cell
     that reuses the machine. *)
  t.popped_thunk <- ignore

let is_empty t = t.size = 0
let length t = t.count
let peek_time t = if t.size = 0 then None else Some t.times.(0)
