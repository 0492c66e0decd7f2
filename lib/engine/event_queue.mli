(** A deterministic priority queue of timestamped thunks.

    Events are ordered by timestamp; ties are broken by a pluggable
    {!policy} (insertion order by default), so a simulation run is
    bit-reproducible per policy. Implemented as a 4-ary heap over runs of
    same-timestamp events: a push at the previous push's timestamp joins
    that push's run in O(1) instead of sifting through the heap. Pops, and
    pushes that join a run, allocate nothing (results land in per-queue
    slots rather than an option). *)

(** How same-timestamp events are ordered. A simulated machine does not
    define an order for simultaneous events, so every policy yields a legal
    execution; the conformance kit ({!Ace_check}) runs one program under
    many policies to check that program results are schedule-independent.

    - [Fifo] (default): insertion order — the historical behaviour,
      bit-identical to builds without policy support.
    - [Random seed]: each event draws a priority from a seeded splitmix64
      stream at push time; deterministic per seed.
    - [Rotate {stride; offset}]: every [stride]-th inserted event (those
      with [seq mod stride = offset]) is delayed behind its tie group — a
      round-robin "delay set" explorer in the CHESS style. *)
type policy =
  | Fifo
  | Random of int
  | Rotate of { stride : int; offset : int }

(** Round-trippable textual form ("fifo", "random:SEED",
    "rotate:STRIDE:OFFSET") — the representation [.repro] files use. *)
val policy_to_string : policy -> string

(** Raises [Invalid_argument] on anything {!policy_to_string} cannot
    produce. *)
val policy_of_string : string -> policy

type t

(** [create ?policy ()] makes an empty queue. Raises [Invalid_argument] on
    a [Rotate] with [stride < 2] or [offset] outside [0..stride-1]. *)
val create : ?policy:policy -> unit -> t

(** The tie-break policy fixed at creation. *)
val policy : t -> policy

(** [push t ~time f] schedules [f] to run at virtual time [time].
    Raises [Invalid_argument] if [time] is negative or not finite. *)
val push : t -> time:float -> (unit -> unit) -> unit

(** {2 Claimed orders}

    [push] is [claim] followed by [push_claimed]. Splitting them lets a
    caller learn, before queueing anything, whether its event would be the
    very next one popped, and then run it in place. *)

(** [claim t] takes the tie-break order the next push would take: it
    consumes one insertion number and, under [Random], one draw of the
    policy's stream, exactly as {!push} does. *)
val claim : t -> int

(** [push_claimed t ~time ~order f] is {!push} with an order obtained from
    {!claim}; each claimed order must be pushed or taken at most once.
    Raises [Invalid_argument] like {!push}. *)
val push_claimed : t -> time:float -> order:int -> (unit -> unit) -> unit

(** [take_if_next t ~time ~order] is true iff an event at [time] with the
    claimed [order] precedes every pending event, i.e. would be popped
    next. In that case the event counts as pushed and popped at once
    ({!latest_time} takes [time] if later); otherwise nothing changes. *)
val take_if_next : t -> time:float -> order:int -> bool

(** {2 Popping} *)

(** [pop_min t] removes the earliest event and stores it in the slots read
    by {!popped_time} and {!popped_thunk}, returning [true]; returns [false]
    (touching nothing) if the queue is empty. Allocation-free. *)
val pop_min : t -> bool

(** Timestamp of the event most recently removed by {!pop_min}.
    Meaningless before the first successful [pop_min]. *)
val popped_time : t -> float

(** Thunk of the event most recently removed by {!pop_min}. *)
val popped_thunk : t -> unit -> unit

(** The latest timestamp ever popped or taken in place (0 at creation). *)
val latest_time : t -> float

(** [drain t] pops and runs every event in order. A running event may push
    further events; draining continues until the queue is empty. The loop
    itself allocates nothing, and on return the queue retains no reference
    into any event's closure graph. *)
val drain : t -> unit

val is_empty : t -> bool

(** Number of pending events. *)
val length : t -> int

(** Timestamp of the earliest pending event. *)
val peek_time : t -> float option
