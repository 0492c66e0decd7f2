(* Unit and property tests for the discrete-event engine. *)

module Eq = Ace_engine.Event_queue
module Ivar = Ace_engine.Ivar
module Machine = Ace_engine.Machine
module Rng = Ace_engine.Det_rng
module Stats = Ace_engine.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- event queue ---- *)

let eq_ordering () =
  let q = Eq.create () in
  let out = ref [] in
  let push t v = Eq.push q ~time:t (fun () -> out := v :: !out) in
  push 3. "c";
  push 1. "a";
  push 2. "b";
  Eq.drain q;
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ]
    (List.rev !out)

let eq_tie_break () =
  let q = Eq.create () in
  let out = ref [] in
  for i = 0 to 9 do
    Eq.push q ~time:5. (fun () -> out := i :: !out)
  done;
  while Eq.pop_min q do
    Eq.popped_thunk q ()
  done;
  Alcotest.(check (list int)) "insertion order on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let eq_drain_allows_reentrant_push () =
  (* thunks push new events while draining, as simulation fibers do *)
  let q = Eq.create () in
  let out = ref [] in
  let rec step n t =
    out := (t, n) :: !out;
    if n < 5 then Eq.push q ~time:(t +. 2.) (fun () -> step (n + 1) (t +. 2.))
  in
  Eq.push q ~time:1. (fun () -> step 0 1.);
  Eq.push q ~time:4. (fun () -> out := (4., 100) :: !out);
  Eq.drain q;
  Alcotest.(check (list (pair (float 0.) int)))
    "interleaved by time"
    [ (1., 0); (3., 1); (4., 100); (5., 2); (7., 3); (9., 4); (11., 5) ]
    (List.rev !out);
  Alcotest.(check bool) "empty after drain" true (Eq.is_empty q)

let eq_rejects_bad_time () =
  Alcotest.check_raises "negative time" (Invalid_argument "Event_queue.push: bad time")
    (fun () -> Eq.push (Eq.create ()) ~time:(-1.) ignore);
  Alcotest.check_raises "nan time" (Invalid_argument "Event_queue.push: bad time")
    (fun () -> Eq.push (Eq.create ()) ~time:Float.nan ignore)

let eq_length_and_peek () =
  let q = Eq.create () in
  check "empty" true (Eq.is_empty q);
  Eq.push q ~time:7. ignore;
  Eq.push q ~time:3. ignore;
  check_int "length" 2 (Eq.length q);
  check "peek" true (Eq.peek_time q = Some 3.)

let eq_heap_property =
  QCheck.Test.make ~name:"event queue pops in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Eq.create () in
      List.iter (fun t -> Eq.push q ~time:(abs_float t) ignore) times;
      let rec drain last =
        if not (Eq.pop_min q) then true
        else
          let t = Eq.popped_time q in
          t >= last && drain t
      in
      drain neg_infinity)

(* Pops and pushes that join a run are allocation-free: 100k of each,
   interleaved and then drained, move [Gc.minor_words] by nothing. The time
   is a constant, so the call itself boxes nothing either. *)
let eq_pop_and_append_allocate_nothing () =
  let q = Eq.create () in
  let f () = () in
  let time = 5. in
  let n = 100_000 in
  let round () =
    Eq.push q ~time f;
    for _ = 1 to n do
      Eq.push q ~time f;
      ignore (Eq.pop_min q)
    done;
    for _ = 1 to n do
      Eq.push q ~time f
    done;
    while Eq.pop_min q do
      ()
    done;
    for _ = 1 to n do
      Eq.push q ~time f
    done;
    Eq.drain q
  in
  round () (* grow the slots once *);
  let before = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words" 0. words

(* Random interleavings of pushes, same-timestamp bursts, pops, claimed
   orders (taken in place when next, pushed otherwise) and events whose
   thunk re-enters the queue at its own popped time, under every policy.
   Keys depend only on push order, so pushing the same timestamps into a
   fresh queue and draining it gives the total order (the oracle, itself
   cross-checked against (time, key, push index) for Fifo and Rotate):
   every pop and every in-place take must be the least pending event under
   it, and a claim must be refused whenever a pending event precedes it.
   Times come from a tiny grid so ties are common. *)
type eq_op = Push of int | Burst of int | Pop | Claim of int | Reenter of int

let eq_op_to_string = function
  | Push t -> Printf.sprintf "push %d" t
  | Burst t -> Printf.sprintf "burst %d" t
  | Pop -> "pop"
  | Claim t -> Printf.sprintf "claim %d" t
  | Reenter t -> Printf.sprintf "reenter %d" t

let eq_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun t -> Push t) (int_bound 7));
        (1, map (fun t -> Burst t) (int_bound 7));
        (4, return Pop);
        (2, map (fun t -> Claim t) (int_bound 7));
        (1, map (fun t -> Reenter t) (int_bound 7));
      ]
  in
  let policy =
    oneof
      [
        return Eq.Fifo;
        map (fun s -> Eq.Random s) small_nat;
        int_range 2 5 >>= fun stride ->
        map (fun offset -> Eq.Rotate { stride; offset }) (int_bound (stride - 1));
      ]
  in
  QCheck.make
    ~print:(fun (pol, ops) ->
      Eq.policy_to_string pol ^ ": "
      ^ String.concat "; " (List.map eq_op_to_string ops))
    (pair policy (list_size (int_bound 300) op))

let eq_model_property =
  QCheck.Test.make ~name:"interleaved push/pop matches sorted-list model"
    ~count:500 eq_case
    (fun (policy, ops) ->
      let q = Eq.create ~policy () in
      let times = Hashtbl.create 64 (* push index -> time *) in
      let n = ref 0 in
      let pending = ref [] in
      (* (i, others, first): event i precedes every event in [others] iff
         [first] *)
      let claims = ref [] in
      let ran = ref (-1) in
      let ok = ref true in
      let fresh tm =
        let i = !n in
        incr n;
        Hashtbl.replace times i tm;
        i
      in
      let rec push tm ~reenter =
        let i = fresh tm in
        pending := i :: !pending;
        Eq.push q ~time:(float_of_int tm) (fun () -> run i ~reenter)
      and run i ~reenter =
        if not (List.mem i !pending) then ok := false;
        pending := List.filter (( <> ) i) !pending;
        claims := (i, !pending, true) :: !claims;
        ran := i;
        if reenter then push (Hashtbl.find times i) ~reenter:false
      in
      List.iter
        (function
          | Push t -> push t ~reenter:false
          | Reenter t -> push t ~reenter:true
          | Burst t ->
              for _ = 1 to 4 do
                push t ~reenter:false
              done
          | Pop ->
              if Eq.pop_min q then begin
                Eq.popped_thunk q ();
                if Eq.popped_time q <> float_of_int (Hashtbl.find times !ran)
                then ok := false
              end
              else if !pending <> [] then ok := false
          | Claim t ->
              let order = Eq.claim q in
              let i = fresh t in
              let time = float_of_int t in
              let first = Eq.take_if_next q ~time ~order in
              claims := (i, !pending, first) :: !claims;
              if not first then begin
                pending := i :: !pending;
                Eq.push_claimed q ~time ~order (fun () -> run i ~reenter:false)
              end)
        ops;
      Eq.drain q;
      if !pending <> [] || not (Eq.is_empty q) || Eq.length q <> 0 then
        ok := false;
      (* the oracle *)
      let o = Eq.create ~policy () in
      let order = ref [] in
      for i = 0 to !n - 1 do
        Eq.push o ~time:(float_of_int (Hashtbl.find times i)) (fun () ->
            order := i :: !order)
      done;
      Eq.drain o;
      let order = List.rev !order in
      let key i =
        match policy with
        | Eq.Fifo | Eq.Random _ -> 0
        | Eq.Rotate { stride; offset } -> if i mod stride = offset then 1 else 0
      in
      let by_key =
        List.sort compare
          (List.init !n (fun i -> (Hashtbl.find times i, key i, i)))
      in
      (match policy with
      | Eq.Random _ ->
          if List.sort compare order <> List.init !n Fun.id then ok := false
      | Eq.Fifo | Eq.Rotate _ ->
          if order <> List.map (fun (_, _, i) -> i) by_key then ok := false);
      let rank = Array.make !n 0 in
      List.iteri (fun r i -> rank.(i) <- r) order;
      List.iter
        (fun (i, others, first) ->
          if List.for_all (fun j -> rank.(i) < rank.(j)) others <> first then
            ok := false)
        !claims;
      !ok)

(* ---- ivar ---- *)

let ivar_basics () =
  let iv = Ivar.create () in
  check "not filled" false (Ivar.is_filled iv);
  let got = ref None in
  Ivar.on_fill iv (fun ~time v -> got := Some (time, v));
  Ivar.fill iv ~time:4. 42;
  check "waiter ran" true (!got = Some (4., 42));
  check "peek" true (Ivar.peek iv = Some (4., 42));
  (* late waiter runs immediately *)
  let late = ref false in
  Ivar.on_fill iv (fun ~time:_ _ -> late := true);
  check "late waiter" true !late

let ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv ~time:0. ();
  Alcotest.check_raises "double fill" (Failure "Ivar.fill: already filled")
    (fun () -> Ivar.fill iv ~time:1. ())

let ivar_waiter_order () =
  let iv = Ivar.create () in
  let out = ref [] in
  for i = 0 to 4 do
    Ivar.on_fill iv (fun ~time:_ () -> out := i :: !out)
  done;
  Ivar.fill iv ~time:0. ();
  Alcotest.(check (list int)) "registration order" [ 0; 1; 2; 3; 4 ]
    (List.rev !out)

(* ---- deterministic rng ---- *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let v = Rng.float r in
      v >= 0. && v < 1.)

let rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* ---- machine ---- *)

let machine_advance_and_time () =
  let m = Machine.create ~nprocs:2 () in
  let seen = ref [] in
  Machine.run m (fun p ->
      Machine.advance p (float_of_int ((10 * p.Machine.id) + 10));
      seen := Machine.time m :: !seen);
  check "time is max clock" true (Machine.time m = 20.);
  check "time mid-run is the latest event" true (!seen = [ 20.; 10. ]);
  (* a lone fiber's advances run in place: they still count as events *)
  let m = Machine.create ~nprocs:1 () in
  Machine.run m (fun p ->
      Machine.advance p 7.;
      seen := [ Machine.time m ]);
  check "time mid-run after an in-place advance" true (!seen = [ 7. ])

let machine_barrier_sync () =
  let m = Machine.create ~nprocs:4 () in
  let b = Machine.Barrier.create m ~cost:(fun _ -> 5.) in
  let release_times = ref [] in
  Machine.run m (fun p ->
      Machine.advance p (float_of_int (p.Machine.id * 100));
      Machine.Barrier.wait b p;
      release_times := p.Machine.clock :: !release_times);
  (* everyone released at max arrival (300) + cost (5) *)
  check "all equal" true (List.for_all (fun t -> t = 305.) !release_times)

let machine_barrier_reusable () =
  let m = Machine.create ~nprocs:3 () in
  let b = Machine.Barrier.create m ~cost:(fun _ -> 1.) in
  let count = ref 0 in
  Machine.run m (fun p ->
      for _ = 1 to 5 do
        Machine.Barrier.wait b p;
        incr count
      done);
  check_int "all generations" 15 !count

let machine_await_fill_ordering () =
  let m = Machine.create ~nprocs:2 () in
  let iv = Ivar.create () in
  let observed = ref 0. in
  Machine.run m (fun p ->
      if p.Machine.id = 0 then begin
        Machine.advance p 50.;
        Ivar.fill iv ~time:p.Machine.clock 99
      end
      else begin
        let v = Machine.await p iv in
        observed := p.Machine.clock;
        assert (v = 99)
      end);
  check "waiter resumed at fill time" true (!observed = 50.)

let machine_deadlock_detected () =
  let m = Machine.create ~nprocs:1 () in
  let iv : unit Ivar.t = Ivar.create () in
  let raised = ref false in
  (try Machine.run m (fun p -> Machine.await p iv)
   with Failure _ -> raised := true);
  check "deadlock reported" true !raised

let machine_deterministic () =
  let run () =
    let m = Machine.create ~nprocs:8 () in
    let b = Machine.Barrier.create m ~cost:(fun _ -> 3.) in
    let trace = Buffer.create 64 in
    Machine.run m (fun p ->
        let rng = Rng.create p.Machine.id in
        for _ = 1 to 20 do
          Machine.advance p (float_of_int (Rng.int rng 50));
          Machine.Barrier.wait b p;
          if p.Machine.id = 0 then
            Buffer.add_string trace (Printf.sprintf "%.0f;" p.Machine.clock)
        done);
    Buffer.contents trace
  in
  Alcotest.(check string) "bit-identical runs" (run ()) (run ())

let machine_rejects_negative_advance () =
  let m = Machine.create ~nprocs:1 () in
  let raised = ref false in
  (try Machine.run m (fun p -> Machine.advance p (-1.))
   with Invalid_argument _ -> raised := true);
  check "negative advance rejected" true !raised

(* Fiber operations called anywhere but the processor's own running fiber
   are refused by name, whether or not an event is queued ahead (with none,
   an in-place advance would otherwise move the clock silently). *)
let machine_misplaced_fiber_ops () =
  let refused what run =
    match run () with
    | () -> Alcotest.failf "%s: no error" what
    | exception Invalid_argument msg ->
        check (what ^ ": names P0") true (Str_find.find msg "P0" >= 0);
        check (what ^ ": says why") true (Str_find.find msg "fiber" >= 0)
  in
  let from_event ~ahead op () =
    let m = Machine.create ~nprocs:1 () in
    Machine.run m (fun p ->
        Machine.schedule m ~time:5. (fun () -> op p);
        if ahead then Machine.advance p 10.)
  in
  let iv = Ivar.create () in
  Ivar.fill iv ~time:0. ();
  List.iter
    (fun (name, op) ->
      refused (name ^ " with an event queued ahead") (from_event ~ahead:true op);
      refused (name ^ " with an empty queue") (from_event ~ahead:false op))
    [
      ("advance", fun p -> Machine.advance p 1.);
      ("await", fun p -> Machine.await p iv);
    ];
  refused "advance from another processor's fiber" (fun () ->
      let m = Machine.create ~nprocs:2 () in
      let p0 = ref None in
      Machine.run m (fun p ->
          if p.Machine.id = 0 then begin
            p0 := Some p;
            Machine.advance p 10.
          end
          else Machine.advance (Option.get !p0) 1.))

(* Same-timestamp and barrier-release ordering, pinned as global event
   logs (proc, tag, time) on 4-processor machines. Each fixture opens with
   a barrier so the interesting events start from one release. *)
let run_logged make =
  let m = Machine.create ~nprocs:4 () in
  let log = ref [] in
  let program = make m in
  Machine.run m (fun p -> program (fun i tag t -> log := (i, tag, t) :: !log) p);
  List.rev !log

let check_log = Alcotest.(check (list (triple int int (float 0.))))

(* Every processor schedules an event on every other processor at one
   absolute timestamp: FIFO runs them in the schedulers' push order. *)
let machine_same_time_schedule_order () =
  let got =
    run_logged (fun m ->
        let b = Machine.Barrier.create m ~cost:(fun _ -> 4.) in
        fun log p ->
          let me = p.Machine.id in
          Machine.advance p (float_of_int me);
          Machine.Barrier.wait b p;
          Machine.advance p (float_of_int (3 * me));
          for dst = 0 to 3 do
            if dst <> me then
              Machine.schedule m ~time:100. (fun () -> log dst me 100.)
          done;
          Machine.advance p 50.;
          log me (-1) p.Machine.clock)
  in
  check_log "push order at t=100"
    [
      (0, -1, 57.); (1, -1, 60.); (2, -1, 63.); (3, -1, 66.);
      (1, 0, 100.); (2, 0, 100.); (3, 0, 100.);
      (0, 1, 100.); (2, 1, 100.); (3, 1, 100.);
      (0, 2, 100.); (1, 2, 100.); (3, 2, 100.);
      (0, 3, 100.); (1, 3, 100.); (2, 3, 100.);
    ]
    got

(* Barrier rounds with rotating arrival order: the last arriver continues
   inside the releasing event, then the waiters resume in arrival order. *)
let machine_barrier_last_arriver () =
  let got =
    run_logged (fun m ->
        let b = Machine.Barrier.create m ~cost:(fun n -> float_of_int (2 * n)) in
        fun log p ->
          let me = p.Machine.id in
          for round = 0 to 4 do
            Machine.advance p (float_of_int ((me + round) * 7 mod 13));
            Machine.Barrier.wait b p;
            log me round p.Machine.clock
          done)
  in
  check_log "release order per round"
    [
      (3, 0, 16.); (0, 0, 16.); (2, 0, 16.); (1, 0, 16.);
      (2, 1, 32.); (1, 1, 32.); (3, 1, 32.); (0, 1, 32.);
      (3, 2, 49.); (0, 2, 49.); (2, 2, 49.); (1, 2, 49.);
      (2, 3, 66.); (1, 3, 66.); (3, 3, 66.); (0, 3, 66.);
      (3, 4, 84.); (0, 4, 84.); (2, 4, 84.); (1, 4, 84.);
    ]
    got

(* After each release every processor schedules onto processor 0 at one
   timestamp: the last arriver's push comes first, then the woken
   processors' pushes in arrival order. *)
let machine_post_barrier_contention () =
  let got =
    run_logged (fun m ->
        let b = Machine.Barrier.create m ~cost:(fun _ -> 4.) in
        fun log p ->
          let me = p.Machine.id in
          for round = 1 to 3 do
            Machine.advance p (float_of_int (7 * (me + round) mod 13));
            Machine.Barrier.wait b p;
            let t = 200. *. float_of_int round in
            Machine.schedule m ~time:t (fun () -> log 0 me t)
          done;
          log me (-1) p.Machine.clock)
  in
  check_log "service order at proc 0"
    [
      (2, -1, 38.); (1, -1, 38.); (3, -1, 38.); (0, -1, 38.);
      (0, 2, 200.); (0, 1, 200.); (0, 3, 200.); (0, 0, 200.);
      (0, 3, 400.); (0, 0, 400.); (0, 2, 400.); (0, 1, 400.);
      (0, 2, 600.); (0, 1, 600.); (0, 3, 600.); (0, 0, 600.);
    ]
    got

(* ---- stats ---- *)

let stats_counters () =
  let s = Stats.create () in
  Stats.incr s "x";
  Stats.add s "x" 2.5;
  Stats.incr s "y";
  check "x" true (Stats.get s "x" = 3.5);
  check "missing is zero" true (Stats.get s "z" = 0.);
  check_int "listing" 2 (List.length (Stats.to_list s))

let () =
  Alcotest.run "engine"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick eq_ordering;
          Alcotest.test_case "tie break" `Quick eq_tie_break;
          Alcotest.test_case "reentrant drain" `Quick eq_drain_allows_reentrant_push;
          Alcotest.test_case "bad time" `Quick eq_rejects_bad_time;
          Alcotest.test_case "length/peek" `Quick eq_length_and_peek;
          QCheck_alcotest.to_alcotest eq_heap_property;
          QCheck_alcotest.to_alcotest eq_model_property;
          Alcotest.test_case "pop and append allocate nothing" `Quick
            eq_pop_and_append_allocate_nothing;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basics" `Quick ivar_basics;
          Alcotest.test_case "double fill" `Quick ivar_double_fill;
          Alcotest.test_case "waiter order" `Quick ivar_waiter_order;
        ] );
      ( "det_rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          QCheck_alcotest.to_alcotest rng_bounds;
          QCheck_alcotest.to_alcotest rng_float_range;
          QCheck_alcotest.to_alcotest rng_shuffle_permutation;
        ] );
      ( "machine",
        [
          Alcotest.test_case "advance/time" `Quick machine_advance_and_time;
          Alcotest.test_case "barrier sync" `Quick machine_barrier_sync;
          Alcotest.test_case "barrier reuse" `Quick machine_barrier_reusable;
          Alcotest.test_case "await ordering" `Quick machine_await_fill_ordering;
          Alcotest.test_case "deadlock" `Quick machine_deadlock_detected;
          Alcotest.test_case "deterministic" `Quick machine_deterministic;
          Alcotest.test_case "negative advance" `Quick
            machine_rejects_negative_advance;
          Alcotest.test_case "misplaced advance/await" `Quick
            machine_misplaced_fiber_ops;
          Alcotest.test_case "same-timestamp schedule order" `Quick
            machine_same_time_schedule_order;
          Alcotest.test_case "barrier last-arriver rotation" `Quick
            machine_barrier_last_arriver;
          Alcotest.test_case "post-barrier same-time contention" `Quick
            machine_post_barrier_contention;
        ] );
      ("stats", [ Alcotest.test_case "counters" `Quick stats_counters ]);
    ]
