(* Probe loops: one layer's unit operation repeated through that layer's
   public functions, timed from outside. Each probe reports host ns per
   operation, the median of [reps] timed repetitions. *)

module Machine = Ace_engine.Machine
module Event_queue = Ace_engine.Event_queue
module Am = Ace_net.Am
module Reliable = Ace_net.Reliable
module Cm = Ace_net.Cost_model
module Runtime = Ace_runtime.Runtime
module Ops = Ace_runtime.Ops

let reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ns per operation of [f], which performs [n] operations per call. *)
let per_op ~n f =
  median
    (List.init reps (fun _ ->
         let t0 = Tracer.now () in
         f ();
         float (Tracer.now () - t0) /. float n))

(* Machine.advance: the effect round trip a processor pays per charge. *)
let advance_ns ~n =
  per_op ~n (fun () ->
      let m = Machine.create ~nprocs:1 () in
      Machine.run m (fun p ->
          for _ = 1 to n do
            Machine.advance p 1.
          done))

(* Event_queue push + pop_min at a steady depth of [depth] events, with
   timestamps spread over the queue so both sifts do work. *)
let queue_ns ~n ~depth =
  let f () = () in
  per_op ~n (fun () ->
      let q = Event_queue.create () in
      for i = 1 to depth do
        Event_queue.push q ~time:(float i) f
      done;
      for i = 1 to n do
        ignore (Event_queue.pop_min q);
        Event_queue.push q
          ~time:(Event_queue.popped_time q +. float (1 + (i * 7919 mod depth)))
          f
      done)

(* Machine.Barrier.wait, per arrival, with [nprocs] processors. *)
let barrier_ns ~rounds ~nprocs =
  per_op ~n:(rounds * nprocs) (fun () ->
      let m = Machine.create ~nprocs () in
      let b = Machine.Barrier.create m ~cost:(fun _ -> 0.) in
      Machine.run m (fun p ->
          for _ = 1 to rounds do
            Machine.Barrier.wait b p
          done))

(* A chain of [n] messages bounced between two nodes from the delivery
   handlers: one send, one queued event and one delivery per message.
   Returns ns per message and the last run's machine counters. *)
let bounce ~n send =
  let stats = ref (Ace_engine.Stats.create ()) in
  let ns =
    per_op ~n (fun () ->
        let m = Machine.create ~nprocs:2 () in
        let send = send m in
        let rec hop left ~src ~time =
          if left > 0 then
            send ~now:time ~src ~dst:(1 - src) (fun ~time ->
                hop (left - 1) ~src:(1 - src) ~time)
        in
        Machine.run m (fun p -> if p.Machine.id = 0 then hop n ~src:0 ~time:0.);
        stats := Machine.stats m)
  in
  (ns, !stats)

let am_send_ns ~n =
  fst
    (bounce ~n (fun m ->
         let am = Am.create m Cm.cm5_ace in
         fun ~now ~src ~dst h -> Am.send am ~now ~src ~dst ~bytes:8 h))

(* Through the reliable transport, on a lossless network or under the
   fault model [faults]. *)
let reliable_send ~n ?faults () =
  bounce ~n (fun m ->
      let am = Am.create m Cm.cm5_ace in
      Option.iter (fun spec -> Am.set_faults am (Some (Ace_net.Faults.make spec))) faults;
      let net = Reliable.create am in
      fun ~now ~src ~dst h -> Reliable.send net ~now ~src ~dst ~bytes:8 h)

(* An Ace runtime with one space per listed protocol, running [body] on
   node 0 of a two-node machine. *)
let on_ace protocols body =
  let rt = Runtime.create ~nprocs:2 () in
  Ace_protocols.Proto_lib.register_all rt;
  Ace_combinator.Library.register_all rt;
  List.iter (fun p -> ignore (Runtime.new_space rt p)) protocols;
  Runtime.run rt body

(* A local access section (start + end) on a region homed at the caller,
   under [protocol]: protocol dispatch plus the hit path of Blocks. *)
let section_ns ~n ~protocol ~write =
  per_op ~n (fun () ->
      on_ace [ protocol ] (fun ctx ->
          if Ops.me ctx = 0 then begin
            let h = Ops.alloc ctx ~space:0 ~len:1 in
            for _ = 1 to n do
              if write then begin
                Ops.start_write ctx h;
                Ops.end_write ctx h
              end
              else begin
                Ops.start_read ctx h;
                Ops.end_read ctx h
              end
            done
          end))

(* Two nodes take turns writing one SC region, a barrier per turn, so each
   write misses and migrates the region; the same loop without the writes
   is subtracted. *)
let miss_ns ~n =
  let loop ~write =
    per_op ~n (fun () ->
        on_ace [ "SC" ] (fun ctx ->
            let me = Ops.me ctx in
            let mine =
              if me = 0 then [| Ops.rid (Ops.alloc ctx ~space:0 ~len:1) |]
              else [||]
            in
            let rid = (Ops.bcast ctx ~root:0 (fun () -> mine)).(0) in
            let h = Ops.map ctx rid in
            Ops.barrier ctx ~space:0;
            for k = 1 to n do
              if write && k land 1 = me then begin
                Ops.start_write ctx h;
                (Ops.data ctx h).(0) <- float k;
                Ops.end_write ctx h
              end;
              Ops.barrier ctx ~space:0
            done))
  in
  let base = loop ~write:false in
  loop ~write:true -. base

(* The set-up of one Runner.check_prog simulation, built as
   Runner.run_cell_full and check_prog build it: runtime under a non-FIFO
   schedule, both protocol libraries, one space and the coherence oracle.
   check_prog builds its simulations inside one call, out of a timer's
   reach, so on fuzz-check this set-up is counted in the round's run
   time, not in setup_s; the probe gives its cost per simulation. *)
let check_setup_ns ~n ~nprocs =
  per_op ~n (fun () ->
      for _ = 1 to n do
        let rt =
          Runtime.create ~policy:(Ace_check.Schedule.of_index 1) ~nprocs ()
        in
        Ace_protocols.Proto_lib.register_all rt;
        Ace_combinator.Library.register_all rt;
        ignore (Runtime.new_space rt "SC");
        ignore (Ace_check.Oracle.create ~nprocs ())
      done)

(* All probes; [depth] is the workload's machine size, [faults] the
   lossy network of the retransmit probe. *)
let run ~depth ~scale ~faults =
  let n k = max 1 (k / scale) in
  let lossy_ns, lossy = reliable_send ~n:(n 100_000) ~faults () in
  [
    ("engine.advance_ns", advance_ns ~n:(n 200_000));
    ("engine.queue_ns", queue_ns ~n:(n 400_000) ~depth);
    ("engine.barrier_ns", barrier_ns ~rounds:(n (200_000 / depth)) ~nprocs:depth);
    ("net.send_ns", am_send_ns ~n:(n 100_000));
    ("net.reliable_send_ns", fst (reliable_send ~n:(n 100_000) ()));
    ("net.lossy_send_ns", lossy_ns);
    ( "net.lossy_retransmit_frac",
      Ace_engine.Stats.get lossy "net.retransmits" /. float (n 100_000) );
    ("region.section_ns", section_ns ~n:(n 50_000) ~protocol:"SC" ~write:false);
    ("ace.dispatch_ns.SC", section_ns ~n:(n 50_000) ~protocol:"SC" ~write:true);
    ("ace.dispatch_ns.DSL_SC", section_ns ~n:(n 50_000) ~protocol:"DSL_SC" ~write:true);
    ("region.miss_ns", miss_ns ~n:(n 10_000));
    ("check.sim_setup_ns", check_setup_ns ~n:(n 1_000) ~nprocs:4);
  ]
