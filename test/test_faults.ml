(* Tests for the fault-injection layer, the reliable transport, and the
   simulator bugfixes that rode along with them (deadlock report,
   new_space validation, event-queue closure retention). *)

module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Stats = Ace_engine.Stats
module Event_queue = Ace_engine.Event_queue
module Cost_model = Ace_net.Cost_model
module Am = Ace_net.Am
module Faults = Ace_net.Faults
module Reliable = Ace_net.Reliable
module Driver = Ace_harness.Driver

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let contains msg needle = Str_find.find msg needle >= 0

(* ---- spec validation ---- *)

let spec_validates () =
  let rejects f = match f () with
    | (_ : Faults.spec) -> false
    | exception Invalid_argument _ -> true
  in
  check "drop = 1 rejected" true (rejects (fun () -> Faults.spec ~drop:1.0 ()));
  check "negative drop rejected" true
    (rejects (fun () -> Faults.spec ~drop:(-0.1) ()));
  check "dup > 1 rejected" true (rejects (fun () -> Faults.spec ~dup:1.5 ()));
  check "negative jitter rejected" true
    (rejects (fun () -> Faults.spec ~jitter:(-1.) ()));
  check "all-zero spec disabled" false (Faults.enabled (Faults.spec ()));
  check "any knob enables" true (Faults.enabled (Faults.spec ~drop:0.01 ()))

(* ---- Am accounting: logical sends vs physical deliveries ---- *)

let rig ?(nprocs = 2) () =
  let m = Machine.create ~nprocs () in
  let am = Am.create m Cost_model.cm5_ace in
  (m, am)

let faultless_tallies_agree () =
  let m, am = rig () in
  Machine.run m (fun p ->
      if p.Machine.id = 0 then
        for _ = 1 to 5 do
          Am.send_from am p ~dst:1 ~bytes:16 (fun ~time:_ -> ())
        done);
  let st = Machine.stats m in
  checki "logical messages" 5 (Am.messages am);
  check "net.messages agrees" true (Stats.get st "net.messages" = 5.);
  checki "logical bytes" 80 (Am.bytes_sent am);
  check "net.bytes agrees" true (Stats.get st "net.bytes" = 80.)

let faulted_tallies_balance () =
  (* Raw Am (no reliable layer): physical deliveries must equal logical
     sends minus drops plus the extra duplicated copies. *)
  let m, am = rig () in
  Am.set_faults am (Some (Faults.create ~drop:0.3 ~dup:0.3 ~seed:1 ()));
  let delivered = ref 0 in
  Machine.run m (fun p ->
      if p.Machine.id = 0 then
        for _ = 1 to 200 do
          Am.send_from am p ~dst:1 ~bytes:16 (fun ~time:_ -> incr delivered)
        done);
  let st = Machine.stats m in
  let logical = float_of_int (Am.messages am) in
  let dropped = Stats.get st "net.fault.dropped" in
  let duplicated = Stats.get st "net.fault.duplicated" in
  check "some drops at 30%" true (dropped > 0.);
  check "some duplicates at 30%" true (duplicated > 0.);
  check "physical = logical - dropped + duplicated" true
    (Stats.get st "net.messages" = logical -. dropped +. duplicated);
  checki "handlers ran once per physical copy" (int_of_float (Stats.get st "net.messages"))
    !delivered

(* ---- reliable transport ---- *)

let drop_then_retransmit_then_ack () =
  (* The first transmission is dropped; the link heals before the timer
     fires, so exactly one retransmission repairs the loss. *)
  let m, am = rig () in
  let f = Faults.create ~seed:2 () in
  Faults.set_drop f 1.0;
  Am.set_faults am (Some f);
  let r = Reliable.create ~rto:1000. am in
  let delivered = ref 0 in
  Machine.schedule m ~time:50. (fun () -> Faults.set_drop f 0.);
  Machine.run m (fun p ->
      if p.Machine.id = 0 then
        Reliable.send r ~now:0. ~src:0 ~dst:1 ~bytes:16 (fun ~time:_ ->
            incr delivered));
  let st = Machine.stats m in
  checki "delivered exactly once" 1 !delivered;
  check "one timeout" true (Stats.get st "net.timeouts" = 1.);
  check "one retransmit" true (Stats.get st "net.retransmits" = 1.);
  check "per-link family counted" true
    (Stats.get_dim st (Stats.fam "net.retransmits.by_link") 1 = 1.);
  check "acked" true (Stats.get st "net.acks" = 1.);
  checki "nothing left in flight" 0 (Reliable.pending r)

let duplicate_suppressed () =
  let m, am = rig () in
  let f = Faults.create ~seed:3 () in
  Faults.set_dup f 1.0;
  Am.set_faults am (Some f);
  let r = Reliable.create am in
  let delivered = ref 0 in
  Machine.run m (fun p ->
      if p.Machine.id = 0 then
        Reliable.send r ~now:0. ~src:0 ~dst:1 ~bytes:16 (fun ~time:_ ->
            incr delivered));
  let st = Machine.stats m in
  checki "handler ran once" 1 !delivered;
  check "second copy suppressed" true (Stats.get st "net.dup_suppressed" = 1.);
  check "both copies ACKed" true (Stats.get st "net.acks" = 2.);
  checki "nothing left in flight" 0 (Reliable.pending r)

let backoff_schedule () =
  (* Permanent blackout: rto 100, backoff 2, max_retries 4. Timeouts fire
     at 100, 300, 700, 1500 (each retransmitting) and at 3100 (giving up),
     so the run ends at exactly t = 3100 with the message still pending. *)
  let m, am = rig () in
  let f = Faults.create ~seed:4 () in
  Faults.set_drop f 1.0;
  Am.set_faults am (Some f);
  let r = Reliable.create ~rto:100. ~backoff:2. ~max_retries:4 am in
  let delivered = ref 0 in
  Machine.run m (fun p ->
      if p.Machine.id = 0 then
        Reliable.send r ~now:0. ~src:0 ~dst:1 ~bytes:16 (fun ~time:_ ->
            incr delivered));
  let st = Machine.stats m in
  checki "never delivered" 0 !delivered;
  check "4 retransmits" true (Stats.get st "net.retransmits" = 4.);
  check "5 timeouts" true (Stats.get st "net.timeouts" = 5.);
  check "1 giveup" true (Stats.get st "net.giveups" = 1.);
  check "last timer at 3100" true (Machine.time m = 3100.);
  checki "message abandoned in flight" 1 (Reliable.pending r)

let in_order_under_reordering () =
  (* Heavy jitter plus duplication reorders raw deliveries; the reorder
     buffer must still release handlers in send order, exactly once. *)
  let m, am = rig () in
  let f = Faults.create ~seed:5 () in
  Faults.set_jitter f 20000.;
  Faults.set_dup f 0.4;
  Am.set_faults am (Some f);
  let r = Reliable.create am in
  let order = ref [] in
  Machine.run m (fun p ->
      if p.Machine.id = 0 then
        for i = 0 to 9 do
          Reliable.send r ~now:0. ~src:0 ~dst:1 ~bytes:16 (fun ~time:_ ->
              order := i :: !order)
        done);
  Alcotest.(check (list int))
    "send order preserved"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order);
  checki "nothing left in flight" 0 (Reliable.pending r)

(* ---- end-to-end determinism and transparency ---- *)

let em3d_cfg = { Ace_apps.Em3d.default with Ace_apps.Em3d.n_nodes = 64; steps = 2 }

let same_seed_same_run () =
  let run () =
    let retrans = ref nan in
    let o =
      Driver.run_ace
        ~faults:(Faults.spec ~drop:0.05 ~seed:42 ())
        ~stats:(fun s -> retrans := Stats.get s "net.retransmits")
        ~nprocs:4
        (module Ace_apps.Em3d)
        em3d_cfg
    in
    (o.Driver.seconds, o.Driver.result, !retrans)
  in
  let s1, r1, x1 = run () in
  let s2, r2, x2 = run () in
  check "losses actually injected" true (x1 > 0.);
  check "simulated seconds reproduce" true (s1 = s2);
  check "results reproduce" true (r1 = r2);
  check "retransmit counts reproduce" true (x1 = x2)

let faults_do_not_change_results () =
  let run faults =
    (Driver.run_ace ?faults ~nprocs:4 (module Ace_apps.Em3d) em3d_cfg)
      .Driver.result
  in
  check "same checksum on a lossy network" true
    (run None = run (Some (Faults.spec ~drop:0.05 ~seed:42 ())))

(* ---- deadlock report ---- *)

let deadlock_names_blocked_procs () =
  let m = Machine.create ~nprocs:2 () in
  let iv : unit Ivar.t = Ivar.create () in
  match Machine.run m (fun p -> if p.Machine.id = 0 then Machine.await p iv)
  with
  | () -> Alcotest.fail "expected a deadlock failure"
  | exception Failure msg ->
      check "says deadlock" true (contains msg "deadlock");
      check "names P0 and its clock" true (contains msg "P0@");
      check "does not accuse the finished P1" false (contains msg "P1@")

(* ---- Ops.new_space mismatch diagnostics ---- *)

let new_space_mismatch_reports () =
  let rt = Ace_runtime.Runtime.create ~nprocs:1 () in
  ignore (Ace_runtime.Runtime.new_space rt "SC");
  match
    Ace_runtime.Runtime.run rt (fun ctx ->
        ignore (Ace_runtime.Ops.new_space ctx "COUNTER"))
  with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check "names the requested protocol" true
        (contains msg "requests protocol \"COUNTER\"");
      check "names the bound protocol" true (contains msg "bound to \"SC\"")

(* ---- event queue releases the last popped closure ---- *)

(* Keep the closure's only strong root inside a non-inlined helper so the
   caller's frame holds no hidden reference. *)
let[@inline never] plant q (w : float array Weak.t) =
  let payload = Array.make 4096 0. in
  Weak.set w 0 (Some payload);
  Event_queue.push q ~time:0. (fun () -> ignore (Array.length payload))

let drain_releases_last_thunk () =
  let q = Event_queue.create () in
  let w : float array Weak.t = Weak.create 1 in
  plant q w;
  Event_queue.drain q;
  Gc.full_major ();
  check "closure graph collected after drain" true (Weak.get w 0 = None)

let () =
  Alcotest.run "faults"
    [
      ( "faults",
        [
          Alcotest.test_case "spec validation" `Quick spec_validates;
          Alcotest.test_case "faultless tallies agree" `Quick
            faultless_tallies_agree;
          Alcotest.test_case "faulted tallies balance" `Quick
            faulted_tallies_balance;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "drop, retransmit, ack" `Quick
            drop_then_retransmit_then_ack;
          Alcotest.test_case "duplicate suppressed" `Quick duplicate_suppressed;
          Alcotest.test_case "backoff schedule" `Quick backoff_schedule;
          Alcotest.test_case "in-order under reordering" `Quick
            in_order_under_reordering;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "same seed, same run" `Quick same_seed_same_run;
          Alcotest.test_case "faults do not change results" `Quick
            faults_do_not_change_results;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "deadlock names blocked procs" `Quick
            deadlock_names_blocked_procs;
          Alcotest.test_case "new_space mismatch reports" `Quick
            new_space_mismatch_reports;
          Alcotest.test_case "drain releases last thunk" `Quick
            drain_releases_last_thunk;
        ] );
    ]
