(* The parallel experiment harness must not change results: simulated
   seconds and computed answers are bit-identical for any worker count and
   across repeated runs (Pool assembles results positionally and each cell
   is an isolated simulation). *)

module E = Ace_harness.Experiments
module Pool = Ace_harness.Pool

let scale = { E.nprocs = 4; factor = 1 }

(* Everything but [wall], which measures the host, not the simulation. *)
let sig_of rows = List.map (fun r -> { r with Ace_harness.Row.wall = 0. }) rows

let fig7a_deterministic () =
  let serial = sig_of (E.fig7a ~scale ~jobs:1 ()) in
  let parallel = sig_of (E.fig7a ~scale ~jobs:4 ()) in
  Alcotest.(check bool) "parallel rows = serial rows" true (serial = parallel);
  let repeat = sig_of (E.fig7a ~scale ~jobs:4 ()) in
  Alcotest.(check bool) "second parallel run identical" true (parallel = repeat)

let pool_positional () =
  let tasks = Array.init 50 (fun i () -> i * i) in
  let out = Pool.run_all ~jobs:4 tasks in
  Alcotest.(check (list int))
    "results in task order"
    (List.init 50 (fun i -> i * i))
    (Array.to_list out)

let pool_empty_and_serial () =
  Alcotest.(check (list int)) "no tasks" []
    (Array.to_list (Pool.run_all ~jobs:4 [||]));
  let out = Pool.run_all ~jobs:1 (Array.init 5 (fun i () -> i + 1)) in
  Alcotest.(check (list int)) "jobs=1" [ 1; 2; 3; 4; 5 ] (Array.to_list out)

let pool_propagates_exn () =
  let tasks =
    Array.init 8 (fun i () -> if i = 5 then failwith "cell 5 blew up" else i)
  in
  match Pool.run_all ~jobs:3 tasks with
  | _ -> Alcotest.fail "expected the cell's exception to propagate"
  | exception Failure m ->
      Alcotest.(check string) "original message" "cell 5 blew up" m

let pool_timed () =
  let v, wall = Pool.timed (fun () -> 42) () in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "wall non-negative" true (wall >= 0.)

let () =
  Alcotest.run "harness"
    [
      ( "pool",
        [
          Alcotest.test_case "positional results" `Quick pool_positional;
          Alcotest.test_case "empty and serial" `Quick pool_empty_and_serial;
          Alcotest.test_case "exception propagation" `Quick pool_propagates_exn;
          Alcotest.test_case "timed wrapper" `Quick pool_timed;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig7a serial = parallel = repeat" `Slow
            fig7a_deterministic;
        ] );
    ]
