(* The bench gates: every bound bench/main.exe enforces fails on a
   hand-made row list just past it and passes on the same list at it, and
   the command line refuses ignored flags and gates against a baseline
   report. *)

module Row = Ace_harness.Row
module Gate = Ace_harness.Gate
module Suite = Ace_harness.Suite
module J = Ace_obs.Json

let row ?(wall = 1.) ?(sims = []) ?(msgs = []) ?(results = []) experiment name =
  { Row.experiment; name; wall; sims; msgs; results }

let gates_of ?(o = Suite.default_opts) name = (Option.get (Suite.find name)).gates o

let failing gates rows =
  List.filter_map
    (fun g ->
      let v = Gate.eval rows g in
      if v.ok then None else Some v.gate)
    gates

(* [at] passes every gate; each [past] list fails exactly the named one. *)
let bounds gates ~at past () =
  Alcotest.(check (list string)) "at the bound" [] (failing gates at);
  List.iter
    (fun (expected, rows) ->
      Alcotest.(check (list string)) ("past " ^ expected) [ expected ] (failing gates rows))
    past

let wall_limit reference = (reference *. 1.05) +. 0.15

(* ---- recorder pairs ---- *)

let pair_rows ?(off_wall = 1.) ?(on_wall = 1.) ?(on_seconds = 1.) ?(on_result = 5.)
    ?(on_sims = []) exp =
  [
    row exp "em3d-off" ~wall:off_wall ~sims:[ ("seconds", 1.) ] ~results:[ ("result", 5.) ];
    row exp "em3d-on" ~wall:on_wall
      ~sims:(("seconds", on_seconds) :: on_sims)
      ~results:[ ("result", on_result) ];
  ]

let critpath_overhead =
  let rows ?(on_wall = wall_limit 1.) ?(on_seconds = 1.) ?(blame = 1. +. 1e-6)
      ?(predicted = 9.) () =
    pair_rows "critpath_overhead" ~on_wall ~on_seconds
      ~on_sims:
        [ ("dag_nodes", 10.); ("blame_total_s", blame); ("predicted_half_send_s", predicted) ]
    @ [ row "critpath_overhead" "em3d-half-send" ~sims:[ ("seconds", 10.) ] ]
  in
  bounds (gates_of "critpath_overhead") ~at:(rows ())
    [
      ("critpath_overhead/recorder-identical", rows ~on_seconds:(Float.succ 1.) ());
      ("critpath_overhead/blame-total", rows ~blame:(1. +. 1.01e-6) ());
      ("critpath_overhead/whatif-send-half", rows ~predicted:8.99 ());
      ("critpath_overhead/recorder-wall", rows ~on_wall:(Float.succ (wall_limit 1.)) ());
    ]

let trace_overhead =
  bounds (gates_of "trace_overhead") ~at:(pair_rows "trace_overhead")
    [ ("trace_overhead/trace-identical", pair_rows "trace_overhead" ~on_seconds:(Float.succ 1.)) ]

let check_overhead =
  let rows ?on_result ?(observations = 1.) () =
    pair_rows "check_overhead" ?on_result ~on_sims:[ ("observations", observations) ]
  in
  bounds (gates_of "check_overhead") ~at:(rows ())
    [
      ("check_overhead/oracle-identical", rows ~on_result:6. ());
      ("check_overhead/oracle-observations", rows ~observations:0. ());
    ]

(* ---- scaling: words per region may not grow with the machine ---- *)

let scaling =
  let sizes = [ 32; 64; 128; 256; 512; 1024 ] in
  let rows ?(em3d_last = 10. +. 247.99) () =
    List.concat_map
      (fun n ->
        let r bench proto wpr =
          row "scaling"
            (Printf.sprintf "%s-%s@%d" bench proto n)
            ~sims:[ ("nprocs", float_of_int n); ("words_per_region", wpr) ]
        in
        [
          r "EM3D" "inval" (if n = 1024 then em3d_last else 10.);
          r "EM3D" "update" 10.;
          (* exempt: every node caches every body *)
          r "Barnes-Hut" "inval" (2. *. float_of_int n);
          r "Barnes-Hut" "update" (2. *. float_of_int n);
          r "BSC" "inval" 23.;
        ])
      sizes
  in
  bounds (gates_of "scaling") ~at:(rows ())
    [
      (* (258 - 10) / (1024 - 32) = 0.25 exactly: the limit is strict *)
      ("scaling/words-per-region-slope EM3D-inval", rows ~em3d_last:258. ());
      ( "scaling/words-per-region-slope BSC-inval",
        List.filter (fun r -> r.Row.name <> "BSC-inval@1024") (rows ()) );
    ]

(* ---- serving ---- *)

let small = { Suite.default_opts with scale = { nprocs = 8; factor = 1 } }

let serving_rows ?(adaptive_msgs = 100.) ?(switches = 6.) ?(dyn_ok = 1.) () =
  List.map
    (fun (mode, msgs, ok, sw) ->
      row "serving" mode
        ~sims:[ ("seconds", 1.); ("result", 42.); ("ok", ok); ("switches", sw) ]
        ~msgs:[ ("total", msgs) ])
    [
      ("SC", 100., 1., 0.);
      ("DYN_UPDATE", 120., dyn_ok, 0.);
      ("MIGRATORY", 110., 1., 0.);
      ("adaptive", adaptive_msgs, 1., switches);
    ]

let serving =
  bounds (gates_of ~o:small "serving") ~at:(serving_rows ())
    [
      ("serving/computes-reference DYN_UPDATE", serving_rows ~dyn_ok:0. ());
      ("serving/adaptive-switched", serving_rows ~switches:0. ());
      ("serving/adaptive-messages", serving_rows ~adaptive_msgs:101. ());
    ]

(* The message claim is made for 8 processors only. *)
let serving_scale_scoped () =
  Alcotest.(check (list string)) "no message gate at 32 procs" []
    (failing (gates_of "serving") (serving_rows ~adaptive_msgs:1000. ()))

(* ---- combinator ---- *)

let combinator =
  let names =
    [
      "EM3D / SC"; "Barnes-Hut / SC"; "Water / SC"; "BSC / SC"; "TSP / SC";
      "EM3D / MIGRATORY"; "Barnes-Hut / MIGRATORY"; "Water / MIGRATORY"; "BSC / WRITE_ONCE";
    ]
  in
  let rows ?(bsc_dsl_msgs = 298.) ?(dsl_seconds = 1.) ?(dsl_wall = wall_limit 1.) () =
    List.map
      (fun name ->
        let dsl_msgs = if name = "BSC / SC" then bsc_dsl_msgs else 298. in
        row "combinator" name
          ~sims:[ ("hand", 0.5); ("dsl", 0.5); ("identical", 1.) ]
          ~msgs:[ ("hand", 298.); ("dsl", dsl_msgs) ]
          ~results:[ ("hand", nan); ("dsl", nan) ])
      names
    @ [
        row "combinator" "dispatch-em3d-hand" ~sims:[ ("seconds", 1.) ] ~results:[ ("result", 3.) ];
        row "combinator" "dispatch-em3d-dsl" ~wall:dsl_wall
          ~sims:[ ("seconds", dsl_seconds) ]
          ~results:[ ("result", 3.) ];
      ]
  in
  fun () ->
    Alcotest.(check int) "one identity gate per row" 9
      (List.length
         (List.filter
            (fun (g : Gate.t) -> String.starts_with ~prefix:"identity " g.name)
            (gates_of "combinator")));
    bounds (gates_of "combinator") ~at:(rows ())
      [
        ("combinator/identity BSC / SC", rows ~bsc_dsl_msgs:299. ());
        ("combinator/dispatch-identical", rows ~dsl_seconds:(Float.succ 1.) ());
        ("combinator/dispatch-wall", rows ~dsl_wall:(Float.succ (wall_limit 1.)) ());
      ]
      ()

(* ---- batching and Table 4 agree on computed results ---- *)

let batching =
  let rows ?(tsp_on = 7.) () =
    List.map
      (fun (name, off, on) -> row "batching" name ~results:[ ("off", off); ("on", on) ])
      [
        ("Barnes-Hut (dyn update)", 1., 1.);
        ("BSC (write-once)", nan, nan);
        ("EM3D (static update)", 2., 2.);
        ("TSP (counter)", 7., tsp_on);
        ("Water (null+pipeline)", 3., 3.);
      ]
  in
  bounds (gates_of "batching") ~at:(rows ())
    [ ("batching/results-unchanged TSP (counter)", rows ~tsp_on:(Float.succ 7.) ()) ]

let table4 =
  let rows ?(bsc_hand = 1. +. 1e-6) () =
    List.map
      (fun (name, _) ->
        row "table4" name
          ~results:
            [
              ("base", 1.); ("li", 1.); ("li_mc", 1.); ("li_mc_dc", 1.);
              ("hand", if name = "BSC" then bsc_hand else 1.);
            ])
      Ace_lang.Kernels.all
  in
  bounds (gates_of "table4") ~at:(rows ())
    [ ("table4/results-agree BSC", rows ~bsc_hand:(1. +. 1.01e-6) ()) ]

(* ---- against a baseline report ---- *)

let baseline =
  let base =
    [
      row "fig7a" "EM3D" ~sims:[ ("baseline", 0.5); ("ace", 0.25) ]
        ~msgs:[ ("baseline", 10.); ("ace", 9.) ];
      row "fig7a" "BSC" ~sims:[ ("baseline", 0.75); ("ace", 0.75) ];
      row "fig7a" "gone" ~sims:[ ("baseline", 1.) ];
    ]
  in
  let current ?(ace = 0.25) ?(msgs = 9.) () =
    [
      row "fig7a" "EM3D" ~sims:[ ("baseline", 0.5); ("ace", ace) ]
        ~msgs:[ ("baseline", 10.); ("ace", msgs) ];
      (* a new key the baseline lacks is not compared *)
      row "fig7a" "BSC" ~sims:[ ("baseline", 0.75); ("ace", 0.75); ("extra", 3.) ];
      row "fig7a" "new" ~sims:[ ("baseline", 1.) ];
    ]
  in
  let check ?(total = 10. *. 1.15) rows =
    let gates, extra = Suite.against ~current:(rows, total) ~baseline:(base, 10.) in
    (gates, rows @ extra)
  in
  fun () ->
    let gates, rows = check (current ()) in
    Alcotest.(check int) "a gate per shared row, plus the wall" 3 (List.length gates);
    Alcotest.(check (list string)) "at the bound" [] (failing gates rows);
    List.iter
      (fun (expected, (gates, rows)) ->
        Alcotest.(check (list string)) ("past " ^ expected) [ expected ] (failing gates rows))
      [
        ("baseline/identity fig7a/EM3D", check (current ~ace:(0.25 *. 1.0000001) ()));
        ("baseline/identity fig7a/EM3D", check (current ~msgs:10. ()));
        ("baseline/total-wall", check ~total:(Float.succ (10. *. 1.15)) (current ()));
      ]

let missing_value_fails () =
  let g = { Gate.exp = "x"; name = "y"; check = Above (Gate.at "x" "r" (Sim "k"), 0.) } in
  let v = Gate.eval [ row "x" "r" ~sims:[ ("other", 1.) ] ] g in
  Alcotest.(check bool) "fails" false v.ok;
  Alcotest.(check string) "names the gate" "x/y" v.gate;
  Alcotest.(check string) "names the value" "missing x/r sim_s[k]" v.detail

(* ---- bench/main.exe ---- *)

let bench = Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Run the bench with [args]; returns the exit status and the combined
   output. *)
let run args =
  let out = Filename.temp_file "bench" ".out" in
  let code = Sys.command (Filename.quote_command bench ~stdout:out ~stderr:out args) in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let refuses_ignored_flags () =
  List.iter
    (fun (args, msg) ->
      let code, out = run args in
      Alcotest.(check int) (String.concat " " args ^ ": exit") 2 code;
      Alcotest.(check bool) (msg ^ " in output") true (contains out msg);
      Alcotest.(check bool) "nothing ran" false (contains out "=====");
      ())
    [
      ([ "table4"; "--small"; "--drop"; "0.2"; "--batch" ], "bench: table4 does not take --drop");
      ([ "fig7a"; "--critpath"; "x.json" ], "bench: fig7a does not take --critpath");
      ([ "scaling"; "--small" ], "bench: scaling does not take --small");
      ([ "--fault-seed"; "3" ], "bench: table4 does not take --fault-seed");
    ]

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  J.parse s

let rec to_json = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num f -> Printf.sprintf "%.17g" f
  | J.Str s -> Row.quote s
  | J.List l -> "[" ^ String.concat ", " (List.map to_json l) ^ "]"
  | J.Obj kvs ->
      "{" ^ String.concat ", " (List.map (fun (k, v) -> Row.quote k ^ ": " ^ to_json v) kvs) ^ "}"

(* Replace [key]'s value in an object with [f] of it. *)
let update key f = function
  | J.Obj kvs -> J.Obj (List.map (fun (k, v) -> (k, if k = key then f v else v)) kvs)
  | j -> j

let num f = function J.Num x -> J.Num (f x) | j -> j

let write_json path j =
  let oc = open_out_bin path in
  output_string oc (to_json j);
  close_out oc

let gates_against_baseline () =
  let report = Filename.temp_file "bench" ".json" in
  let code, _ = run [ "fig7a"; "--small"; "--jobs"; "1"; "--json"; report ] in
  Alcotest.(check int) "fig7a exit" 0 code;
  let base = read_json report in
  Alcotest.(check bool) "report carries a gates array" true
    (Option.is_some (Option.bind (J.member "gates" base) J.to_list));
  let edit_row name key field f =
    update "rows"
      (function
        | J.List rows ->
            J.List
              (List.map
                 (fun r ->
                   if J.member "name" r = Some (J.Str name) then update key (update field f) r
                   else r)
                 rows)
        | j -> j)
  in
  let check_against ~edit ~expect_fail ~expect_ok =
    let path = Filename.temp_file "baseline" ".json" in
    write_json path (edit base);
    let code, out = run [ "fig7a"; "--small"; "--jobs"; "1"; "--against"; path ] in
    Sys.remove path;
    Alcotest.(check int) "exit" 1 code;
    List.iter (fun g -> Alcotest.(check bool) ("FAIL " ^ g) true (contains out ("FAIL " ^ g))) expect_fail;
    List.iter (fun g -> Alcotest.(check bool) ("ok " ^ g) true (contains out ("ok   " ^ g))) expect_ok
  in
  (* simulated drift fails on both rows; the wall is raised out of reach *)
  check_against
    ~edit:(fun j ->
      j
      |> edit_row "Barnes-Hut" "sim_s" "ace" (num (fun x -> x *. 1.0000001))
      |> edit_row "EM3D" "net_messages" "ace" (num (fun x -> x +. 1.))
      |> update "total_wall_s" (num (fun x -> (x *. 1000.) +. 1000.)))
    ~expect_fail:[ "baseline/identity fig7a/Barnes-Hut"; "baseline/identity fig7a/EM3D" ]
    ~expect_ok:[ "baseline/identity fig7a/BSC"; "baseline/total-wall" ];
  (* a tiny baseline wall fails the wall gate alone *)
  check_against
    ~edit:(update "total_wall_s" (fun _ -> J.Num 1e-6))
    ~expect_fail:[ "baseline/total-wall" ]
    ~expect_ok:
      (List.map
         (fun n -> "baseline/identity fig7a/" ^ n)
         [ "Barnes-Hut"; "BSC"; "EM3D"; "TSP"; "Water" ]);
  Sys.remove report

let () =
  Alcotest.run "gates"
    [
      ( "bounds",
        [
          Alcotest.test_case "critpath_overhead" `Quick critpath_overhead;
          Alcotest.test_case "trace_overhead" `Quick trace_overhead;
          Alcotest.test_case "check_overhead" `Quick check_overhead;
          Alcotest.test_case "scaling" `Quick scaling;
          Alcotest.test_case "serving" `Quick serving;
          Alcotest.test_case "serving message claim at 8 procs only" `Quick
            serving_scale_scoped;
          Alcotest.test_case "combinator" `Quick combinator;
          Alcotest.test_case "batching" `Quick batching;
          Alcotest.test_case "table4" `Quick table4;
          Alcotest.test_case "against a baseline" `Quick baseline;
          Alcotest.test_case "missing value fails" `Quick missing_value_fails;
        ] );
      ( "cli",
        [
          Alcotest.test_case "refuses ignored flags" `Quick refuses_ignored_flags;
          Alcotest.test_case "--against" `Slow gates_against_baseline;
        ] );
    ]
