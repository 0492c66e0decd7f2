(* Regenerates every table and figure of the paper's evaluation (§5) and
   the extensions' headline claims, then checks them:

     fig7a   — Figure 7a: Ace runtime vs CRL (both SC), five benchmarks
     fig7b   — Figure 7b: SC vs application-specific protocols in Ace
     table4  — Table 4: compiler optimization levels vs hand-written code
     ablation — the design-choice ablations DESIGN.md calls out
     micro   — Bechamel microbenchmarks of simulator primitives (wall clock)

   and the extension experiments registered in Ace_harness.Suite. Times are
   simulated seconds on the modelled 32-node CM-5 (deterministic; absolute
   values depend on the cost model, shapes are the reproduction target —
   see EXPERIMENTS.md). With no selection the default grid runs (fig7a,
   fig7b, table4, ablation, batching, critpath_overhead).

   After the run every selected experiment's gates are evaluated, one
   verdict line each, and the exit status is 1 if any fails.

   Options:
     --small       8 procs instead of 32 (quick smoke run)
     --nprocs N    simulated processors
     --scaling-max N  largest machine of the scaling experiment
     --jobs N      worker domains for the experiment grid (default:
                   ACE_JOBS or the domain count; results are identical
                   for any N)
     --json FILE   also write every row (micro excluded: it has no
                   simulated time) and every gate verdict as JSON
     --against FILE  also gate against a baseline report: every shared
                   row's simulated values and message counts must be
                   identical, and the total wall within 15%
     --trace FILE  record a representative traced simulation (EM3D on
                   Ace) as Chrome trace-event JSON, and report the
                   traced-vs-untraced wall-clock overhead (the
                   trace_overhead experiment)
     --trace-dir D record one trace per grid cell of the selected
                   experiments into D/FIG-ROW-SIDE.trace.json
     --critpath FILE  write critpath_overhead's recorded DAG
     --batch       turn bulk-transfer batching on
     --drop P      per-transmission drop probability in [0,1) (default 0)
     --dup P       per-transmission duplication probability (default 0)
     --jitter C    max extra transit cycles per copy (default 0)
     --fault-seed N  RNG seed for the fault model

   A run flag that a selected experiment would ignore is refused (exit 2)
   before anything runs. The fault flags attach a deterministic fault
   model to every simulation of the selected experiments (the reliable
   transport retransmits, so results stay correct; simulated times
   change); faultsweep instead sweeps drop rates (0 and --drop P if
   given). *)

module Suite = Ace_harness.Suite
module Row = Ace_harness.Row
module Gate = Ace_harness.Gate
module Json = Ace_obs.Json
module Faults = Ace_net.Faults

let line () = print_endline (String.make 72 '=')

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 2)
    fmt

(* ---- bechamel microbenchmarks (wall-clock cost of the simulator) ---- *)

let micro () =
  let open Bechamel in
  let barrier_bench () =
    let m = Ace_engine.Machine.create ~nprocs:8 () in
    let b = Ace_engine.Machine.Barrier.create m ~cost:(fun _ -> 10.) in
    Ace_engine.Machine.run m (fun p ->
        for _ = 1 to 10 do
          Ace_engine.Machine.Barrier.wait b p
        done)
  in
  let coherence_bench () =
    let rt = Ace_runtime.Runtime.create ~nprocs:4 () in
    ignore (Ace_runtime.Runtime.new_space rt "SC");
    Ace_runtime.Runtime.run rt (fun ctx ->
        let open Ace_runtime.Ops in
        if me ctx = 0 then ignore (alloc ctx ~space:0 ~len:8);
        barrier ctx ~space:0;
        let h = map ctx (global_id ctx ~space:0 ~owner:0 ~seq:0) in
        for _ = 1 to 20 do
          start_write ctx h;
          (data ctx h).(0) <- 1.;
          end_write ctx h;
          barrier ctx ~space:0
        done)
  in
  let em3d_bench () =
    let rt = Ace_runtime.Runtime.create ~nprocs:4 () in
    Ace_protocols.Proto_lib.register_all rt;
    for _ = 1 to Ace_apps.Em3d.n_spaces do
      ignore (Ace_runtime.Runtime.new_space rt "SC")
    done;
    let module A = Ace_apps.Em3d.Make (Ace_runtime.Ops.Api) in
    let cfg =
      { Ace_apps.Em3d.default with Ace_apps.Em3d.n_nodes = 64; steps = 2 }
    in
    Ace_runtime.Runtime.run rt (fun ctx -> ignore (A.run cfg ctx))
  in
  let tests =
    Test.make_grouped ~name:"ace"
      [
        Test.make ~name:"barrier-8p-x10" (Staged.stage barrier_bench);
        Test.make ~name:"sc-writes-4p-x20" (Staged.stage coherence_bench);
        Test.make ~name:"em3d-4p-2steps" (Staged.stage em3d_bench);
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      (Toolkit.Instance.monotonic_clock) raw
  in
  line ();
  print_endline "Bechamel microbenchmarks (host wall-clock per simulated run)";
  line ();
  (* Hashtbl.iter order varies run to run; sort by name for stable output *)
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ est ] -> Printf.printf "%-32s %12.0f ns/run\n" name est
         | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name);
  print_newline ()

let usage () =
  fail
    "usage: main [%s] [micro] [--small] [--nprocs N] [--scaling-max N] \
     [--jobs N] [--json FILE] [--against FILE] [--trace FILE] \
     [--trace-dir DIR] [--critpath FILE] [--batch] [--drop P] [--dup P] \
     [--jitter C] [--fault-seed N]"
    (String.concat "] ["
       (List.map (fun (e : Suite.experiment) -> e.name) Suite.experiments))

(* The commit the binary was benchmarked from, for baseline comparisons;
   "unknown" outside a git checkout. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, c when c <> "" -> c
    | _ -> "unknown"
  with _ -> "unknown"

let write_json path (o : Suite.opts) ~total_wall rows verdicts =
  let oc = open_out path in
  let fault_cfg =
    match o.faults with
    | None -> "null"
    | Some s ->
        Printf.sprintf
          "{\"drop\": %.17g, \"dup\": %.17g, \"jitter\": %.17g, \"seed\": %d}"
          s.Faults.drop s.Faults.dup s.Faults.jitter s.Faults.seed
  in
  let gate (v : Gate.verdict) =
    Printf.sprintf "    {\"gate\": %s, \"ok\": %b, \"detail\": %s}" (Row.quote v.gate)
      v.ok (Row.quote v.detail)
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"ace-bench-v5\",\n\
    \  \"git_commit\": %s,\n\
    \  \"nprocs\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"batch\": %b,\n\
    \  \"faults\": %s,\n\
    \  \"total_wall_s\": %.6f,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"gates\": [\n%s\n  ]\n}\n"
    (Row.quote (git_commit ()))
    o.scale.nprocs
    (match o.jobs with Some j -> j | None -> Ace_harness.Pool.default_jobs ())
    o.batch fault_cfg total_wall
    (String.concat ",\n" (List.map Row.to_json rows))
    (String.concat ",\n" (List.map gate verdicts));
  close_out oc;
  Printf.printf "wrote %s\n" path

(* A baseline report's rows and total wall. *)
let read_baseline path =
  match
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Json.parse s
  with
  | exception (Sys_error m | Json.Parse_error m) -> fail "cannot read --against file: %s" m
  | j -> (
      match
        ( Option.bind (Json.member "rows" j) Json.to_list,
          Option.bind (Json.member "total_wall_s" j) Json.to_float )
      with
      | Some rows, Some total -> (List.filter_map Row.of_json rows, total)
      | _ -> fail "--against %s: not a bench report (no rows or total_wall_s)" path)

let () =
  (* A larger minor heap suits the simulator's allocation profile (closure
     chains and event records): fewer minor collections, identical
     simulated output. Roughly 20%% off the grid's wall clock. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let o = ref Suite.default_opts in
  let json_path = ref None and against = ref None in
  (* fault knobs, validated together once parsing is done *)
  let drop = ref 0. and dup = ref 0. and jitter = ref 0. in
  let fault_seed = ref Faults.default_seed in
  (* the run flags given, each with its spelling for error messages *)
  let given = ref [] in
  let flag f name = given := (f, name) :: !given in
  let int_arg flag v ok what =
    match int_of_string_opt v with
    | Some n when ok n -> n
    | Some _ | None -> fail "%s expects %s, got %s" flag what v
  in
  let rec parse = function
    | [] -> []
    | "--small" :: rest ->
        flag Suite.Scale "--small";
        o := { !o with scale = { nprocs = 8; factor = 1 } };
        parse rest
    | "--nprocs" :: n :: rest ->
        flag Suite.Scale "--nprocs";
        let nprocs = int_arg "--nprocs" n (fun p -> p >= 2) "an integer >= 2" in
        o := { !o with scale = { !o.scale with nprocs } };
        parse rest
    | "--scaling-max" :: n :: rest ->
        flag Suite.Scaling_max "--scaling-max";
        o := { !o with scaling_max = int_arg "--scaling-max" n (fun p -> p >= 2) "an integer >= 2" };
        parse rest
    | "--jobs" :: n :: rest ->
        o := { !o with jobs = Some (int_arg "--jobs" n (fun j -> j > 0) "a positive integer") };
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--against" :: path :: rest ->
        against := Some path;
        parse rest
    | "--trace" :: path :: rest ->
        o := { !o with trace = Some path };
        parse rest
    | "--trace-dir" :: dir :: rest ->
        flag Suite.Trace_dir "--trace-dir";
        o := { !o with trace_dir = Some dir };
        parse rest
    | "--critpath" :: path :: rest ->
        flag Suite.Critpath "--critpath";
        o := { !o with critpath = Some path };
        parse rest
    | "--batch" :: rest ->
        flag Suite.Batch "--batch";
        o := { !o with batch = true };
        parse rest
    | (("--drop" | "--dup" | "--jitter") as f) :: v :: rest -> (
        match float_of_string_opt v with
        | Some x when x >= 0. ->
            (match f with "--drop" -> drop := x | "--dup" -> dup := x | _ -> jitter := x);
            flag Suite.Faults f;
            parse rest
        | Some _ | None -> fail "%s expects a non-negative number, got %s" f v)
    | "--fault-seed" :: v :: rest ->
        fault_seed := int_arg "--fault-seed" v (fun _ -> true) "an integer";
        flag Suite.Faults "--fault-seed";
        parse rest
    | [ (( "--jobs" | "--json" | "--against" | "--trace" | "--trace-dir"
         | "--critpath" | "--drop" | "--dup" | "--jitter" | "--fault-seed"
         | "--nprocs" | "--scaling-max" ) as f) ] ->
        prerr_endline ("missing argument to " ^ f);
        usage ()
    | s :: rest when s = "micro" || Suite.find s <> None -> s :: parse rest
    | other :: _ ->
        prerr_endline ("unknown argument " ^ other);
        usage ()
  in
  let selections = parse (List.tl (Array.to_list Sys.argv)) in
  let given = List.rev !given in
  (* fail fast on out-of-range fault probabilities rather than mid-grid *)
  if List.exists (fun (f, _) -> f = Suite.Faults) given then begin
    try
      o :=
        { !o with faults = Some (Faults.spec ~drop:!drop ~dup:!dup ~jitter:!jitter ~seed:!fault_seed ()) }
    with Invalid_argument m -> fail "%s" m
  end;
  let o = !o in
  let selected =
    List.filter
      (fun (e : Suite.experiment) ->
        (if selections = [] then e.default else List.mem e.name selections)
        (* --trace FILE runs the traced pair alongside any selection *)
        || (e.name = "trace_overhead" && o.trace <> None))
      Suite.experiments
  in
  let wants_micro = List.mem "micro" selections in
  if List.mem "trace_overhead" selections && o.trace = None then
    fail "trace_overhead requires --trace FILE";
  (* refuse a run flag any selected experiment would ignore *)
  List.iter
    (fun (name, takes) ->
      List.iter
        (fun (f, spelling) ->
          if not (List.mem f takes) then fail "bench: %s does not take %s" name spelling)
        given)
    (List.map (fun (e : Suite.experiment) -> (e.name, e.takes)) selected
    @ if wants_micro then [ ("micro", []) ] else []);
  let baseline = Option.map read_baseline !against in
  (* fail fast on an unwritable report path rather than after the run *)
  Option.iter
    (fun p ->
      try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 p)
      with Sys_error m -> fail "cannot write --json file: %s" m)
    !json_path;
  (match o.trace_dir with
  | Some dir when not (Sys.file_exists dir) -> (
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (e, _, _) ->
        fail "cannot create --trace-dir: %s" (Unix.error_message e))
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  let rows =
    List.concat_map
      (fun (e : Suite.experiment) ->
        line ();
        if List.mem Suite.Scale e.takes then
          Printf.printf "%s (%d procs)\n" e.title o.scale.nprocs
        else print_endline e.title;
        line ();
        let rows = e.run o in
        Row.print ~derived:e.derived rows;
        print_newline ();
        rows)
      selected
  in
  if wants_micro then micro ();
  let total_wall = Unix.gettimeofday () -. t0 in
  let gates = List.concat_map (fun (e : Suite.experiment) -> e.gates o) selected in
  let gates, gate_rows =
    match baseline with
    | None -> (gates, rows)
    | Some baseline ->
        let g, extra = Suite.against ~current:(rows, total_wall) ~baseline in
        (gates @ g, rows @ extra)
  in
  let verdicts = List.map (Gate.eval gate_rows) gates in
  if verdicts <> [] then begin
    line ();
    print_endline "Gates";
    line ();
    List.iter
      (fun (v : Gate.verdict) ->
        Printf.printf "%-4s %s: %s\n" (if v.ok then "ok" else "FAIL") v.gate v.detail)
      verdicts
  end;
  Option.iter (fun path -> write_json path o ~total_wall rows verdicts) !json_path;
  let failed = List.filter (fun (v : Gate.verdict) -> not v.ok) verdicts in
  if failed <> [] then begin
    Printf.printf "%d of %d gates failed: %s\n" (List.length failed) (List.length verdicts)
      (String.concat ", " (List.map (fun (v : Gate.verdict) -> v.gate) failed));
    exit 1
  end
