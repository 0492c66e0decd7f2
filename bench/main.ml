(* Regenerates every table and figure of the paper's evaluation (§5):

     fig7a   — Figure 7a: Ace runtime vs CRL (both SC), five benchmarks
     fig7b   — Figure 7b: SC vs application-specific protocols in Ace
     table4  — Table 4: compiler optimization levels vs hand-written code
     ablation — the design-choice ablations DESIGN.md calls out
     micro   — Bechamel microbenchmarks of simulator primitives (wall clock)

   Times are simulated seconds on the modelled 32-node CM-5 (deterministic;
   absolute values depend on the cost model, shapes are the reproduction
   target — see EXPERIMENTS.md). Run with no arguments for everything
   except micro.

   Options:
     --small       8 procs instead of 32 (quick smoke run)
     --jobs N      worker domains for the experiment grid (default:
                   ACE_JOBS or the domain count; results are identical
                   for any N)
     --json FILE   also write per-experiment wall-clock and simulated
                   seconds as JSON (micro excluded: it has no simulated
                   time)
     --trace FILE  record a representative traced simulation (EM3D on
                   Ace) as Chrome trace-event JSON, and report the
                   traced-vs-untraced wall-clock overhead (also a
                   trace_overhead row in --json)
     --trace-dir D record one trace per grid cell of the selected
                   experiments into D/FIG-ROW-SIDE.trace.json
     --drop P      per-transmission drop probability in [0,1) (default 0)
     --dup P       per-transmission duplication probability (default 0)
     --jitter C    max extra transit cycles per copy (default 0)
     --fault-seed N  RNG seed for the fault model

   The fault flags attach a deterministic fault model to every simulation
   of the selected experiments (the reliable transport retransmits, so
   results stay correct; simulated times change). With none of them given
   the network is perfect and output is bit-identical to older builds.
   The extra selection [faultsweep] runs every benchmark on the Ace
   runtime across drop rates (or just --drop P if given) and reports the
   transport's counters. *)

module E = Ace_harness.Experiments
module T4 = Ace_harness.Table4
module Pool = Ace_harness.Pool
module Faults = Ace_net.Faults

let scale = ref { E.nprocs = 32; factor = 1 }
let scaling_max = ref 1024
let jobs : int option ref = ref None
let json_path : string option ref = ref None
let trace_path : string option ref = ref None
let trace_dir : string option ref = ref None
let critpath_file : string option ref = ref None
let drop = ref 0.
let dup = ref 0.
let jitter = ref 0.
let fault_seed = ref Faults.default_seed
let fault_given = ref false
let batch = ref false

(* Opt-in bulk-transfer batching for the selected experiments; None keeps
   the default grid bit-identical to older builds. *)
let batch_opt () = if !batch then Some true else None

(* The spec for the selected experiments; None when no fault flag was
   given, so the default run stays bit-identical. Validation happens here,
   once, so a bad probability fails before any simulation starts. *)
let fault_spec () =
  if not !fault_given then None
  else
    Some
      (Faults.spec ~drop:!drop ~dup:!dup ~jitter:!jitter ~seed:!fault_seed ())

let line () = print_endline (String.make 72 '=')

(* ---- JSON report accumulator (hand-rolled; no JSON dep in the image) ---- *)

let json_rows : string list ref = ref []

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %.17g round-trips doubles exactly, so the JSON carries the same
   simulated values the determinism tests compare. [messages] adds a
   "net_messages" object of physical message counts (v2 schema). *)
let record ~experiment ~name ~wall ?(messages = []) sims =
  let sim_fields =
    List.map
      (fun (k, v) -> Printf.sprintf "\"%s\": %.17g" (json_escape k) v)
      sims
  in
  let msg_field =
    match messages with
    | [] -> ""
    | ms ->
        Printf.sprintf ", \"net_messages\": {%s}"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "\"%s\": %.0f" (json_escape k) v)
                ms))
  in
  json_rows :=
    Printf.sprintf
      "    {\"experiment\": \"%s\", \"name\": \"%s\", \"wall_s\": %.6f, \"sim_s\": {%s}%s}"
      (json_escape experiment) (json_escape name) wall
      (String.concat ", " sim_fields)
      msg_field
    :: !json_rows

(* The commit the binary was benchmarked from, for baseline comparisons
   (scripts/bench_guard.py); "unknown" outside a git checkout. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, c when c <> "" -> c
    | _ -> "unknown"
  with _ -> "unknown"

let write_json path ~total_wall =
  let oc = open_out path in
  let fault_cfg =
    match fault_spec () with
    | None -> "null"
    | Some s ->
        Printf.sprintf
          "{\"drop\": %.17g, \"dup\": %.17g, \"jitter\": %.17g, \"seed\": %d}"
          s.Faults.drop s.Faults.dup s.Faults.jitter s.Faults.seed
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"ace-bench-v4\",\n\
    \  \"git_commit\": \"%s\",\n\
    \  \"nprocs\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"batch\": %b,\n\
    \  \"faults\": %s,\n\
    \  \"total_wall_s\": %.6f,\n\
    \  \"rows\": [\n%s\n  ]\n}\n"
    (json_escape (git_commit ()))
    !scale.E.nprocs
    (match !jobs with Some j -> j | None -> Pool.default_jobs ())
    !batch fault_cfg total_wall
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ---- figures and tables ---- *)

let fig7a () =
  line ();
  Printf.printf "Figure 7a: Ace runtime system versus CRL (SC protocol, %d procs)\n"
    !scale.E.nprocs;
  line ();
  let rows =
    E.fig7a ~scale:!scale ?jobs:!jobs ?trace_dir:!trace_dir
      ?faults:(fault_spec ()) ?batch:(batch_opt ()) ()
  in
  E.print_rows ~left:"CRL" ~right:"Ace" rows;
  List.iter
    (fun r ->
      record ~experiment:"fig7a" ~name:r.E.name ~wall:r.E.wall
        ~messages:[ ("baseline", r.E.base_msgs); ("ace", r.E.ace_msgs) ]
        [ ("baseline", r.E.baseline); ("ace", r.E.ace) ])
    rows;
  print_newline ()

let fig7b () =
  line ();
  Printf.printf
    "Figure 7b: single (SC) protocol vs application-specific protocols (%d procs)\n"
    !scale.E.nprocs;
  line ();
  let rows =
    E.fig7b ~scale:!scale ?jobs:!jobs ?trace_dir:!trace_dir
      ?faults:(fault_spec ()) ?batch:(batch_opt ()) ()
  in
  E.print_rows ~left:"SC" ~right:"custom" rows;
  List.iter
    (fun r ->
      record ~experiment:"fig7b" ~name:r.E.name ~wall:r.E.wall
        ~messages:[ ("baseline", r.E.base_msgs); ("ace", r.E.ace_msgs) ]
        [ ("baseline", r.E.baseline); ("ace", r.E.ace) ])
    rows;
  let avg =
    List.fold_left (fun a r -> a +. E.speedup r) 0. rows
    /. float_of_int (List.length rows)
  in
  Printf.printf "average speedup: %.2fx (paper: range 1.02-5, average ~2)\n\n" avg

let table4 () =
  line ();
  Printf.printf
    "Table 4: effects of compiler optimizations (simulated seconds, %d procs)\n"
    !scale.E.nprocs;
  line ();
  let rows = T4.table4 ~nprocs:!scale.E.nprocs ?jobs:!jobs ?trace_dir:!trace_dir () in
  T4.print_rows rows;
  List.iter
    (fun r ->
      record ~experiment:"table4" ~name:r.T4.name ~wall:r.T4.wall
        [
          ("base", r.T4.base);
          ("li", r.T4.li);
          ("li_mc", r.T4.li_mc);
          ("li_mc_dc", r.T4.li_mc_dc);
          ("hand", r.T4.hand);
        ])
    rows;
  print_newline ()

(* ---- weak scaling (scaling selection) ---- *)

let scaling_exp () =
  line ();
  Printf.printf
    "Weak scaling to %d nodes: invalidation vs update, directory memory\n"
    !scaling_max;
  line ();
  let nprocs_list =
    List.filter (fun n -> n <= !scaling_max) E.default_scaling_nprocs
  in
  let rows = E.scaling ?jobs:!jobs ~nprocs_list () in
  E.print_scaling_rows rows;
  List.iter
    (fun r ->
      record ~experiment:"scaling"
        ~name:(Printf.sprintf "%s-%s@%d" r.E.sc_bench r.E.sc_proto r.E.sc_nprocs)
        ~wall:r.E.sc_wall
        ~messages:[ ("total", r.E.sc_messages) ]
        [
          ("seconds", r.E.sc_seconds);
          ("dir_words", r.E.sc_dir_words);
          ("regions", r.E.sc_regions);
          ("words_per_region", E.scaling_words_per_region r);
          ("nprocs", float_of_int r.E.sc_nprocs);
        ])
    rows;
  print_newline ()

(* ---- fault sweep (faultsweep selection) ---- *)

let faultsweep () =
  line ();
  Printf.printf
    "Fault sweep: Ace benchmarks on a lossy network (%d procs, seed %d)\n"
    !scale.E.nprocs !fault_seed;
  line ();
  let base = Faults.spec ~dup:!dup ~jitter:!jitter ~seed:!fault_seed () in
  let drops = if !drop > 0. then Some [ 0.0; !drop ] else None in
  let rows = E.fault_sweep ~scale:!scale ?jobs:!jobs ?drops ~base () in
  E.print_fault_rows rows;
  List.iter
    (fun r ->
      record ~experiment:"faultsweep"
        ~name:(Printf.sprintf "%s@%g" r.E.fr_bench r.E.fr_drop)
        ~wall:r.E.fr_wall
        ~messages:
          [
            ("total", r.E.fr_messages);
            ("acks", r.E.fr_acks);
            ("acks_piggybacked", r.E.fr_acks_piggybacked);
            ("acks_cumulative", r.E.fr_acks_cumulative);
          ]
        [
          ("seconds", r.E.fr_seconds);
          ("retransmits", r.E.fr_retransmits);
          ("timeouts", r.E.fr_timeouts);
          ("dup_suppressed", r.E.fr_dup_suppressed);
          ("dropped", r.E.fr_dropped);
          ("giveups", r.E.fr_giveups);
        ])
    rows;
  print_newline ()

(* ---- adaptive serving (serving selection) ----

   The kvserve workload under each fixed candidate protocol and under
   online per-space adaptation; the adaptive row should match or beat the
   best fixed row on physical messages (guarded in CI). With --trace-dir
   the adaptive cell's trace records the protocol-switch instants for
   acetrace. *)

let serving_exp () =
  line ();
  Printf.printf
    "Adaptive serving: fixed protocols vs online adaptation (%d procs)\n"
    !scale.E.nprocs;
  line ();
  let rows =
    E.serving ~scale:!scale ?jobs:!jobs ?batch:(batch_opt ())
      ?trace_dir:!trace_dir ()
  in
  E.print_serving_rows rows;
  List.iter
    (fun r ->
      record ~experiment:"serving" ~name:r.E.sv_mode ~wall:r.E.sv_wall
        ~messages:[ ("total", r.E.sv_messages) ]
        ([
           ("seconds", r.E.sv_seconds);
           ("result", r.E.sv_result);
           ("ok", if r.E.sv_ok then 1. else 0.);
           ("switches", r.E.sv_switches);
         ]
        @ List.map
            (fun (name, n) -> ("residency_" ^ name, n))
            r.E.sv_residency))
    rows;
  List.iter
    (fun r ->
      if not r.E.sv_ok then begin
        Printf.eprintf
          "ERROR: serving mode %s computed %.17g, not the reference total\n"
          r.E.sv_mode r.E.sv_result;
        exit 1
      end)
    rows;
  print_newline ()

(* ---- bulk-transfer batching (batching selection) ---- *)

let batching_exp () =
  line ();
  Printf.printf
    "Bulk-transfer batching: physical messages, batching off vs on (%d procs)\n"
    !scale.E.nprocs;
  line ();
  let rows = E.batching ~scale:!scale ?jobs:!jobs () in
  E.print_batch_rows rows;
  List.iter
    (fun r ->
      record ~experiment:"batching" ~name:r.E.br_bench ~wall:r.E.br_wall
        ~messages:[ ("off", r.E.br_off_msgs); ("on", r.E.br_on_msgs) ]
        [
          ("off", r.E.br_off);
          ("on", r.E.br_on);
          ("coalesced", r.E.br_coalesced);
          ("combined", r.E.br_combined);
          ("reduction", E.batch_reduction r);
        ])
    rows;
  List.iter
    (fun r ->
      if not r.E.br_results_agree then begin
        Printf.eprintf "ERROR: batching changed %s's computed result\n"
          r.E.br_bench;
        exit 1
      end)
    rows;
  print_newline ()

(* ---- ablations (DESIGN.md section 5) ----

   Each ablation compares two independent simulations, so all six cells go
   through the same domain pool as the figures; printing order is fixed. *)

let ablation () =
  line ();
  print_endline "Ablations (DESIGN.md section 5)";
  line ();
  let nprocs = !scale.E.nprocs in
  (* mapping: the "more efficient mapping technique" — rerun EM3D with
     Ace's map and miss costs degraded to CRL's *)
  let run_mapping cost =
    let rt = Ace_runtime.Runtime.create ~cost ~nprocs () in
    Ace_protocols.Proto_lib.register_all rt;
    for _ = 1 to Ace_apps.Em3d.n_spaces do
      ignore (Ace_runtime.Runtime.new_space rt "SC")
    done;
    let module A = Ace_apps.Em3d.Make (Ace_runtime.Ops.Api) in
    let cfg = { Ace_apps.Em3d.default with Ace_apps.Em3d.steps = 5 } in
    Ace_runtime.Runtime.run rt (fun ctx -> ignore (A.run cfg ctx));
    Ace_runtime.Runtime.time_seconds rt
  in
  let crl_costs =
    {
      Ace_net.Cost_model.cm5_ace with
      Ace_net.Cost_model.map_hit =
        Ace_net.Cost_model.cm5_crl.Ace_net.Cost_model.map_hit;
      miss_overhead =
        Ace_net.Cost_model.cm5_crl.Ace_net.Cost_model.miss_overhead;
    }
  in
  (* granularity: user-specified granularity (§2.3): each processor
     repeatedly writes one logical datum. With one datum per region the
     writes are processor-local; with eight data packed into one fixed
     "cache line" region, eight writers false-share the coherence unit and
     it ping-pongs exclusively between them. *)
  let run_granularity ~packed =
    let rt = Ace_runtime.Runtime.create ~nprocs () in
    Ace_protocols.Proto_lib.register_all rt;
    ignore (Ace_runtime.Runtime.new_space rt "SC");
    Ace_runtime.Runtime.run rt (fun ctx ->
        let open Ace_runtime.Ops in
        let my = me ctx in
        let h, slot =
          if packed then begin
            (* processor p writes slot (p mod 8) of region (p / 8), all
               regions homed at node 0 *)
            if my = 0 then
              for _ = 1 to (nprocs ctx + 7) / 8 do
                ignore (alloc ctx ~space:0 ~len:8)
              done;
            barrier ctx ~space:0;
            (map ctx (global_id ctx ~space:0 ~owner:0 ~seq:(my / 8)), my mod 8)
          end
          else begin
            let h = alloc ctx ~space:0 ~len:1 in
            barrier ctx ~space:0;
            (h, 0)
          end
        in
        for _ = 1 to 40 do
          start_write ctx h;
          (data ctx h).(slot) <- (data ctx h).(slot) +. 1.;
          end_write ctx h
        done;
        barrier ctx ~space:0);
    Ace_runtime.Runtime.time_seconds rt
  in
  (* learning window: static update amortization — the learning iterations
     dominate short runs and vanish in long ones *)
  let run_learning steps =
    let rt = Ace_runtime.Runtime.create ~nprocs () in
    Ace_protocols.Proto_lib.register_all rt;
    for _ = 1 to Ace_apps.Em3d.n_spaces do
      ignore (Ace_runtime.Runtime.new_space rt "SC")
    done;
    let module A = Ace_apps.Em3d.Make (Ace_runtime.Ops.Api) in
    let cfg =
      {
        Ace_apps.Em3d.default with
        Ace_apps.Em3d.steps;
        protocol = Some "STATIC_UPDATE";
      }
    in
    Ace_runtime.Runtime.run rt (fun ctx -> ignore (A.run cfg ctx));
    Ace_runtime.Runtime.time_seconds rt
  in
  let cells =
    [|
      Pool.timed (fun () -> run_mapping Ace_net.Cost_model.cm5_ace);
      Pool.timed (fun () -> run_mapping crl_costs);
      Pool.timed (fun () -> run_granularity ~packed:false);
      Pool.timed (fun () -> run_granularity ~packed:true);
      Pool.timed (fun () -> run_learning 3);
      Pool.timed (fun () -> run_learning 12);
    |]
  in
  let out = Pool.run_all ?jobs:!jobs cells in
  let v i = fst out.(i) and w i = snd out.(i) in
  Printf.printf
    "mapping + lean protocol (EM3D): ace=%.6fs, ace-with-CRL-costs=%.6fs (%.2fx)\n"
    (v 0) (v 1) (v 1 /. v 0);
  record ~experiment:"ablation" ~name:"mapping" ~wall:(w 0 +. w 1)
    [ ("ace", v 0); ("ace_with_crl_costs", v 1) ];
  Printf.printf
    "granularity (40 writes/proc): per-datum regions=%.6fs, 8 writers per packed region=%.6fs (%.1fx false-sharing penalty)\n"
    (v 2) (v 3) (v 3 /. v 2);
  record ~experiment:"ablation" ~name:"granularity" ~wall:(w 2 +. w 3)
    [ ("per_datum", v 2); ("packed", v 3) ];
  Printf.printf
    "static-update amortization (EM3D): %.6fs/step at 3 steps vs %.6fs/step at 12\n"
    (v 4 /. 3.) (v 5 /. 12.);
  record ~experiment:"ablation" ~name:"learning_window" ~wall:(w 4 +. w 5)
    [ ("per_step_3", v 4 /. 3.); ("per_step_12", v 5 /. 12.) ];
  print_newline ()

(* ---- tracing overhead (--trace FILE) ----

   Run a representative simulation (EM3D on the Ace runtime) untraced and
   traced, write the trace, and report the wall-clock cost of tracing. The
   simulated seconds must be bit-identical either way — tracing never
   advances a virtual clock — so the row doubles as a determinism check. *)

let trace_overhead out =
  line ();
  Printf.printf "Tracing overhead (EM3D on Ace, %d procs)\n" !scale.E.nprocs;
  line ();
  let nprocs = !scale.E.nprocs in
  let cfg = E.em3d_cfg !scale 3 in
  let module D = Ace_harness.Driver in
  let run trace =
    let t0 = Unix.gettimeofday () in
    let o = D.run_ace ?trace ~nprocs (module Ace_apps.Em3d) cfg in
    (o, Unix.gettimeofday () -. t0)
  in
  let off, wall_off = run None in
  let on_, wall_on = run (Some out) in
  let identical = off.D.seconds = on_.D.seconds in
  Printf.printf
    "untraced: %.3fs wall, traced: %.3fs wall (%+.1f%%); simulated seconds \
     identical: %b\n"
    wall_off wall_on
    (100. *. ((wall_on /. wall_off) -. 1.))
    identical;
  Printf.printf "wrote %s\n\n" out;
  record ~experiment:"trace_overhead" ~name:"em3d-off" ~wall:wall_off
    [ ("seconds", off.D.seconds) ];
  record ~experiment:"trace_overhead" ~name:"em3d-on" ~wall:wall_on
    [ ("seconds", on_.D.seconds) ];
  if not identical then begin
    Printf.eprintf "ERROR: tracing changed simulated time (%.17g vs %.17g)\n"
      off.D.seconds on_.D.seconds;
    exit 1
  end

(* ---- conformance-oracle overhead (check_overhead selection) ----

   Run EM3D on the Ace runtime with and without the coherence oracle
   observing every access section. Recording charges no simulated cycles,
   so simulated seconds and the computed result must be bit-identical; the
   row reports the wall-clock cost of recording (the budget is <5%). *)

let check_overhead () =
  line ();
  Printf.printf "Conformance-oracle overhead (EM3D on Ace, %d procs)\n"
    !scale.E.nprocs;
  line ();
  let nprocs = !scale.E.nprocs in
  let cfg = E.em3d_cfg !scale 3 in
  let module D = Ace_harness.Driver in
  let run wrap =
    let t0 = Unix.gettimeofday () in
    let o = D.run_ace ?wrap ~nprocs (module Ace_apps.Em3d) cfg in
    (o, Unix.gettimeofday () -. t0)
  in
  let off, wall_off = run None in
  let oracle = Ace_check.Oracle.create ~nprocs () in
  let on_, wall_on = run (Some (Ace_check.Observe.wrap oracle)) in
  let identical = off.D.seconds = on_.D.seconds && off.D.result = on_.D.result in
  let overhead = 100. *. ((wall_on /. wall_off) -. 1.) in
  Printf.printf
    "oracle off: %.3fs wall, on: %.3fs wall (%+.1f%%); %d observations; \
     simulated output identical: %b\n\n"
    wall_off wall_on overhead
    (Ace_check.Oracle.observations oracle)
    identical;
  record ~experiment:"check_overhead" ~name:"em3d-off" ~wall:wall_off
    [ ("seconds", off.D.seconds) ];
  record ~experiment:"check_overhead" ~name:"em3d-on" ~wall:wall_on
    [
      ("seconds", on_.D.seconds);
      ("observations", float_of_int (Ace_check.Oracle.observations oracle));
      ("overhead_pct", overhead);
    ];
  if not identical then begin
    Printf.eprintf
      "ERROR: oracle recording changed simulated output (%.17g vs %.17g)\n"
      off.D.seconds on_.D.seconds;
    exit 1
  end;
  if Ace_check.Oracle.observations oracle = 0 then begin
    Printf.eprintf "ERROR: oracle recorded no observations\n";
    exit 1
  end

(* ---- critical-path profiles (critpath selection) ----

   Every benchmark under invalidation and under its application-specific
   protocol, each run with the causal-DAG recorder attached; rows report
   the profile shape (dominant op class, what-if speedups). With
   --trace-dir D each cell's DAG is also written to
   D/critpath-BENCH-PROTO.json for acetrace. *)

let critpath_exp () =
  line ();
  Printf.printf
    "Critical-path profiles: invalidation vs custom protocols (%d procs)\n"
    !scale.E.nprocs;
  line ();
  let rows = E.critpath ~scale:!scale ?jobs:!jobs ?dir:!trace_dir () in
  E.print_critpath_rows rows;
  List.iter
    (fun r ->
      record ~experiment:"critpath"
        ~name:(Printf.sprintf "%s-%s" r.E.cp_bench r.E.cp_proto)
        ~wall:r.E.cp_wall
        ([
           ("seconds", r.E.cp_seconds);
           ("cycles", r.E.cp_cycles);
           ("dag_nodes", float_of_int r.E.cp_nodes);
           ("path_steps", float_of_int r.E.cp_path);
           ("whatif_net_half", r.E.cp_whatif_net);
           ("whatif_send_half", r.E.cp_whatif_send);
         ]
        @ List.map (fun (k, c) -> ("blame_" ^ k, c)) r.E.cp_blame))
    rows;
  print_newline ()

(* ---- critical-path recording overhead (critpath_overhead selection,
        part of the default grid) ----

   Run EM3D on the Ace runtime with and without a causal-DAG recorder
   attached. Recording charges no simulated cycles, so the simulated
   seconds must be bit-identical; the rows report the wall-clock cost of
   recording (the budget is <5%, guarded in CI). The recorded DAG is then
   validated in place: the critical path's blame must total the run's
   simulated time, and the what-if prediction for halving the AM send
   overhead is checked against an actual re-run under the halved cost
   model (within 10%). With --critpath FILE the DAG is also written out
   for acetrace critpath. *)

let critpath_overhead () =
  line ();
  Printf.printf "Critical-path recording overhead (EM3D on Ace, %d procs)\n"
    !scale.E.nprocs;
  line ();
  let nprocs = !scale.E.nprocs in
  let cfg = E.em3d_cfg !scale 3 in
  let module D = Ace_harness.Driver in
  let module Crit = Ace_engine.Crit in
  let module Critpath = Ace_obs.Critpath in
  let module Cm = Ace_net.Cost_model in
  let run ?crit ?cost () =
    let t0 = Unix.gettimeofday () in
    let o = D.run_ace ?crit ?cost ~nprocs (module Ace_apps.Em3d) cfg in
    (o, Unix.gettimeofday () -. t0)
  in
  (* Wall-clock noise on a sub-second run swamps a 5% budget, so each
     variant runs [reps] times and keeps its fastest wall (the simulated
     output is deterministic, so the runs are interchangeable). *)
  let reps = 3 in
  let best f =
    let out = ref None and w = ref infinity in
    for _ = 1 to reps do
      let o, wall = f () in
      if wall < !w then w := wall;
      out := Some o
    done;
    (Option.get !out, !w)
  in
  let off, wall_off = best (fun () -> run ()) in
  let (cr, on_), wall_on =
    best (fun () ->
        let c = Crit.create ~nprocs () in
        let o, w = run ~crit:c () in
        ((c, o), w))
  in
  let identical = off.D.seconds = on_.D.seconds in
  (match !critpath_file with
  | None -> ()
  | Some path ->
      Crit.write_file cr path;
      Printf.printf "wrote %s\n" path);
  let dag = Critpath.of_crit cr in
  let bp = Critpath.blamed_path dag in
  let blame_s = Critpath.total_blame bp /. Cm.cm5_ace.Cm.cycles_per_sec in
  let blame_err =
    if on_.D.seconds > 0. then
      abs_float (blame_s -. on_.D.seconds) /. on_.D.seconds
    else abs_float blame_s
  in
  let half =
    { Cm.cm5_ace with Cm.am_send_overhead = Cm.cm5_ace.Cm.am_send_overhead /. 2. }
  in
  let actual_half, wall_half = best (fun () -> run ~cost:half ()) in
  let _, pred_end, _ = Critpath.predict dag [ E.whatif_send_half ] in
  let pred_s = pred_end /. Cm.cm5_ace.Cm.cycles_per_sec in
  let whatif_err =
    if actual_half.D.seconds > 0. then
      abs_float (pred_s -. actual_half.D.seconds) /. actual_half.D.seconds
    else abs_float pred_s
  in
  Printf.printf
    "recorder off: %.3fs wall, on: %.3fs wall (%+.1f%%); %d dag nodes; \
     simulated seconds identical: %b\n"
    wall_off wall_on
    (100. *. ((wall_on /. wall_off) -. 1.))
    (Critpath.n_nodes dag) identical;
  Printf.printf
    "path blame %.6fs vs simulated %.6fs; halving am_send_overhead: \
     predicted %.6fs vs actual %.6fs (error %.2f%%)\n\n"
    blame_s on_.D.seconds pred_s actual_half.D.seconds (100. *. whatif_err);
  record ~experiment:"critpath_overhead" ~name:"em3d-off" ~wall:wall_off
    [ ("seconds", off.D.seconds) ];
  record ~experiment:"critpath_overhead" ~name:"em3d-on" ~wall:wall_on
    [
      ("seconds", on_.D.seconds);
      ("dag_nodes", float_of_int (Critpath.n_nodes dag));
      ("blame_total_s", blame_s);
      ("predicted_half_send_s", pred_s);
    ];
  record ~experiment:"critpath_overhead" ~name:"em3d-half-send" ~wall:wall_half
    [ ("seconds", actual_half.D.seconds) ];
  if not identical then begin
    Printf.eprintf
      "ERROR: critpath recording changed simulated time (%.17g vs %.17g)\n"
      off.D.seconds on_.D.seconds;
    exit 1
  end;
  if blame_err > 1e-6 then begin
    Printf.eprintf
      "ERROR: critical-path blame %.17g s does not total simulated time %.17g s\n"
      blame_s on_.D.seconds;
    exit 1
  end;
  if whatif_err > 0.10 then begin
    Printf.eprintf
      "ERROR: what-if prediction off by %.1f%% (predicted %.17g, actual %.17g)\n"
      (100. *. whatif_err) pred_s actual_half.D.seconds;
    exit 1
  end

(* ---- combinator identity (combinator selection) ----

   Each row runs one benchmark under a hand-written protocol and under its
   combinator-built re-expression; simulated seconds, checksums and
   physical message counts must be bit-identical (hard error otherwise).
   The dispatch rows then time EM3D wall-clock under hand SC vs DSL_SC
   (best of 3, like the critpath-overhead guard): the simulated output is
   identical, so any wall gap is compiled-dispatch cost — guarded within
   noise by bench_guard.py --combinator-only. *)

let combinator_exp () =
  line ();
  Printf.printf
    "Combinator-built protocols vs hand-written originals (%d procs)\n"
    !scale.E.nprocs;
  line ();
  let rows =
    E.combinator ~scale:!scale ?jobs:!jobs ?faults:(fault_spec ())
      ?batch:(batch_opt ()) ()
  in
  E.print_rows ~left:"hand" ~right:"DSL" rows;
  let bad = ref [] in
  List.iter
    (fun r ->
      let identical =
        r.E.baseline = r.E.ace
        && r.E.base_result = r.E.ace_result
        && r.E.base_msgs = r.E.ace_msgs
      in
      if not identical then bad := r.E.name :: !bad;
      record ~experiment:"combinator" ~name:r.E.name ~wall:r.E.wall
        ~messages:[ ("hand", r.E.base_msgs); ("dsl", r.E.ace_msgs) ]
        [
          ("hand", r.E.baseline);
          ("dsl", r.E.ace);
          ("identical", (if identical then 1. else 0.));
        ])
    rows;
  let nprocs = !scale.E.nprocs in
  let module D = Ace_harness.Driver in
  let cfg p =
    { (E.em3d_cfg !scale 3) with Ace_apps.Em3d.protocol = Some p }
  in
  let best p =
    let reps = 3 in
    let out = ref None and w = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let o = D.run_ace ~nprocs (module Ace_apps.Em3d) (cfg p) in
      let wall = Unix.gettimeofday () -. t0 in
      if wall < !w then w := wall;
      out := Some o
    done;
    (Option.get !out, !w)
  in
  let hand, wall_hand = best "SC" in
  let dsl, wall_dsl = best "DSL_SC" in
  Printf.printf
    "dispatch overhead (EM3D): hand SC %.3fs wall, DSL_SC %.3fs wall \
     (%+.1f%%); simulated seconds identical: %b\n\n"
    wall_hand wall_dsl
    (100. *. ((wall_dsl /. wall_hand) -. 1.))
    (hand.D.seconds = dsl.D.seconds);
  record ~experiment:"combinator" ~name:"dispatch-em3d-hand" ~wall:wall_hand
    [ ("seconds", hand.D.seconds) ];
  record ~experiment:"combinator" ~name:"dispatch-em3d-dsl" ~wall:wall_dsl
    [ ("seconds", dsl.D.seconds) ];
  if hand.D.seconds <> dsl.D.seconds then begin
    Printf.eprintf
      "ERROR: DSL_SC changed EM3D simulated time (%.17g vs %.17g)\n"
      hand.D.seconds dsl.D.seconds;
    exit 1
  end;
  match !bad with
  | [] -> ()
  | names ->
      Printf.eprintf
        "ERROR: combinator-built protocol diverged from hand-written on: %s\n"
        (String.concat ", " (List.rev names));
      exit 1


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
  Printf.eprintf
    "usage: main [fig7a] [fig7b] [table4] [ablation] [batching] [micro] \
     [trace_overhead] [faultsweep] [check_overhead] [scaling] [critpath] \
     [critpath_overhead] [serving] [combinator] [--small] \
     [--nprocs N] [--scaling-max N] [--jobs N] [--json FILE] \
     [--trace FILE] [--trace-dir DIR] [--critpath FILE] [--batch] \
     [--drop P] [--dup P] [--jitter C] [--fault-seed N]\n";
  exit 2

let () =
  (* A larger minor heap suits the simulator's allocation profile (closure
     chains and event records): fewer minor collections, identical
     simulated output. Roughly 20%% off the grid's wall clock. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> []
    | "--small" :: rest ->
        scale := { E.nprocs = 8; factor = 1 };
        parse rest
    | "--nprocs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some p when p >= 2 ->
            scale := { !scale with E.nprocs = p };
            parse rest
        | Some _ | None ->
            Printf.eprintf "--nprocs expects an integer >= 2, got %s\n" n;
            exit 2)
    | "--scaling-max" :: n :: rest -> (
        match int_of_string_opt n with
        | Some p when p >= 2 ->
            scaling_max := p;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--scaling-max expects an integer >= 2, got %s\n" n;
            exit 2)
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j > 0 ->
            jobs := Some j;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
            exit 2)
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        parse rest
    | "--trace-dir" :: dir :: rest ->
        trace_dir := Some dir;
        parse rest
    | "--critpath" :: path :: rest ->
        critpath_file := Some path;
        parse rest
    | "--batch" :: rest ->
        batch := true;
        parse rest
    | (("--drop" | "--dup" | "--jitter") as flag) :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f >= 0. ->
            (match flag with
            | "--drop" -> drop := f
            | "--dup" -> dup := f
            | _ -> jitter := f);
            fault_given := true;
            parse rest
        | Some _ | None ->
            Printf.eprintf "%s expects a non-negative number, got %s\n" flag v;
            exit 2)
    | "--fault-seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s ->
            fault_seed := s;
            fault_given := true;
            parse rest
        | None ->
            Printf.eprintf "--fault-seed expects an integer, got %s\n" v;
            exit 2)
    | [ (("--jobs" | "--json" | "--trace" | "--trace-dir" | "--critpath"
        | "--drop" | "--dup" | "--jitter" | "--fault-seed" | "--nprocs"
        | "--scaling-max") as flag) ]
      ->
        Printf.eprintf "missing argument to %s\n" flag;
        usage ()
    | (("fig7a" | "fig7b" | "table4" | "ablation" | "batching" | "micro"
       | "trace_overhead" | "faultsweep" | "check_overhead" | "scaling"
       | "critpath" | "critpath_overhead" | "serving" | "combinator")
       as s)
      :: rest ->
        s :: parse rest
    | other :: _ ->
        Printf.eprintf "unknown argument %s\n" other;
        usage ()
  in
  let selections = parse args in
  (* fail fast on out-of-range fault probabilities rather than mid-grid *)
  (try ignore (fault_spec ())
   with Invalid_argument m ->
     Printf.eprintf "%s\n" m;
     exit 2);
  (* fail fast on an unwritable report path rather than after the run *)
  (match !json_path with
  | Some p -> (
      try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 p)
      with Sys_error m ->
        Printf.eprintf "cannot write --json file: %s\n" m;
        exit 2)
  | None -> ());
  (match !trace_dir with
  | Some dir when not (Sys.file_exists dir) -> (
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot create --trace-dir: %s\n" (Unix.error_message e);
        exit 2)
  | _ -> ());
  let wants s = selections = [] || List.mem s selections in
  let t0 = Unix.gettimeofday () in
  if wants "fig7a" then fig7a ();
  if wants "fig7b" then fig7b ();
  if wants "table4" then table4 ();
  if wants "ablation" then ablation ();
  if wants "batching" then batching_exp ();
  if wants "critpath_overhead" then critpath_overhead ();
  (match !trace_path with
  | Some out -> trace_overhead out
  | None ->
      if List.mem "trace_overhead" selections then begin
        Printf.eprintf "trace_overhead requires --trace FILE\n";
        exit 2
      end);
  if List.mem "critpath" selections then critpath_exp ();
  if List.mem "faultsweep" selections then faultsweep ();
  if List.mem "check_overhead" selections then check_overhead ();
  if List.mem "scaling" selections then scaling_exp ();
  if List.mem "combinator" selections then combinator_exp ();
  if List.mem "serving" selections then serving_exp ();
  if List.mem "micro" selections then micro ();
  match !json_path with
  | Some path -> write_json path ~total_wall:(Unix.gettimeofday () -. t0)
  | None -> ()
