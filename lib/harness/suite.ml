(* The bench suite: every experiment bench/main.exe can run, registered
   once with the run flags it honours, how to run it, and the gates its
   rows must pass, declared next to each other. *)

module E = Experiments
module Faults = Ace_net.Faults
module Em3d = Ace_apps.Em3d
module Crit = Ace_engine.Crit
module Critpath = Ace_obs.Critpath
module Cm = Ace_net.Cost_model

(* The run flags an experiment may or may not honour; bench/main.exe
   refuses a flag that a selected experiment would ignore. *)
type flag = Scale | Faults | Batch | Trace_dir | Critpath | Scaling_max

type opts = {
  scale : E.scale; (* --small, --nprocs *)
  jobs : int option;
  faults : Faults.spec option; (* --drop, --dup, --jitter, --fault-seed *)
  batch : bool;
  trace : string option; (* trace_overhead's trace file *)
  trace_dir : string option;
  critpath : string option; (* critpath_overhead's DAG file *)
  scaling_max : int;
}

let default_opts =
  {
    scale = E.default_scale;
    jobs = None;
    faults = None;
    batch = false;
    trace = None;
    trace_dir = None;
    critpath = None;
    scaling_max = 1024;
  }

type experiment = {
  name : string;
  title : string;
  default : bool; (* part of the grid a bare bench/main.exe runs *)
  takes : flag list;
  run : opts -> Row.t list;
  derived : (string * (Row.t -> float)) list; (* extra printed columns *)
  gates : opts -> Gate.t list;
}

(* ---- gate shorthands ---- *)

let gate exp name check = { Gate.exp; name; check }

(* Off and on runs of one simulation agree on simulated seconds and on the
   computed result. *)
let same_run exp ~off ~on =
  Gate.Close
    ( 0.,
      [
        (Gate.at exp on (Sim "seconds"), Gate.at exp off (Sim "seconds"));
        (Gate.at exp on (Result "result"), Gate.at exp off (Result "result"));
      ] )

(* The recording-overhead bound: on runs this short, host noise is itself
   several percent, so the wall may exceed the reference by 5% plus an
   absolute 0.15 s. *)
let wall_within exp ~reference row =
  Gate.At_most (Gate.at exp row Wall, [ Gate.at exp reference Wall ], 1.05, 0.15)

(* Every (value, reference) key pair of one row is bit-identical. *)
let row_identical exp row pairs =
  Gate.Close
    ( 0.,
      List.map (fun (field, field') -> (Gate.at exp row field, Gate.at exp row field')) pairs )

(* ---- the EM3D off/on pairs ---- *)

(* EM3D at 3 steps on the Ace runtime: the subject of every recording and
   dispatch-overhead pair. *)
let em3d o ?trace ?wrap ?crit ?cost ?protocol () =
  Driver.run_ace ?trace ?wrap ?crit ?cost ~nprocs:o.scale.E.nprocs (module Em3d)
    { (E.em3d_cfg o.scale 3) with Em3d.protocol }

(* One row from [reps] runs of [f], keeping the fastest wall: the simulated
   output is deterministic, so the runs are interchangeable and the
   minimum filters host noise out of a sub-second run. *)
let measured ?(reps = 1) exp name f =
  let best = ref infinity and out = ref None in
  for _ = 1 to reps do
    let o, wall = Pool.timed f () in
    best := Float.min !best wall;
    out := Some o
  done;
  let o = Option.get !out in
  {
    Row.experiment = exp;
    name;
    wall = !best;
    sims = [ ("seconds", o.Driver.seconds) ];
    msgs = [];
    results = [ ("result", o.Driver.result) ];
  }

(* The pair runner: the "off" side runs to completion before the "on"
   side starts. *)
let pair ?reps exp (off_name, off) (on_name, on) =
  let off = measured ?reps exp off_name off in
  (off, measured ?reps exp on_name on)

let add_sims r sims = { r with Row.sims = r.Row.sims @ sims }

(* ---- ablations (DESIGN.md section 5) ----

   Each ablation compares two independent simulations, so all six cells go
   through the domain pool like the figures. *)

let ablation o =
  let nprocs = o.scale.E.nprocs in
  let module Runtime = Ace_runtime.Runtime in
  let runtime ?cost () =
    let rt = Runtime.create ?cost ~nprocs () in
    Ace_protocols.Proto_lib.register_all rt;
    rt
  in
  let em3d_time ?cost cfg =
    let rt = runtime ?cost () in
    for _ = 1 to Em3d.n_spaces do
      ignore (Runtime.new_space rt "SC")
    done;
    let module A = Em3d.Make (Ace_runtime.Ops.Api) in
    Runtime.run rt (fun ctx -> ignore (A.run cfg ctx));
    Runtime.time_seconds rt
  in
  (* mapping: the "more efficient mapping technique" — rerun EM3D with
     Ace's map and miss costs degraded to CRL's *)
  let run_mapping cost = em3d_time ~cost { Em3d.default with Em3d.steps = 5 } in
  let crl_costs =
    {
      Cm.cm5_ace with
      Cm.map_hit = Cm.cm5_crl.Cm.map_hit;
      miss_overhead = Cm.cm5_crl.Cm.miss_overhead;
    }
  in
  (* granularity: user-specified granularity (§2.3): each processor
     repeatedly writes one logical datum. With one datum per region the
     writes are processor-local; with eight data packed into one fixed
     "cache line" region, eight writers false-share the coherence unit and
     it ping-pongs exclusively between them. *)
  let run_granularity ~packed =
    let rt = runtime () in
    ignore (Runtime.new_space rt "SC");
    Runtime.run rt (fun ctx ->
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
    Runtime.time_seconds rt
  in
  (* learning window: static update amortization — the learning iterations
     dominate short runs and vanish in long ones *)
  let run_learning steps =
    em3d_time { Em3d.default with Em3d.steps; protocol = Some "STATIC_UPDATE" }
  in
  let out =
    Pool.run_all ?jobs:o.jobs
      (Array.map Pool.timed
         [|
           (fun () -> run_mapping Cm.cm5_ace);
           (fun () -> run_mapping crl_costs);
           (fun () -> run_granularity ~packed:false);
           (fun () -> run_granularity ~packed:true);
           (fun () -> run_learning 3);
           (fun () -> run_learning 12);
         |])
  in
  let v i = fst out.(i) and w i = snd out.(i) in
  let row name i ka a kb b =
    {
      Row.experiment = "ablation";
      name;
      wall = w i +. w (i + 1);
      sims = [ (ka, a); (kb, b) ];
      msgs = [];
      results = [];
    }
  in
  [
    row "mapping" 0 "ace" (v 0) "ace_with_crl_costs" (v 1);
    row "granularity" 2 "per_datum" (v 2) "packed" (v 3);
    row "learning_window" 4 "per_step_3" (v 4 /. 3.) "per_step_12" (v 5 /. 12.);
  ]

(* ---- the table ---- *)

let speedup = [ ("speedup", E.speedup) ]
let wall_column = [ ("wall s", fun r -> r.Row.wall) ]
let no_gates _ = []

let experiments =
  [
    {
      name = "fig7a";
      title = "Figure 7a: Ace runtime system versus CRL (SC protocol)";
      default = true;
      takes = [ Scale; Faults; Batch; Trace_dir ];
      run =
        (fun o ->
          E.fig7a ~scale:o.scale ?jobs:o.jobs ?trace_dir:o.trace_dir ?faults:o.faults
            ~batch:o.batch ());
      derived = speedup;
      gates = no_gates;
    };
    {
      name = "fig7b";
      title = "Figure 7b: single (SC) protocol vs application-specific protocols";
      default = true;
      takes = [ Scale; Faults; Batch; Trace_dir ];
      run =
        (fun o ->
          E.fig7b ~scale:o.scale ?jobs:o.jobs ?trace_dir:o.trace_dir ?faults:o.faults
            ~batch:o.batch ());
      derived = speedup;
      gates = no_gates;
    };
    {
      name = "table4";
      title = "Table 4: effects of compiler optimizations, simulated seconds";
      default = true;
      takes = [ Scale; Trace_dir ];
      run =
        (fun o -> Table4.table4 ~nprocs:o.scale.E.nprocs ?jobs:o.jobs ?trace_dir:o.trace_dir ());
      derived = [ ("compiled/hand", fun r -> Row.sim r "li_mc_dc" /. Row.sim r "hand") ];
      (* every optimization level and the hand version compute the same
         answer *)
      gates =
        (fun _ ->
          List.map
            (fun (name, _) ->
              let at k = Gate.at "table4" name (Result k) in
              gate "table4" ("results-agree " ^ name)
                (Close
                   ( 1e-6,
                     List.map (fun k -> (at k, at "base")) [ "li"; "li_mc"; "li_mc_dc"; "hand" ] )))
            Ace_lang.Kernels.all);
    };
    {
      name = "ablation";
      title = "Ablations (DESIGN.md section 5)";
      default = true;
      takes = [ Scale ];
      run = ablation;
      derived = [];
      gates = no_gates;
    };
    {
      name = "batching";
      title = "Bulk-transfer batching: physical messages, batching off vs on";
      default = true;
      takes = [ Scale ];
      run = (fun o -> E.batching ~scale:o.scale ?jobs:o.jobs ());
      derived = [];
      gates =
        (fun _ ->
          List.map
            (fun name ->
              gate "batching" ("results-unchanged " ^ name)
                (row_identical "batching" name [ (Result "on", Result "off") ]))
            [
              "Barnes-Hut (dyn update)";
              "BSC (write-once)";
              "EM3D (static update)";
              "TSP (counter)";
              "Water (null+pipeline)";
            ]);
    };
    (* The recorded DAG is validated in place: the critical path's blame
       must total the run's simulated time, and the what-if prediction for
       halving the AM send overhead must land within 10% of an actual
       re-run under the halved cost model. *)
    {
      name = "critpath_overhead";
      title = "Critical-path recording overhead (EM3D on Ace)";
      default = true;
      takes = [ Scale; Critpath ];
      run =
        (fun o ->
          let exp = "critpath_overhead" in
          let recorder = ref None in
          let off, on =
            pair ~reps:3 exp
              ("em3d-off", fun () -> em3d o ())
              ( "em3d-on",
                fun () ->
                  let cr = Crit.create ~nprocs:o.scale.E.nprocs () in
                  recorder := Some cr;
                  em3d o ~crit:cr () )
          in
          let half =
            { Cm.cm5_ace with Cm.am_send_overhead = Cm.cm5_ace.Cm.am_send_overhead /. 2. }
          in
          let half = measured ~reps:3 exp "em3d-half-send" (fun () -> em3d o ~cost:half ()) in
          let cr = Option.get !recorder in
          Option.iter
            (fun path ->
              Crit.write_file cr path;
              Printf.printf "wrote %s\n" path)
            o.critpath;
          let dag = Critpath.of_crit cr in
          let _, pred_end, _ = Critpath.predict dag [ E.whatif_send_half ] in
          let cycles_per_sec = Cm.cm5_ace.Cm.cycles_per_sec in
          [
            off;
            add_sims on
              [
                ("dag_nodes", float_of_int (Critpath.n_nodes dag));
                ( "blame_total_s",
                  Critpath.total_blame (Critpath.blamed_path dag) /. cycles_per_sec );
                ("predicted_half_send_s", pred_end /. cycles_per_sec);
              ];
            half;
          ]);
      derived = wall_column;
      gates =
        (fun _ ->
          let exp = "critpath_overhead" in
          let on k = Gate.at exp "em3d-on" (Sim k) in
          [
            gate exp "recorder-identical" (same_run exp ~off:"em3d-off" ~on:"em3d-on");
            gate exp "blame-total" (Close (1e-6, [ (on "blame_total_s", on "seconds") ]));
            gate exp "whatif-send-half"
              (Close
                 ( 0.10,
                   [ (on "predicted_half_send_s", Gate.at exp "em3d-half-send" (Sim "seconds")) ]
                 ));
            gate exp "recorder-wall" (wall_within exp ~reference:"em3d-off" "em3d-on");
          ]);
    };
    (* Tracing never advances a virtual clock, so the traced run doubles
       as a determinism check; requires a trace file. *)
    {
      name = "trace_overhead";
      title = "Tracing overhead (EM3D on Ace)";
      default = false;
      takes = [ Scale ];
      run =
        (fun o ->
          let trace = Option.get o.trace in
          let off, on =
            pair "trace_overhead"
              ("em3d-off", fun () -> em3d o ())
              ("em3d-on", fun () -> em3d o ~trace ())
          in
          Printf.printf "wrote %s\n" trace;
          [ off; on ]);
      derived = wall_column;
      gates =
        (fun _ ->
          [
            gate "trace_overhead" "trace-identical"
              (same_run "trace_overhead" ~off:"em3d-off" ~on:"em3d-on");
          ]);
    };
    {
      name = "critpath";
      title = "Critical-path profiles: invalidation vs custom protocols";
      default = false;
      takes = [ Scale; Trace_dir ];
      run = (fun o -> E.critpath ~scale:o.scale ?jobs:o.jobs ?dir:o.trace_dir ());
      derived = [];
      gates = no_gates;
    };
    {
      name = "faultsweep";
      title = "Fault sweep: Ace benchmarks on a lossy network";
      default = false;
      takes = [ Scale; Faults ];
      run =
        (fun o ->
          (* --drop P sweeps {0, P}; the other knobs and the seed apply to
             every rate *)
          let base = Option.value o.faults ~default:(Faults.spec ()) in
          let drops = if base.Faults.drop > 0. then Some [ 0.0; base.Faults.drop ] else None in
          E.fault_sweep ~scale:o.scale ?jobs:o.jobs ?drops ~base ());
      derived = [];
      gates = no_gates;
    };
    (* Oracle recording charges no simulated cycles. *)
    {
      name = "check_overhead";
      title = "Conformance-oracle overhead (EM3D on Ace)";
      default = false;
      takes = [ Scale ];
      run =
        (fun o ->
          let oracle = Ace_check.Oracle.create ~nprocs:o.scale.E.nprocs () in
          let off, on =
            pair "check_overhead"
              ("em3d-off", fun () -> em3d o ())
              ("em3d-on", fun () -> em3d o ~wrap:(Ace_check.Observe.wrap oracle) ())
          in
          [
            off;
            add_sims on
              [
                ("observations", float_of_int (Ace_check.Oracle.observations oracle));
                ("overhead_pct", 100. *. ((on.Row.wall /. off.Row.wall) -. 1.));
              ];
          ]);
      derived = wall_column;
      gates =
        (fun _ ->
          let exp = "check_overhead" in
          [
            gate exp "oracle-identical" (same_run exp ~off:"em3d-off" ~on:"em3d-on");
            gate exp "oracle-observations"
              (Above (Gate.at exp "em3d-on" (Sim "observations"), 0.));
          ]);
    };
    (* Directory memory per region must not grow with the machine for the
       sparsely-shared benchmarks: a slope at or above 0.25 words per added
       processor means the compact directory regressed to O(nprocs) state
       per region. Barnes-Hut is exempt: every node genuinely caches every
       body. *)
    {
      name = "scaling";
      title = "Weak scaling: invalidation vs update, directory memory";
      default = false;
      takes = [ Scaling_max ];
      run =
        (fun o ->
          E.scaling ?jobs:o.jobs
            ~nprocs_list:(List.filter (fun n -> n <= o.scaling_max) E.default_scaling_nprocs)
            ());
      derived = [];
      gates =
        (fun o ->
          let sizes = List.filter (fun n -> n <= o.scaling_max) E.default_scaling_nprocs in
          if List.length sizes < 2 then []
          else
            List.map
              (fun (bench, proto) ->
                gate "scaling"
                  (Printf.sprintf "words-per-region-slope %s-%s" bench proto)
                  (Slope_below
                     ( "scaling",
                       List.map (E.scaling_name bench proto) sizes,
                       Sim "nprocs",
                       Sim "words_per_region",
                       0.25 )))
              [ ("EM3D", "inval"); ("EM3D", "update"); ("BSC", "inval") ]);
    };
    (* Each identity row runs one benchmark under a hand-written protocol
       and under its combinator-built re-expression. The dispatch rows time
       EM3D under hand SC vs DSL_SC: the simulated output is identical, so
       any wall gap is compiled-dispatch cost. *)
    {
      name = "combinator";
      title = "Combinator-built protocols vs hand-written originals";
      default = false;
      takes = [ Scale; Faults; Batch ];
      run =
        (fun o ->
          let rows =
            E.combinator ~scale:o.scale ?jobs:o.jobs ?faults:o.faults ~batch:o.batch ()
          in
          let hand, dsl =
            pair ~reps:3 "combinator"
              ("dispatch-em3d-hand", fun () -> em3d o ~protocol:"SC" ())
              ("dispatch-em3d-dsl", fun () -> em3d o ~protocol:"DSL_SC" ())
          in
          rows @ [ hand; dsl ]);
      derived = [ ("speedup", fun r -> Row.sim r "hand" /. Row.sim r "dsl") ] @ wall_column;
      gates =
        (fun _ ->
          let exp = "combinator" in
          List.map
            (fun name ->
              gate exp ("identity " ^ name)
                (row_identical exp name
                   [
                     (Sim "dsl", Sim "hand"); (Msgs "dsl", Msgs "hand"); (Result "dsl", Result "hand");
                   ]))
            [
              "EM3D / SC";
              "Barnes-Hut / SC";
              "Water / SC";
              "BSC / SC";
              "TSP / SC";
              "EM3D / MIGRATORY";
              "Barnes-Hut / MIGRATORY";
              "Water / MIGRATORY";
              "BSC / WRITE_ONCE";
            ]
          @ [
              gate exp "dispatch-identical"
                (same_run exp ~off:"dispatch-em3d-hand" ~on:"dispatch-em3d-dsl");
              gate exp "dispatch-wall"
                (wall_within exp ~reference:"dispatch-em3d-hand" "dispatch-em3d-dsl");
            ]);
    };
    (* With --trace-dir the adaptive cell's trace records the
       protocol-switch instants for acetrace. *)
    {
      name = "serving";
      title = "Adaptive serving: fixed protocols vs online adaptation";
      default = false;
      takes = [ Scale; Batch; Trace_dir ];
      run =
        (fun o ->
          E.serving ~scale:o.scale ?jobs:o.jobs ~batch:o.batch ?trace_dir:o.trace_dir ());
      derived = [];
      gates =
        (fun o ->
          let exp = "serving" and modes = E.serving_fixed @ [ "adaptive" ] in
          let adaptive k = Gate.at exp "adaptive" k in
          List.map
            (fun m ->
              gate exp ("computes-reference " ^ m) (Above (Gate.at exp m (Sim "ok"), 0.)))
            modes
          @ [ gate exp "adaptive-switched" (Above (adaptive (Sim "switches"), 0.)) ]
          (* The message claim is scale-scoped: at 32 procs DYN_UPDATE's
             push fan-out grows with the sharer population and adaptation
             loses on messages by design, so the claim is gated on the
             8-processor configuration it is made for. *)
          @
          if o.scale.E.nprocs <> 8 then []
          else
            [
              gate exp "adaptive-messages"
                (At_most
                   ( adaptive (Msgs "total"),
                     List.map (fun m -> Gate.at exp m (Msgs "total")) E.serving_fixed,
                     1.0,
                     0. ));
            ]);
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) experiments

(* ---- gates against a baseline report ---- *)

(* [against ~current ~baseline] compares a run with a committed baseline,
   each given as its rows and total wall. Every row the two share must
   reproduce each of the baseline's simulated values and message counts
   bit for bit, and the total wall may exceed the baseline's by at most
   15%. Returns the gates and the extra rows they read: the baseline's
   rows under experiment "baseline/EXP", and both totals. *)
let against ~current:(rows, total) ~baseline:(base_rows, base_total) =
  let total_row exp wall =
    { Row.experiment = exp; name = "total"; wall; sims = []; msgs = []; results = [] }
  in
  let identity (r : Row.t) =
    List.find_opt
      (fun (b : Row.t) -> b.experiment = r.experiment && b.name = r.name)
      base_rows
    |> Option.map (fun (b : Row.t) ->
           let keys field kvs =
             List.map
               (fun (k, _) ->
                 ( Gate.at r.experiment r.name (field k),
                   Gate.at ("baseline/" ^ r.experiment) r.name (field k) ))
               kvs
           in
           gate "baseline"
             (Printf.sprintf "identity %s/%s" r.experiment r.name)
             (Close (0., keys (fun k -> Gate.Sim k) b.sims @ keys (fun k -> Gate.Msgs k) b.msgs)))
  in
  ( List.filter_map identity rows
    @ [
        gate "baseline" "total-wall"
          (At_most (Gate.at "run" "total" Wall, [ Gate.at "baseline/run" "total" Wall ], 1.15, 0.));
      ],
    total_row "run" total
    :: total_row "baseline/run" base_total
    :: List.map (fun (b : Row.t) -> { b with experiment = "baseline/" ^ b.experiment }) base_rows )
