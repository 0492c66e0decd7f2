(* The benchmark's four workloads. Why each was chosen, and which layer
   metric each is expected to move, is recorded in README.md. Every cell
   is one unit of checked work: a simulation cell, whose outputs run.py
   compares with reference.json, or, on fuzz-check, one generated program
   certified by Ace_check.Runner. *)

module E = Ace_harness.Experiments
module Driver = Ace_harness.Driver
module Em3d = Ace_apps.Em3d
module Barnes_hut = Ace_apps.Barnes_hut
module Cholesky = Ace_apps.Cholesky
module Tsp = Ace_apps.Tsp
module Water = Ace_apps.Water
module Crit = Ace_engine.Crit
module Trace = Ace_engine.Trace
module Critpath = Ace_obs.Critpath
module Prog = Ace_check.Prog
module Runner = Ace_check.Runner
module Faults = Ace_net.Faults
module Cm = Ace_net.Cost_model

(* A cell's simulated outputs, compared bit-for-bit with the reference.
   [extra] carries workload-specific outputs checked the same way. *)
type out = {
  sim_s : float;
  messages : float;
  result : float;
  extra : (string * float) list;
}

type cell = { name : string; run : unit -> out }

type t = {
  name : string;
  nprocs : int; (* largest machine simulated: the engine probes' size *)
  sizes : (string * string) list;
  cells : unit -> cell array; (* called once per pass, inside its wall *)
  facade_calls : int option;
      (* facade calls per pass when they depend on the seed; those of the
         fixed workloads are in the reference *)
}

let measured run () =
  let m0 = Sim.acc.messages in
  let (o : Driver.outcome) = run () in
  {
    sim_s = o.seconds;
    messages = Sim.acc.messages -. m0;
    result = o.result;
    extra = [];
  }

let cell name run = { name; run = measured run }

(* ---- paper-grid: the §5 grid at 32 procs ---- *)

let per_iteration run = Driver.per_iteration ~run_with_steps:run ~iters:4

let tsp_avg run =
  let t, r = E.tsp_avg run in
  { Driver.seconds = t; result = r }

(* The five applications on CRL-SC, Ace-SC and Ace with the paper's custom
   protocol, built exactly as Experiments.fig7a/fig7b build them. Fig. 7a
   compares the first two sides and Fig. 7b the last two; the Ace-SC cell
   is shared, so each simulation runs once per pass. *)
let fig7_cells (scale : E.scale) =
  let nprocs = scale.nprocs in
  let ace m cfg = Sim.run_ace ~nprocs m cfg in
  let crl m cfg = Sim.run_crl ~nprocs m cfg in
  let bh p s = { (E.bh_cfg scale s) with Barnes_hut.protocol = p } in
  let bsc p = { (E.bsc_cfg scale) with Cholesky.protocol = p } in
  let em3d p s = { (E.em3d_cfg scale s) with Em3d.protocol = p } in
  let tsp p cfg = { cfg with Tsp.counter_protocol = p } in
  let water p s = { (E.water_cfg scale s) with Water.phase_protocols = p } in
  [
    cell "fig7/crl/Barnes-Hut" (fun () ->
        per_iteration (fun s -> crl (module Barnes_hut) (bh None s)));
    cell "fig7/crl/BSC" (fun () -> crl (module Cholesky) (bsc None));
    cell "fig7/crl/EM3D" (fun () ->
        per_iteration (fun s -> crl (module Em3d) (em3d None s)));
    cell "fig7/crl/TSP" (fun () -> tsp_avg (fun c -> crl (module Tsp) (tsp None c)));
    cell "fig7/crl/Water" (fun () ->
        per_iteration (fun s -> crl (module Water) (water None s)));
    cell "fig7/ace-sc/Barnes-Hut" (fun () ->
        per_iteration (fun s -> ace (module Barnes_hut) (bh None s)));
    cell "fig7/ace-sc/BSC" (fun () -> ace (module Cholesky) (bsc None));
    cell "fig7/ace-sc/EM3D" (fun () ->
        per_iteration (fun s -> ace (module Em3d) (em3d None s)));
    cell "fig7/ace-sc/TSP" (fun () -> tsp_avg (fun c -> ace (module Tsp) (tsp None c)));
    cell "fig7/ace-sc/Water" (fun () ->
        per_iteration (fun s -> ace (module Water) (water None s)));
    cell "fig7/ace-custom/Barnes-Hut" (fun () ->
        per_iteration (fun s -> ace (module Barnes_hut) (bh (Some "DYN_UPDATE") s)));
    cell "fig7/ace-custom/BSC" (fun () ->
        ace (module Cholesky) (bsc (Some "WRITE_ONCE")));
    cell "fig7/ace-custom/EM3D" (fun () ->
        per_iteration (fun s -> ace (module Em3d) (em3d (Some "STATIC_UPDATE") s)));
    cell "fig7/ace-custom/TSP" (fun () ->
        tsp_avg (fun c -> ace (module Tsp) (tsp (Some "COUNTER") c)));
    cell "fig7/ace-custom/Water" (fun () ->
        per_iteration (fun s ->
            ace (module Water) (water (Some ("NULL", "PIPELINE")) s)));
  ]

(* Table 4: each MiniAce kernel compiled at the four optimization levels
   (base, LI, LI+MC, LI+MC+direct calls) plus the hand-written version. *)
let table4_levels =
  [
    ("base", Ace_lang.Opt.O0);
    ("li", Ace_lang.Opt.O1);
    ("li_mc", Ace_lang.Opt.O2);
    ("li_mc_dc", Ace_lang.Opt.O3);
  ]

let table4_cells ~nprocs =
  List.concat_map
    (fun (kernel, source) ->
      List.map
        (fun (level_name, level) ->
          cell
            (Printf.sprintf "table4/%s/%s" kernel level_name)
            (fun () -> Sim.run_compiled ~nprocs ~level source))
        table4_levels
      @ [
          cell
            (Printf.sprintf "table4/%s/hand" kernel)
            (fun () -> Sim.run_hand ~nprocs kernel);
        ])
    Ace_lang.Kernels.all

(* The tiny size of the self-test: bench/main.ml's --small machine. *)
let scale ~tiny = if tiny then { E.nprocs = 8; factor = 1 } else E.default_scale

let paper_grid ~tiny =
  let scale = scale ~tiny in
  let cells = Array.of_list (fig7_cells scale @ table4_cells ~nprocs:scale.nprocs) in
  {
    name = "paper-grid";
    nprocs = scale.nprocs;
    sizes =
      [
        ("nprocs", string_of_int scale.nprocs);
        ("fig7_cells", "15 (5 apps x CRL-SC, Ace-SC, Ace-custom)");
        ("table4_cells", "25 (5 kernels x base, li, li_mc, li_mc_dc, hand)");
      ];
    cells = (fun () -> cells);
    facade_calls = None;
  }

(* ---- weak-256: weak-scaled EM3D and Barnes-Hut ---- *)

(* The configurations of Experiments.scaling: 8 EM3D nodes and 2
   Barnes-Hut bodies per processor. *)
let weak ~tiny =
  let nprocs = if tiny then 16 else 256 in
  let em3d p = { Em3d.default with Em3d.n_nodes = 8 * nprocs; steps = 2; protocol = p } in
  let bh p = { Barnes_hut.default with Barnes_hut.n_bodies = 2 * nprocs; steps = 1; protocol = p } in
  let cells =
    [|
      cell "em3d-inval" (fun () -> Sim.run_ace ~nprocs (module Em3d) (em3d None));
      cell "em3d-update" (fun () ->
          Sim.run_ace ~nprocs (module Em3d) (em3d (Some "STATIC_UPDATE")));
      cell "barnes-hut-inval" (fun () ->
          Sim.run_ace ~nprocs (module Barnes_hut) (bh None));
    |]
  in
  {
    name = "weak-256";
    nprocs;
    sizes =
      [
        ("nprocs", string_of_int nprocs);
        ("em3d_nodes", string_of_int (8 * nprocs));
        ("em3d_steps", "2");
        ("bh_bodies", string_of_int (2 * nprocs));
        ("bh_steps", "1");
      ];
    cells = (fun () -> cells);
    facade_calls = None;
  }

(* ---- fuzz-check: one conformance-fuzz round ---- *)

(* acecheck's defaults: its mild lossy-network cell, batching off and on. *)
let fault_specs = [ Faults.spec ~drop:0.03 ~dup:0.02 ~jitter:25. ~seed:11 () ]
let batch_modes = [ false; true ]

(* Simulations Runner.check_prog runs for a clean program: the SC/FIFO
   reference (skipped for racy increment programs, whose heap is
   predicted), then [schedules] cells if any protocol admits it. *)
let check_cells ~schedules p =
  let f = Prog.features p in
  let protos = List.filter (Prog.admits f) Runner.default_protocols in
  (if f.Prog.incr then 0 else 1) + if protos = [] then 0 else schedules

(* Facade calls one simulation of [p] makes: Prog.interp's calls do not
   depend on the backend or the protocol, so they are counted once, on
   the SC reference backend, through the tracer. *)
let count_calls p =
  let tr = Tracer.create () in
  let rt = Ace_runtime.Runtime.create ~nprocs:p.Prog.nprocs () in
  Ace_protocols.Proto_lib.register_all rt;
  Ace_combinator.Library.register_all rt;
  ignore (Ace_runtime.Runtime.new_space rt "SC");
  let facade =
    Tracer.wrap tr
      (module Ace_runtime.Ops.Api : Ace_region.Dsm_intf.S
        with type ctx = Ace_runtime.Protocol.ctx
         and type h = Ace_region.Store.meta)
  in
  Tracer.start_sim tr ~name:"count" ~backend:Tracer.Ace ~nprocs:p.Prog.nprocs
    ~ts:(Tracer.now ());
  Ace_runtime.Runtime.run rt (fun ctx ->
      ignore (Prog.interp facade ~flush_to:"SC" p ctx));
  Tracer.total_calls tr Tracer.Ace

let generate ~seed ~programs =
  let st = Random.State.make [| seed |] in
  Array.init programs (fun _ -> Prog.generate () st)

(* The round certifies the seed's programs in order until they have made
   [budget] facade calls, so every seed's round is about the same amount
   of work; the count is taken here, before any pass. *)
let fuzz ~tiny ~seed =
  let schedules = if tiny then 4 else 32 in
  let budget = if tiny then 3_000 else 1_400_000 in
  let sims, calls =
    (* per program: the simulations check_prog runs *)
    let st = Random.State.make [| seed |] in
    let rec go sims calls =
      if calls >= budget then (Array.of_list (List.rev sims), calls)
      else
        let p = Prog.generate () st in
        let n = check_cells ~schedules p in
        go (n :: sims) (calls + (count_calls p * n))
    in
    go [] 0
  in
  let programs = Array.length sims in
  let cells () =
    let progs =
      Sim.stage
        (fun ns ->
          Sim.acc.generate_ns <- Sim.acc.generate_ns + ns;
          Sim.acc.setup_ns <- Sim.acc.setup_ns + ns)
        (fun () -> generate ~seed ~programs)
    in
    Array.mapi
      (fun i p ->
        {
          name = Printf.sprintf "program-%d" i;
          run =
            (fun () ->
              let verdict =
                Sim.stage
                  (fun ns -> Sim.acc.check_ns <- Sim.acc.check_ns + ns)
                  (fun () ->
                    Runner.check_prog ~schedules ~fault_specs ~batch_modes p)
              in
              match verdict with
              | None ->
                  Sim.acc.sims <- Sim.acc.sims + sims.(i);
                  { sim_s = 0.; messages = 0.; result = 0.; extra = [] }
              | Some fl ->
                  failwith
                    (Printf.sprintf "%s: %s"
                       (Runner.cell_to_string fl.Runner.cell)
                       fl.Runner.reason));
        })
      progs
  in
  {
    name = "fuzz-check";
    nprocs = 4;
    sizes =
      [
        ("programs", string_of_int programs);
        ("facade_call_budget", string_of_int budget);
        ("schedules", string_of_int schedules);
        ("fault_specs", "drop=0.03,dup=0.02,jitter=25,seed=11");
        ("batch_modes", "off,on");
        ("protocols", String.concat "," Runner.default_protocols);
      ];
    cells;
    facade_calls = Some calls;
  }

(* ---- profile-em3d: EM3D with the recorders attached ---- *)

(* The critpath_overhead cell of bench/main.ml: EM3D, 3 steps, with the
   causal-DAG recorder and the event tracer attached; afterwards the
   blamed path and one what-if (AM send overhead halved). *)
let profile ~tiny =
  let scale = scale ~tiny in
  let nprocs = scale.nprocs in
  let cfg = E.em3d_cfg scale 3 in
  let run () =
    let cr, tr =
      Sim.stage
        (fun ns -> Sim.acc.setup_ns <- Sim.acc.setup_ns + ns)
        (fun () -> (Crit.create ~nprocs (), Trace.create ()))
    in
    let m0 = Sim.acc.messages in
    let o = Sim.run_profiled ~crit:cr ~trace:tr ~nprocs cfg in
    let dag, bp =
      Sim.stage
        (fun ns -> Sim.acc.critpath_ns <- Sim.acc.critpath_ns + ns)
        (fun () ->
          let dag = Critpath.of_crit cr in
          (dag, Critpath.blamed_path dag))
    in
    let _, predicted, _ =
      Sim.stage
        (fun ns -> Sim.acc.whatif_ns <- Sim.acc.whatif_ns + ns)
        (fun () -> Critpath.predict dag [ E.whatif_send_half ])
    in
    let cps = Cm.cm5_ace.Cm.cycles_per_sec in
    {
      sim_s = o.Driver.seconds;
      messages = Sim.acc.messages -. m0;
      result = o.Driver.result;
      extra =
        [
          ("dag_nodes", float (Critpath.n_nodes dag));
          ("blame_total_s", Critpath.total_blame bp /. cps);
          ("predicted_half_send_s", predicted /. cps);
          ("trace_events", float (Trace.n_events tr));
        ];
    }
  in
  {
    name = "profile-em3d";
    nprocs;
    sizes =
      [
        ("nprocs", string_of_int nprocs);
        ("em3d_nodes", string_of_int cfg.Em3d.n_nodes);
        ("em3d_steps", "3");
      ];
    cells = (fun () -> [| { name = "em3d-profiled"; run } |]);
    facade_calls = None;
  }

(* The profiled simulation alone, with the recorders asked for: the
   recorders' costs are differences between these runs. Returns the
   recordings. *)
let profile_sim ~tiny ~crit ~trace () =
  let scale = scale ~tiny in
  let nprocs = scale.nprocs in
  let crit = if crit then Some (Crit.create ~nprocs ()) else None in
  let trace = if trace then Some (Trace.create ()) else None in
  ignore (Sim.run_profiled ?crit ?trace ~nprocs (E.em3d_cfg scale 3));
  (crit, trace)

let names = [ "paper-grid"; "weak-256"; "fuzz-check"; "profile-em3d" ]

let find ~tiny ~seed = function
  | "paper-grid" -> Some (paper_grid ~tiny)
  | "weak-256" -> Some (weak ~tiny)
  | "fuzz-check" -> Some (fuzz ~tiny ~seed)
  | "profile-em3d" -> Some (profile ~tiny)
  | _ -> None
