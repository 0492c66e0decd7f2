(* Simulation runners. The applications run through Driver.run_ace and
   Driver.run_crl, the libraries' entry points; their [wrap] hook marks
   the end of set-up, so set-up (constructors, protocol registration,
   space creation) is timed apart from the simulated run. The profiled
   EM3D cell and the table4 kernels are built here instead; the comments
   on them say why. Host times and work counts are summed into [acc] for the pass in progress. With a
   [tracer] installed the application is compiled against the tracing
   facade instead. *)

module Machine = Ace_engine.Machine
module Stats = Ace_engine.Stats
module Runtime = Ace_runtime.Runtime
module Ops = Ace_runtime.Ops
module Protocol = Ace_runtime.Protocol
module Store = Ace_region.Store
module Driver = Ace_harness.Driver

let now = Tracer.now

type acc = {
  mutable setup_ns : int; (* everything before each simulation's first event *)
  mutable compile_ns : int; (* Compile.compile, within setup *)
  mutable generate_ns : int; (* Prog.generate, within setup *)
  mutable sim_ns : int; (* simulations run through the DSM facade *)
  mutable interp_ns : int; (* acelang programs under Interp.run_spmd *)
  mutable direct_ns : int; (* hand-written Ops programs (no facade) *)
  mutable check_ns : int; (* Runner.check_prog rounds *)
  mutable critpath_ns : int; (* Critpath.of_crit + blamed_path *)
  mutable whatif_ns : int; (* Critpath.predict *)
  mutable sims : int;
  mutable messages : float;
  mutable fmessages : float; (* messages of the facade simulations *)
  mutable bytes : float;
  mutable misses : float;
  mutable invals : float;
}

let acc =
  {
    setup_ns = 0;
    compile_ns = 0;
    generate_ns = 0;
    sim_ns = 0;
    interp_ns = 0;
    direct_ns = 0;
    check_ns = 0;
    critpath_ns = 0;
    whatif_ns = 0;
    sims = 0;
    messages = 0.;
    fmessages = 0.;
    bytes = 0.;
    misses = 0.;
    invals = 0.;
  }

let reset () =
  acc.setup_ns <- 0;
  acc.compile_ns <- 0;
  acc.generate_ns <- 0;
  acc.sim_ns <- 0;
  acc.interp_ns <- 0;
  acc.direct_ns <- 0;
  acc.check_ns <- 0;
  acc.critpath_ns <- 0;
  acc.whatif_ns <- 0;
  acc.sims <- 0;
  acc.messages <- 0.;
  acc.fmessages <- 0.;
  acc.bytes <- 0.;
  acc.misses <- 0.;
  acc.invals <- 0.

(* Host time of every stage a pass is made of; the traced run checks that
   these (with app and runtime self time splitting [sim_ns]) sum to the
   pass's wall. *)
let stages_ns a =
  a.setup_ns + a.sim_ns + a.interp_ns + a.direct_ns + a.check_ns
  + a.critpath_ns + a.whatif_ns

let tracer : Tracer.t option ref = ref None

(* Name of the cell in progress, for the tracer's simulation spans. *)
let cell_name = ref ""

let fam_inval = Stats.fam "coh.inval.by_space"

let record_stats st =
  acc.sims <- acc.sims + 1;
  acc.messages <- acc.messages +. Stats.get st "net.messages";
  acc.bytes <- acc.bytes +. Stats.get st "net.bytes";
  acc.misses <-
    acc.misses +. Stats.get st "coh.read_miss" +. Stats.get st "coh.write_miss";
  acc.invals <-
    List.fold_left (fun a (_, v) -> a +. v) acc.invals (Stats.dim_cells st fam_inval)

(* With a tracer installed: [App] with each fiber's start and end marked
   as timeline boundaries, and the facade wrapped so every call is a span.
   Without one, both are the identity. *)
let app (type cfg) (module App : Driver.APP with type config = cfg) :
    (module Driver.APP with type config = cfg) =
  match !tracer with
  | None -> (module App)
  | Some tr ->
      (module struct
        type config = cfg

        let n_spaces = App.n_spaces

        module Make (D : Ace_region.Dsm_intf.S) = struct
          module A = App.Make (D)

          let run cfg ctx =
            let p = D.me ctx in
            Tracer.fiber_start tr p;
            let r = A.run cfg ctx in
            Tracer.fiber_end tr p;
            r
        end
      end)

let facade (type c)
    (f : (module Ace_region.Dsm_intf.S with type ctx = c and type h = Store.meta))
    =
  match !tracer with None -> f | Some tr -> Tracer.wrap tr f

(* Set-up ran from [t0] to [t1]; the simulation's first event follows. *)
let start_sim ~backend ~nprocs t1 =
  Option.iter
    (fun tr -> Tracer.start_sim tr ~name:!cell_name ~backend ~nprocs ~ts:t1)
    !tracer

let stop_sim ~t0 ~t1 stats =
  let t2 = now () in
  Option.iter (fun tr -> Tracer.stop_sim tr ~ts:t2) !tracer;
  acc.setup_ns <- acc.setup_ns + (t1 - t0);
  acc.sim_ns <- acc.sim_ns + (t2 - t1);
  let m0 = acc.messages in
  record_stats stats;
  acc.fmessages <- acc.fmessages +. acc.messages -. m0

(* Driver.run_ace and Driver.run_crl call their [wrap] hook once set-up
   (runtime, protocol registration, spaces) is done and before the first
   event: that call marks the end of set-up, and returns the tracing
   facade when a tracer is installed. *)
let end_of_setup ~backend ~nprocs t1 f =
  t1 := now ();
  start_sim ~backend ~nprocs !t1;
  facade f

let run_ace (type cfg) ~nprocs (module App : Driver.APP with type config = cfg)
    (cfg : cfg) : Driver.outcome =
  let t0 = now () in
  let t1 = ref t0 and stats = ref None in
  let o =
    Driver.run_ace ~nprocs
      ~wrap:(end_of_setup ~backend:Tracer.Ace ~nprocs t1)
      ~stats:(fun st -> stats := Some st)
      (app (module App))
      cfg
  in
  stop_sim ~t0 ~t1:!t1 (Option.get !stats);
  o

let run_crl (type cfg) ~nprocs (module App : Driver.APP with type config = cfg)
    (cfg : cfg) : Driver.outcome =
  let t0 = now () in
  let t1 = ref t0 and stats = ref None in
  let o =
    Driver.run_crl ~nprocs
      ~wrap:(end_of_setup ~backend:Tracer.Crl ~nprocs t1)
      ~stats:(fun st -> stats := Some st)
      (app (module App))
      cfg
  in
  stop_sim ~t0 ~t1:!t1 (Option.get !stats);
  o

(* EM3D with the causal-DAG recorder and the event tracer attached, built
   as Driver.run_ace builds it. Driver.run_ace takes the event trace as a
   file path, which it writes, and walks the critical path itself after
   the run; the profiling workload keeps both recordings in memory and
   times the walk as a stage of its own, so it constructs the simulation
   here. *)
let run_profiled ?crit ?trace ~nprocs (cfg : Ace_apps.Em3d.config) :
    Driver.outcome =
  let t0 = now () in
  let rt = Runtime.create ~nprocs () in
  Ace_protocols.Proto_lib.register_all rt;
  Ace_combinator.Library.register_all rt;
  for _ = 1 to Ace_apps.Em3d.n_spaces do
    ignore (Runtime.new_space rt "SC")
  done;
  let machine = Runtime.machine rt in
  Machine.set_crit machine crit;
  Machine.set_trace machine trace;
  let module App = (val app (module Ace_apps.Em3d)) in
  let module A =
    App.Make
      ((val facade
              (module Ops.Api : Ace_region.Dsm_intf.S
                with type ctx = Protocol.ctx
                 and type h = Store.meta)))
  in
  let result = ref nan in
  let t1 = now () in
  start_sim ~backend:Tracer.Ace ~nprocs t1;
  Runtime.run rt (fun ctx ->
      let r = A.run cfg ctx in
      if Ops.me ctx = 0 then result := r);
  Machine.set_crit machine None;
  stop_sim ~t0 ~t1 (Machine.stats machine);
  { Driver.seconds = Runtime.time_seconds rt; result = !result }

let table4_runtime = Ace_harness.Table4.fresh_runtime

(* Table4.run_compiled, built the same way here because Table4 runs
   compilation and interpretation as one call: compile time is part of
   set-up, the interpreter's run is not. The interpreter calls Ops
   directly, so its run is one stage with no facade spans. *)
let run_compiled ~nprocs ~level source : Driver.outcome =
  let t0 = now () in
  let rt = table4_runtime ~nprocs in
  let registry = Ace_lang.Registry.of_runtime rt in
  let tc = now () in
  let ir, _diag = Ace_lang.Compile.compile ~registry ~level source in
  let t1 = now () in
  let result = Ace_lang.Interp.run_spmd rt ir in
  let t2 = now () in
  acc.setup_ns <- acc.setup_ns + (t1 - t0);
  acc.compile_ns <- acc.compile_ns + (t1 - tc);
  acc.interp_ns <- acc.interp_ns + (t2 - t1);
  record_stats (Machine.stats (Runtime.machine rt));
  { Driver.seconds = Runtime.time_seconds rt; result }

(* Table4.run_hand, built the same way here because Table4 has no hook
   between set-up and the run. The hand-optimized kernels call Ops
   directly, so their run is one stage with no facade spans. *)
let run_hand ~nprocs name : Driver.outcome =
  let t0 = now () in
  let hand, n_spaces = List.assoc name Ace_harness.Table4.hands in
  let rt = table4_runtime ~nprocs in
  for _ = 1 to n_spaces do
    ignore (Runtime.new_space rt "SC")
  done;
  let result = ref nan in
  let t1 = now () in
  Runtime.run rt (fun ctx ->
      let r = hand ctx in
      if Ops.me ctx = 0 then result := r);
  let t2 = now () in
  acc.setup_ns <- acc.setup_ns + (t1 - t0);
  acc.direct_ns <- acc.direct_ns + (t2 - t1);
  record_stats (Machine.stats (Runtime.machine rt));
  { Driver.seconds = Runtime.time_seconds rt; result = !result }

(* Time [f] into one of [acc]'s stage counters. *)
let stage add f =
  let t0 = now () in
  let r = f () in
  add (now () - t0);
  r
