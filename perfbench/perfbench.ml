(* The measuring half of the repository benchmark; run.py builds it, runs
   it, checks its outputs against the reference and prints the verdict.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--tiny] [--spans FILE]

   Both modes start with one untraced warm-up pass, which is not
   reported. --trace 0 then runs untraced passes of the workload until
   the next pass would overrun S seconds (at least one). --trace 1 runs
   the layer probes, then alternates untraced and traced passes (at least
   one of each) in the rest of the budget; the traced passes compile the
   applications against the facade tracer, and the first one's spans are
   written to FILE.
   Every pass times the host-speed yardstick (yardstick.ml) after its
   cells; those runs are left out of the pass's wall and reported with it.
   --tiny shrinks every workload for the benchmark's self-test. Prints
   one JSON object: per-pass host times and yardstick times, every cell's
   simulated outputs and, with --trace 1, the per-layer metrics. *)

let now = Tracer.now
let sec ns = float_of_int ns *. 1e-9

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--tiny] [--spans FILE]";
  exit 2

type opts = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable tiny : bool;
  mutable spans : string option;
}

let parse_args () =
  let o =
    { workload = ""; seed = None; seconds = 10.; trace = false; tiny = false; spans = None }
  in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- v; go rest
    | "--seed" :: v :: rest -> o.seed <- Some (int_arg v); go rest
    | "--seconds" :: v :: rest ->
        o.seconds <- (match float_of_string_opt v with Some s when s > 0. -> s | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--tiny" :: rest -> o.tiny <- true; go rest
    | "--spans" :: v :: rest -> o.spans <- Some v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if o.seed = None then usage ();
  o

(* ---- passes ---- *)

type cell_out = {
  cname : string;
  out : (Workloads.out, string) result;
  wall_ns : int; (* set-up + simulation *)
  calls : int; (* facade calls (traced passes) *)
}

type pass = {
  traced : bool;
  wall : int; (* without the yardstick's runs *)
  yardstick : int list; (* ns of each yardstick run after its cells *)
  acc : Sim.acc; (* a snapshot *)
  cells : cell_out array;
  minor_words : float;
  major_collections : int;
  tracer : Tracer.t option;
}

let all_calls = function
  | None -> 0
  | Some tr -> Tracer.total_calls tr Tracer.Ace + Tracer.total_calls tr Tracer.Crl

let run_pass (w : Workloads.t) ~traced =
  Sim.reset ();
  let tracer = if traced then Some (Tracer.create ()) else None in
  Sim.tracer := tracer;
  let y = Yardstick.create () in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let cells =
    Array.map
      (fun (c : Workloads.cell) ->
        Sim.cell_name := c.name;
        let k0 = all_calls tracer in
        let c0 = now () in
        let out = try Ok (c.run ()) with e -> Error (Printexc.to_string e) in
        let wall_ns = now () - c0 in
        let calls = all_calls tracer - k0 in
        Yardstick.after_cell y;
        { cname = c.name; out; wall_ns; calls })
      (w.cells ())
  in
  Yardstick.end_of_pass y;
  let wall = now () - t0 - y.spent in
  let g1 = Gc.quick_stat () in
  Sim.tracer := None;
  {
    traced;
    wall;
    yardstick = y.samples;
    acc = { Sim.acc with sims = Sim.acc.sims };
    cells;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    tracer;
  }

let median xs = if xs = [] then 0. else Probes.median xs
let mean xs = if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* Untraced passes until the next one (at its median length) would end
   past [budget] seconds; always at least one. *)
let untraced_passes w ~budget =
  let t0 = now () in
  let rec go acc =
    let p = run_pass w ~traced:false in
    let acc = p :: acc in
    let typical = median (List.map (fun p -> sec p.wall) acc) in
    if sec (now () - t0) +. typical > budget then List.rev acc else go acc
  in
  go []

(* Untraced and traced passes alternately until the next pair would end
   past [budget] seconds; always at least one pair. *)
let paired_passes w ~budget =
  let t0 = now () in
  let rec go acc =
    let u = run_pass w ~traced:false in
    let t = run_pass w ~traced:true in
    let acc = t :: u :: acc in
    if sec (now () - t0 + u.wall + t.wall) > budget then List.rev acc else go acc
  in
  go []

let time f =
  let t0 = now () in
  f ();
  sec (now () - t0)

(* The recorders' costs on the profiled simulation: with each recorder
   attached against with neither, alternated, medians of three; and the
   serialization of both recordings. *)
let recorder_costs ~tiny ~nprocs =
  let sim ~crit ~trace () = ignore (Workloads.profile_sim ~tiny ~crit ~trace ()) in
  let off = ref [] and crit = ref [] and trace = ref [] in
  for _ = 1 to 3 do
    off := time (sim ~crit:false ~trace:false) :: !off;
    crit := time (sim ~crit:true ~trace:false) :: !crit;
    trace := time (sim ~crit:false ~trace:true) :: !trace
  done;
  let write =
    match Workloads.profile_sim ~tiny ~crit:true ~trace:true () with
    | Some cr, Some tr ->
        time (fun () ->
            let b = Buffer.create (1 lsl 20) in
            Ace_engine.Trace.to_buffer tr ~nprocs b;
            Ace_engine.Crit.to_buffer cr b)
    | _ -> assert false
  in
  let off = Probes.median !off in
  (Probes.median !crit -. off, Probes.median !trace -. off, write)

(* ---- per-layer metrics ---- *)

let frac a b = if b > 0. then a /. b else 0.

(* Layer metrics from the traced passes (means over them), GC deltas from
   the untraced ones. *)
let layers (w : Workloads.t) ~probes ~recorders (passes : pass list) =
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let avg f = mean (List.map f traced) in
  let tr p = Option.get p.tracer in
  let acc_s f = avg (fun p -> sec (f p.acc)) in
  let ace_calls = avg (fun p -> float (Tracer.total_calls (tr p) Tracer.Ace)) in
  let crl_calls = avg (fun p -> float (Tracer.total_calls (tr p) Tracer.Crl)) in
  let ace_self = avg (fun p -> Tracer.runtime_s (tr p) Tracer.Ace) in
  let crl_self = avg (fun p -> Tracer.runtime_s (tr p) Tracer.Crl) in
  let app_self =
    avg (fun p -> Tracer.app_s (tr p) Tracer.Ace +. Tracer.app_s (tr p) Tracer.Crl)
  in
  let fmessages = avg (fun p -> p.acc.Sim.fmessages) in
  let kind_calls k = avg (fun p -> float (Tracer.calls (tr p) Tracer.Ace k)) in
  let programs = avg (fun p -> float (Array.length p.cells)) in
  let check_cells = avg (fun p -> float p.acc.Sim.sims) in
  let extra name =
    avg (fun p ->
        Array.fold_left
          (fun a c ->
            match c.out with
            | Ok o -> a +. Option.value ~default:0. (List.assoc_opt name o.Workloads.extra)
            | Error _ -> a)
          0. p.cells)
  in
  let is_fuzz = w.name = "fuzz-check" in
  let untraced_wall = median (List.map (fun p -> sec p.wall) untraced) in
  let traced_wall = median (List.map (fun p -> sec p.wall) traced) in
  let unaccounted =
    (* the stages, with app + runtime splitting the facade simulations,
       must cover the traced passes' wall *)
    let covered p =
      let t = tr p in
      sec (Sim.stages_ns p.acc - p.acc.Sim.sim_ns)
      +. Tracer.app_s t Tracer.Ace +. Tracer.app_s t Tracer.Crl
      +. Tracer.runtime_s t Tracer.Ace +. Tracer.runtime_s t Tracer.Crl
    in
    let wall = List.fold_left (fun a p -> a +. sec p.wall) 0. traced in
    frac (abs_float (wall -. List.fold_left (fun a p -> a +. covered p) 0. traced)) wall
  in
  let crit_s, trace_s, write_s = recorders in
  [
    ("apps.self_s", app_self, "s");
    ("ace.self_s", ace_self, "s");
    ("ace.call_ns", frac (ace_self *. 1e9) ace_calls, "ns");
    ("ace.calls", ace_calls, "count");
  ]
  @ List.map
      (fun k -> ("ace.calls." ^ Tracer.kinds.(k), kind_calls k, "count"))
      Tracer.
        [
          k_start_read; k_end_read; k_start_write; k_end_write; k_lock; k_unlock;
          k_barrier; k_map; k_work; k_global_id;
        ]
  @ [
      ( "ace.wait_frac",
        frac (avg (fun p -> float (Tracer.waited (tr p) Tracer.Ace))) ace_calls,
        "frac" );
      ("ace.dispatch_ns.SC", List.assoc "ace.dispatch_ns.SC" probes, "ns");
      ("ace.dispatch_ns.DSL_SC", List.assoc "ace.dispatch_ns.DSL_SC" probes, "ns");
      ("crl.self_s", crl_self, "s");
      ("crl.call_ns", frac (crl_self *. 1e9) crl_calls, "ns");
      ("crl.calls", crl_calls, "count");
      ("region.section_ns", List.assoc "region.section_ns" probes, "ns");
      ("region.miss_ns", List.assoc "region.miss_ns" probes, "ns");
      ("coh.misses", avg (fun p -> p.acc.Sim.misses), "count");
      ("coh.invals", avg (fun p -> p.acc.Sim.invals), "count");
      ("net.send_ns", List.assoc "net.send_ns" probes, "ns");
      ("net.reliable_send_ns", List.assoc "net.reliable_send_ns" probes, "ns");
      ("net.messages", avg (fun p -> p.acc.Sim.messages), "count");
      ("net.bytes", avg (fun p -> p.acc.Sim.bytes), "bytes");
      ("net.lossy_send_ns", List.assoc "net.lossy_send_ns" probes, "ns");
      ("net.lossy_retransmit_frac", List.assoc "net.lossy_retransmit_frac" probes, "frac");
      ("net.msg_ns", frac ((ace_self +. crl_self) *. 1e9) fmessages, "ns");
      ("engine.advance_ns", List.assoc "engine.advance_ns" probes, "ns");
      ("engine.queue_ns", List.assoc "engine.queue_ns" probes, "ns");
      ("engine.barrier_ns", List.assoc "engine.barrier_ns" probes, "ns");
      ( "gc.minor_mwords",
        mean (List.map (fun p -> p.minor_words /. 1e6) untraced),
        "Mwords" );
      ( "gc.major_collections",
        mean (List.map (fun p -> float p.major_collections) untraced),
        "count" );
      ("acelang.compile_s", acc_s (fun a -> a.Sim.compile_ns), "s");
      ("acelang.interp_s", acc_s (fun a -> a.Sim.interp_ns), "s");
      ("ace.direct_s", acc_s (fun a -> a.Sim.direct_ns), "s");
      ("check.generate_s", acc_s (fun a -> a.Sim.generate_ns), "s");
      ("check.cells", (if is_fuzz then frac check_cells programs else 0.), "count");
      ( "check.cell_ms",
        (if is_fuzz then frac (acc_s (fun a -> a.Sim.check_ns) *. 1e3) check_cells
         else 0.),
        "ms" );
      ("check.sim_setup_us", List.assoc "check.sim_setup_ns" probes /. 1e3, "us");
      ( "check.setup_frac",
        (if is_fuzz then
           frac
             (List.assoc "check.sim_setup_ns" probes *. 1e-9 *. check_cells)
             (acc_s (fun a -> a.Sim.check_ns))
         else 0.),
        "frac" );
      ("rec.dag_nodes", extra "dag_nodes", "count");
      ("rec.crit_ns_per_node", frac (crit_s *. 1e9) (extra "dag_nodes"), "ns");
      ("rec.trace_events", extra "trace_events", "count");
      ("rec.trace_ns_per_event", frac (trace_s *. 1e9) (extra "trace_events"), "ns");
      ("rec.write_s", write_s, "s");
      ("obs.critpath_s", acc_s (fun a -> a.Sim.critpath_ns), "s");
      ("obs.whatif_s", acc_s (fun a -> a.Sim.whatif_ns), "s");
      ("bench.trace_overhead_frac", frac traced_wall untraced_wall -. 1., "frac");
      ("bench.unaccounted_frac", unaccounted, "frac");
      ("bench.spans", avg (fun p -> float (Tracer.n_spans (tr p))), "count");
    ]

(* ---- JSON output ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let exact x = json_string (Printf.sprintf "%.17g" x)
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"

let cell_json i p c =
  let common =
    [
      ("pass", string_of_int i);
      ("traced", string_of_bool p.traced);
      ("cell", json_string c.cname);
      ("wall_s", json_float (sec c.wall_ns));
    ]
  in
  match c.out with
  | Error e -> obj (common @ [ ("error", json_string e) ])
  | Ok o ->
      obj
        (common
        @ [
            ("sim_s", exact o.Workloads.sim_s);
            ("messages", exact o.messages);
            ("result", exact o.result);
            ("extra", obj (List.map (fun (k, v) -> (k, exact v)) o.extra));
          ]
        @ if p.traced then [ ("calls", string_of_int c.calls) ] else [])

let pass_json p =
  obj
    [
      ("traced", string_of_bool p.traced);
      ("wall_s", json_float (sec p.wall));
      ("setup_s", json_float (sec p.acc.Sim.setup_ns));
      ("yardstick_ns", arr (List.rev_map string_of_int p.yardstick));
      ("cells_s", arr (Array.to_list (Array.map (fun c -> json_float (sec c.wall_ns)) p.cells)));
    ]

let gc_json () =
  let g = Gc.get () in
  obj
    [
      ("minor_heap_words", string_of_int g.Gc.minor_heap_size);
      ("space_overhead", string_of_int g.Gc.space_overhead);
      ("major_heap_increment", string_of_int g.Gc.major_heap_increment);
      ("allocation_policy", string_of_int g.Gc.allocation_policy);
    ]

let () =
  (* bench/main.ml's setting: fewer minor collections on the event loop *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let o = parse_args () in
  let seed = Option.get o.seed in
  let w =
    match Workloads.find ~tiny:o.tiny ~seed o.workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" o.workload
          (String.concat ", " Workloads.names);
        exit 2
  in
  let t0 = now () in
  ignore (run_pass w ~traced:false);
  (* The heap's peak over one pass from a fresh process. Read later, it
     would depend on how many passes fit in the budget. *)
  let heap_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let left () = o.seconds -. sec (now () - t0) in
  let passes, layer_metrics =
    if not o.trace then (untraced_passes w ~budget:(left ()), [])
    else begin
      let probes =
        Probes.run ~depth:w.nprocs ~scale:(if o.tiny then 100 else 1)
          ~faults:(List.hd Workloads.fault_specs)
      in
      let recorders =
        if w.name = "profile-em3d" then recorder_costs ~tiny:o.tiny ~nprocs:w.nprocs
        else (0., 0., 0.)
      in
      let passes = paired_passes w ~budget:(left ()) in
      (passes, layers w ~probes ~recorders passes)
    end
  in
  (match (o.spans, List.find_opt (fun p -> p.traced) passes) with
  | Some path, Some { tracer = Some tr; _ } -> Tracer.write_spans tr path
  | _ -> ());
  print_string
    (obj
       [
         ("workload", json_string w.name);
         ("seed", string_of_int seed);
         ("tiny", string_of_bool o.tiny);
         ("trace", string_of_bool o.trace);
         ("engine", json_string "seq");
         ("ocaml_version", json_string Sys.ocaml_version);
         ("gc", gc_json ());
         ("sizes", obj (List.map (fun (k, v) -> (k, json_string v)) w.sizes));
         ( "facade_calls_per_pass",
           match w.facade_calls with Some n -> string_of_int n | None -> "null" );
         ("peak_heap_mb", json_float heap_mb);
         ("passes", arr (List.map pass_json passes));
         ( "cells",
           arr
             (List.concat
                (List.mapi
                   (fun i p -> Array.to_list (Array.map (cell_json i p) p.cells))
                   passes)) );
         ( "layers",
           obj
             (List.map
                (fun (k, v, unit) ->
                  (k, obj [ ("value", json_float v); ("unit", json_string unit) ]))
                layer_metrics) );
       ]);
  print_newline ()
