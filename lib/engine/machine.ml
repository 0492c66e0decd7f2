type t = {
  nprocs : int;
  events : Event_queue.t;
  stats : Stats.t;
  mutable live : int; (* fibers spawned and not yet returned *)
  mutable running : int; (* id of the processor whose fiber runs, or -1 *)
  mutable max_clock : float;
      (* latest processor clock at a run's end; [time] also takes the
         latest event the queue ran *)
  mutable trace : Trace.t option;
      (* event tracer; None (the default) keeps every instrumentation
         point down to a single field read *)
  mutable crit : Crit.t option;
      (* causal-DAG recorder, same contract: None = one field read *)
}

and proc = { id : int; mutable clock : float; machine : t }

(* [Advance (p, cycles, order)]: resume after [cycles] with the queue
   order [advance] already claimed for the resumption. *)
type _ Effect.t += Advance : proc * float * int -> unit Effect.t
type _ Effect.t += Await : proc * 'a Ivar.t -> 'a Effect.t

let create ?policy ~nprocs () =
  if nprocs <= 0 then invalid_arg "Machine.create: nprocs <= 0";
  {
    nprocs;
    events = Event_queue.create ?policy ();
    stats = Stats.create ();
    live = 0;
    running = -1;
    max_clock = 0.;
    trace = None;
    crit = None;
  }

let nprocs t = t.nprocs
let stats t = t.stats
let policy t = Event_queue.policy t.events
let set_trace t tr = t.trace <- tr
let trace t = t.trace
let set_crit t c = t.crit <- c
let crit t = t.crit

(* When a recorder is attached, every queued thunk carries the causal
   context it was created in, restored just before it runs — so the DAG
   hooks inside the thunk (message sends, ivar fills, compute intervals)
   see their true cause. With no recorder this is a plain push. *)
let schedule_cause t ~time ~cause f =
  match t.crit with
  | None -> Event_queue.push t.events ~time f
  | Some c ->
      Event_queue.push t.events ~time (fun () ->
          Crit.set_cur c cause;
          f ())

let schedule t ~time f =
  match t.crit with
  | None -> Event_queue.push t.events ~time f
  | Some c -> schedule_cause t ~time ~cause:(Crit.export_cur c) f

(* Fiber operations perform effects handled by the fiber's own handler;
   from anywhere else (a scheduled event, another processor's fiber) they
   would escape as [Effect.Unhandled], or move a clock nobody is running. *)
let check_running name p =
  let t = p.machine in
  if t.running <> p.id then
    invalid_arg
      (if t.running < 0 then
         Printf.sprintf
           "Machine.%s: P%d called outside any running fiber (e.g. from a \
            scheduled event)"
           name p.id
       else
         Printf.sprintf
           "Machine.%s: P%d called from P%d's fiber (a fiber may only use \
            its own processor)"
           name p.id t.running)

(* The in-place path: the resumption [advance] would queue at the new clock
   usually precedes every pending event, so the run loop would pop it
   straight back. Claiming its order and finding it next, the fiber just
   moves its clock and carries on, exactly as if the event had been pushed
   and popped (the claim consumed the same insertion number and policy
   draw). A recorder needs the resumption's DAG hooks, so it keeps the
   effect path. *)
let advance p cycles =
  if cycles < 0. || not (Float.is_finite cycles) then
    invalid_arg "Machine.advance: bad cycle count";
  check_running "advance" p;
  if cycles > 0. then begin
    let t = p.machine in
    let order = Event_queue.claim t.events in
    let time = p.clock +. cycles in
    if t.crit == None && Event_queue.take_if_next t.events ~time ~order then
      p.clock <- time
    else Effect.perform (Advance (p, cycles, order))
  end

(* Advance with the compute blamed on [kindid] (e.g. send overhead)
   instead of the processor's current activity. *)
let advance_as p kindid cycles =
  match p.machine.crit with
  | None -> advance p cycles
  | Some c ->
      let old = Crit.swap_kind c ~proc:p.id kindid in
      advance p cycles;
      ignore (Crit.swap_kind c ~proc:p.id old)

let await p iv =
  check_running "await" p;
  Effect.perform (Await (p, iv))

(* Continue a suspended fiber from the run loop. *)
let resume p k v =
  p.machine.running <- p.id;
  Effect.Deep.continue k v

(* Run one fiber under a deep handler. The handler turns Advance into a
   rescheduled resumption (so processors interleave in timestamp order) and
   Await into an ivar waiter. *)
let spawn_fiber t p (body : unit -> unit) =
  let open Effect.Deep in
  t.live <- t.live + 1;
  t.running <- p.id;
  match_with body ()
    {
      retc =
        (fun () ->
          t.running <- -1;
          t.live <- t.live - 1);
      exnc =
        (fun e ->
          t.running <- -1;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Advance (p, cycles, order) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.running <- -1;
                  p.clock <- p.clock +. cycles;
                  match t.crit with
                  | None ->
                      Event_queue.push_claimed t.events ~time:p.clock ~order
                        (fun () -> resume p k ())
                  | Some c ->
                      Crit.advance c ~proc:p.id ~time:p.clock ~cycles;
                      let cause = Crit.head c p.id in
                      Event_queue.push_claimed t.events ~time:p.clock ~order
                        (fun () ->
                          Crit.set_cur c cause;
                          resume p k ()))
          | Await (p, iv) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  match Ivar.peek iv with
                  | Some (time, v) ->
                      (* Already filled. If the fill is in this fiber's
                         future, the resume time is bound by the filler:
                         record that cross-chain edge (the fill snapshotted
                         its causal context into the ivar). *)
                      (match t.crit with
                      | Some c when time > p.clock ->
                          let n =
                            Crit.wake c ~proc:p.id ~cause:(Ivar.cause iv)
                              ~time
                          in
                          Crit.set_cur c n
                      | Some _ | None -> ());
                      if time > p.clock then p.clock <- time;
                      continue k v
                  | None ->
                      (* This callback runs synchronously inside Ivar.fill,
                         i.e. in the *filler's* causal context — exactly the
                         fill→wakeup edge. *)
                      t.running <- -1;
                      Ivar.on_fill iv (fun ~time v ->
                          if time > p.clock then p.clock <- time;
                          match t.crit with
                          | None ->
                              Event_queue.push t.events ~time:p.clock
                                (fun () -> resume p k v)
                          | Some c ->
                              let n =
                                Crit.wake c ~proc:p.id ~cause:(Crit.cur c)
                                  ~time:p.clock
                              in
                              Event_queue.push t.events ~time:p.clock
                                (fun () ->
                                  Crit.set_cur c n;
                                  resume p k v)))
          | _ -> None);
    }

let time t = Float.max t.max_clock (Event_queue.latest_time t.events)

let run t program =
  let start = time t in
  let procs = Array.init t.nprocs (fun id -> { id; clock = start; machine = t }) in
  let finished = Array.make t.nprocs false in
  let spawn p () =
    spawn_fiber t p (fun () ->
        program p;
        finished.(p.id) <- true)
  in
  (match t.crit with
  | None ->
      Array.iter
        (fun p -> Event_queue.push t.events ~time:p.clock (spawn p))
        procs
  | Some c ->
      (* Successive phases start at the global max clock: every root
         depends on the join of all previous chain heads. *)
      let gj =
        Array.fold_left (fun acc p -> Crit.join c acc (Crit.head c p.id)) (-1)
          procs
      in
      Array.iter
        (fun p ->
          let r = Crit.root c ~proc:p.id ~cause:gj ~time:p.clock in
          Event_queue.push t.events ~time:p.clock (fun () ->
              Crit.set_cur c r;
              spawn p ()))
        procs);
  (match t.crit with None -> () | Some c -> Crit.activate c);
  Fun.protect
    ~finally:(fun () ->
      match t.crit with None -> () | Some _ -> Crit.deactivate ())
    (fun () -> Event_queue.drain t.events);
  if t.live > 0 then begin
    (* Name the stuck processors and where their clocks stopped, so a
       deadlock (a lost-and-abandoned message, a mis-tuned retransmit
       timeout, a missing barrier arrival) is diagnosable from the error
       alone. *)
    let blocked =
      Array.to_list procs
      |> List.filter (fun p -> not finished.(p.id))
      |> List.map (fun p -> Printf.sprintf "P%d@%.0f" p.id p.clock)
    in
    failwith
      (Printf.sprintf
         "Machine.run: deadlock: %d fiber(s) blocked forever with no \
          pending events (last event at t=%.0f); blocked processors: %s"
         t.live (time t)
         (String.concat ", " blocked))
  end;
  Array.iter (fun p -> if p.clock > t.max_clock then t.max_clock <- p.clock) procs

let seconds t ~cycles_per_sec = time t /. cycles_per_sec

module Barrier = struct
  let sid_arrivals = Stats.intern "barrier.arrivals"

  type b = {
    owner : t;
    cost : int -> float;
    mutable arrived : int;
    mutable latest : float;
    mutable gen : unit Ivar.t;
    mutable gen_no : int; (* generation counter, for trace labelling *)
    mutable cjoin : int;
        (* causal join of this generation's arrivals so far (-1 = none):
           the release node depends on ALL arrivals, so a what-if replay
           can re-decide which processor arrives last *)
  }

  let create owner ~cost =
    {
      owner;
      cost;
      arrived = 0;
      latest = 0.;
      gen = Ivar.create ();
      gen_no = 0;
      cjoin = -1;
    }

  (* Every arrival awaits the current generation's ivar; the last arrival
     fills it at [latest + cost P], which releases (and time-advances)
     everyone, including itself. Tracing records one span per processor per
     generation, arrival to release: the per-proc span lengths within a
     generation expose barrier skew (who arrived early and waited). *)
  let wait b p =
    let t = b.owner in
    let gen = b.gen in
    let gen_no = b.gen_no in
    let arrival = p.clock in
    b.arrived <- b.arrived + 1;
    if p.clock > b.latest then b.latest <- p.clock;
    (match t.crit with
    | None -> ()
    | Some c -> b.cjoin <- Crit.join c b.cjoin (Crit.head c p.id));
    if b.arrived = t.nprocs then begin
      let release = b.latest +. b.cost t.nprocs in
      b.arrived <- 0;
      b.latest <- 0.;
      b.gen <- Ivar.create ();
      b.gen_no <- gen_no + 1;
      match t.crit with
      | None -> Ivar.fill gen ~time:release ()
      | Some c ->
          let jn = b.cjoin in
          b.cjoin <- -1;
          let bn =
            Crit.node c ~pred:jn ~kind:Crit.k_barrier ~a:p.id ~b:gen_no
              ~time:release
              ~cost:(release -. Crit.time_of c jn)
              ()
          in
          Crit.set_head c ~proc:p.id bn;
          (* Waiters wake inside this fill: make the release node their
             cause. *)
          Crit.with_cur c bn (fun () -> Ivar.fill gen ~time:release ())
    end;
    await p gen;
    Stats.incr_id t.stats sid_arrivals;
    match t.trace with
    | None -> ()
    | Some tr ->
        Trace.span tr ~name:"barrier" ~cat:"barrier" ~tid:p.id ~ts:arrival
          ~dur:(p.clock -. arrival)
          ~args:[ ("gen", gen_no) ] ()
end
