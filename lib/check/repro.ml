(* Replayable counterexamples. A [.repro] file pins everything a failing
   fuzz run needs to be reproduced bit for bit: the protocol under test,
   the schedule tie-break policy, the fault spec, the batching mode, and
   the (shrunk) program itself. The header is line-oriented key/value;
   the program body is Prog's textual form. *)

module Event_queue = Ace_engine.Event_queue
module Faults = Ace_net.Faults

type t = {
  proto : string; (* protocol name, or "CRL" for the baseline backend *)
  policy : Event_queue.policy;
  faults : Faults.spec option;
  batch : bool;
  reason : string;
  prog : Prog.t;
}

let faults_to_string = function
  | None -> "none"
  | Some (s : Faults.spec) ->
      Printf.sprintf "drop=%.17g,dup=%.17g,jitter=%.17g,seed=%d" s.drop s.dup
        s.jitter s.seed

let faults_of_string = function
  | "none" -> None
  | s ->
      Scanf.sscanf s "drop=%g,dup=%g,jitter=%g,seed=%d"
        (fun drop dup jitter seed ->
          Some (Faults.spec ~drop ~dup ~jitter ~seed ()))

let to_string r =
  String.concat "\n"
    [
      "ace-check-repro v1";
      "proto " ^ r.proto;
      "policy " ^ Event_queue.policy_to_string r.policy;
      "faults " ^ faults_to_string r.faults;
      "batch " ^ string_of_bool r.batch;
      "reason " ^ String.map (fun c -> if c = '\n' then ';' else c) r.reason;
      Prog.to_string r.prog;
    ]

let of_string s =
  let lines = String.split_on_char '\n' s in
  let header = Hashtbl.create 8 and body = Buffer.create 256 in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | Some i
        when List.mem
               (String.sub line 0 i)
               [ "proto"; "policy"; "faults"; "batch"; "engine"; "reason" ] ->
          Hashtbl.replace header (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
      | _ ->
          if line <> "" && line <> "ace-check-repro v1" then begin
            Buffer.add_string body line;
            Buffer.add_char body '\n'
          end)
    lines;
  (* Files written while the simulator had a parallel engine carry an
     [engine] line: "seq" replays as before, "par" or "par:N" named a run
     loop that no longer exists. *)
  (match Hashtbl.find_opt header "engine" with
  | None | Some "seq" -> ()
  | Some e when String.starts_with ~prefix:"par" e ->
      invalid_arg
        ("Repro.of_string: parallel engine removed (engine " ^ e ^ ")")
  | Some e -> invalid_arg ("Repro.of_string: unknown engine " ^ e));
  let get k =
    match Hashtbl.find_opt header k with
    | Some v -> v
    | None -> invalid_arg ("Repro.of_string: missing " ^ k)
  in
  {
    proto = get "proto";
    policy = Event_queue.policy_of_string (get "policy");
    faults = faults_of_string (get "faults");
    batch = bool_of_string (get "batch");
    reason = (match Hashtbl.find_opt header "reason" with Some r -> r | None -> "");
    prog = Prog.of_string (Buffer.contents body);
  }

let write path r =
  let oc = open_out path in
  output_string oc (to_string r);
  output_char oc '\n';
  close_out oc

let read path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
