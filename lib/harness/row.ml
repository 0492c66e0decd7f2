(* One result row, the shape every bench experiment reports. [sims] and
   [msgs] are what the JSON report carries (its "sim_s" and
   "net_messages" objects, in order); [results] are the computed answers
   (node-0 checksums and the like) that gates and tests compare but the
   report does not serialise. *)

type t = {
  experiment : string;
  name : string;
  wall : float; (* host seconds spent producing the row *)
  sims : (string * float) list;
  msgs : (string * float) list;
  results : (string * float) list;
}

let sim r k = List.assoc k r.sims
let msg r k = List.assoc k r.msgs
let result r k = List.assoc k r.results

(* Counts print as integers, everything else with six significant
   digits; the JSON report keeps the exact values. *)
let fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(* Print [rows] as one table: a column per simulated value, then per
   message count, then per [derived] value, each in order of first
   appearance; a row without a key (or whose derived value reads a key it
   lacks) leaves its cell blank. *)
let print ?(derived = []) rows =
  let keys of_row =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc (of_row r))
      [] rows
  in
  let cols =
    List.map (fun k -> (k, fun r -> List.assoc_opt k r.sims)) (keys (fun r -> r.sims))
    @ List.map
        (fun k -> ("msgs " ^ k, fun r -> List.assoc_opt k r.msgs))
        (keys (fun r -> r.msgs))
    @ List.map (fun (k, f) -> (k, fun r -> try Some (f r) with Not_found -> None)) derived
  in
  let cell f r = Option.fold ~none:"" ~some:fmt (f r) in
  let widths =
    List.map
      (fun (k, f) ->
        List.fold_left (fun w r -> max w (String.length (cell f r))) (String.length k) rows)
      cols
  in
  let name_w = List.fold_left (fun w r -> max w (String.length r.name)) 3 rows in
  let line name cells =
    Printf.printf "%-*s" name_w name;
    List.iter2 (fun c w -> Printf.printf "  %*s" w c) cells widths;
    print_newline ()
  in
  line "row" (List.map fst cols);
  List.iter (fun r -> line r.name (List.map (fun (_, f) -> cell f r) cols)) rows

(* ---- JSON (hand-rolled writer; Ace_obs.Json reads it back) ---- *)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* %.17g round-trips doubles exactly, so the report carries the same
   simulated values the determinism tests and identity gates compare. *)
let to_json r =
  let obj fmt kvs =
    String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ fmt v) kvs)
  in
  Printf.sprintf
    "    {\"experiment\": %s, \"name\": %s, \"wall_s\": %.6f, \"sim_s\": {%s}%s}"
    (quote r.experiment) (quote r.name) r.wall
    (obj (Printf.sprintf "%.17g") r.sims)
    (if r.msgs = [] then ""
     else Printf.sprintf ", \"net_messages\": {%s}" (obj (Printf.sprintf "%.0f") r.msgs))

let of_json j =
  let module J = Ace_obs.Json in
  let str k = Option.bind (J.member k j) J.to_string in
  let nums k =
    match J.member k j with
    | Some (J.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v)) kvs
    | _ -> []
  in
  match (str "experiment", str "name", Option.bind (J.member "wall_s" j) J.to_float) with
  | Some experiment, Some name, Some wall ->
      Some { experiment; name; wall; sims = nums "sim_s"; msgs = nums "net_messages"; results = [] }
  | _ -> None
