(* Bench gates: the claims an experiment's rows must satisfy, declared as
   data and checked by one pure evaluator. A gate names its values by
   (experiment, row, field), so a gate whose row or key is missing fails
   instead of passing unchecked. *)

type field = Wall | Sim of string | Msgs of string | Result of string
type at = { exp : string; row : string; field : field }

type check =
  | Close of float * (at * at) list
      (** every (value, reference) pair has |value - ref| <= tol x |ref|;
          tol 0 means bit-identical, and NaN equals NaN *)
  | At_most of at * at list * float * float
      (** value <= min(refs) x factor + floor *)
  | Above of at * float  (** value > floor *)
  | Slope_below of string * string list * field * field * float
      (** within one experiment, the (x, y) slope from the first listed
          row to the last is below the limit *)

type t = { exp : string; name : string; check : check }
type verdict = { gate : string; ok : bool; detail : string }

let at exp row field = { exp; row; field }

let show (a : at) =
  Printf.sprintf "%s/%s%s" a.exp a.row
    (match a.field with
    | Wall -> " wall_s"
    | Sim k -> Printf.sprintf " sim_s[%s]" k
    | Msgs k -> Printf.sprintf " net_messages[%s]" k
    | Result k -> Printf.sprintf " result[%s]" k)

exception Missing of at

let value rows (a : at) =
  let get kvs k = match List.assoc_opt k kvs with Some v -> v | None -> raise (Missing a) in
  match
    List.find_opt (fun r -> r.Row.experiment = a.exp && r.Row.name = a.row) rows
  with
  | None -> raise (Missing a)
  | Some r -> (
      match a.field with
      | Wall -> r.wall
      | Sim k -> get r.sims k
      | Msgs k -> get r.msgs k
      | Result k -> get r.results k)

let close tol v r =
  v = r || (Float.is_nan v && Float.is_nan r) || Float.abs (v -. r) <= tol *. Float.abs r

let eval rows g =
  let v = value rows in
  let ok, detail =
    try
      match g.check with
      | Close (tol, pairs) -> (
          let what = if tol = 0. then "identical" else Printf.sprintf "within %g" tol in
          match List.filter (fun (a, b) -> not (close tol (v a) (v b))) pairs with
          | [] -> (true, Printf.sprintf "%d values %s" (List.length pairs) what)
          | bad ->
              ( false,
                Printf.sprintf "not %s: %s" what
                  (String.concat "; "
                     (List.map
                        (fun (a, b) ->
                          Printf.sprintf "%s = %.17g vs %s = %.17g" (show a) (v a) (show b) (v b))
                        bad)) ))
      | At_most (a, refs, factor, floor) ->
          let base = List.fold_left (fun m r -> Float.min m (v r)) infinity refs in
          let limit = (base *. factor) +. floor in
          ( v a <= limit,
            Printf.sprintf "%s = %s, limit %s = %s x %g + %g" (show a) (Row.fmt (v a))
              (Row.fmt limit) (Row.fmt base) factor floor )
      | Above (a, floor) ->
          (v a > floor, Printf.sprintf "%s = %s, must exceed %g" (show a) (Row.fmt (v a)) floor)
      | Slope_below (exp, rows, x, y, limit) ->
          let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
          let point row = (v (at exp row x), v (at exp row y)) in
          let (x0, y0), (x1, y1) = (point first, point last) in
          let slope = (y1 -. y0) /. (x1 -. x0) in
          ( slope < limit,
            Printf.sprintf "%s..%s: slope %.4f (%s -> %s), limit %g" first last slope
              (Row.fmt y0) (Row.fmt y1) limit )
    with Missing a -> (false, "missing " ^ show a)
  in
  { gate = g.exp ^ "/" ^ g.name; ok; detail }
