(* Statistics, span self-time accounting and JSON helpers shared by the
   orchestrator and the child processes. *)

module J = Service.Json

(* Seconds on the monotonic clock, to the nanosecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The process's CPU time, user and system, summed over its threads. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] and its wall time in ms. *)
let timed_ms f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1e3)

(* {1 Order statistics} *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank quantile of a non-empty list. *)
let quantile q xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) i))

let median xs = quantile 0.5 xs

(* The 90th percentile when at least ten samples lie beyond it, as the
   benchmark reports no tail it cannot resolve; [None] otherwise. *)
let p90 xs = if List.length xs >= 100 then Some (quantile 0.9 xs) else None

(* The interquartile mean: the mean of the middle half of the sorted
   samples (all of them when there are fewer than four). *)
let iqm xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "iqm: no samples";
  let lo, hi = if n < 4 then (0, n) else (n / 4, n - (n / 4)) in
  Array.fold_left ( +. ) 0. (Array.sub a lo (hi - lo)) /. float_of_int (hi - lo)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* {1 Span self time}  A span's self time is its duration minus the
   durations of its children (spans whose parent_id is its span_id); the
   benchmark's spans are strictly nested per request, so children never
   overlap.  Spans are grouped by name. *)

type span_total = { count : int; total_s : float; self_s : float }

let span_totals trace_json =
  let events =
    match J.parse trace_json with
    | Error e -> failwith ("trace: " ^ e)
    | Ok j -> (
        match J.member "traceEvents" j with Some (J.List l) -> l | _ -> [])
  in
  let str k e = Option.bind (J.member k e) J.to_str in
  let arg k e = Option.bind (J.member "args" e) (fun a -> Option.bind (J.member k a) J.to_str) in
  let spans =
    List.filter_map
      (fun e ->
        match (str "ph" e, str "name" e, Option.bind (J.member "dur" e) J.to_float) with
        | Some "X", Some name, Some dur ->
            Some (name, dur /. 1e6, arg "span_id" e, arg "parent_id" e)
        | _ -> None)
      events
  in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun (_, dur, _, parent) ->
      match parent with
      | Some p ->
          Hashtbl.replace child_time p
            (dur +. Option.value ~default:0. (Hashtbl.find_opt child_time p))
      | None -> ())
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (name, dur, id, _) ->
      let children =
        match id with
        | Some id -> Option.value ~default:0. (Hashtbl.find_opt child_time id)
        | None -> 0.
      in
      let t =
        Option.value
          ~default:{ count = 0; total_s = 0.; self_s = 0. }
          (Hashtbl.find_opt by_name name)
      in
      Hashtbl.replace by_name name
        {
          count = t.count + 1;
          total_s = t.total_s +. dur;
          self_s = t.self_s +. Float.max 0. (dur -. children);
        })
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))

(* The layer a span belongs to: the benchmark's own spans are named
   [layer.call]; the library's are [translate.*], [explore]/[lts.*]
   (versa) and [service.*]/[router.*]. *)
let layer_of name =
  match String.index_opt name '.' with
  | _ when name = "explore" -> "versa"
  | Some i -> (
      match String.sub name 0 i with
      | "lts" | "pool" -> "versa"
      | "client" | "router" -> "service"
      | l -> l)
  | None -> "other"

let layers = [ "aadl"; "translate"; "versa"; "analysis"; "service" ]

(* {1 JSON helpers} *)

let num f = J.Float f
let int i = J.Int i
let floats xs = J.List (List.map num xs)

let get k j =
  match J.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

let get_float k j =
  match J.to_float (get k j) with Some f -> f | None -> failwith ("not a number: " ^ k)

let get_int k j =
  match J.to_int (get k j) with Some i -> i | None -> failwith ("not an int: " ^ k)

let get_floats k j =
  match get k j with
  | J.List l -> List.filter_map J.to_float l
  | _ -> failwith ("not a list: " ^ k)

let get_obj k j =
  match J.member k j with Some (J.Obj l) -> l | _ -> []
