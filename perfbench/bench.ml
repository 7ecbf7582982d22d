(* The schedulability benchmark (see README.md).

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --smoke --root DIR --out DIR

   A run spawns fresh child processes of this executable, one pass of
   the workload each, for S seconds, then prints the host, a detail
   table and, as the last line of stdout, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer ones (--trace 1). *)

open Report

type metric = { name : string; unit_ : string; value : float }

let workloads = [ "large_model"; "corpus"; "service_sweep" ]

(* {1 Command line} *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  root_dir : string;
  out_dir : string;
  size : Child.size;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload (large_model|corpus|service_sweep) --seed N \
     --seconds S --trace 0|1 [--root DIR] [--out DIR]\n\
    \       bench.exe --smoke [--root DIR] [--out DIR]";
  exit 2

let parse_args argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
        Hashtbl.replace tbl "smoke" "1";
        go rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  tbl

let arg tbl k = Hashtbl.find_opt tbl k

let int_arg tbl k =
  match arg tbl k with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  | None -> usage ()

(* {1 Passes} *)

(* run.sh pins the run to one CPU and every pass inherits it; see
   README.md. *)
let spawn o ~index ~traced =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--child"; o.workload; "--seed"; string_of_int o.seed; "--pass"; string_of_int index;
      "--traced"; (if traced then "1" else "0"); "--root"; o.root_dir; "--out"; o.out_dir;
      "--size"; (match o.size with Child.Full -> "full" | Child.Smoke -> "smoke");
    |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let output = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
      let lines =
        String.split_on_char '\n' output |> List.filter (fun l -> String.trim l <> "")
      in
      match List.rev lines with
      | last :: _ -> (
          match J.parse last with
          | Ok j -> j
          | Error e -> failwith ("pass report: " ^ e))
      | [] -> failwith "pass printed no report")
  | _ -> failwith (Printf.sprintf "pass %d of %s failed" index o.workload)

(* Passes until the time is up; a traced run alternates traced and
   untraced passes (at least one of each) so that the tracing overhead
   is measured within the run. *)
let passes o =
  let deadline = now () +. o.seconds in
  let rec go i acc =
    let traced = o.trace && i mod 2 = 0 in
    let acc = (traced, spawn o ~index:i ~traced) :: acc in
    if now () < deadline || (o.trace && i = 0) then go (i + 1) acc else List.rev acc
  in
  go 0 []

(* {1 Metrics} *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l
let concat k l = List.concat_map (get_floats k) l
let opt_ms = function Some v -> v | None -> 0.

(* A timing is each pass's own figure, scaled to the reference host's
   speed by that pass's calibration (see calib.ml), then averaged over
   the run's passes as an interquartile mean: a burst of load from other
   tenants of the host slows whole passes, and the mean of the middle
   half ignores a minority of slowed ones.  Set-up is the fastest of the
   run's scaled set-up samples instead: a process sets up at one of two
   or three levels that the calibration does not see (README.md), and
   the fastest sample is the one a slow level cannot move.  [~raw:true]
   leaves the figures unscaled. *)
let speed r = (Calib.reference_s /. get_float "calib_s" r) ** Calib.elasticity

let end_to_end ?(raw = false) reports =
  let speed r = if raw then 1. else speed r in
  let across f = iqm (List.map f reports) in
  let models = sum (get_int "models") reports in
  let decided = sum (get_int "decided") reports in
  [
    {
      name = "setup_s";
      unit_ = "s";
      value =
        List.fold_left Float.min infinity
          (List.concat_map (fun r -> List.map (fun x -> x *. speed r) (get_floats "setup_s" r)) reports);
    };
    {
      name = "verdict_ms_iqm";
      unit_ = "ms";
      value = across (fun r -> iqm (get_floats "verdict_ms" r) *. speed r);
    };
    {
      name = "models_per_s";
      unit_ = "1/s";
      value =
        across (fun r -> float_of_int (get_int "models" r) /. get_float "measured_s" r /. speed r);
    };
    { name = "peak_heap_mb"; unit_ = "MB"; value = median (List.map (get_float "top_heap_mb") reports) };
    { name = "decided_frac"; unit_ = "ratio"; value = ratio decided models };
    {
      name = "correct_frac";
      unit_ = "ratio";
      value = ratio (sum (get_int "correct") reports) decided;
    };
  ]

(* The workload-specific figures of the detail table: they are not
   gated, since not every workload has them. *)
let details reports =
  let verdicts = concat "verdict_ms" reports and hits = concat "hit_ms" reports in
  [
    { name = "passes"; unit_ = "count"; value = float_of_int (List.length reports) };
    { name = "wall_s"; unit_ = "s"; value = median (List.map (get_float "measured_s") reports) };
    (* the process's CPU time over the same phase *)
    { name = "cpu_s"; unit_ = "s"; value = median (List.map (get_float "measured_cpu_s") reports) };
    { name = "calib_s"; unit_ = "s"; value = median (List.map (get_float "calib_s") reports) };
    { name = "speed"; unit_ = "ratio"; value = median (List.map speed reports) };
    { name = "verdict_samples"; unit_ = "count"; value = float_of_int (List.length verdicts) };
    { name = "verdict_ms_p50"; unit_ = "ms"; value = median verdicts };
    { name = "verdict_ms_p90"; unit_ = "ms"; value = opt_ms (p90 verdicts) };
    { name = "hit_samples"; unit_ = "count"; value = float_of_int (List.length hits) };
    { name = "hit_ms_p50"; unit_ = "ms"; value = (if hits = [] then 0. else median hits) };
  ]

let ( =<< ) f o = Option.bind o f

let layer_field k reports =
  mean (List.filter_map (fun r -> J.to_float =<< J.member k (J.Obj (get_obj "layer" r))) reports)

(* Mean duration of the spans named [k]. *)
let per_call_ms k reports =
  let c, tot =
    List.fold_left
      (fun (c, tot) r ->
        match J.member k (J.Obj (get_obj "spans" r)) with
        | Some (J.List [ n; t; _ ]) -> (c + Option.get (J.to_int n), tot +. Option.get (J.to_float t))
        | _ -> (c, tot))
      (0, 0.) reports
  in
  if c = 0 then 0. else tot *. 1e3 /. float_of_int c

let per_layer ~traced ~untraced =
  let n = float_of_int (List.length traced) in
  let lf k = layer_field k traced in
  let li k = sum (fun r -> Option.value ~default:0 (J.to_int =<< J.member k (J.Obj (get_obj "layer" r)))) traced in
  let self_of layer =
    sumf
      (fun r ->
        sumf
          (fun (name, v) ->
            match v with
            | J.List [ _; _; s ] when layer_of name = layer -> Option.get (J.to_float s)
            | _ -> 0.)
          (get_obj "spans" r))
      traced
    /. n
  in
  let wall = sumf (get_float "measured_s") traced /. n in
  let selfs = List.map (fun l -> (l, self_of l)) layers in
  let untraced_verdicts = concat "verdict_ms" untraced and untraced_hits = concat "hit_ms" untraced in
  let m name unit_ value = { name; unit_; value } in
  [
    m "aadl.parse_ms" "ms" (per_call_ms "aadl.parse" traced);
    m "aadl.instantiate_ms" "ms" (per_call_ms "aadl.instantiate" traced);
    m "translate.plan_ms" "ms" (per_call_ms "translate.plan" traced);
    m "translate.realize_ms" "ms" (per_call_ms "translate.compose" traced);
    m "translate.fragment_reuse_frac" "ratio"
      (ratio (li "translate.fragment_hits") (li "translate.fragment_hits" + li "translate.fragment_misses"));
    m "versa.explore_s" "s" (lf "versa.explore_s");
    m "versa.expand_s" "s" (lf "versa.expand_s");
    m "versa.merge_s" "s" (lf "versa.merge_s");
    m "versa.us_per_state" "us" (lf "versa.us_per_state");
    m "versa.states" "count" (lf "versa.states");
    m "versa.transitions" "count" (lf "versa.transitions");
    m "versa.intern_hit_frac" "ratio" (lf "versa.intern_hit_frac");
    m "versa.peak_frontier" "count" (lf "versa.peak_frontier");
    m "versa.store_bytes" "bytes" (lf "versa.store_bytes");
    m "acsr.hashcons_nodes_start" "count" (mean (List.map (fun r -> float_of_int (get_int "hashcons_start" r)) traced));
    m "acsr.hashcons_nodes_end" "count" (mean (List.map (fun r -> float_of_int (get_int "hashcons_end" r)) traced));
    m "acsr.canon_s" "s" (lf "acsr.canon_s");
    m "acsr.orbit_hit_frac" "ratio" (lf "acsr.orbit_hit_frac");
    m "analysis.raise_ms" "ms" (lf "analysis.raise_ms");
    m "analysis.verdict_ms_p90" "ms"
      (if untraced_hits = [] then opt_ms (p90 untraced_verdicts) else 0.);
    m "service.transport_ms" "ms" (lf "service.transport_ms");
    m "service.router_ms" "ms" (lf "service.router_ms");
    m "service.shard_hit_ms" "ms" (lf "service.shard_hit_ms");
    m "service.shard_miss_ms" "ms" (lf "service.shard_miss_ms");
    m "service.hit_ms_p50" "ms" (if untraced_hits = [] then 0. else median untraced_hits);
    m "service.miss_ms_p90" "ms"
      (if untraced_hits = [] then 0. else opt_ms (p90 untraced_verdicts));
    m "service.cache_hit_frac" "ratio"
      (ratio (li "service.cache_hits") (li "service.cache_hits" + li "service.cache_misses"));
    m "service.evictions" "count" (lf "service.evictions");
    m "service.journal_appends" "count" (lf "service.journal_appends");
    m "service.journal_bytes" "bytes" (lf "service.journal_bytes");
    m "service.journal_replay_ms" "ms" (lf "service.journal_replay_ms");
    m "runtime.minor_words" "words" (mean (List.map (get_float "minor_words") traced));
    m "runtime.major_collections" "count"
      (mean (List.map (fun r -> float_of_int (get_int "major_collections" r)) traced));
    m "obs.trace_overhead_frac" "ratio"
      (median (List.map (get_float "measured_s") traced)
       /. median (List.map (get_float "measured_s") untraced)
      -. 1.);
  ]
  @ List.map (fun (l, s) -> m ("self." ^ l ^ "_s") "s" s) selfs
  @ [
      m "self.unaccounted_s" "s" (wall -. List.fold_left (fun a (_, s) -> a +. s) 0. selfs);
      m "traced.wall_s" "s" wall;
    ]

(* {1 A run} *)

let host o =
  let read path f = try f (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> "unknown" in
  let loadavg =
    read "/proc/loadavg" (fun s ->
        String.split_on_char ' ' s |> List.filteri (fun i _ -> i < 3) |> String.concat " ")
  in
  let cpus =
    read "/proc/self/status" (fun s ->
        String.split_on_char '\n' s
        |> List.find_map (fun l ->
               match String.split_on_char ':' l with
               | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
               | _ -> None)
        |> Option.value ~default:"unknown")
  in
  (* the host's processors, not the run's: run.sh pins the run to one *)
  let nproc =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines
      |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
      |> List.length
    with Sys_error _ -> Domain.recommended_domain_count ()
  in
  J.Obj
    [
      ("nproc", int nproc);
      ("ocaml", J.String Sys.ocaml_version);
      ("loadavg", J.String loadavg);
      ("cpus", J.String cpus);
      ("seed", int o.seed);
      ("workload", J.String o.workload);
      ("seconds", num o.seconds);
      ("trace", J.Bool o.trace);
    ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : metric list;
  problems : string list;
}

let run o =
  if not (Sys.file_exists o.out_dir) then Sys.mkdir o.out_dir 0o755;
  let cold = Acsr.Hproc.table_size () in
  let host = host o in
  let all = passes o in
  let reports = List.map snd all in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) all in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) all in
  let warm =
    List.filter (fun r -> get_int "hashcons_start" r <> cold) reports
    |> List.map (fun r ->
           Printf.sprintf "pass started with %d hash-consed nodes, not the cold %d"
             (get_int "hashcons_start" r) cold)
  in
  let wrong =
    List.concat_map
      (fun r ->
        match get "wrong" r with
        | J.List l -> List.filter_map J.to_str l
        | _ -> [])
      reports
  in
  let failed = sum (get_int "failed") reports in
  let metrics =
    if o.trace then per_layer ~traced ~untraced else end_to_end untraced
  in
  let raw ms =
    List.filter_map
      (fun m ->
        if List.mem m.name [ "setup_s"; "verdict_ms_iqm"; "models_per_s" ] then
          Some { m with name = "raw." ^ m.name }
        else None)
      ms
  in
  (* a traced run shows the untraced end-to-end figures of its own
     untraced passes next to the per-layer self times; an untraced run
     shows its timings unscaled *)
  let detail =
    if o.trace then details untraced @ end_to_end untraced
    else details reports @ raw (end_to_end ~raw:true untraced)
  in
  let traces =
    List.filter_map (fun r -> J.to_str =<< J.member "trace_file" (J.Obj (get_obj "spans" r))) traced
  in
  if traces <> [] then begin
    ignore
      (Obs.Trace_merge.merge_files
         ~out:(Filename.concat o.out_dir (Printf.sprintf "%s-s%d.trace.json" o.workload o.seed))
         traces);
    List.iter Sys.remove traces
  end;
  let res =
    {
      correct = failed = 0 && warm = [];
      attempted = sum (get_int "models") reports;
      failed;
      metrics;
      detail;
      problems = warm @ wrong;
    }
  in
  let metric_json ms =
    J.Obj
      (List.map
         (fun m -> (m.name, J.Obj [ ("value", num m.value); ("unit", J.String m.unit_) ]))
         ms)
  in
  let result_json =
    J.Obj
      [
        ("correct", J.Bool res.correct);
        ("attempted", int res.attempted);
        ("failed", int res.failed);
        ("metrics", metric_json res.metrics);
      ]
  in
  Out_channel.with_open_text
    (Filename.concat o.out_dir
       (Printf.sprintf "result-%s-s%d-t%d.json" o.workload o.seed (Bool.to_int o.trace)))
    (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("host", host);
                ("result", result_json);
                ("detail", metric_json res.detail);
                ("problems", J.List (List.map (fun s -> J.String s) res.problems));
                ("passes", J.List reports);
              ]));
      output_char oc '\n');
  (res, host, result_json)

let print_run (res, host, result_json) =
  print_endline ("host " ^ J.to_string host);
  List.iter (fun p -> print_endline ("problem: " ^ p)) res.problems;
  List.iter
    (fun m -> Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit_)
    (res.detail @ res.metrics);
  print_endline (J.to_string result_json)

(* {1 Smoke}  Every workload at a small size, untraced and traced on two
   seeds: the metric names and units must be exactly BENCHMARK.json's,
   and every verdict must be right. *)

let smoke ~root_dir ~out_dir =
  let spec =
    match
      J.parse (In_channel.with_open_text (Filename.concat root_dir "BENCHMARK.json") In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let catalogue k =
    match get k spec with
    | J.List l ->
        List.map (fun m -> (Option.get (J.to_str (get "name" m)), Option.get (J.to_str (get "unit" m)))) l
    | _ -> failwith ("BENCHMARK.json: " ^ k)
  in
  let ok = ref true in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, seed) ->
          let o =
            { workload; seed; seconds = 0.; trace; root_dir; out_dir; size = Child.Smoke }
          in
          let res, _, _ = run o in
          let got = List.map (fun m -> (m.name, m.unit_)) res.metrics in
          let want = catalogue (if trace then "per_layer" else "end_to_end") in
          let problems =
            res.problems
            @ (if List.sort compare got = List.sort compare want then []
               else [ "metric names or units differ from BENCHMARK.json" ])
            @ (if res.correct then [] else [ "run not correct" ])
            @
            match List.find_opt (fun m -> m.name = "correct_frac") res.metrics with
            | Some m when m.value <> 1.0 -> [ "correct_frac is not 1.0" ]
            | _ -> []
          in
          if problems <> [] then begin
            Printf.eprintf "smoke %s trace=%b seed=%d: %s\n" workload trace seed
              (String.concat "; " problems);
            ok := false
          end)
        [ (false, 1); (true, 2) ])
    workloads;
  if not !ok then exit 1

let () =
  let tbl = parse_args Sys.argv in
  let root_dir = Option.value ~default:"." (arg tbl "root") in
  let out_dir = Option.value ~default:".perfbench" (arg tbl "out") in
  match arg tbl "child" with
  | Some workload ->
      let p =
        {
          Child.workload;
          seed = int_arg tbl "seed";
          index = int_arg tbl "pass";
          traced = arg tbl "traced" = Some "1";
          root_dir;
          out_dir;
          size = (if arg tbl "size" = Some "smoke" then Child.Smoke else Child.Full);
        }
      in
      print_endline (J.to_string (Child.run p))
  | None when arg tbl "smoke" <> None ->
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      smoke ~root_dir ~out_dir
  | None ->
      let workload = Option.value ~default:"" (arg tbl "workload") in
      if not (List.mem workload workloads) then usage ();
      let trace =
        match arg tbl "trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage ()
      in
      print_run
        (run
           {
             workload;
             seed = int_arg tbl "seed";
             seconds = float_of_int (int_arg tbl "seconds");
             trace;
             root_dir;
             out_dir;
             size = Child.Full;
           })
