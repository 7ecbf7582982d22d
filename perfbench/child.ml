(* One pass of a workload, run in a fresh process so that no pass
   inherits the global hash-cons table (Acsr.Hproc) of an earlier one.
   The pass prints one JSON report on stdout for the orchestrator. *)

open Report

type size = Full | Smoke

type pass = {
  workload : string;
  seed : int;
  index : int;
  traced : bool;
  root_dir : string;
  out_dir : string;
  size : size;
}

(* The state budget of the corpus: large enough for most generated
   models, small enough that a few of the largest end Inconclusive. *)
let corpus_max_states = 1_000

(* The service sweep's budget is never reached: every miss is decided. *)
let sweep_max_states = 2_000_000

(* {1 Tallies} *)

type tally = {
  mutable models : int;
  mutable decided : int;
  mutable correct : int;
  mutable failed : int;
  mutable wrong : string list;
}

let tally () =
  { models = 0; decided = 0; correct = 0; failed = 0; wrong = [] }

(* An exact verdict is checked against the model's reference; a wrong
   one, or a reference that contradicts itself, counts as failed. *)
let check t (m : Models.model) verdict =
  t.models <- t.models + 1;
  match verdict with
  | `Exact v -> (
      t.decided <- t.decided + 1;
      match Models.answer m with
      | a when a = v -> t.correct <- t.correct + 1
      | _ ->
          t.failed <- t.failed + 1;
          t.wrong <- m.Models.id :: t.wrong
      | exception Failure why ->
          t.failed <- t.failed + 1;
          t.wrong <- why :: t.wrong)
  | `Undecided -> ()
  | `Failed why ->
      t.failed <- t.failed + 1;
      t.wrong <- (m.Models.id ^ ": " ^ why) :: t.wrong

(* {1 The direct path: text -> verdict through the layers' public
   entry points} *)

type versa_sums = {
  mutable explore_s : float;
  mutable expand_s : float;
  mutable merge_s : float;
  mutable canon_s : float;
  mutable states : int;
  mutable transitions : int;
  mutable intern_hits : int;
  mutable intern_misses : int;
  mutable orbit_hits : int;
  mutable orbit_misses : int;
  mutable peak_frontier : int;
  mutable store_bytes : int;
}

let versa_sums () =
  {
    explore_s = 0.; expand_s = 0.; merge_s = 0.; canon_s = 0.; states = 0;
    transitions = 0; intern_hits = 0; intern_misses = 0; orbit_hits = 0;
    orbit_misses = 0; peak_frontier = 0; store_bytes = 0;
  }

let add_stats v (s : Versa.Lts.stats) =
  v.explore_s <- v.explore_s +. s.wall_s;
  v.expand_s <- v.expand_s +. s.expand_s;
  v.merge_s <- v.merge_s +. s.merge_s;
  v.canon_s <- v.canon_s +. s.canon_s;
  v.states <- v.states + s.num_states;
  v.transitions <- v.transitions + s.num_transitions;
  v.intern_hits <- v.intern_hits + s.intern_hits;
  v.intern_misses <- v.intern_misses + s.intern_misses;
  v.orbit_hits <- v.orbit_hits + s.orbit_hits;
  v.orbit_misses <- v.orbit_misses + s.orbit_misses;
  v.peak_frontier <- max v.peak_frontier s.peak_frontier;
  v.store_bytes <- max v.store_bytes s.store_bytes

let analyze ?raises ~max_states versa (m : Models.model) =
  match
    let ast =
      Obs.Span.with_ ~name:"aadl.parse" (fun () ->
          Aadl.Parser.parse_string m.Models.text)
    in
    let root =
      Obs.Span.with_ ~name:"aadl.instantiate" (fun () ->
          Aadl.Instantiate.instantiate ast ~root:m.Models.root)
    in
    Obs.Span.with_ ~name:"analysis.analyze" (fun () ->
        Analysis.Schedulability.analyze
          ~options:{ Analysis.Schedulability.default_options with max_states }
          root)
  with
  | r -> (
      add_stats versa (Versa.Explorer.stats r.Analysis.Schedulability.exploration);
      match r.Analysis.Schedulability.verdict with
      | Analysis.Schedulability.Schedulable -> `Exact Models.Schedulable
      | Analysis.Schedulability.Not_schedulable { trace; _ } ->
          Option.iter
            (fun l ->
              l := (r.Analysis.Schedulability.translation.Translate.Pipeline.registry, trace) :: !l)
            raises;
          `Exact Models.Not_schedulable
      | Analysis.Schedulability.Inconclusive _ -> `Undecided)
  | exception e -> `Failed (Printexc.to_string e)

let versa_json v =
  [
    ("versa.explore_s", num v.explore_s);
    ("versa.expand_s", num v.expand_s);
    ("versa.merge_s", num v.merge_s);
    ("versa.us_per_state", num (if v.states = 0 then 0. else v.explore_s *. 1e6 /. float_of_int v.states));
    ("versa.states", int v.states);
    ("versa.transitions", int v.transitions);
    ("versa.intern_hit_frac", num (ratio v.intern_hits (v.intern_hits + v.intern_misses)));
    ("versa.peak_frontier", int v.peak_frontier);
    ("versa.store_bytes", int v.store_bytes);
    ("acsr.canon_s", num v.canon_s);
    ("acsr.orbit_hit_frac", num (ratio v.orbit_hits (v.orbit_hits + v.orbit_misses)));
  ]

(* [Raise_trace.raise_trace] runs inside [Schedulability.analyze], where
   the benchmark cannot bracket it.  A traced pass keeps the inputs of
   every raise its analyses made and, after the measured phase, times
   the same calls on them again. *)
let raise_inputs p = if p.traced then Some (ref []) else None

let raise_json = function
  | None -> []
  | Some l ->
      let t0 = now () in
      List.iter (fun (registry, trace) -> ignore (Analysis.Raise_trace.raise_trace ~registry trace)) !l;
      let n = List.length !l in
      [ ("analysis.raise_ms", num (if n = 0 then 0. else (now () -. t0) *. 1e3 /. float_of_int n)) ]

(* {1 Workloads}  Each returns its set-up times, verdict and hit
   samples in ms, tally and layer fields; [run] times the measured
   phase. *)

(* Set-up takes milliseconds or less, so one sample a pass would leave a
   corpus run with three.  Every pass sets up [setups] times instead;
   [release] frees all but the last, which the pass uses.  The first one
   or two set-ups in a process are slower than the rest, as the heap
   grows; the run reports the fastest sample. *)
let setups = 8

let set_up ?(release = ignore) f =
  let rec go k times =
    let t0 = now () in
    let r = f () in
    let times = (now () -. t0) :: times in
    if k = 1 then (r, times)
    else begin
      release r;
      go (k - 1) times
    end
  in
  go setups []

type result = {
  setup_s : float list;  (** each set-up, until the first request is ready *)
  verdict_ms : float list;
  hit_ms : float list;
  tally : tally;
  layer : (string * J.t) list;
}

let large_model p ~measure =
  let model, setup_s =
    set_up (fun () ->
        Models.e6
          ~expected:(Models.read_expected ~root_dir:p.root_dir)
          (match p.size with Full -> 7 | Smoke -> 5))
  in
  let versa = versa_sums () and raises = raise_inputs p in
  let v, ms =
    measure (fun () ->
        timed_ms (fun () ->
            analyze ?raises
              ~max_states:Analysis.Schedulability.default_options.max_states versa model))
  in
  let t = tally () in
  check t model v;
  { setup_s; verdict_ms = [ ms ]; hit_ms = []; tally = t; layer = versa_json versa @ raise_json raises }

let corpus p ~measure =
  let sets, families = match p.size with Full -> (50, 10) | Smoke -> (4, 2) in
  let models, setup_s =
    set_up (fun () ->
        let expected = Models.read_expected ~root_dir:p.root_dir in
        Models.corpus ~root_dir:p.root_dir ~expected ~seed:p.seed ~sets ~families)
  in
  let versa = versa_sums () and raises = raise_inputs p in
  let timed =
    measure (fun () ->
        List.map
          (fun m ->
            let v, ms = timed_ms (fun () -> analyze ?raises ~max_states:corpus_max_states versa m) in
            (m, v, ms))
          models)
  in
  let t = tally () in
  List.iter (fun (m, v, _) -> check t m v) timed;
  {
    setup_s;
    verdict_ms = List.map (fun (_, _, ms) -> ms) timed;
    hit_ms = [];
    tally = t;
    layer = versa_json versa @ raise_json raises;
  }

(* {2 The service sweep}  A client, a Router and one journaled Shard in
   this process, talking over Unix sockets.  The handlers are wrapped to
   time the router and shard share of each round trip. *)

type service = {
  socket : Service.Transport_socket.t;
  shard : Service.Shard.t;
  journal : string;
  router_addr : string;
}

let router_s = ref 0. and shard_s = ref 0.

let timed cell handler line =
  let t0 = now () in
  let reply = handler line in
  cell := now () -. t0;
  reply

let bring_up p =
  let base = Filename.concat p.out_dir (Printf.sprintf "p%d" (Unix.getpid ())) in
  let shard_addr = "unix:" ^ base ^ "-shard.sock"
  and router_addr = "unix:" ^ base ^ "-router.sock"
  and journal = base ^ ".journal" in
  let socket = Service.Transport_socket.create () in
  let transport = Service.Transport_socket.make socket in
  let shard =
    match
      Service.Shard.create ~journal ~name:shard_addr Service.Runner.default_config
    with
    | Ok s -> s
    | Error e -> failwith ("shard: " ^ e)
  in
  Service.Transport_socket.serve socket shard_addr
    (timed shard_s (Service.Shard.handler shard));
  let router = Service.Router.create ~name:router_addr ~shards:[ shard_addr ] transport in
  Service.Transport_socket.serve socket router_addr
    (timed router_s (Service.Router.handler router));
  { socket; shard; journal; router_addr }

let tear_down s =
  Service.Transport_socket.stop s.socket;
  Service.Shard.close s.shard

let service_sweep p ~measure =
  let misses, repeats = match p.size with Full -> (100, 4) | Smoke -> (6, 2) in
  let (manifest, svc), setup_s =
    set_up
      ~release:(fun (_, svc) ->
        tear_down svc;
        Sys.remove svc.journal)
      (fun () ->
        let manifest = Models.sweep ~seed:p.seed ~misses ~repeats ~max_states:sweep_max_states in
        (manifest, bring_up p))
  in
  let client = Service.Transport_socket.create () in
  let send (e : Models.sweep_entry) =
    Obs.Span.with_ ~name:"client.request" (fun () ->
        let line =
          Service.Json.to_string
            (Service.Protocol.set_trace
               (Service.Job.request_to_json e.Models.request)
               (Obs.Context.current ()))
        in
        let reply, ms =
          timed_ms (fun () ->
              Service.Transport_socket.call client ~timeout:120. ~src:"perfbench"
                ~dst:svc.router_addr line)
        in
        let outcome =
          match reply with
          | Error err -> Error (Service.Transport.error_message err)
          | Ok r -> (
              match Result.bind (Service.Json.parse r) Service.Job.outcome_of_json with
              | Ok o -> Ok o
              | Error err -> Error err)
        in
        (e, outcome, ms, !router_s *. 1e3, !shard_s *. 1e3))
  in
  let replies = measure (fun () -> List.map send manifest) in
  Service.Transport_socket.stop client;
  let config = Service.Shard.config svc.shard in
  let lru =
    match config.Service.Runner.cache with
    | Some c -> Service.Lru.counters c
    | None -> failwith "shard without a verdict cache"
  in
  let frag =
    match config.Service.Runner.fragments with
    | Some f -> Translate.Fragment_cache.counters f
    | None -> failwith "shard without a fragment cache"
  in
  let jstats =
    match Service.Shard.journal svc.shard with
    | Some j -> Service.Journal.stats j
    | None -> failwith "shard without a journal"
  in
  tear_down svc;
  (* a restarted shard replays the journal just written *)
  let t0 = now () in
  let replayed =
    match Service.Shard.create ~journal:svc.journal ~name:"replay" Service.Runner.default_config with
    | Ok s ->
        let n =
          match Service.Shard.recovery s with
          | Some r -> List.length r.Service.Journal.replayed
          | None -> 0
        in
        Service.Shard.close s;
        n
    | Error e -> failwith ("journal replay: " ^ e)
  in
  let replay_ms = (now () -. t0) *. 1e3 in
  Sys.remove svc.journal;
  (* verdicts: a miss against its reference, a hit against the verdict
     its miss returned *)
  let t = tally () in
  let first_verdict = Hashtbl.create 128 in
  let miss_ms = ref [] and hit_ms = ref [] in
  let transport = ref [] and router = ref [] and shard_hit = ref [] and shard_miss = ref [] in
  List.iteri
    (fun i ((e : Models.sweep_entry), outcome, ms, r_ms, s_ms) ->
      let verdict =
        match outcome with
        | Error err -> `Failed err
        | Ok (o : Service.Job.outcome) -> (
            if o.cached then begin
              hit_ms := ms :: !hit_ms;
              shard_hit := s_ms :: !shard_hit
            end
            else begin
              miss_ms := ms :: !miss_ms;
              shard_miss := s_ms :: !shard_miss
            end;
            transport := (ms -. r_ms) :: !transport;
            router := (r_ms -. s_ms) :: !router;
            match o.verdict with
            | Service.Job.Schedulable -> `Exact Models.Schedulable
            | Service.Job.Not_schedulable _ -> `Exact Models.Not_schedulable
            | Service.Job.Bounded _ | Service.Job.Unknown _ -> `Undecided
            | Service.Job.Cancelled -> `Failed "cancelled"
            | Service.Job.Failed why -> `Failed why)
      in
      if e.Models.first = i then begin
        Hashtbl.replace first_verdict i verdict;
        check t e.Models.model verdict
      end
      else begin
        t.models <- t.models + 1;
        match (verdict, Hashtbl.find_opt first_verdict e.Models.first) with
        | `Exact v, Some (`Exact v0) when v = v0 ->
            t.decided <- t.decided + 1;
            t.correct <- t.correct + 1
        | `Undecided, Some `Undecided -> ()
        | _ ->
            t.failed <- t.failed + 1;
            t.wrong <- (e.Models.request.Service.Job.id ^ ": repeat disagrees") :: t.wrong
      end)
    replies;
  let layer =
    [
      ("service.transport_ms", num (mean !transport));
      ("service.router_ms", num (mean !router));
      ("service.shard_hit_ms", num (mean !shard_hit));
      ("service.shard_miss_ms", num (mean !shard_miss));
      ("service.cache_hits", int lru.Service.Lru.hits);
      ("service.cache_misses", int lru.Service.Lru.misses);
      ("service.evictions", int lru.Service.Lru.evictions);
      ("service.journal_appends", int jstats.Service.Journal.records);
      ("service.journal_bytes", int jstats.Service.Journal.bytes);
      ("service.journal_replayed", int replayed);
      ("service.journal_replay_ms", num replay_ms);
      ("translate.fragment_hits", int frag.Translate.Fragment_cache.hits);
      ("translate.fragment_misses", int frag.Translate.Fragment_cache.misses);
    ]
  in
  { setup_s; verdict_ms = !miss_ms; hit_ms = !hit_ms; tally = t; layer }

(* {1 The pass} *)

let run p =
  let hashcons_start = Acsr.Hproc.table_size () in
  Obs.Trace.set_node (Printf.sprintf "%s-pass%d" p.workload p.index);
  (* the Gc figures and the table's end size cover the measured phase
     only, not the verdict checks and journal replay that follow it *)
  let measured = ref 0. and measured_cpu = ref 0. and gc0 = ref (Gc.quick_stat ()) in
  let gc1 = ref !gc0 and hashcons_end = ref hashcons_start in
  let calib = ref [] in
  let measure f =
    calib := [ Calib.time () ];
    gc0 := Gc.quick_stat ();
    if p.traced then Obs.Trace.start ();
    let t0 = now () and c0 = cpu_s () in
    let r = f () in
    measured := now () -. t0;
    measured_cpu := cpu_s () -. c0;
    if p.traced then Obs.Trace.stop ();
    gc1 := Gc.quick_stat ();
    hashcons_end := Acsr.Hproc.table_size ();
    calib := Calib.time () :: !calib;
    r
  in
  let r =
    match p.workload with
    | "large_model" -> large_model p ~measure
    | "corpus" -> corpus p ~measure
    | "service_sweep" -> service_sweep p ~measure
    | w -> failwith ("unknown workload " ^ w)
  in
  let spans =
    if p.traced then begin
      let trace = Obs.Trace.to_string () in
      let path =
        Filename.concat p.out_dir
          (Printf.sprintf "trace-%s-s%d-p%d.json" p.workload p.seed p.index)
      in
      Out_channel.with_open_text path (fun oc -> output_string oc trace);
      ("trace_file", J.String path)
      :: List.map
           (fun (name, s) ->
             (name, J.List [ int s.count; num s.total_s; num s.self_s ]))
           (span_totals trace)
    end
    else []
  in
  let t = r.tally in
  J.Obj
    [
      ("hashcons_start", int hashcons_start);
      ("hashcons_end", int !hashcons_end);
      ("traced", J.Bool p.traced);
      ("setup_s", floats r.setup_s);
      ("measured_s", num !measured);
      ("measured_cpu_s", num !measured_cpu);
      ("calib_s", num (mean !calib));
      ("verdict_ms", floats r.verdict_ms);
      ("hit_ms", floats r.hit_ms);
      ("models", int t.models);
      ("decided", int t.decided);
      ("correct", int t.correct);
      ("failed", int t.failed);
      ("wrong", J.List (List.map (fun s -> J.String s) t.wrong));
      ("top_heap_mb", num (float_of_int (!gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.));
      ("minor_words", num (!gc1.Gc.minor_words -. !gc0.Gc.minor_words));
      ("major_collections", int (!gc1.Gc.major_collections - !gc0.Gc.major_collections));
      ("layer", J.Obj r.layer);
      ("spans", J.Obj spans);
    ]
