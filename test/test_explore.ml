(* Tests for the hash-consed explorer.

   Three families of guarantees:
   - the graph builder ([Lts.build]) and the on-the-fly checker
     ([Lts.check]) agree on every count, deadlock id and shortest trace,
     on full, truncated and early-exit runs of the reference models, the
     example models and random terms;
   - explorations run concurrently on several domains, as the service
     scheduler runs them, are bit-identical to the same runs alone;
   - the hash-consed semantics engine agrees term-for-term with the
     reference engine ([Semantics.steps]/[prioritized]), and the [Hproc]
     layer is a faithful embedding of [Proc]. *)

open Acsr

let cpu = Resource.make "cpu"

let e_int n = Expr.Int n

let action accesses =
  Action.of_list (List.map (fun (r, p) -> (r, e_int p)) accesses)

let tr_of text =
  let tr = Translate.Pipeline.translate (Aadl.Instantiate.of_string text) in
  (tr.Translate.Pipeline.defs, tr.Translate.Pipeline.system)

let reference_models () =
  let exhaustive =
    {
      Versa.Lts.default_config with
      max_states = Some 100_000;
      stop_at_deadlock = false;
    }
  in
  let stop =
    {
      Versa.Lts.default_config with
      max_states = Some 100_000;
      stop_at_deadlock = true;
    }
  in
  let tiny =
    {
      Versa.Lts.default_config with
      max_states = Some 40;
      stop_at_deadlock = false;
    }
  in
  let cruise = tr_of (Gen.cruise_control ()) in
  let overload = tr_of (Gen.cruise_control ~overload:true ()) in
  let crossover = tr_of (Gen.periodic_system Gen.crossover_set) in
  [
    ( "fig3",
      (Gen.Paper_figs.fig3_defs, Gen.Paper_figs.fig3_system),
      exhaustive );
    ("cruise control", cruise, exhaustive);
    ("cruise control truncated", cruise, tiny);
    ("cruise control overloaded", overload, stop);
    ("crossover set", crossover, stop);
  ]

(* {1 Hash-consed semantics vs the reference engine, on LTS states} *)

let test_engines_agree_on_reachable_states () =
  List.iter
    (fun (name, (defs, system), config) ->
      let lts = Versa.Lts.build ~config defs system in
      let cache = Semantics.make_cache () in
      for id = 0 to Versa.Lts.num_states lts - 1 do
        let t = Versa.Lts.term lts id in
        let reference = Semantics.prioritized defs t in
        let hashconsed =
          List.map
            (fun (s, h) -> (s, Hproc.to_proc h))
            (Semantics.h_prioritized ~cache defs (Hproc.of_proc t))
        in
        if reference <> hashconsed then
          Alcotest.failf "%s: engines disagree on state %d" name id
      done)
    [ List.nth (reference_models ()) 0; List.nth (reference_models ()) 1 ]

(* {1 On-the-fly checker vs the full builder}

   [Lts.check] must agree with [Lts.build] under the same config on
   everything both can answer: visited-state and transition counts,
   truncation, deadlock ids, shortest counterexample paths and every
   count in the stats record. *)

(* Every count field of [Lts.stats], rendered so a mismatch shows which
   one moved.  Timings, the store-size estimate and the global hash-cons
   table size are not per-engine facts and stay out. *)
let stats_counts (s : Versa.Lts.stats) =
  Fmt.str
    "states %d, transitions %d, deadlocks %d, peak frontier %d, levels %d, \
     interns %d/%d, memo %d/%d, orbits %d/%d, early exit %a, deadline %b"
    s.num_states s.num_transitions s.num_deadlocks s.peak_frontier
    s.depth_levels s.intern_hits s.intern_misses s.memo_hits s.memo_misses
    s.orbit_hits s.orbit_misses
    Fmt.(option ~none:(any "none") int)
    s.early_exit_depth s.deadline_expired

let check_otf_matches_build name (lts : Versa.Lts.t)
    (c : Versa.Lts.check_result) =
  Alcotest.(check string)
    (name ^ ": stats counts")
    (stats_counts (Versa.Lts.stats lts))
    (stats_counts (Versa.Lts.check_stats c));
  Alcotest.(check int)
    (name ^ ": states") (Versa.Lts.num_states lts)
    (Versa.Lts.check_num_states c);
  Alcotest.(check int)
    (name ^ ": transitions")
    (Versa.Lts.num_transitions lts)
    (Versa.Lts.check_num_transitions c);
  Alcotest.(check bool)
    (name ^ ": truncated") (Versa.Lts.truncated lts)
    (Versa.Lts.check_truncated c);
  Alcotest.(check (list int))
    (name ^ ": deadlocks") (Versa.Lts.deadlocks lts)
    (Versa.Lts.check_deadlocks c);
  List.iter
    (fun d ->
      if Versa.Lts.path_to lts d <> Versa.Lts.check_path_to c d then
        Alcotest.failf "%s: shortest path to deadlock %d differs" name d)
    (Versa.Lts.deadlocks lts);
  for id = 0 to min 20 (Versa.Lts.num_states lts - 1) do
    if Versa.Lts.term lts id <> Versa.Lts.check_term c id then
      Alcotest.failf "%s: term of state %d differs" name id
  done

(* Each reference model under its own config, then truncated by a small
   state budget, then stopped at the first deadlock. *)
let test_check_matches_build () =
  List.iter
    (fun (name, (defs, system), config) ->
      List.iter
        (fun (variant, config) ->
          let lts = Versa.Lts.build ~config defs system in
          let c = Versa.Lts.check ~config defs system in
          check_otf_matches_build (name ^ variant) lts c)
        [
          ("", config);
          ( " (max_states 50)",
            { config with max_states = Some 50; stop_at_deadlock = false } );
          (" (early exit)", { config with stop_at_deadlock = true });
        ])
    (reference_models ())

(* {1 Concurrent explorations}

   The service scheduler runs whole explorations on several domains at
   once; they share the global intern table and nothing else.  Each
   must come out bit-identical to the same exploration run alone.  Every
   reference model runs twice in the concurrent batch, so the same terms
   are interned from two domains at once. *)

(* [f x] for every [x], spread over two pool workers and the caller. *)
let on_domains f xs =
  let xs = Array.of_list xs in
  let out = Array.make (Array.length xs) None in
  let pool = Versa.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Versa.Pool.shutdown pool)
    (fun () ->
      Versa.Pool.run pool (Array.length xs) (fun i ->
          out.(i) <- Some (f xs.(i))));
  Array.to_list (Array.map Option.get out)

let check_identical name (a : Versa.Lts.t) (b : Versa.Lts.t) =
  Alcotest.(check int)
    (name ^ ": states") (Versa.Lts.num_states a) (Versa.Lts.num_states b);
  Alcotest.(check int)
    (name ^ ": transitions")
    (Versa.Lts.num_transitions a)
    (Versa.Lts.num_transitions b);
  Alcotest.(check bool)
    (name ^ ": truncated") (Versa.Lts.truncated a) (Versa.Lts.truncated b);
  Alcotest.(check (list int))
    (name ^ ": deadlocks") (Versa.Lts.deadlocks a) (Versa.Lts.deadlocks b);
  for id = 0 to Versa.Lts.num_states a - 1 do
    if Versa.Lts.depth a id <> Versa.Lts.depth b id then
      Alcotest.failf "%s: depth of state %d differs" name id;
    if Versa.Lts.successors a id <> Versa.Lts.successors b id then
      Alcotest.failf "%s: successors of state %d differ" name id
  done;
  List.iter
    (fun d ->
      if Versa.Lts.path_to a d <> Versa.Lts.path_to b d then
        Alcotest.failf "%s: shortest trace to deadlock %d differs" name d)
    (Versa.Lts.deadlocks a)

let twice xs = xs @ xs

let test_parallel_build_identical () =
  let models = twice (reference_models ()) in
  let build (_, (defs, system), config) = Versa.Lts.build ~config defs system in
  List.iter2
    (fun ((name, _, _) as m) concurrent ->
      check_identical name (build m) concurrent)
    models (on_domains build models)

let test_parallel_verdict_identical () =
  let models = twice (reference_models ()) in
  let verdict (_, (defs, system), _) =
    let r = Versa.Explorer.check_deadlock defs system in
    match r.Versa.Explorer.verdict with
    | Versa.Explorer.Deadlock_free -> "deadlock-free"
    | Versa.Explorer.Deadlock { state; trace } ->
        Fmt.str "deadlock at %d: %a" state
          Fmt.(list ~sep:semi Acsr.Step.pp)
          (Versa.Trace.steps trace)
    | Versa.Explorer.Inconclusive why -> "inconclusive: " ^ why
  in
  List.iter2
    (fun ((name, _, _) as m) concurrent ->
      Alcotest.(check string) (name ^ ": verdict") (verdict m) concurrent)
    models (on_domains verdict models)

let test_check_parallel_identical () =
  let models = twice (reference_models ()) in
  let check (_, (defs, system), config) = Versa.Lts.check ~config defs system in
  List.iter2
    (fun ((name, _, _) as m) concurrent ->
      let alone = check m in
      Alcotest.(check string)
        (name ^ ": stats counts")
        (stats_counts (Versa.Lts.check_stats alone))
        (stats_counts (Versa.Lts.check_stats concurrent));
      Alcotest.(check (list int))
        (name ^ ": deadlocks")
        (Versa.Lts.check_deadlocks alone)
        (Versa.Lts.check_deadlocks concurrent);
      List.iter
        (fun d ->
          if
            Versa.Lts.check_path_to alone d
            <> Versa.Lts.check_path_to concurrent d
          then Alcotest.failf "%s: path to deadlock %d differs" name d)
        (Versa.Lts.check_deadlocks alone))
    models (on_domains check models)

(* {1 Engine agreement on every example AADL model}

   Both engines must report the same verdict, the same raised AADL
   scenario and the same stats counts — stopped at the first deadlock,
   truncated by a small state budget and explored exhaustively (then
   with the same deadlock ids too) — on every model shipped in
   examples/models. *)

let example_models_dir () =
  List.find_opt Sys.file_exists
    [ "../examples/models"; "examples/models" ]

let analyze_with ?(max_states = 300_000) engine ~all root =
  Analysis.Schedulability.analyze
    ~options:
      {
        Analysis.Schedulability.default_options with
        max_states;
        all_violations = all;
        engine;
      }
    root

let test_example_models_agree () =
  match example_models_dir () with
  | None -> Alcotest.fail "examples/models not found (missing dune deps?)"
  | Some dir ->
      let models =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".aadl")
        |> List.sort compare
      in
      Alcotest.(check bool) "found example models" true (models <> []);
      List.iter
        (fun file ->
          let contents =
            let ic = open_in_bin (Filename.concat dir file) in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let root = Aadl.Instantiate.of_string contents in
          let full = analyze_with Versa.Explorer.Full ~all:false root in
          let otf = analyze_with Versa.Explorer.On_the_fly ~all:false root in
          let describe (r : Analysis.Schedulability.t) =
            match r.Analysis.Schedulability.verdict with
            | Analysis.Schedulability.Schedulable -> "schedulable"
            | Analysis.Schedulability.Not_schedulable { scenario; trace } ->
                Fmt.str "NOT schedulable at t=%d: %a (steps %a)"
                  scenario.Analysis.Raise_trace.violation_time
                  Analysis.Raise_trace.pp scenario
                  Fmt.(list ~sep:semi Acsr.Step.pp)
                  (Versa.Trace.steps trace)
            | Analysis.Schedulability.Inconclusive why -> "inconclusive: " ^ why
          in
          let check_stats what (a : Analysis.Schedulability.t)
              (b : Analysis.Schedulability.t) =
            let counts (r : Analysis.Schedulability.t) =
              stats_counts
                (Versa.Explorer.stats r.Analysis.Schedulability.exploration)
            in
            Alcotest.(check string)
              (Fmt.str "%s: stats counts (%s)" file what)
              (counts a) (counts b)
          in
          Alcotest.(check string)
            (file ^ ": verdict and scenario") (describe full) (describe otf);
          check_stats "early exit" full otf;
          let full_t =
            analyze_with ~max_states:50 Versa.Explorer.Full ~all:true root
          in
          let otf_t =
            analyze_with ~max_states:50 Versa.Explorer.On_the_fly ~all:true
              root
          in
          check_stats "max_states 50" full_t otf_t;
          (* exhaustively: same number of violation states *)
          let full_x = analyze_with Versa.Explorer.Full ~all:true root in
          let otf_x = analyze_with Versa.Explorer.On_the_fly ~all:true root in
          check_stats "exhaustive" full_x otf_x;
          Alcotest.(check (list int))
            (file ^ ": deadlock ids (exhaustive)")
            (Versa.Explorer.deadlocks full_x.Analysis.Schedulability.exploration)
            (Versa.Explorer.deadlocks otf_x.Analysis.Schedulability.exploration);
          Alcotest.(check int)
            (file ^ ": states (exhaustive)")
            (Versa.Explorer.num_states full_x.Analysis.Schedulability.exploration)
            (Versa.Explorer.num_states otf_x.Analysis.Schedulability.exploration))
        models

(* {1 Property-based tests} *)

(* A generator covering every [Proc] constructor except [Call] (the terms
   must stay closed under an empty environment): actions, events, choice,
   parallel, restriction, closure, guards and temporal scopes. *)
let gen_proc_full : Proc.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_range 0 6)
  @@ fix (fun self n ->
         if n = 0 then return Proc.nil
         else
           frequency
             [
               (2, return Proc.nil);
               ( 3,
                 let* p = self (n - 1) in
                 let* prio = int_range 0 2 in
                 return (Proc.act (action [ (cpu, prio) ]) p) );
               ( 2,
                 let* p = self (n - 1) in
                 return (Proc.act Action.idle p) );
               ( 2,
                 let* p = self (n - 1) in
                 let* l = oneofl [ "a"; "b" ] in
                 let* out = bool in
                 return
                   (if out then Proc.send (Label.make l) p
                    else Proc.receive (Label.make l) p) );
               ( 2,
                 let* p = self (n / 2) in
                 let* q = self (n / 2) in
                 return (Proc.choice p q) );
               ( 2,
                 let* p = self (n / 2) in
                 let* q = self (n / 2) in
                 return (Proc.par p q) );
               ( 1,
                 let* p = self (n - 1) in
                 let* l = oneofl [ "a"; "b" ] in
                 return (Proc.restrict (Label.set_of_list [ Label.make l ]) p)
               );
               ( 1,
                 let* p = self (n - 1) in
                 return (Proc.close (Resource.set_of_list [ cpu ]) p) );
               ( 1,
                 (* [Proc.If] directly: the [if_] smart constructor folds
                    constant guards away *)
                 let* p = self (n - 1) in
                 let* a = int_range 0 2 in
                 let* b = int_range 0 2 in
                 return (Proc.If (Guard.lt (e_int a) (e_int b), p)) );
               ( 1,
                 let* body = self (n / 2) in
                 let* timeout = self (n / 3) in
                 let* bound = int_range 0 3 in
                 let* with_exc = bool in
                 let* handler = self (n / 3) in
                 let* with_interrupt = bool in
                 let* intr = self (n / 3) in
                 return
                   (Proc.scope ~bound:(e_int bound)
                      ?exc:
                        (if with_exc then Some (Label.make "a", handler)
                         else None)
                      ?interrupt:(if with_interrupt then Some intr else None)
                      ~timeout body) );
             ])

let prop_roundtrip =
  QCheck2.Test.make ~name:"to_proc (of_proc p) = p" ~count:500 gen_proc_full
    (fun p -> Hproc.to_proc (Hproc.of_proc p) = p)

let prop_interning =
  QCheck2.Test.make ~name:"of_proc p == of_proc q iff p = q" ~count:500
    QCheck2.Gen.(pair gen_proc_full gen_proc_full)
    (fun (p, q) -> Hproc.equal (Hproc.of_proc p) (Hproc.of_proc q) = (p = q))

let prop_hash_respects_equality =
  QCheck2.Test.make ~name:"equal terms have equal memoized hashes" ~count:500
    QCheck2.Gen.(pair gen_proc_full gen_proc_full)
    (fun (p, q) ->
      p <> q || Hproc.hash (Hproc.of_proc p) = Hproc.hash (Hproc.of_proc q))

let prop_compare_structural_mirrors_stdlib =
  QCheck2.Test.make
    ~name:"compare_structural has the sign of Stdlib.compare" ~count:500
    QCheck2.Gen.(pair gen_proc_full gen_proc_full)
    (fun (p, q) ->
      let sign c = Stdlib.compare c 0 in
      sign (Hproc.compare_structural (Hproc.of_proc p) (Hproc.of_proc q))
      = sign (Stdlib.compare p q))

let prop_h_steps_agree =
  QCheck2.Test.make ~name:"h_steps = steps (term for term)" ~count:300
    gen_proc_full (fun p ->
      Semantics.steps Defs.empty p
      = List.map
          (fun (s, h) -> (s, Hproc.to_proc h))
          (Semantics.h_steps Defs.empty (Hproc.of_proc p)))

let prop_h_prioritized_agree =
  QCheck2.Test.make ~name:"h_prioritized = prioritized" ~count:300
    gen_proc_full (fun p ->
      Semantics.prioritized Defs.empty p
      = List.map
          (fun (s, h) -> (s, Hproc.to_proc h))
          (Semantics.h_prioritized Defs.empty (Hproc.of_proc p)))

let prop_check_agrees_with_build =
  QCheck2.Test.make ~name:"check = build on random terms" ~count:50
    gen_proc_full (fun p ->
      let lts = Versa.Lts.build Defs.empty p in
      let c = Versa.Lts.check Defs.empty p in
      stats_counts (Versa.Lts.stats lts)
      = stats_counts (Versa.Lts.check_stats c)
      && Versa.Lts.num_states lts = Versa.Lts.check_num_states c
      && Versa.Lts.num_transitions lts = Versa.Lts.check_num_transitions c
      && Versa.Lts.deadlocks lts = Versa.Lts.check_deadlocks c
      && List.for_all
           (fun d -> Versa.Lts.path_to lts d = Versa.Lts.check_path_to c d)
           (Versa.Lts.deadlocks lts))

let prop_check_early_exit_sound =
  (* with [stop_at_deadlock] the checker may stop early, but any deadlock
     it reports must be the first one of the exhaustive exploration *)
  QCheck2.Test.make ~name:"early-exit deadlock = first exhaustive deadlock"
    ~count:50 gen_proc_full (fun p ->
      let stop =
        { Versa.Lts.default_config with stop_at_deadlock = true }
      in
      let c = Versa.Lts.check ~config:stop Defs.empty p in
      let lts = Versa.Lts.build Defs.empty p in
      match (Versa.Lts.check_deadlocks c, Versa.Lts.deadlocks lts) with
      | [], [] -> true
      | d :: _, d' :: _ ->
          d = d'
          && Versa.Lts.check_path_to c d = Versa.Lts.path_to lts d'
      | [], _ :: _ | _ :: _, [] -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_interning;
      prop_hash_respects_equality;
      prop_compare_structural_mirrors_stdlib;
      prop_h_steps_agree;
      prop_h_prioritized_agree;
      prop_check_agrees_with_build;
      prop_check_early_exit_sound;
    ]

(* {1 Wall-clock budgets and cooperative cancellation} *)

let test_deadline_budget_truncates () =
  let defs, system = tr_of (Gen.cruise_control ()) in
  let expired =
    {
      Versa.Lts.default_config with
      stop_at_deadlock = false;
      deadline = Some (Timed.Clock.gettimeofday () -. 1.);
    }
  in
  (* an already-expired budget: both engines must truncate at the first
     merge step and flag it in the stats, never hang *)
  let lts = Versa.Lts.build ~config:expired defs system in
  Alcotest.(check bool) "build truncated" true (Versa.Lts.truncated lts);
  Alcotest.(check bool)
    "build stats flag" true
    (Versa.Lts.stats lts).Versa.Lts.deadline_expired;
  let c = Versa.Lts.check ~config:expired defs system in
  Alcotest.(check bool) "check truncated" true (Versa.Lts.check_truncated c);
  Alcotest.(check bool)
    "check stats flag" true
    (Versa.Lts.check_stats c).Versa.Lts.deadline_expired;
  (* a generous budget must not perturb the exploration *)
  let roomy =
    {
      Versa.Lts.default_config with
      stop_at_deadlock = false;
      deadline = Some (Timed.Clock.gettimeofday () +. 3600.);
    }
  in
  let full = Versa.Lts.build ~config:roomy defs system in
  Alcotest.(check bool) "roomy not truncated" false (Versa.Lts.truncated full);
  Alcotest.(check bool)
    "roomy flag clear" false
    (Versa.Lts.stats full).Versa.Lts.deadline_expired

(* A second-precision budget on the virtual clock: with every clock
   observation costing 10 virtual ms, a 2.5 s deadline expires partway
   through the exploration after exactly 250 observations — the
   truncation point is deterministic, and the whole test runs in
   wall-clock milliseconds. *)
let test_virtual_deadline_is_deterministic () =
  let defs, system = tr_of (Gen.cruise_control ()) in
  let explore () =
    let sim = Timed.Sim.create ~auto_advance:0.01 () in
    Timed.Sim.with_clock sim @@ fun () ->
    let config =
      {
        Versa.Lts.default_config with
        stop_at_deadlock = false;
        deadline = Some (Timed.Clock.gettimeofday () +. 2.5);
      }
    in
    let c = Versa.Lts.check ~config defs system in
    ( Versa.Lts.check_truncated c,
      (Versa.Lts.check_stats c).Versa.Lts.deadline_expired,
      Versa.Lts.check_num_states c )
  in
  let t0 = Timed.Clock.now Timed.Clock.real in
  let truncated, expired, states = explore () in
  let truncated', expired', states' = explore () in
  let wall = Timed.Clock.now Timed.Clock.real -. t0 in
  Alcotest.(check bool) "virtual deadline truncates" true truncated;
  Alcotest.(check bool) "flagged as a deadline" true expired;
  Alcotest.(check bool) "replay truncates too" true truncated';
  Alcotest.(check bool) "replay flag" true expired';
  Alcotest.(check int) "identical truncation point" states states';
  Alcotest.(check bool) "states were explored before expiry" true (states > 0);
  Alcotest.(check bool) "2x 2.5s of virtual budget in real ms" true (wall < 2.0)

let test_poll_cancels () =
  let defs, system = tr_of (Gen.cruise_control ()) in
  let config =
    {
      Versa.Lts.default_config with
      stop_at_deadlock = false;
      poll = Some (fun () -> true);
    }
  in
  let lts = Versa.Lts.build ~config defs system in
  Alcotest.(check bool) "cancelled build truncated" true
    (Versa.Lts.truncated lts);
  Alcotest.(check bool)
    "cancellation is not a deadline" false
    (Versa.Lts.stats lts).Versa.Lts.deadline_expired;
  let c = Versa.Lts.check ~config defs system in
  Alcotest.(check bool) "cancelled check truncated" true
    (Versa.Lts.check_truncated c)

let () =
  Alcotest.run "explore"
    [
      ( "parallel",
        [
          Alcotest.test_case "builds are identical" `Quick
            test_parallel_build_identical;
          Alcotest.test_case "verdicts are identical" `Quick
            test_parallel_verdict_identical;
        ] );
      ( "engines",
        [
          Alcotest.test_case "agree on reachable states" `Quick
            test_engines_agree_on_reachable_states;
        ] );
      ( "on-the-fly",
        [
          Alcotest.test_case "check matches build" `Quick
            test_check_matches_build;
          Alcotest.test_case "parallel check is identical" `Quick
            test_check_parallel_identical;
          Alcotest.test_case "engines agree on example models" `Slow
            test_example_models_agree;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "deadline truncates" `Quick
            test_deadline_budget_truncates;
          Alcotest.test_case "virtual deadline is deterministic" `Quick
            test_virtual_deadline_is_deterministic;
          Alcotest.test_case "poll cancels" `Quick test_poll_cancels;
        ] );
      ("properties", qcheck_cases);
    ]
