(* Explicit labeled transition systems produced by state-space exploration
   of ACSR terms.

   States are closed process terms, interned into integer ids in BFS
   discovery order (the initial state has id 0).  Each state records its
   BFS parent and the step that first reached it, so that shortest
   diagnostic traces can be rebuilt without re-exploration — this mirrors
   what the VERSA tool reports to the user (paper, Section 5).

   Terms are hash-consed ([Acsr.Hproc]), so the state table keys on an
   integer id and every successor comparison is O(1).

   There is one exploration loop ([explore]) over one store ([Store]).
   [check] runs it bare; [build] runs it with a row recorder that keeps
   each expanded state's (step, successor id) row, which is all a
   materialized graph adds.  Both therefore visit the same states in the
   same order and report the same ids, parents, deadlocks, traces and
   stats counts. *)

open Acsr

(* Every exploration publishes into the process-wide Obs registry at the
   end of the run: totals as counters (accumulating across runs in a
   batch/serve process), last-run shape as gauges.  The per-run [stats]
   record stays the per-result API; the registry is the cross-run,
   cross-layer view (`--stats`, the service `metrics` op, bench). *)
module Metrics = struct
  let runs =
    Obs.Counter.make ~help:"State-space explorations completed"
      "versa_explore_runs_total"

  let states =
    Obs.Counter.make ~help:"States discovered across all explorations"
      "versa_explore_states_total"

  let transitions =
    Obs.Counter.make ~help:"Transitions computed across all explorations"
      "versa_explore_transitions_total"

  let deadlocks =
    Obs.Counter.make ~help:"Deadlocked states discovered across all explorations"
      "versa_explore_deadlocks_total"

  let intern_hits =
    Obs.Counter.make ~help:"State interns that found an existing state"
      "versa_intern_hits_total"

  let intern_misses =
    Obs.Counter.make ~help:"State interns that discovered a new state"
      "versa_intern_misses_total"

  let deadline_expired =
    Obs.Counter.make ~help:"Explorations stopped by the wall-clock budget"
      "versa_explore_deadline_expired_total"

  let states_per_sec =
    Obs.Gauge.make ~help:"Discovery rate of the most recent exploration"
      "versa_explore_states_per_sec"

  let peak_frontier =
    Obs.Gauge.make ~help:"Peak frontier width of the most recent exploration"
      "versa_explore_peak_frontier"

  let depth_levels =
    Obs.Gauge.make ~help:"BFS levels of the most recent exploration"
      "versa_explore_depth_levels"

  let early_exit_depth =
    Obs.Gauge.make
      ~help:"BFS depth of the deadlock that stopped the most recent early-exit run"
      "versa_explore_early_exit_depth"

  let hashcons_nodes =
    Obs.Gauge.make ~help:"Global hash-cons table size after the last exploration"
      "versa_hashcons_nodes"

  let hashcons_max_chain =
    Obs.Gauge.make
      ~help:"Longest bucket chain in the global hash-cons table after the last exploration"
      "versa_hashcons_max_chain"

  let step_memo_hits =
    Obs.Counter.make ~help:"Step-memo lookups that found a computed step set"
      "versa_step_memo_hits_total"

  let step_memo_misses =
    Obs.Counter.make ~help:"Step-memo lookups that had to compute a step set"
      "versa_step_memo_misses_total"

  let store_bytes =
    Obs.Gauge.make
      ~help:"Estimated bytes retained by the last exploration's state store"
      "versa_store_bytes"

  let frontier =
    Obs.Histogram.make ~help:"Frontier width at each expansion step"
      ~buckets:[ 1.; 10.; 100.; 1_000.; 10_000.; 100_000. ]
      "versa_explore_frontier_size"

  let wall =
    Obs.Histogram.make ~help:"Exploration wall time (seconds)"
      "versa_explore_wall_seconds"

  let orbit_hits =
    Obs.Counter.make
      ~help:"Successor states folded onto a different orbit representative"
      "versa_orbit_hits_total"

  let orbit_misses =
    Obs.Counter.make
      ~help:"Successor states that were already orbit-canonical"
      "versa_orbit_misses_total"

  let orbit_size =
    Obs.Histogram.make
      ~help:"Members per interchangeable-component orbit class, per run"
      ~buckets:[ 2.; 4.; 8.; 16.; 32. ]
      "versa_orbit_size"

  let canon_seconds =
    Obs.Histogram.make
      ~help:"Wall time spent canonicalizing states, per exploration"
      "versa_canon_seconds"
end

type semantics = Prioritized | Unprioritized

type state_id = int

type stats = {
  wall_s : float;  (** total build time *)
  expand_s : float;  (** computing successor sets *)
  merge_s : float;  (** interning + BFS bookkeeping *)
  num_states : int;
  num_transitions : int;
  num_deadlocks : int;
  peak_frontier : int;  (** max discovered-but-unexpanded states *)
  depth_levels : int;  (** deepest BFS level reached + 1 *)
  intern_hits : int;  (** state interns that found an existing state *)
  intern_misses : int;  (** state interns that discovered a new state *)
  hashcons_nodes : int;  (** global hash-cons table size after the build *)
  hashcons_max_chain : int;  (** its longest bucket chain *)
  memo_hits : int;  (** step-memo lookups that found a step set *)
  memo_misses : int;  (** step-memo lookups that computed one *)
  store_bytes : int;  (** estimated bytes retained by the state store *)
  early_exit_depth : int option;
      (** BFS depth of the deadlock that stopped an early-exit run *)
  deadline_expired : bool;
      (** the wall-clock budget ([config.deadline]) stopped the run *)
  orbit_hits : int;
      (** successors the symmetry reduction folded onto a different orbit
          representative; 0 when symmetry is off or trivial *)
  orbit_misses : int;  (** successors that were already canonical *)
  canon_s : float;  (** wall time spent canonicalizing states *)
}

let states_per_sec s =
  if s.wall_s > 0. then float_of_int s.num_states /. s.wall_s else 0.

let dedup_hit_rate s =
  let total = s.intern_hits + s.intern_misses in
  if total = 0 then 0. else float_of_int s.intern_hits /. float_of_int total

let bytes_per_state s =
  if s.num_states = 0 then 0.
  else float_of_int s.store_bytes /. float_of_int s.num_states

(* One registry write-out per exploration, at the end of the run — hot
   loops never touch the registry except for the frontier histogram. *)
let publish_stats s =
  Obs.Counter.incr Metrics.runs;
  Obs.Counter.incr ~by:s.num_states Metrics.states;
  Obs.Counter.incr ~by:s.num_transitions Metrics.transitions;
  Obs.Counter.incr ~by:s.num_deadlocks Metrics.deadlocks;
  Obs.Counter.incr ~by:s.intern_hits Metrics.intern_hits;
  Obs.Counter.incr ~by:s.intern_misses Metrics.intern_misses;
  if s.deadline_expired then Obs.Counter.incr Metrics.deadline_expired;
  Obs.Gauge.set Metrics.states_per_sec (states_per_sec s);
  Obs.Gauge.set Metrics.peak_frontier (float_of_int s.peak_frontier);
  Obs.Gauge.set Metrics.depth_levels (float_of_int s.depth_levels);
  Option.iter
    (fun d -> Obs.Gauge.set Metrics.early_exit_depth (float_of_int d))
    s.early_exit_depth;
  Obs.Gauge.set Metrics.hashcons_nodes (float_of_int s.hashcons_nodes);
  Obs.Gauge.set Metrics.hashcons_max_chain (float_of_int s.hashcons_max_chain);
  Obs.Counter.incr ~by:s.memo_hits Metrics.step_memo_hits;
  Obs.Counter.incr ~by:s.memo_misses Metrics.step_memo_misses;
  Obs.Gauge.set Metrics.store_bytes (float_of_int s.store_bytes);
  Obs.Counter.incr ~by:s.orbit_hits Metrics.orbit_hits;
  Obs.Counter.incr ~by:s.orbit_misses Metrics.orbit_misses;
  if s.orbit_hits + s.orbit_misses > 0 then
    Obs.Histogram.observe Metrics.canon_seconds s.canon_s;
  Obs.Histogram.observe Metrics.wall s.wall_s

let step_function semantics cache defs =
  match semantics with
  | Prioritized -> Semantics.h_prioritized ~cache defs
  | Unprioritized -> Semantics.h_steps ~cache defs

(* Symmetry (orbit) reduction.

   With a non-trivial [Symmetry.spec] (built by the translation layer:
   which parallel slots hold interchangeable components, under which
   renamings), every successor is canonicalized *before* the visited-set
   lookup, so the exploration visits one representative per orbit.  The
   wrapper sits inside [next], so the loop itself never sees a
   non-canonical state; canonicalization is deterministic, so a reduced
   run is as reproducible as an unreduced one.

   Soundness: each spec member is equal to its class representative up
   to a renaming of generated names, so permuting member slots while
   renaming accordingly is an automorphism of the transition system —
   the canonical state is reachable iff the original is, with the same
   BFS depth, and it deadlocks iff the original does.  Verdicts and
   counterexample *lengths* are therefore preserved exactly; the visited
   state count only shrinks.

   Traces are de-canonicalized on the way out ([decanon_steps]): the
   stored path's states are canonical representatives, but the steps
   can be renamed back into the real system's name space by composing
   the witness renamings ([Symmetry.canon_w]) along the path, so raised
   scenarios still name the actual AADL threads. *)
module Sym = struct
  type t = {
    spec : Symmetry.spec;
    raw_root : Hproc.t;
    defs : Defs.t;
    (* Only the domain running the exploration writes these tallies.
       They stay atomics so that the record is safe to read from any
       domain (the service scheduler runs explorations on several at
       once); an uncontended atomic increment per successor is lost in
       the cost of canonicalization itself. *)
    hits : int Atomic.t;
    misses : int Atomic.t;
    canon_us : int Atomic.t;
  }

  let of_spec spec ~raw_root ~defs =
    if Symmetry.is_empty spec then None
    else
      Some
        {
          spec;
          raw_root;
          defs;
          hits = Atomic.make 0;
          misses = Atomic.make 0;
          canon_us = Atomic.make 0;
        }

  (* Canonicalization can alias two successors of the same state; keep
     the first occurrence so row order stays the deterministic raw
     order. *)
  let dedup row =
    match row with
    | [] | [ _ ] -> row
    | _ ->
        let rec go acc = function
          | [] -> List.rev acc
          | ((s, t) as edge) :: rest ->
              if
                List.exists
                  (fun (s', t') -> Hproc.equal t t' && Step.equal s s')
                  acc
              then go acc rest
              else go (edge :: acc) rest
        in
        go [] row

  let wrap s next term =
    let row = next term in
    if row = [] then row
    else begin
      let t0 = Timed.Clock.gettimeofday () in
      let row' =
        List.map
          (fun (step, t') ->
            let c = Symmetry.canon s.spec t' in
            if Hproc.equal c t' then Atomic.incr s.misses
            else Atomic.incr s.hits;
            (step, c))
          row
      in
      let row' = dedup row' in
      ignore
        (Atomic.fetch_and_add s.canon_us
           (int_of_float ((Timed.Clock.gettimeofday () -. t0) *. 1e6)));
      row'
    end

  let root s = Symmetry.canon s.spec s.raw_root
  let hits s = Atomic.get s.hits
  let misses s = Atomic.get s.misses
  let canon_s s = float_of_int (Atomic.get s.canon_us) /. 1e6

  let observe_sizes s =
    List.iter
      (fun k -> Obs.Histogram.observe Metrics.orbit_size (float_of_int k))
      (Symmetry.class_sizes s.spec)

  (* De-canonicalize a stored path [(step, state); ...] from the root.

     Invariant maintained along the walk: [inv] renames the current
     canonical state's names back into the names of the real state it
     represents on the actual (unreduced) run from [raw_root].  For each
     stored edge we recompute the canonical state's *raw* successor row,
     find the successor whose canonical form is the stored child — one
     exists by construction, since the stored row was exactly that row
     canonicalized — apply [inv] to the step, and fold the child's own
     canonicalization witness into [inv].  State ids are left as they
     are (they index the canonical store); only steps are renamed, which
     is all trace consumers read. *)
  let decanon_steps s ~semantics ~term_at path =
    let cache = Semantics.make_cache () in
    let next = step_function semantics cache s.defs in
    let _, rho0 = Symmetry.canon_w s.spec s.raw_root in
    let inv = ref (Symmetry.invert rho0) in
    let cur = ref (root s) in
    List.map
      (fun (step, id) ->
        let child = term_at id in
        let raw_row = next !cur in
        match
          List.find_opt
            (fun (st, t) ->
              Step.equal st step && Hproc.equal (Symmetry.canon s.spec t) child)
            raw_row
        with
        | None ->
            (* unreachable by the invariant above; degrade to the
               canonical step rather than raise inside diagnostics *)
            cur := child;
            (step, id)
        | Some (_, t) ->
            let real = Symmetry.apply_step !inv step in
            let _, rho' = Symmetry.canon_w s.spec t in
            inv := Symmetry.compose !inv (Symmetry.invert rho');
            cur := child;
            (real, id))
      path
end

type build_config = {
  max_states : int option;  (** stop after discovering this many states *)
  stop_at_deadlock : bool;
      (** stop expanding as soon as one deadlock has been discovered *)
  deadline : float option;
      (** absolute time on the ambient [Timed.Clock] scale past which
          the exploration stops and reports truncation — the time-domain
          twin of [max_states] *)
  poll : (unit -> bool) option;
      (** cooperative stop hook, checked before each expansion: returning
          [true] truncates the run (job cancellation in the service
          layer) *)
}

let default_config =
  { max_states = Some 2_000_000; stop_at_deadlock = false; deadline = None;
    poll = None }

(* The budget half of the loop's stop test.  [deadline] and [poll] are
   [None] on the default path and then cost nothing. *)
let budget_stop config ~len ~deadline_hit () =
  (match config.max_states with Some m -> len >= m | None -> false)
  || (match config.deadline with
     | Some d when Timed.Clock.gettimeofday () > d ->
         deadline_hit := true;
         true
     | Some _ | None -> false)
  || (match config.poll with Some p -> p () | None -> false)

(* The state store: flat growable arrays indexed by state id, plus the
   id table.  Per state it keeps the hash-consed term (one pointer into
   the global intern table), the BFS parent id and the arriving step —
   enough to rebuild the shortest counterexample path. *)
module Store = struct
  type t = {
    ids : (int, state_id) Hashtbl.t;  (* Hproc id -> state id *)
    mutable terms : Hproc.t array;
    mutable pred : int array;  (* BFS parent; -1 for the root *)
    mutable steps : Step.t array;  (* step from pred; slot 0 is a dummy *)
    mutable len : int;
    mutable hits : int;
    mutable misses : int;
  }

  let dummy_step = Step.Tau (None, 0)

  let create () =
    {
      ids = Hashtbl.create 4096;
      terms = Array.make 1024 Hproc.nil;
      pred = Array.make 1024 (-1);
      steps = Array.make 1024 dummy_step;
      len = 0;
      hits = 0;
      misses = 0;
    }

  let grow st =
    let n = Array.length st.terms in
    let copy dummy src =
      let bigger = Array.make (2 * n) dummy in
      Array.blit src 0 bigger 0 n;
      bigger
    in
    st.terms <- copy Hproc.nil st.terms;
    st.pred <- copy (-1) st.pred;
    st.steps <- copy dummy_step st.steps

  (* Intern a successor; parent/step are recorded only on first
     discovery, so the parent pointers always form the BFS tree. *)
  let intern st term ~pred ~step =
    match Hashtbl.find_opt st.ids (Hproc.id term) with
    | Some id ->
        st.hits <- st.hits + 1;
        id
    | None ->
        st.misses <- st.misses + 1;
        if st.len = Array.length st.terms then grow st;
        let id = st.len in
        st.terms.(id) <- term;
        st.pred.(id) <- pred;
        st.steps.(id) <- step;
        Hashtbl.add st.ids (Hproc.id term) id;
        st.len <- st.len + 1;
        id

  (* BFS depth by walking the parent chain: O(depth). *)
  let depth st id =
    let rec up id d =
      if st.pred.(id) < 0 then d else up st.pred.(id) (d + 1)
    in
    up id 0
end

(* What one exploration leaves behind, with or without recorded rows. *)
type run = {
  store : Store.t;
  head : int;  (** states with a smaller id were expanded, the rest not *)
  truncated : bool;
  deadlock_ids : state_id list;  (** discovery order *)
  transitions : int;
  semantics : semantics;
  stats : stats;
  sym : Sym.t option;
}

let run_path_to r id =
  let st = r.store in
  let rec up id acc =
    let p = st.Store.pred.(id) in
    if p < 0 then acc else up p ((st.Store.steps.(id), id) :: acc)
  in
  let path = up id [] in
  match r.sym with
  | None -> path
  | Some s ->
      Sym.decanon_steps s ~semantics:r.semantics
        ~term_at:(fun i -> st.Store.terms.(i))
        path

let pp_semantics ppf = function
  | Prioritized -> Fmt.string ppf "prioritized"
  | Unprioritized -> Fmt.string ppf "unprioritized"

(* The one BFS loop.  [rows], when given, records each expanded state's
   (step, successor id) row, newest first; nothing else depends on it. *)
let explore ~span ?rows ?(config = default_config) ?(semantics = Prioritized)
    ?(symmetry = Symmetry.empty) defs root =
  Obs.Span.with_ ~name:span
    ~attrs:[ ("semantics", Fmt.str "%a" pp_semantics semantics) ]
  @@ fun () ->
  let t_start = Timed.Clock.gettimeofday () in
  let cache = Semantics.make_cache () in
  let raw_next = step_function semantics cache defs in
  let raw_root = Hproc.of_proc root in
  let sym = Sym.of_spec symmetry ~raw_root ~defs in
  let next =
    match sym with None -> raw_next | Some s -> Sym.wrap s raw_next
  in
  let store = Store.create () in
  ignore
    (Store.intern store
       (match sym with None -> raw_root | Some s -> Sym.root s)
       ~pred:(-1) ~step:Store.dummy_step);
  let deadline_hit = ref false in
  let deadlocks_rev = ref [] in
  let transitions = ref 0 in
  let peak_frontier = ref 0 in
  let expand_s = ref 0. in
  let truncated = ref false in
  (* The BFS queue is implicit: state ids are assigned in discovery
     order, so the queue contents are exactly the ids [head .. len). *)
  let head = ref 0 in
  while (not !truncated) && !head < store.Store.len do
    let frontier = store.Store.len - !head in
    if frontier > !peak_frontier then peak_frontier := frontier;
    Obs.Histogram.observe Metrics.frontier (float_of_int frontier);
    if
      (config.stop_at_deadlock && !deadlocks_rev <> [])
      || budget_stop config ~len:store.Store.len ~deadline_hit ()
    then
      (* leave this state (and every later one) unexpanded; the
         exploration is incomplete *)
      truncated := true
    else begin
      let id = !head in
      let t0 = Timed.Clock.gettimeofday () in
      let succ = next store.Store.terms.(id) in
      expand_s := !expand_s +. (Timed.Clock.gettimeofday () -. t0);
      if succ = [] then deadlocks_rev := id :: !deadlocks_rev;
      (match rows with
      | None ->
          List.iter
            (fun (step, term') ->
              ignore (Store.intern store term' ~pred:id ~step);
              incr transitions)
            succ
      | Some rows ->
          let row =
            Array.of_list
              (List.map
                 (fun (step, term') ->
                   (step, Store.intern store term' ~pred:id ~step))
                 succ)
          in
          transitions := !transitions + Array.length row;
          rows := row :: !rows);
      incr head
    end
  done;
  let n = store.Store.len in
  let deadlock_ids = List.rev !deadlocks_rev in
  let wall_s = Timed.Clock.gettimeofday () -. t_start in
  let memo_hits, memo_misses = Semantics.memo_counts cache in
  let stats =
    {
      wall_s;
      expand_s = !expand_s;
      merge_s = wall_s -. !expand_s;
      num_states = n;
      num_transitions = !transitions;
      num_deadlocks = List.length deadlock_ids;
      peak_frontier = !peak_frontier;
      (* ids are in BFS order, so the last one is the deepest *)
      depth_levels = 1 + Store.depth store (n - 1);
      intern_hits = store.Store.hits;
      intern_misses = store.Store.misses;
      hashcons_nodes = Hproc.table_size ();
      hashcons_max_chain = (Hproc.table_stats ()).max_chain;
      memo_hits;
      memo_misses;
      (* An estimate, counted in words.  The store: per state a term
         pointer, a pred int and a step pointer array slot, plus a
         hashtable binding.  Recorded rows add per state a rows slot, a
         row header and a depth slot, and per transition a (step, id)
         tuple and its row slot. *)
      store_bytes =
        8
        * ((7 * n)
          + match rows with None -> 0 | Some _ -> (3 * n) + (4 * !transitions));
      early_exit_depth =
        (match (config.stop_at_deadlock, deadlock_ids) with
        | true, d :: _ -> Some (Store.depth store d)
        | _ -> None);
      deadline_expired = !deadline_hit;
      orbit_hits = (match sym with None -> 0 | Some s -> Sym.hits s);
      orbit_misses = (match sym with None -> 0 | Some s -> Sym.misses s);
      canon_s = (match sym with None -> 0. | Some s -> Sym.canon_s s);
    }
  in
  publish_stats stats;
  Option.iter Sym.observe_sizes sym;
  {
    store;
    head = !head;
    truncated = !truncated;
    deadlock_ids;
    transitions = !transitions;
    semantics;
    stats;
    sym;
  }

(* {1 The materialized graph} *)

type t = {
  run : run;
  rows : (Step.t * state_id) array array;  (** row of each expanded state *)
  depth : int array;  (** BFS depth, derived from the parent pointers *)
}

let build ?config ?semantics ?symmetry defs root =
  let rows = ref [] in
  let run =
    explore ~span:"lts.build" ~rows ?config ?semantics ?symmetry defs root
  in
  let st = run.store in
  let depth = Array.make st.Store.len 0 in
  (* parents precede their children *)
  for id = 1 to st.Store.len - 1 do
    depth.(id) <- depth.(st.Store.pred.(id)) + 1
  done;
  { run; rows = Array.of_list (List.rev !rows); depth }

let num_states lts = lts.run.store.Store.len
let num_transitions lts = lts.run.transitions
let initial (_ : t) : state_id = 0
let term lts id = Hproc.to_proc lts.run.store.Store.terms.(id)

let successors lts id =
  if id < lts.run.head then lts.rows.(id) else [||]

let depth lts id = lts.depth.(id)
let truncated lts = lts.run.truncated
let semantics_of lts = lts.run.semantics
let stats lts = lts.run.stats
let is_deadlock lts id = id < lts.run.head && Array.length lts.rows.(id) = 0
let deadlocks lts = lts.run.deadlock_ids
let path_to lts id = run_path_to lts.run id

(* {1 On-the-fly checking}

   The paper reduces schedulability to reachability of a deadlocked
   state, so for an unschedulable model nothing past the first deadlock
   is ever needed — and even for exhaustive sweeps, the successor rows
   are only needed transiently.  [check] is the loop without the row
   recorder. *)

type check_result = run

let check ?config ?semantics ?symmetry defs root =
  explore ~span:"lts.check" ?config ?semantics ?symmetry defs root

let check_num_states c = c.store.Store.len
let check_num_transitions c = c.transitions
let check_truncated c = c.truncated
let check_deadlocks c = c.deadlock_ids
let check_semantics c = c.semantics
let check_stats c = c.stats
let check_term c id = Hproc.to_proc c.store.Store.terms.(id)
let check_path_to = run_path_to

let pp_check_summary ppf c =
  Fmt.pf ppf "%d states, %d transitions%s (%a semantics, on-the-fly)"
    (check_num_states c) (check_num_transitions c)
    (if c.truncated then
       if c.deadlock_ids <> [] then " [early exit]" else " [truncated]"
     else "")
    pp_semantics c.semantics

let pp_summary ppf lts =
  Fmt.pf ppf "%d states, %d transitions%s (%a semantics)" (num_states lts)
    (num_transitions lts)
    (if truncated lts then " [truncated]" else "")
    pp_semantics (semantics_of lts)

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>exploration: %d states, %d transitions, %d deadlocks in %.3fs \
     (%.0f states/sec)@,\
     phases: expand %.3fs, merge %.3fs@,\
     frontier peak %d, BFS levels %d@,\
     state dedup: %d hits / %d misses (%.1f%% hit-rate)@,\
     step memo: %d hits / %d misses@,\
     state store: ~%d KiB (~%.0f bytes/state)@,\
     hash-cons table: %d nodes, longest chain %d%a%a%a@]"
    s.num_states s.num_transitions s.num_deadlocks s.wall_s
    (states_per_sec s) s.expand_s s.merge_s s.peak_frontier
    s.depth_levels s.intern_hits s.intern_misses
    (100. *. dedup_hit_rate s)
    s.memo_hits s.memo_misses
    (s.store_bytes / 1024) (bytes_per_state s) s.hashcons_nodes
    s.hashcons_max_chain
    (fun ppf s ->
      if s.orbit_hits > 0 || s.orbit_misses > 0 then
        Fmt.pf ppf
          "@,symmetry: %d orbit hits / %d misses, canonicalization %.3fs"
          s.orbit_hits s.orbit_misses s.canon_s)
    s
    Fmt.(
      option (fun ppf d -> pf ppf "@,early exit at BFS depth %d" d))
    s.early_exit_depth
    Fmt.(
      fun ppf expired ->
        if expired then pf ppf "@,wall-clock budget expired")
    s.deadline_expired
