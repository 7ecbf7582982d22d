(** Explicit labeled transition systems of ACSR terms, built by breadth-first
    state-space exploration.

    States are closed process terms interned in BFS discovery order (the
    initial state is always id 0); this is the substrate on which
    schedulability analysis performs VERSA-style deadlock detection
    (paper, Section 5).  Terms are hash-consed ({!Acsr.Hproc}), so state
    interning and successor deduplication cost O(1) per comparison.

    {2 One loop, two results}

    {!build} and {!check} run the same breadth-first loop over the same
    state store; {!build} additionally records each expanded state's
    successor row.  Both visit the same states in the same order, so
    state ids, parents, deadlock ids, shortest traces and every count in
    {!stats} coincide under the same configuration (asserted by the test
    suite and the [bench-smoke] gate).

    {2 Symmetry (orbit) reduction}

    With a non-trivial [?symmetry] spec ({!Acsr.Symmetry}, built by
    [Translate.Pipeline] from interchangeable thread units), every
    successor is canonicalized up to permutation of interchangeable
    parallel components {e before} the visited-set lookup, so the
    exploration visits one representative per orbit.  Verdicts
    (deadlock-freedom), counterexample lengths and BFS depths are
    preserved exactly — canonicalization is an automorphism of the
    transition system — while visited-state counts shrink by up to the
    product of the orbit class factorials.  Canonicalization happens
    inside the successor function and is deterministic, so a reduced run
    is as reproducible as an unreduced one.  {!path_to} and
    {!check_path_to} de-canonicalize the stored steps (composing the
    permutation witnesses along the path), so diagnostic traces name the
    real system's threads; state ids in the returned path index the
    canonical store.  Note that a reduced run's state {e numbering}
    differs from an unreduced run's — equivalence is of verdicts and
    trace lengths, not ids (asserted by the symmetry test suite). *)

open Acsr

type semantics = Prioritized | Unprioritized

type state_id = int
(** Dense state identifiers, assigned in BFS discovery order. *)

type t

(** {1 Exploration telemetry}

    Collected during the build at negligible cost; surfaced by the
    [--stats] CLI flag and the bench harness ([BENCH_explore.json]). *)

type stats = {
  wall_s : float;  (** total build time, seconds *)
  expand_s : float;  (** successor computation *)
  merge_s : float;  (** interning and BFS bookkeeping *)
  num_states : int;
  num_transitions : int;
  num_deadlocks : int;
  peak_frontier : int;  (** max states discovered but not yet expanded *)
  depth_levels : int;
      (** deepest BFS level reached + 1: the depth of the deepest
          {e discovered} state, expanded or not *)
  intern_hits : int;  (** successor interns that found an existing state *)
  intern_misses : int;  (** interns that discovered a new state *)
  hashcons_nodes : int;  (** global hash-cons table size after the build *)
  hashcons_max_chain : int;
      (** longest bucket chain in that table: the worst-case walk of one
          intern (see {!Acsr.Hproc.table_stats}) *)
  memo_hits : int;
      (** lookups in the per-subterm step-set memo that found a set *)
  memo_misses : int;
      (** step-memo lookups that had to compute the set *)
  store_bytes : int;
      (** estimated bytes retained by the state store (flat
          term/parent/step arrays, plus the recorded successor rows for
          {!build}) — the figure behind the compact engine's
          bytes-per-state win *)
  early_exit_depth : int option;
      (** BFS depth of the first deadlock when [stop_at_deadlock] fired:
          the distance to the first deadline miss, which bounds the work
          of an early-exit run *)
  deadline_expired : bool;
      (** the wall-clock budget ([build_config.deadline]) stopped the
          exploration; [truncated] is then also true and the absence of
          deadlocks is inconclusive *)
  orbit_hits : int;
      (** successors the symmetry reduction folded onto a different
          orbit representative — the per-successor win of the reduction;
          0 when symmetry is off or the model has no interchangeable
          components *)
  orbit_misses : int;
      (** successors that were already orbit-canonical *)
  canon_s : float;
      (** wall time spent canonicalizing states *)
}

val stats : t -> stats

val states_per_sec : stats -> float
(** [num_states / wall_s]; the throughput figure tracked across PRs. *)

val dedup_hit_rate : stats -> float
(** Fraction of successor interns that deduplicated into an existing
    state, in [0,1].  High values mean the state graph re-converges often
    (typical of periodic workloads). *)

val bytes_per_state : stats -> float
(** [store_bytes / num_states]. *)

val pp_stats : stats Fmt.t

(** {1 Accessors} *)

val num_states : t -> int

val num_transitions : t -> int
(** Cached at build time: O(1). *)

val initial : t -> state_id
(** Always state 0. *)

val term : t -> state_id -> Proc.t
(** The process term of a state (rebuilt from its hash-consed form). *)

val successors : t -> state_id -> (Step.t * state_id) array
(** Outgoing transitions, in the canonical successor order (sorted by
    step, then structurally by target term). *)

val depth : t -> state_id -> int
(** BFS depth: the length of the shortest path from the initial state. *)

val truncated : t -> bool
(** True when exploration stopped early (state budget exhausted or
    [stop_at_deadlock] fired); absence of deadlocks is then inconclusive. *)

val semantics_of : t -> semantics

val is_deadlock : t -> state_id -> bool
(** The state was expanded and has no outgoing transition. *)

val deadlocks : t -> state_id list
(** All deadlock states, in discovery order.  Cached at build time: O(1). *)

val path_to : t -> state_id -> (Step.t * state_id) list
(** BFS-shortest path from the initial state, as (step, reached state). *)

(** {1 Building} *)

type build_config = {
  max_states : int option;  (** stop after discovering this many states *)
  stop_at_deadlock : bool;
      (** stop expanding as soon as one deadlock has been discovered *)
  deadline : float option;
      (** wall-clock budget as an absolute time on the ambient
          {!Timed.Clock} scale — the time-domain twin of [max_states].
          When it passes, the exploration stops before the next
          expansion and reports [truncated] with
          [stats.deadline_expired]; the explored prefix (states,
          parents, traces) remains valid.
          Under the real clock a deadline makes the {e amount explored}
          timing-dependent, so results under an expiring deadline are
          not reproducible run-to-run — the service layer qualifies
          such verdicts accordingly.  Under a {!Timed.Sim} clock with
          [auto_advance] the expiry point is deterministic, which is
          how the timeout test suite runs second-scale budgets in
          wall-clock milliseconds. *)
  poll : (unit -> bool) option;
      (** cooperative stop hook, called before each expansion on the
          exploring domain.  Returning [true] truncates the run exactly
          like an exhausted budget; the service layer points this at a
          job's cancellation flag.  Must be cheap and side-effect-free. *)
}

val default_config : build_config
(** 2M states, explore exhaustively, no wall-clock deadline, no poll
    hook. *)

val build :
  ?config:build_config ->
  ?semantics:semantics ->
  ?symmetry:Symmetry.spec ->
  Defs.t ->
  Proc.t ->
  t
(** Explore the state space of a closed term breadth-first.  [semantics]
    defaults to [Prioritized].

    [symmetry] (default {!Acsr.Symmetry.empty}, i.e. off) enables orbit
    reduction — see the module preamble.  The spec must describe the
    explored term: its slot layout and renamings come from the same
    translation that produced [defs] and the root. *)

val pp_summary : t Fmt.t
(** One-line summary: state/transition counts, truncation, semantics. *)

(** {1 On-the-fly checking}

    Deadlock detection without materializing the graph: {!check} is the
    loop of {!build} without the row recorder.  It retains, per state,
    only the hash-consed term pointer, the BFS parent id and the
    arriving step, in flat growable arrays.  With [stop_at_deadlock] it
    answers unschedulable-model queries in time (and memory)
    proportional to the distance to the first deadline miss rather than
    to the whole state space. *)

type check_result
(** Outcome of an on-the-fly exploration: verdict data plus the compact
    parent-pointer store, sufficient to rebuild counterexample paths. *)

val check :
  ?config:build_config ->
  ?semantics:semantics ->
  ?symmetry:Symmetry.spec ->
  Defs.t ->
  Proc.t ->
  check_result
(** Same exploration order and budgets as {!build}; visited-state
    counts, deadlock ids, shortest paths and {!stats} counts coincide
    exactly with a [build] under the same [config]. *)

val check_num_states : check_result -> int
(** States visited (discovered); for an early-exit run this is the
    explored prefix, not the full space. *)

val check_num_transitions : check_result -> int

val check_truncated : check_result -> bool
(** Exploration stopped early (budget or [stop_at_deadlock]). *)

val check_deadlocks : check_result -> state_id list
(** Deadlocks among the visited states, in discovery order.  Complete
    exactly when [not (check_truncated c)]. *)

val check_semantics : check_result -> semantics
val check_stats : check_result -> stats

val check_path_to : check_result -> state_id -> (Step.t * state_id) list
(** BFS-shortest path from the initial state, rebuilt from the parent
    pointers; same shape as {!path_to}. *)

val check_term : check_result -> state_id -> Proc.t
(** The process term of a visited state. *)

val pp_check_summary : check_result Fmt.t
(** One-line summary, matching {!pp_summary}'s format plus an
    [on-the-fly] marker (and [early exit] when a deadlock stopped the
    run). *)
