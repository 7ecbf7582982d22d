(** VERSA-style deadlock detection over the prioritized transition system.

    This is the bridge between the process-algebraic substrate and the
    schedulability question of the paper: a missed deadline manifests as a
    deadlocked state, so "is the model schedulable?" becomes "is the
    prioritized LTS deadlock-free?" (Section 5). *)

open Acsr

type engine =
  | Full  (** materialize the whole graph with {!Lts.build} *)
  | On_the_fly
      (** compact parent-pointer exploration with {!Lts.check}; with
          [stop_at_deadlock] it terminates at the first reachable
          deadlock *)

type verdict =
  | Deadlock_free
      (** exhaustive exploration found no deadlock: every timing
          constraint of the model is met *)
  | Deadlock of { state : Lts.state_id; trace : Trace.t }
      (** a reachable state with no outgoing prioritized transition; the
          trace is the BFS-shortest failing scenario *)
  | Inconclusive of string
      (** exploration was truncated before finding a deadlock *)

type space =
  | Graph of Lts.t
      (** full build: callers may walk successors, export DOT, run
          observer/latency queries *)
  | Summary of Lts.check_result
      (** on-the-fly: counts, deadlocks and counterexample paths only *)

type result = { space : space; verdict : verdict; elapsed : float }

val check_deadlock :
  ?engine:engine ->
  ?max_states:int ->
  ?stop_at_deadlock:bool ->
  ?deadline:float ->
  ?poll:(unit -> bool) ->
  ?symmetry:Symmetry.spec ->
  Defs.t ->
  Proc.t ->
  result
(** Explore the prioritized state space of a closed term and report the
    first deadlock found (with its shortest trace) or deadlock-freedom.
    [engine] defaults to [Full]; both engines produce identical verdicts
    and traces under the same budgets.  [stop_at_deadlock] (default
    [true]) stops at the first deadlock; with [false] the space is
    explored exhaustively (up to [max_states], default 2M).

    [deadline] is an absolute bound on the ambient {!Timed.Clock}
    scale: past it the exploration truncates and the verdict is
    [Inconclusive "wall-clock budget expired …"], never a hang.  [poll]
    is a cooperative cancellation hook checked before each expansion
    ({!Lts.build_config}).

    [symmetry] (default {!Acsr.Symmetry.empty}) enables orbit reduction
    in either engine — see the {!Lts} preamble.  Verdicts and trace
    lengths are unchanged; traces are de-canonicalized before being
    returned, so failing scenarios name the real model's threads. *)

val deadlock_verdict : Lts.t -> verdict
(** Derive the verdict from an already-built LTS. *)

val is_deadlock_free : result -> bool

(** {1 Engine-independent accessors} *)

val lts : result -> Lts.t option
(** The full graph, when the [Full] engine produced one. *)

val num_states : result -> int
val num_transitions : result -> int
val deadlocks : result -> Lts.state_id list
val truncated : result -> bool
val stats : result -> Lts.stats

val trace_to : result -> Lts.state_id -> Trace.t
(** Shortest trace to a visited state, from either engine's store. *)

val pp_space : space Fmt.t
(** One-line state-space summary ({!Lts.pp_summary} or
    {!Lts.pp_check_summary}). *)

val pp_verdict : verdict Fmt.t
val pp_result : result Fmt.t
