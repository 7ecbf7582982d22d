(* The VERSA-style analysis entry point: explore the prioritized state space
   of a closed ACSR term and look for deadlocks.  A deadlock is reported
   with its shortest trace, which serves as the failing scenario raised back
   to the AADL model by the analysis layer (paper, Section 5).

   Two engines, one exploration loop, the same verdicts and traces:
   - [Full] materializes the whole graph ([Lts.build], the loop with its
     row recorder) — needed when the caller wants to walk it afterwards
     (DOT export, bisimulation, observer/latency queries over successor
     rows);
   - [On_the_fly] ([Lts.check], the bare loop) keeps only a compact
     parent-pointer store and, with [stop_at_deadlock], terminates at the
     first reachable deadlock — the default for plain schedulability
     queries, where an unschedulable model is decided in time
     proportional to the distance to the first deadline miss. *)

type engine = Full | On_the_fly

type verdict =
  | Deadlock_free
      (** exhaustive exploration found no deadlock: every timing
          constraint of the model is met *)
  | Deadlock of { state : Lts.state_id; trace : Trace.t }
      (** a reachable state with no outgoing prioritized transition *)
  | Inconclusive of string
      (** exploration was truncated before finding a deadlock *)

type space =
  | Graph of Lts.t  (** full build: every state, row and parent *)
  | Summary of Lts.check_result  (** on-the-fly: compact store only *)

type result = { space : space; verdict : verdict; elapsed : float }

(* The reason string tells the caller which budget truncated the run —
   the service layer's degradation ladder keys on exactly this
   distinction. *)
let truncation_reason ~stats num_states =
  if stats.Lts.deadline_expired then
    Fmt.str "wall-clock budget expired after %d states" num_states
  else Fmt.str "state budget exhausted after %d states" num_states

let deadlock_verdict lts =
  match Lts.deadlocks lts with
  | state :: _ -> Deadlock { state; trace = Trace.to_deadlock lts state }
  | [] ->
      if Lts.truncated lts then
        Inconclusive
          (truncation_reason ~stats:(Lts.stats lts) (Lts.num_states lts))
      else Deadlock_free

let check_verdict c =
  match Lts.check_deadlocks c with
  | state :: _ ->
      Deadlock { state; trace = Trace.of_path (Lts.check_path_to c state) }
  | [] ->
      if Lts.check_truncated c then
        Inconclusive
          (truncation_reason ~stats:(Lts.check_stats c)
             (Lts.check_num_states c))
      else Deadlock_free

let check_deadlock ?(engine = Full) ?(max_states = 2_000_000)
    ?(stop_at_deadlock = true) ?deadline ?poll
    ?(symmetry = Acsr.Symmetry.empty) defs root =
  Obs.Span.with_ ~name:"explore"
    ~attrs:
      [ ("engine", match engine with Full -> "full" | On_the_fly -> "otf") ]
  @@ fun () ->
  let t0 = Timed.Clock.gettimeofday () in
  let config =
    { Lts.max_states = Some max_states; stop_at_deadlock; deadline; poll }
  in
  let space, verdict =
    match engine with
    | Full ->
        let lts =
          Lts.build ~config ~semantics:Lts.Prioritized ~symmetry defs root
        in
        (Graph lts, deadlock_verdict lts)
    | On_the_fly ->
        let c =
          Lts.check ~config ~semantics:Lts.Prioritized ~symmetry defs root
        in
        (Summary c, check_verdict c)
  in
  let elapsed = Timed.Clock.gettimeofday () -. t0 in
  { space; verdict; elapsed }

let is_deadlock_free result =
  match result.verdict with
  | Deadlock_free -> true
  | Deadlock _ | Inconclusive _ -> false

(* {1 Engine-independent accessors} *)

let lts result = match result.space with Graph l -> Some l | Summary _ -> None

let num_states r =
  match r.space with
  | Graph l -> Lts.num_states l
  | Summary c -> Lts.check_num_states c

let num_transitions r =
  match r.space with
  | Graph l -> Lts.num_transitions l
  | Summary c -> Lts.check_num_transitions c

let deadlocks r =
  match r.space with
  | Graph l -> Lts.deadlocks l
  | Summary c -> Lts.check_deadlocks c

let truncated r =
  match r.space with
  | Graph l -> Lts.truncated l
  | Summary c -> Lts.check_truncated c

let stats r =
  match r.space with
  | Graph l -> Lts.stats l
  | Summary c -> Lts.check_stats c

let trace_to r state =
  match r.space with
  | Graph l -> Trace.to_deadlock l state
  | Summary c -> Trace.of_path (Lts.check_path_to c state)

let pp_space ppf = function
  | Graph l -> Lts.pp_summary ppf l
  | Summary c -> Lts.pp_check_summary ppf c

let pp_verdict ppf = function
  | Deadlock_free -> Fmt.string ppf "deadlock-free"
  | Deadlock { state; trace } ->
      Fmt.pf ppf "@[<v>deadlock at state %d (time %d):@,%a@]" state
        (Trace.duration trace) Trace.pp trace
  | Inconclusive reason -> Fmt.pf ppf "inconclusive: %s" reason

let pp_result ppf r =
  Fmt.pf ppf "@[<v>%a@,%a in %.3fs@]" pp_space r.space pp_verdict r.verdict
    r.elapsed
