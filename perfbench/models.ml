(* The benchmark's inputs.  Every model carries the answer it must get,
   taken from a source that never runs the ACSR engine: response-time
   analysis (RM) or processor-demand analysis (EDF) over the model's own
   task set, or a verdict pinned by hand in expected.txt. *)

type answer = Schedulable | Not_schedulable

type reference =
  | Oracle of Aadl.Props.scheduling_protocol
      (** single-processor periodic model: decided by {!oracle} *)
  | Pinned of answer  (** from expected.txt *)
  | Pinned_and_oracle of answer * Aadl.Props.scheduling_protocol
      (** pinned in expected.txt, and {!oracle} must agree with the pin *)

type model = { id : string; text : string; root : string; reference : reference }

let answer_of_string = function
  | "schedulable" -> Schedulable
  | "not_schedulable" -> Not_schedulable
  | s -> failwith ("expected.txt: unknown verdict " ^ s)

(* Generated models are single-processor periodic systems with integral
   millisecond timing, so a 1 ms quantum loses nothing. *)
let oracle protocol text =
  let tasks =
    (Translate.Workload.extract ~quantum:(Aadl.Time.of_ms 1)
       (Aadl.Instantiate.of_string text))
      .Translate.Workload.tasks
  in
  let schedulable =
    match protocol with
    | Aadl.Props.Edf ->
        let r = Analysis.Edf_demand.analyze tasks in
        if not r.Analysis.Edf_demand.applicable then
          failwith "oracle: EDF demand analysis not applicable";
        r.Analysis.Edf_demand.schedulable
    | p ->
        let r = Analysis.Rta.analyze ~protocol:p tasks in
        if not r.Analysis.Rta.applicable then
          failwith "oracle: response-time analysis not applicable";
        r.Analysis.Rta.schedulable
  in
  if schedulable then Schedulable else Not_schedulable

let answer m =
  match m.reference with
  | Pinned a -> a
  | Oracle p -> oracle p m.text
  | Pinned_and_oracle (a, p) ->
      if oracle p m.text <> a then failwith ("expected.txt: the oracle disagrees on " ^ m.id);
      a

(* {1 expected.txt}  Lines of [name root verdict]; [#] starts a comment.
   A name is either an E6 model the benchmark generates or a path
   relative to the repository root. *)

type pinned = { name : string; proot : string; verdict : answer }

let read_expected ~root_dir =
  let path = Filename.concat root_dir "perfbench/expected.txt" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ name; proot; v ] ->
               Some { name; proot; verdict = answer_of_string v }
           | _ -> failwith ("expected.txt: malformed line: " ^ line))

let pinned expected name =
  match List.find_opt (fun p -> p.name = name) expected with
  | Some p -> p
  | None -> failwith ("expected.txt: no entry for " ^ name)

(* {1 The large model}  The E6 family of the experiments: [n] unit-cet
   threads with periods 4, 6, 8, ... under RM. *)

let e6 ~expected n =
  let id = Printf.sprintf "e6_%d_threads" n in
  let name =
    match n with 5 -> "e6_five_threads" | 7 -> "e6_seven_threads" | _ -> id
  in
  let p = pinned expected name in
  {
    id = name;
    text =
      Gen.periodic_system
        (List.init n (fun i ->
             Gen.simple_spec
               ~name:(Printf.sprintf "t%d" (i + 1))
               ~period_ms:(4 + (2 * i))
               ~cet_ms:1 ()));
    root = p.proot;
    reference = Pinned_and_oracle (p.verdict, Aadl.Props.Rate_monotonic);
  }

(* {1 Seeds}  The models come from a fixed catalogue: task set [i] is
   [Gen.random_specs] at catalogue seed [i], so every run analyzes the
   same models.  The run seed varies only the order of the corpus, within
   blocks of [block] models, and which earlier requests the service sweep
   repeats.  Redrawing the task sets per seed moved the median verdict
   time by 30% between seeds; shuffling the whole corpus, or renaming
   threads, still moved it by 15%.  Either way the spread measured the
   draw, not the program. *)

let catalogue_seed i = 7919 * (i + 1)

let block = 8

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A fixed interleaving of the corpus, then a seeded shuffle inside each
   block: a model moves by fewer than [block] places, so the intern table
   is about the same size whenever it is analyzed. *)
let order ~seed models =
  let a = Array.of_list models in
  shuffle (Random.State.make [| 0xc0 |]) a;
  let st = Random.State.make [| seed; 0xc0 |] in
  let n = Array.length a in
  Array.to_list
    (Array.concat
       (List.init ((n + block - 1) / block) (fun b ->
            let chunk = Array.sub a (b * block) (min block (n - (b * block))) in
            shuffle st chunk;
            chunk)))

let generated id protocol specs =
  {
    id;
    text = Gen.periodic_system ~protocol specs;
    root = "root.impl";
    reference = Oracle protocol;
  }

(* {1 The corpus}  [sets] task sets of 3-6 threads (cycling) at
   utilizations spread evenly over [0.6, 1.2), each under RM and under
   EDF; [families] replicated EDF families of 3-8 threads (cycling) over
   [0.8, 1.15); then the example models. *)

let corpus ~root_dir ~expected ~seed ~sets ~families =
  let random_sets =
    List.concat
      (List.init sets (fun i ->
           let n = 3 + (i mod 4) in
           let u = 0.6 +. (0.6 *. (float_of_int i +. 0.5) /. float_of_int sets) in
           let specs = Gen.random_specs ~seed:(catalogue_seed i) ~n ~u in
           [
             generated (Printf.sprintf "set%d_rm" i) Aadl.Props.Rate_monotonic specs;
             generated (Printf.sprintf "set%d_edf" i) Aadl.Props.Edf specs;
           ]))
  in
  let family_list =
    List.init families (fun j ->
        let threads = 3 + (j mod 6) in
        let utilization =
          0.8 +. (0.35 *. (float_of_int j +. 0.5) /. float_of_int families)
        in
        {
          id = Printf.sprintf "family%d_%dt" j threads;
          text = Gen.replicated_family ~threads ~utilization ();
          root = "root.impl";
          reference = Oracle Aadl.Props.Edf;
        })
  in
  let examples =
    List.filter_map
      (fun p ->
        if Filename.check_suffix p.name ".aadl" then
          Some
            {
              id = Filename.basename p.name;
              text =
                In_channel.with_open_text
                  (Filename.concat root_dir p.name)
                  In_channel.input_all;
              root = p.proot;
              reference = Pinned p.verdict;
            }
        else None)
      expected
  in
  order ~seed (random_sets @ family_list @ examples)

(* {1 The service sweep}  Catalogue task sets of 4 threads, alternately
   under RM and EDF, each swept over execution times of one of its
   threads (base, base+1, base-1, base+2, kept within [1, deadline]),
   one base after the other as a sweep runs:
   every variant shares all other translation units with its base
   (fragment-cache reuse) while its verdict-cache key is new (a miss,
   hence one exploration and one journal append).  Bases are taken until
   there are [misses] distinct variants.  After each miss come [repeats]
   exact repeats of uniformly chosen earlier requests: verdict-cache
   hits.  Each entry records the index of the first request for its
   model. *)

type sweep_entry = { request : Service.Job.request; first : int; model : model }

let sweep_variants b =
  let u = 0.6 +. (0.5 *. float_of_int (((b * 7) mod 25) + 1) /. 26.) in
  let base = Array.of_list (Gen.random_specs ~seed:(catalogue_seed (1000 + b)) ~n:4 ~u) in
  let protocol = if b mod 2 = 0 then Aadl.Props.Rate_monotonic else Aadl.Props.Edf in
  let k = b mod 4 in
  let swept = base.(k) in
  List.sort_uniq compare
    (List.map
       (fun delta -> max 1 (min swept.Gen.deadline_ms (swept.Gen.cet_max_ms + delta)))
       [ 0; 1; -1; 2 ])
  |> List.map (fun cet ->
         let specs = Array.copy base in
         specs.(k) <- { swept with Gen.cet_min_ms = cet; cet_max_ms = cet };
         generated (Printf.sprintf "base%d_cet%d" b cet) protocol (Array.to_list specs))

let sweep ~seed ~misses ~repeats ~max_states =
  let st = Random.State.make [| seed; 0x5e |] in
  let rec take b acc n =
    if n >= misses then acc
    else
      let vs = sweep_variants b in
      take (b + 1) (acc @ vs) (n + List.length vs)
  in
  let distinct = take 0 [] 0 in
  let entries = ref [] and n = ref 0 and sent = ref [] in
  let add model first =
    let request =
      Service.Job.request ~max_states ~id:(Printf.sprintf "r%d" !n)
        (Service.Job.Inline model.text)
    in
    entries := { request; first; model } :: !entries;
    incr n
  in
  List.iter
    (fun model ->
      let first = !n in
      add model first;
      sent := (model, first) :: !sent;
      let pool = Array.of_list !sent in
      for _ = 1 to repeats do
        let model, first = pool.(Random.State.int st (Array.length pool)) in
        add model first
      done)
    distinct;
  List.rev !entries
