(* The host's speed, measured next to each pass's measured phase.

   The reference host is a shared VM whose CPU runs 10-40% slower or
   faster over minutes (README.md, "Steadiness").  Each pass times a
   fixed kernel that uses no code of the analyzer, right before and
   right after its measured phase: a pointer chase through a 32 MB
   table, which follows memory latency and the other tenants' use of
   the shared cache.  The analyzer's times follow it more steeply, by
   about the power [elasticity]; an integer loop, tried with it, slowed
   less than half as much as the analyzer did.  The gated timings are
   scaled by ([reference_s] / [time ()]) ** [elasticity], so they read
   as on the reference host at its nominal speed; the raw figures stay
   in the detail table.

   The kernel allocates nothing on the OCaml heap, so neither the GC
   settings of the program nor its heap size can move it, and
   [peak_heap_mb] does not see the table (a Bigarray, outside the
   heap). *)

open Bigarray

let slots = 1 lsl 22

(* A single cycle through every slot: x -> a x + c (mod 2^22) has full
   period since c is odd and a = 1 (mod 4).  Built in one sequential
   sweep; chasing it jumps across the table. *)
let table =
  lazy
    (let t = Array1.create int c_layout slots in
     for i = 0 to slots - 1 do
       t.{i} <- (i * 1103515245 + 12345) land (slots - 1)
     done;
     t)

let chase steps =
  let t = Lazy.force table in
  let i = ref 0 in
  for _ = 1 to steps do
    i := t.{!i}
  done;
  !i

let timed f =
  let t0 = Report.now () in
  ignore (Sys.opaque_identity (f ()));
  Report.now () -. t0

(* The best of three chases of 400,000 steps, about 65 ms each on the
   reference host. *)
let time () =
  ignore (Lazy.force table);
  List.fold_left Float.min infinity (List.init 3 (fun _ -> timed (fun () -> chase 400_000)))

(* [time ()] on the reference host (2-vCPU Xeon VM at 2.0 GHz, OCaml
   5.1), the median over its passes.  A constant: changing it rescales
   every gated timing. *)
let reference_s = 0.065

(* How much more steeply the analyzer's times follow the host than
   [time ()] does.  Over the 60 runs of two sets of ten on each
   workload (README.md, "Steadiness"), scaling by the calibration to
   the power 1.5 gave the smallest spreads of the gated timings on all
   three workloads (1 and 1.75 were each worse on some); the slope of
   log pass time on log calibration time, pass by pass, was 1.2 to
   1.8.  A constant, like [reference_s]. *)
let elasticity = 1.5
