(* Health of the hash-cons intern table, in its own executable so the
   bulk interning below neither slows nor perturbs the other suites.

   Every intern walks one bucket chain of one shard, comparing nodes
   along it, so the longest chain bounds the cost of an intern.  The
   nodes below mimic the time-indexed thread instances of a translated
   model ([Call] with a small phase and a growing time argument).  If
   shard and bucket indices read the same hash bits, only a fraction of
   each shard's buckets is ever used and chains grow with the table. *)

open Acsr

let nodes = 200_000

let table =
  lazy
    (for i = 0 to nodes - 1 do
       ignore (Hproc.call "Th_t1_i_compute" [ Expr.Int (i mod 7); Expr.Int i ])
     done;
     Hproc.table_stats ())

let test_counts () =
  let s = Lazy.force table in
  Alcotest.(check int) "stats count every interned node" (Hproc.table_size ())
    s.Hproc.nodes;
  Alcotest.(check bool) "all nodes interned" true (s.Hproc.nodes >= nodes)

let test_max_chain () =
  let s = Lazy.force table in
  if s.Hproc.max_chain > 32 then
    Alcotest.failf "longest bucket chain holds %d nodes (limit 32)"
      s.Hproc.max_chain

let test_shard_balance () =
  let s = Lazy.force table in
  let mean = float_of_int s.Hproc.nodes /. 64. in
  if float_of_int s.Hproc.max_shard > 2. *. mean then
    Alcotest.failf "fullest shard holds %d nodes, mean %.0f" s.Hproc.max_shard
      mean

let () =
  Alcotest.run "hashcons"
    [
      ( "intern table",
        [
          Alcotest.test_case "stats count" `Quick test_counts;
          Alcotest.test_case "max chain" `Quick test_max_chain;
          Alcotest.test_case "shard balance" `Quick test_shard_balance;
        ] );
    ]
