(* Hash-consed ACSR process terms.

   State-space exploration interns millions of closed terms into a state
   table; with plain [Proc.t] every intern rehashes the whole term and every
   bucket collision pays a deep structural comparison.  Worse,
   [Hashtbl.hash] only samples a bounded prefix of the term, so large
   parallel compositions that differ deep inside one operand all collide.

   This module gives every distinct term a unique physical representative:
   nodes are interned bottom-up, children of an interned node are themselves
   interned, and each node memoizes a full-depth structural hash built from
   its children's memoized hashes.  Equality of hash-consed terms is
   pointer equality, hashing is a field read, and the LTS state table keys
   on the integer [id] — all O(1).

   The intern table is global and sharded, each shard behind its own mutex,
   so successor construction can run concurrently from several domains
   (the service tier runs explorations on several at once).  Node ids
   depend on interning order and are therefore not deterministic across
   runs when several domains intern concurrently; nothing order-sensitive
   may depend on ids — canonical orderings must use [compare_structural],
   which mirrors [Stdlib.compare] on the corresponding [Proc.t] values. *)

type t = { id : int; hash : int; node : node }

and node =
  | Nil
  | Act of Action.t * t
  | Ev of Event.t * t
  | Choice of t * t
  | Par of t * t
  | Scope of scope
  | Restrict of Label.Set.t * t
  | Close of Resource.Set.t * t
  | If of Guard.t * t
  | Call of string * Expr.t list

and scope = {
  body : t;
  bound : Expr.t option;
  exc : (Label.t * t) option;
  timeout : t;
  interrupt : t option;
}

let id t = t.id
let hash t = t.hash
let node t = t.node
let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Int.compare a.id b.id

(* {1 Shallow hashing and equality of nodes}

   Leaf payloads (actions, events, label/resource sets, guards,
   expressions) are hashed with [Hashtbl.hash] and compared structurally
   with [Stdlib.compare]; children contribute their memoized full-depth
   hashes and are compared by pointer.  Because children are interned
   before their parent, structurally equal nodes always have physically
   equal children, so the shallow comparison decides full structural
   equality. *)

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 land max_int)

let opt_hash f = function None -> 0x5d | Some x -> mix 0x9e (f x)

let node_hash = function
  | Nil -> 0x11
  | Act (a, k) -> mix 1 (mix (Hashtbl.hash a) k.hash)
  | Ev (e, k) -> mix 2 (mix (Hashtbl.hash e) k.hash)
  | Choice (a, b) -> mix 3 (mix a.hash b.hash)
  | Par (a, b) -> mix 4 (mix a.hash b.hash)
  | Scope s ->
      mix 5
        (mix s.body.hash
           (mix
              (opt_hash Hashtbl.hash s.bound)
              (mix
                 (opt_hash (fun (l, h) -> mix (Hashtbl.hash l) h.hash) s.exc)
                 (mix s.timeout.hash (opt_hash (fun h -> h.hash) s.interrupt)))))
  | Restrict (f, k) -> mix 6 (mix (Hashtbl.hash f) k.hash)
  | Close (r, k) -> mix 7 (mix (Hashtbl.hash r) k.hash)
  | If (g, k) -> mix 8 (mix (Hashtbl.hash g) k.hash)
  | Call (n, args) -> mix 9 (mix (Hashtbl.hash n) (Hashtbl.hash args))

let opt_equal eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | None, Some _ | Some _, None -> false

let leaf_equal a b = Stdlib.compare a b = 0

let node_equal n1 n2 =
  match (n1, n2) with
  | Nil, Nil -> true
  | Act (a1, k1), Act (a2, k2) -> k1 == k2 && leaf_equal a1 a2
  | Ev (e1, k1), Ev (e2, k2) -> k1 == k2 && leaf_equal e1 e2
  | Choice (a1, b1), Choice (a2, b2) | Par (a1, b1), Par (a2, b2) ->
      a1 == a2 && b1 == b2
  | Scope s1, Scope s2 ->
      s1.body == s2.body && s1.timeout == s2.timeout
      && opt_equal leaf_equal s1.bound s2.bound
      && opt_equal
           (fun (l1, h1) (l2, h2) -> h1 == h2 && Label.equal l1 l2)
           s1.exc s2.exc
      && opt_equal ( == ) s1.interrupt s2.interrupt
  | Restrict (f1, k1), Restrict (f2, k2) -> k1 == k2 && leaf_equal f1 f2
  | Close (r1, k1), Close (r2, k2) -> k1 == k2 && leaf_equal r1 r2
  | If (g1, k1), If (g2, k2) -> k1 == k2 && leaf_equal g1 g2
  | Call (n1, a1), Call (n2, a2) -> String.equal n1 n2 && leaf_equal a1 a2
  | ( ( Nil | Act _ | Ev _ | Choice _ | Par _ | Scope _ | Restrict _
      | Close _ | If _ | Call _ ),
      _ ) ->
      false

(* {1 The sharded intern table}

   Each shard is a chained hash table of interned nodes: bucket [i] holds
   the nodes whose hash has low bits [i], and the bucket array doubles
   once the shard holds more than two nodes per bucket.  A lookup walks
   one chain, comparing memoized hashes before nodes.  Chains only grow
   between two doublings, so the shard keeps its longest chain up to date
   on every insert, and {!table_stats} costs no walk over the table.

   Invariant: the shard index must not be determined by the bits that the
   bucket index reads.  Had the shard come from low hash bits too, those
   bits would be constant within each shard, all but 1/[num_shards] of
   its buckets would stay empty, and every intern would walk a chain that
   grows with the table.  So the shard is the top [shard_bits] of a
   multiplicative (Fibonacci) mix of the hash: they depend on every bit
   of the hash, and no bucket array that fits in memory reaches them. *)

let shard_bits = 6
let num_shards = 1 lsl shard_bits

type shard = {
  lock : Mutex.t;
  mutable buckets : t list array;  (** length a power of two *)
  mutable size : int;
  mutable max_chain : int;
}

let shards =
  Array.init num_shards (fun _ ->
      {
        lock = Mutex.create ();
        buckets = Array.make 1024 [];
        size = 0;
        max_chain = 0;
      })

(* 2^63 divided by the golden ratio, made odd (the literal wraps to a
   negative [int], which multiplication modulo 2^63 does not mind). *)
let shard_of h =
  shards.((h * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - shard_bits))

let bucket_of buckets h = h land (Array.length buckets - 1)

let rec find_in_chain h node = function
  | [] -> None
  | t :: rest ->
      if t.hash = h && node_equal t.node node then Some t
      else find_in_chain h node rest

let grow shard =
  let buckets = Array.make (2 * Array.length shard.buckets) [] in
  Array.iter
    (List.iter (fun t ->
         let i = bucket_of buckets t.hash in
         buckets.(i) <- t :: buckets.(i)))
    shard.buckets;
  shard.buckets <- buckets;
  shard.max_chain <-
    Array.fold_left (fun m chain -> max m (List.length chain)) 0 buckets

let next_id = Atomic.make 0

let intern node =
  let h = node_hash node in
  let shard = shard_of h in
  Mutex.lock shard.lock;
  let i = bucket_of shard.buckets h in
  match find_in_chain h node shard.buckets.(i) with
  | Some t ->
      Mutex.unlock shard.lock;
      t
  | None ->
      let t = { id = Atomic.fetch_and_add next_id 1; hash = h; node } in
      let chain = t :: shard.buckets.(i) in
      shard.buckets.(i) <- chain;
      shard.size <- shard.size + 1;
      shard.max_chain <- max shard.max_chain (List.length chain);
      if shard.size > 2 * Array.length shard.buckets then grow shard;
      Mutex.unlock shard.lock;
      t

let table_size () = Atomic.get next_id

type table_stats = { nodes : int; max_chain : int; max_shard : int }

let table_stats () =
  Array.fold_left
    (fun acc shard ->
      Mutex.lock shard.lock;
      let size = shard.size and chain = shard.max_chain in
      Mutex.unlock shard.lock;
      {
        nodes = acc.nodes + size;
        max_chain = max acc.max_chain chain;
        max_shard = max acc.max_shard size;
      })
    { nodes = 0; max_chain = 0; max_shard = 0 }
    shards

(* {1 Constructors}

   Raw, one-to-one with the [Proc.t] constructors: no simplification of any
   kind, so that [of_proc]/[to_proc] round-trip exactly and the optimized
   semantics builds successors structurally identical to the reference
   semantics over [Proc.t]. *)

let nil = intern Nil
let act a k = intern (Act (a, k))
let ev e k = intern (Ev (e, k))
let choice a b = intern (Choice (a, b))
let par a b = intern (Par (a, b))
let scope ~body ~bound ~exc ~timeout ~interrupt =
  intern (Scope { body; bound; exc; timeout; interrupt })
let restrict f k = intern (Restrict (f, k))
let close r k = intern (Close (r, k))
let if_ g k = intern (If (g, k))
let call n args = intern (Call (n, args))

(* {1 Conversions} *)

let rec of_proc (p : Proc.t) : t =
  match p with
  | Proc.Nil -> nil
  | Proc.Act (a, k) -> act a (of_proc k)
  | Proc.Ev (e, k) -> ev e (of_proc k)
  | Proc.Choice (a, b) -> choice (of_proc a) (of_proc b)
  | Proc.Par (a, b) -> par (of_proc a) (of_proc b)
  | Proc.Scope s ->
      scope ~body:(of_proc s.Proc.body) ~bound:s.Proc.bound
        ~exc:(Option.map (fun (l, h) -> (l, of_proc h)) s.Proc.exc)
        ~timeout:(of_proc s.Proc.timeout)
        ~interrupt:(Option.map of_proc s.Proc.interrupt)
  | Proc.Restrict (f, k) -> restrict f (of_proc k)
  | Proc.Close (r, k) -> close r (of_proc k)
  | Proc.If (g, k) -> if_ g (of_proc k)
  | Proc.Call (n, args) -> call n args

let rec to_proc (t : t) : Proc.t =
  match t.node with
  | Nil -> Proc.Nil
  | Act (a, k) -> Proc.Act (a, to_proc k)
  | Ev (e, k) -> Proc.Ev (e, to_proc k)
  | Choice (a, b) -> Proc.Choice (to_proc a, to_proc b)
  | Par (a, b) -> Proc.Par (to_proc a, to_proc b)
  | Scope s ->
      Proc.Scope
        {
          Proc.body = to_proc s.body;
          bound = s.bound;
          exc = Option.map (fun (l, h) -> (l, to_proc h)) s.exc;
          timeout = to_proc s.timeout;
          interrupt = Option.map to_proc s.interrupt;
        }
  | Restrict (f, k) -> Proc.Restrict (f, to_proc k)
  | Close (r, k) -> Proc.Close (r, to_proc k)
  | If (g, k) -> Proc.If (g, to_proc k)
  | Call (n, args) -> Proc.Call (n, args)

(* {1 Canonical structural order}

   Mirrors [Stdlib.compare] on the corresponding [Proc.t] values exactly
   (verified by a property test), while short-circuiting on shared
   subterms: physically equal children compare equal without being
   visited.  The constructor order below follows the runtime ordering of
   [Stdlib.compare] on variants — the sole constant constructor [Nil]
   sorts before every block, and blocks sort by declaration order. *)

let tag_index = function
  | Nil -> 0
  | Act _ -> 1
  | Ev _ -> 2
  | Choice _ -> 3
  | Par _ -> 4
  | Scope _ -> 5
  | Restrict _ -> 6
  | Close _ -> 7
  | If _ -> 8
  | Call _ -> 9

let rec compare_structural (a : t) (b : t) =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Act (a1, k1), Act (a2, k2) ->
        let c = Stdlib.compare a1 a2 in
        if c <> 0 then c else compare_structural k1 k2
    | Ev (e1, k1), Ev (e2, k2) ->
        let c = Stdlib.compare e1 e2 in
        if c <> 0 then c else compare_structural k1 k2
    | Choice (a1, b1), Choice (a2, b2) | Par (a1, b1), Par (a2, b2) ->
        let c = compare_structural a1 a2 in
        if c <> 0 then c else compare_structural b1 b2
    | Scope s1, Scope s2 -> compare_scope s1 s2
    | Restrict (f1, k1), Restrict (f2, k2) ->
        let c = Stdlib.compare f1 f2 in
        if c <> 0 then c else compare_structural k1 k2
    | Close (r1, k1), Close (r2, k2) ->
        let c = Stdlib.compare r1 r2 in
        if c <> 0 then c else compare_structural k1 k2
    | If (g1, k1), If (g2, k2) ->
        let c = Stdlib.compare g1 g2 in
        if c <> 0 then c else compare_structural k1 k2
    | Call (n1, a1), Call (n2, a2) ->
        let c = String.compare n1 n2 in
        if c <> 0 then c else Stdlib.compare a1 a2
    | n1, n2 -> Int.compare (tag_index n1) (tag_index n2)

and compare_scope s1 s2 =
  let c = compare_structural s1.body s2.body in
  if c <> 0 then c
  else
    let c = Stdlib.compare s1.bound s2.bound in
    if c <> 0 then c
    else
      let c =
        match (s1.exc, s2.exc) with
        | None, None -> 0
        | None, Some _ -> -1
        | Some _, None -> 1
        | Some (l1, h1), Some (l2, h2) ->
            let c = Label.compare l1 l2 in
            if c <> 0 then c else compare_structural h1 h2
      in
      if c <> 0 then c
      else
        let c = compare_structural s1.timeout s2.timeout in
        if c <> 0 then c
        else
          match (s1.interrupt, s2.interrupt) with
          | None, None -> 0
          | None, Some _ -> -1
          | Some _, None -> 1
          | Some h1, Some h2 -> compare_structural h1 h2

let pp ppf t = Proc.pp ppf (to_proc t)
