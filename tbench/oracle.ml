(* The result oracle: expected answers from the naive reference semantics
   ([Tango_algebra.Reference.eval]) over the generated UIS relations,
   never from the middleware or the DBMS under test.

   The reference evaluator joins by nested loops, so at scale 0.1 one
   temporal self-join takes tens of seconds.  Every benchmark query is an
   equi-join or a grouping on one key column per table (PosID for
   Queries 1-3, EmpID for Query 4 and the lookups), so the oracle splits
   each table into hash buckets of that column and evaluates the query
   once per bucket: a row only meets rows of its own bucket, and the union
   of the per-bucket answers is the whole answer. *)

open Tango_rel

type expected = { digest : string; rows : int }

let unqualified rel =
  Relation.make (Schema.unqualify (Relation.schema rel)) (Relation.tuples rel)

(* Order-insensitive digest of a relation's rows: a sum and an xor of
   the rows' structural hashes, with the row count.  Checking a result
   must cost far less than running it: rendering and sorting the rows
   took about as long as the queries. *)
let digest rel =
  let sum = ref 0 and mix = ref 0 in
  Array.iter
    (fun t ->
      let h = Hashtbl.hash_param 64 256 (t : Tuple.t) in
      sum := !sum + h;
      mix := !mix lxor (h * 0x9E3779B1))
    (Relation.tuples rel);
  Printf.sprintf "%d-%x-%x" (Relation.cardinality rel) !sum !mix

let expected_of rel = { digest = digest rel; rows = Relation.cardinality rel }

(* [eval ~tables ~key ~buckets sql]: [tables] maps base-table names to
   their generated relations, [key] each table to its bucketing column. *)
let eval ~tables ~key ~buckets sql =
  let schema_of name = Relation.schema (List.assoc name tables) in
  let op = Tango_tsql.Compile.compile ~lookup:schema_of sql in
  let split name rel =
    let col = Schema.index (Relation.schema rel) (List.assoc name key) in
    let parts = Array.make buckets [] in
    Array.iter
      (fun t ->
        let b = Hashtbl.hash (Tuple.get t col) mod buckets in
        parts.(b) <- t :: parts.(b))
      (Relation.tuples rel);
    Array.map
      (fun ts -> Relation.make (Relation.schema rel) (Array.of_list (List.rev ts)))
      parts
  in
  let split_tables = List.map (fun (n, r) -> (n, split n r)) tables in
  let answers =
    List.init buckets (fun b ->
        Tango_algebra.Reference.eval
          (fun name -> (List.assoc name split_tables).(b))
          op)
  in
  let schema = Relation.schema (List.hd answers) in
  expected_of
    (Relation.make schema (Array.concat (List.map Relation.tuples answers)))

(* Is [rel] ordered on [order] (the query's ORDER BY)? *)
let sorted order rel =
  let cmp = Order.comparator order (Relation.schema rel) in
  let ts = Relation.tuples rel in
  let ok = ref true in
  for i = 1 to Array.length ts - 1 do
    if cmp ts.(i - 1) ts.(i) > 0 then ok := false
  done;
  !ok
