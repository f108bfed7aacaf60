(** ANALYZE: compute catalog statistics for a table.

    Produces exactly the statistics the paper's middleware consumes: table
    cardinality, block count, average tuple size; per-column min/max,
    distinct count, null count, and (optionally) an equi-depth histogram;
    plus index availability and clustering flags. *)

open Tango_rel

(* Number of histogram buckets, matching typical DBMS defaults. *)
let buckets = 32

type histograms = [ `All | `Cols of string list | `None ]

(* Whether a [histograms] ANALYZE builds a histogram on a column: only
   numeric columns of a non-empty table get one. *)
let builds (histograms : histograms) ~rows (dtype : Value.dtype) name =
  rows > 0
  && (match dtype with
     | Value.TInt | Value.TFloat | Value.TDate -> true
     | Value.TBool | Value.TStr -> false)
  &&
  match histograms with
  | `All -> true
  | `None -> false
  | `Cols names -> List.mem name names

(** Scan the table once and return fresh statistics, leaving the catalog
    untouched. *)
let compute ?(histograms = `All) (table : Catalog.table) : Stat.table_stats =
  let file = table.file in
  let schema = Tango_storage.Heap_file.schema file in
  let rel = Tango_storage.Heap_file.to_relation file in
  let rows = Relation.cardinality rel in
  let columns =
    List.map
      (fun (a : Schema.attribute) ->
        let vals = Relation.column rel a.name in
        let nulls =
          Array.fold_left
            (fun acc v -> if Value.is_null v then acc + 1 else acc)
            0 vals
        in
        let histogram =
          if builds histograms ~rows a.dtype a.name then
            Some (Histogram.height_balanced ~buckets vals)
          else None
        in
        let index = Catalog.index_on table a.name in
        {
          Stat.col = a.name;
          min_value = Relation.min_value rel a.name;
          max_value = Relation.max_value rel a.name;
          distinct = Relation.distinct_count rel a.name;
          nulls;
          histogram;
          indexed = index <> None;
          clustered =
            (match index with
            | Some i -> Tango_storage.Ordered_index.clustered i
            | None -> false);
        })
      (Schema.attributes schema)
  in
  {
    Stat.table = table.name;
    cardinality = Tango_storage.Heap_file.tuple_count file;
    blocks = Tango_storage.Heap_file.block_count file;
    avg_tuple_size = Tango_storage.Heap_file.avg_tuple_size file;
    columns;
  }

let run ?histograms (table : Catalog.table) : Stat.table_stats =
  let stats = compute ?histograms table in
  table.stats <- Some stats;
  stats

let reuse ?(histograms = `All) (table : Catalog.table) (stats : Stat.table_stats)
    =
  let schema = Tango_storage.Heap_file.schema table.file in
  let builds (c : Stat.column_stats) =
    builds histograms ~rows:stats.Stat.cardinality
      (Schema.dtype_of schema c.Stat.col)
      c.Stat.col
  in
  if List.exists (fun c -> builds c && c.Stat.histogram = None) stats.columns
  then None
  else
    let drop c = if builds c then c else { c with Stat.histogram = None } in
    Some { stats with columns = List.map drop stats.columns }
