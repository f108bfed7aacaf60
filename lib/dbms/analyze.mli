(** ANALYZE: compute catalog statistics for a table — exactly what the
    paper's middleware consumes: cardinality, blocks, average tuple size;
    per-column min/max, distinct and null counts, optional equi-depth
    histograms; index availability and clustering. *)

type histograms = [ `All | `Cols of string list | `None ]
(** Which numeric columns get a histogram (toggled by the paper's Query 2
    with/without-histograms comparison). *)

val compute : ?histograms:histograms -> Catalog.table -> Stat.table_stats
(** Scan the table once and return fresh statistics (histograms default
    [`All]); the catalog is left untouched. *)

val run : ?histograms:histograms -> Catalog.table -> Stat.table_stats
(** {!compute}, then attach the result to the table. *)

val reuse :
  ?histograms:histograms -> Catalog.table -> Stat.table_stats -> Stat.table_stats option
(** [reuse ~histograms table stats]: what a [histograms] ANALYZE of [table]
    would give, from its [stats] less the histograms that ANALYZE would not
    build; [None] when [stats] lack one it would build. *)
