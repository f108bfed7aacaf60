(** The Statistics Collector (paper Figure 1): obtains statistics on base
    relations and attributes from the DBMS catalog and converts them to the
    middleware's {!Rel_stats.t} form, qualified the way the algebra's
    [Scan] qualifies its output schema. *)

open Tango_dbms

val of_table_stats : qualifier:string -> Stat.table_stats -> Rel_stats.t

val collect :
  ?histograms:Analyze.histograms ->
  Database.t ->
  qualifier:string ->
  string ->
  Rel_stats.t
(** Collect for one table, as an ANALYZE with [histograms] (default
    [`All]) would report it.  Reuse rule: catalog statistics that carry
    every histogram that ANALYZE would build are read, less the
    histograms it would not build.  ANALYZE runs only when the catalog
    has no statistics — never analyzed, or dropped by a load, INSERT or
    new index since — (the result becomes the catalog's) or lacks a
    requested histogram (the result is not stored).  A collect never
    replaces catalog statistics nor advances the schema generation. *)
