(* A timing [Backend.S] over the in-process client: every DBMS boundary
   call is timed into the accumulators below, which the traced run reads
   as the [dbms.*] layer.  The session is built the way a remote backend
   would be ([Backend.make], [Topology.single], [connect_topology]), so
   the middleware itself is unchanged. *)

open Tango_dbms

type acc = {
  mutable execute_query_us : float;
  mutable fetch_us : float;
  mutable bulk_load_us : float;
}

let acc = { execute_query_us = 0.0; fetch_us = 0.0; bulk_load_us = 0.0 }

let reset () =
  acc.execute_query_us <- 0.0;
  acc.fetch_us <- 0.0;
  acc.bulk_load_us <- 0.0

let timed add f =
  let t0 = Tango_obs.Clock.mono_us () in
  Fun.protect ~finally:(fun () -> add (Tango_obs.Clock.mono_us () -. t0)) f

module Timed : Backend.S with type conn = Client.t = struct
  type conn = Client.t
  type cursor = Client.cursor

  let kind = "in_process_timed"

  let execute_query c q =
    timed
      (fun d -> acc.execute_query_us <- acc.execute_query_us +. d)
      (fun () -> Client.execute_query_ast c q)

  let cursor_schema = Client.cursor_schema

  let fetch cur =
    timed (fun d -> acc.fetch_us <- acc.fetch_us +. d) (fun () -> Client.fetch cur)

  let fetch_batch cur =
    timed
      (fun d -> acc.fetch_us <- acc.fetch_us +. d)
      (fun () -> Client.fetch_batch cur)

  let execute_update = Client.execute_update

  let bulk_load c ~table schema seq =
    timed
      (fun d -> acc.bulk_load_us <- acc.bulk_load_us +. d)
      (fun () -> Client.bulk_load c ~table schema seq)

  let drop_table c table =
    if Database.table_exists (Client.database c) table then
      Database.drop_table (Client.database c) table

  let table_exists c table = Database.table_exists (Client.database c) table
  let table_schema c table = Database.table_schema (Client.database c) table

  let analyze c ?histograms table =
    ignore (Database.analyze (Client.database c) ?histograms table)

  let schema_generation c = Database.schema_generation (Client.database c)

  let counters c =
    (Client.roundtrips c, Client.tuples_shipped c, Client.bytes_shipped c)

  let close _ = ()
end

(* A session over [db] whose only backend is timed. *)
let connect ~config db =
  let client =
    Client.connect ~row_prefetch:config.Tango_core.Middleware.Config.row_prefetch
      ~roundtrip_spin:config.Tango_core.Middleware.Config.roundtrip_spin db
  in
  let backend = Backend.make (module Timed) client ~name:"db" ~client () in
  Tango_core.Middleware.connect_topology ~config (Topology.single backend)
