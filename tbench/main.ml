(* The TANGO benchmark: three workloads, each loading a different layer.

     main.exe --workload paper-mix|serve-oltp|reload-cycle --seed N
              --seconds S --trace 0|1

   With [--trace 0] the last stdout line is one JSON object carrying the
   end-to-end metrics of an untraced run; with [--trace 1] it carries the
   per-layer metrics of a traced run.  See README.md beside this file for
   why each workload exists and which layer it loads. *)

open Tango_rel
open Tango_core
module M = Middleware
module Q = Tango_workload.Queries
module Uis = Tango_workload.Uis
module Compile = Tango_tsql.Compile

let scale = 0.1
let scaled n = max 10 (int_of_float (scale *. float_of_int n))
let n_pos = scaled Uis.position_full_cardinality
let n_emp = scaled Uis.employee_full_cardinality
let now_us = Tango_obs.Clock.mono_us

(* Repeated set-ups per untraced run; [setup_s] is their median. *)
let setup_reps = 5

(* ------------------------------------------------------------------ *)
(* Seeded choices                                                       *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Outcomes and the oracle                                              *)
(* ------------------------------------------------------------------ *)

(* Attempted and failed operations (a wrong result is a failure), and
   per-query latencies in ms, scaled to nominal host speed ([lat]) and as
   measured ([raw]); a failure's latency is infinite, so it misses every
   latency limit. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat : (string * float) list;  (** query name, ms *)
  mutable raw : float list;
}

let tally () = { attempted = 0; failed = 0; lat = []; raw = [] }

(* [slowdown] is {!Host.slowdown} at the time of the query. *)
let note ?(slowdown = 1.0) t name ms ok =
  let ms = if ok then ms else infinity in
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  t.lat <- (name, ms /. slowdown) :: t.lat;
  t.raw <- ms :: t.raw

let latencies ?name t =
  Array.of_list
    (List.filter_map
       (fun (n, ms) -> if name = None || name = Some n then Some ms else None)
       t.lat)

(* Compute [f ()] in a child process and return its (marshalled) value,
   so the oracle's memory never counts in the measured process's peak. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        try
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc (f ()) [];
          close_out oc;
          0
        with e ->
          prerr_endline ("oracle: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match v with Some v -> v | None -> failwith "oracle process failed")

(* An oracle depends only on the statement texts and the code, so runs of
   the same executable share it: the first computes it, later ones read
   it from tbench/.oracle/ (relative to the checkout root), keyed by the
   executable's digest.  An unreadable file is recomputed. *)
let cached_oracle name (f : unit -> 'a) : 'a =
  let dir = Filename.concat "tbench" ".oracle" in
  let path =
    Filename.concat dir
      (name ^ "-" ^ Digest.to_hex (Digest.file Sys.executable_name))
  in
  let read () =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
  in
  match read () with
  | v -> v
  | exception (Sys_error _ | End_of_file | Failure _) ->
      let v = in_child f in
      (try
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
         let oc = open_out_bin tmp in
         Marshal.to_channel oc v [];
         close_out oc;
         Sys.rename tmp path
       with Sys_error _ -> ());
      v

let uis_tables ~position =
  [ ("POSITION", Oracle.unqualified position);
    ("EMPLOYEE", Oracle.unqualified (Uis.employee ~n:n_emp ())) ]

(* Queries 1-3 join and group on PosID, Query 4 joins on EmpID. *)
let oracle_key qname =
  [ ("POSITION", if qname = "q4" then "EmpID" else "PosID");
    ("EMPLOYEE", "EmpID") ]

let oracle_buckets = 64

type expected = (string, Oracle.expected) Hashtbl.t

let correct (expected : expected) key sql rel =
  match Hashtbl.find_opt expected key with
  | None -> false
  | Some e ->
      Relation.cardinality rel = e.Oracle.rows
      && Oracle.sorted (Compile.required_order sql) rel
      && Oracle.digest rel = e.Oracle.digest

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced runs only)                                  *)
(* ------------------------------------------------------------------ *)

let rec fragments (p : Tango_volcano.Physical.plan) =
  let open Tango_volcano.Physical in
  (match (p.algorithm, p.children) with
  | (Transfer_m_algo | Scatter_gather_m), [ c ] -> [ c.op ]
  | _ -> [])
  @ List.concat_map fragments p.children

(* Counters of the main call of one traced query: GC, allocation and the
   DBMS boundary (the timing backend plus the backend's meters). *)
let traced_call mw f =
  let b = M.primary mw in
  let r0 = Tango_dbms.Backend.roundtrips b
  and t0 = Tango_dbms.Backend.tuples_shipped b
  and y0 = Tango_dbms.Backend.bytes_shipped b in
  let g0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  Timed_backend.reset ();
  let r = f () in
  let g1 = Gc.quick_stat () in
  Layers.record "query.alloc_bytes" (Gc.allocated_bytes () -. a0);
  Layers.record "gc.minor_per_query"
    (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  Layers.record "gc.major_per_query"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  let acc = Timed_backend.acc in
  Layers.record "dbms.execute_query_us" acc.execute_query_us;
  Layers.record "dbms.fetch_us" acc.fetch_us;
  Layers.record "dbms.bulk_load_us" acc.bulk_load_us;
  Layers.record "dbms.roundtrips" (float_of_int (Tango_dbms.Backend.roundtrips b - r0));
  Layers.record "dbms.tuples" (float_of_int (Tango_dbms.Backend.tuples_shipped b - t0));
  Layers.record "dbms.bytes" (float_of_int (Tango_dbms.Backend.bytes_shipped b - y0));
  r

(* Time each layer's public entry point on [sql] (a literal query):
   parameterize, compile, optimize (statistics warm by now), translate
   each DBMS fragment, and execute the plan [physical] the session chose.
   [hit_us], the main call's latency when it was a plan-cache hit, less
   the execution time gives the cache hit's own overhead. *)
let probe_layers mw ~sql ~physical ~hit_us =
  ignore
    (Layers.span ~alloc:"sql" "sql.parameterize" (fun () ->
         Tango_sql.Parameterize.extract sql));
  let op =
    Layers.span ~alloc:"tsql" "tsql.compile" (fun () ->
        Compile.initial_plan ~lookup:(M.schema_lookup mw) sql)
  in
  let res =
    Layers.span ~alloc:"volcano" "volcano.optimize" (fun () ->
        M.optimize mw ~required_order:(Compile.required_order sql) op)
  in
  Layers.record "volcano.classes" (float_of_int res.Tango_volcano.Search.classes);
  Layers.record "volcano.elements" (float_of_int res.Tango_volcano.Search.elements);
  Option.iter
    (fun plan ->
      List.iter
        (fun frag ->
          ignore
            (Layers.span ~alloc:"sqlgen" "sqlgen.translate" (fun () ->
                 Tango_sqlgen.Translate.to_sql ~temp_name:(fun _ -> "TANGO_TMP_X") frag)))
        (fragments plan))
    res.Tango_volcano.Search.plan;
  let t0 = now_us () in
  ignore (Layers.span ~alloc:"core" "core.execute" (fun () -> M.execute_physical mw physical));
  Option.iter
    (fun us -> Layers.record "core.hit_overhead_us" (us -. (now_us () -. t0)))
    hit_us

let plans_seen : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8

let note_plan qname (report : M.report) =
  let tbl =
    match Hashtbl.find_opt plans_seen qname with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace plans_seen qname t;
        t
  in
  Hashtbl.replace tbl (Tango_volcano.Physical.fingerprint report.M.physical) ()

let plans_distinct () =
  float_of_int (Hashtbl.fold (fun _ t a -> a + Hashtbl.length t) plans_seen 0)

(* The (qualifier, table) pairs the workload's optimizer asks statistics
   for. *)
let stats_pairs =
  [ ("POSITION", "POSITION"); ("A", "POSITION"); ("B", "POSITION");
    ("P", "POSITION"); ("E", "EMPLOYEE"); ("EMPLOYEE", "EMPLOYEE") ]

(* Statistics collection from cold, on a fresh session over [db]
   (collection does not advance the schema generation, so the measured
   session's plan cache is untouched).  Returns the total time. *)
let probe_stats db =
  let s = M.connect db in
  List.fold_left
    (fun acc (qualifier, table) ->
      let t0 = now_us () in
      ignore
        (Layers.span ~alloc:"stats" "stats.collect" (fun () ->
             M.base_stats s ~qualifier table));
      acc +. (now_us () -. t0))
    0.0 stats_pairs

let cache_delta (a : Tango_cache.Plan_cache.stats) (b : Tango_cache.Plan_cache.stats) =
  let open Tango_cache.Plan_cache in
  let lookups = float_of_int (b.hits - a.hits + (b.misses - a.misses)) in
  let frac n = if lookups = 0.0 then 0.0 else float_of_int n /. lookups in
  [ ("cache.hit_frac", frac (b.hits - a.hits));
    ("cache.template_hit_frac", frac (b.template_hits - a.template_hits));
    ("cache.invalidations", float_of_int (b.invalidations - a.invalidations));
    ("cache.replans", float_of_int (b.replans - a.replans)) ]

(* ------------------------------------------------------------------ *)
(* In-process workloads: paper-mix and reload-cycle                     *)
(* ------------------------------------------------------------------ *)

(* One closed-loop client over a session.  Verification of each result
   against the oracle is taken off the clock, and so are the probes of a
   traced run. *)
type client = {
  mw : M.t;
  expected : expected;
  tally : tally;
  traced : bool;
  mutable off_clock_us : float;
  mutable slowdown : float;  (** {!Host.slowdown} before the current unit *)
}

let client ?(traced = false) mw expected =
  { mw; expected; tally = tally (); traced; off_clock_us = 0.0; slowdown = 1.0 }

let run_query c ~key (qname, sql) =
  let t0 = now_us () in
  let result =
    match
      if c.traced then traced_call c.mw (fun () -> M.query c.mw sql)
      else M.query c.mw sql
    with
    | r -> Ok r
    | exception e -> Error e
  in
  let lat_us = now_us () -. t0 in
  let v0 = now_us () in
  (match result with
  | Ok report ->
      note ~slowdown:c.slowdown c.tally qname (lat_us /. 1000.0)
        (correct c.expected key sql report.M.result)
  | Error e ->
      prerr_endline (qname ^ ": " ^ Printexc.to_string e);
      note c.tally qname infinity false);
  c.off_clock_us <- c.off_clock_us +. (now_us () -. v0);
  match result with
  | Ok report when c.traced ->
      let p0 = !Layers.probe_us in
      Layers.record_exec ~bulk_load_us:Timed_backend.acc.bulk_load_us report.M.exec;
      note_plan qname report;
      let hit =
        match report.M.cache with Some r when r.M.cache_hit -> Some lat_us | _ -> None
      in
      probe_layers c.mw ~sql ~physical:report.M.physical ~hit_us:hit;
      c.off_clock_us <- c.off_clock_us +. (!Layers.probe_us -. p0);
      Some report
  | Ok report -> Some report
  | Error _ -> None

let inproc_config = M.Config.(default |> with_plan_cache true)

(* A database at the workload's scale and a calibrated session over it;
   [warm] runs before the clock stops. *)
let setup_inproc ~warm () =
  let t0 = now_us () in
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale db;
  let mw = M.connect ~config:inproc_config db in
  M.calibrate mw;
  warm mw;
  ((db, mw), (now_us () -. t0) /. 1e6)

(* [setup_reps] runs of [setup], each timed and scaled by the host's
   slowdown just before it; the last one is kept.  Returns it with the
   median scaled and raw set-up times. *)
let timed_setups ?(reps = setup_reps) ~discard setup =
  let rec go i acc =
    let sd = Host.slowdown () in
    let v, s = setup () in
    let acc = (s /. sd, s) :: acc in
    if i < reps then begin
      discard v;
      go (i + 1) acc
    end
    else
      ( v,
        Quantile.median (Array.of_list (List.map fst acc)),
        Quantile.median (Array.of_list (List.map snd acc)) )
  in
  go 1 []

let warm_round mw =
  List.iter (fun (_, sql) -> ignore (M.query mw sql)) Q.workload

(* Run blocks of whole work until [seconds] of clock time passed.  A
   block is a list of steps; the host's slowdown is taken before each
   step, off the clock, so a slow spell of the host scales the steps it
   hits.  Returns the clock time in seconds and the throughput, scaled and
   raw: the median over blocks of correct queries per clock second, so a
   burst of host noise moves one block's rate rather than the run's. *)
let timed_loop c ~seconds block =
  let t0 = now_us () in
  let clock () = (now_us () -. t0 -. c.off_clock_us) /. 1e6 in
  c.off_clock_us <- 0.0;
  let rates = ref [] in
  while clock () < seconds do
    let ok0 = c.tally.attempted - c.tally.failed in
    let scaled_s = ref 0.0 and raw_s = ref 0.0 in
    List.iter
      (fun step ->
        let h0 = now_us () in
        c.slowdown <- Host.slowdown ();
        c.off_clock_us <- c.off_clock_us +. (now_us () -. h0);
        let s0 = clock () in
        step ();
        let dt = clock () -. s0 in
        raw_s := !raw_s +. dt;
        scaled_s := !scaled_s +. (dt /. c.slowdown))
      (block ());
    let ok = float_of_int (c.tally.attempted - c.tally.failed - ok0) in
    rates := (ok /. !scaled_s, ok /. !raw_s) :: !rates
  done;
  ( clock (),
    Quantile.median (Array.of_list (List.map fst !rates)),
    Quantile.median (Array.of_list (List.map snd !rates)) )

(* ---- paper-mix ---- *)

(* Literal pools of nearby dates: every literal is a distinct statement
   text (a template hit after the first), while the cost mix hardly
   depends on which literals the seed draws. *)
let q2_pool = [| "1995-07-01"; "1996-01-01"; "1996-07-01"; "1997-01-01" |]
let q3_pool = [| "1995-01-01"; "1995-07-01"; "1996-01-01"; "1996-07-01" |]

let paper_queries ~q2 ~q3 =
  [ ("q1", Q.q1_sql); ("q2", Q.q2_sql ~period_end:q2);
    ("q3", Q.q3_sql ~start_bound:q3); ("q4", Q.q4_sql) ]

(* One block: a round per pool literal, so every block runs each literal
   once; the seed chooses the pairing and the order.  A round runs the
   fast Queries 1 and 3 twice and the slow Queries 2 and 4 once, so the
   median lands inside the fast mode and the 90th percentile inside the
   slow one, rather than on the gap between them. *)
let paper_block rng =
  let p2 = shuffle rng [| 0; 1; 2; 3 |] and p3 = shuffle rng [| 0; 1; 2; 3 |] in
  List.concat
    (List.init (Array.length q2_pool) (fun r ->
         Array.to_list
           (shuffle rng
              (Array.of_list
                 (List.concat_map
                    (fun ((n, _) as q) -> if n = "q1" || n = "q3" then [ q; q ] else [ q ])
                    (paper_queries ~q2:q2_pool.(p2.(r)) ~q3:q3_pool.(p3.(r))))))))

let paper_oracle () =
  cached_oracle "paper-mix" (fun () ->
      let tables = uis_tables ~position:(Uis.position ~n:n_pos ~employees:n_emp ()) in
      let h : expected = Hashtbl.create 16 in
      Array.iteri
        (fun i _ ->
          List.iter
            (fun (qname, sql) ->
              if not (Hashtbl.mem h sql) then
                Hashtbl.replace h sql
                  (Oracle.eval ~tables ~key:(oracle_key qname) ~buckets:oracle_buckets sql))
            (paper_queries ~q2:q2_pool.(i) ~q3:q3_pool.(i)))
        q2_pool;
      h)

let paper_loop c rng ~seconds =
  timed_loop c ~seconds (fun () ->
      [ (fun () ->
          List.iter
            (fun (qname, sql) -> ignore (run_query c ~key:sql (qname, sql)))
            (paper_block rng)) ])

(* ---- reload-cycle ---- *)

(* The paper's POSITION size variants at the workload's scale, then the
   full table. *)
let reload_sizes =
  Array.of_list
    (List.map scaled Uis.position_variant_cardinalities @ [ n_pos ])

let r2_pool = [| "1996-01-01"; "1996-07-01" |]
let r3_pool = [| "1995-07-01"; "1996-01-01" |]

let reload_queries i = paper_queries ~q2:r2_pool.(i) ~q3:r3_pool.(i)
let reload_key n sql = string_of_int n ^ "|" ^ sql

let reload_oracle () =
  cached_oracle "reload-cycle" (fun () ->
      let h : expected = Hashtbl.create 64 in
      Array.iter
        (fun n ->
          let tables = uis_tables ~position:(Uis.position ~n ()) in
          List.iter
            (fun i ->
              List.iter
                (fun (qname, sql) ->
                  let k = reload_key n sql in
                  if not (Hashtbl.mem h k) then
                    Hashtbl.replace h k
                      (Oracle.eval ~tables ~key:(oracle_key qname)
                         ~buckets:oracle_buckets sql))
                (reload_queries i))
            [ 0; 1 ])
        reload_sizes;
      h)

(* Points for the F1 slopes: (POSITION rows, µs) per cycle. *)
let stats_points = ref []
let cold_opt_points = ref []

(* One cycle: reload POSITION with [n] rows, refresh statistics (without
   pre-warming them), then a cold and a warm round of Queries 1-4.  The
   seed chooses which literal pair runs cold and the query order. *)
let reload_cycle c db rng n =
  let t0 = now_us () in
  Tango_dbms.Database.drop_table db "POSITION";
  Uis.load_position_variant db ~table:"POSITION" ~n;
  M.refresh_statistics c.mw;
  let reload_ms = (now_us () -. t0) /. 1000.0 in
  let cold = Random.State.int rng 2 in
  let round i =
    List.fold_left
      (fun acc (qname, sql) ->
        match run_query c ~key:(reload_key n sql) (qname, sql) with
        | Some r -> acc +. r.M.optimize_us
        | None -> acc)
      0.0
      (Array.to_list (shuffle rng (Array.of_list (reload_queries i))))
  in
  let cold_opt_us = round cold in
  ignore (round (1 - cold));
  if c.traced then begin
    Layers.record "dbms.reload_ms" reload_ms;
    let p0 = now_us () in
    let stats_us = probe_stats db in
    c.off_clock_us <- c.off_clock_us +. (now_us () -. p0);
    stats_points := (float_of_int n, stats_us) :: !stats_points;
    cold_opt_points := (float_of_int n, cold_opt_us) :: !cold_opt_points
  end

(* Whole sweeps over every size, starting at a seeded offset; each cycle
   is a step of its own, so the host's slowdown is taken once a cycle. *)
let reload_loop c db rng ~seconds =
  let k = Array.length reload_sizes in
  timed_loop c ~seconds (fun () ->
      let off = Random.State.int rng k in
      List.init k (fun i () -> reload_cycle c db rng reload_sizes.((off + i) mod k)))

(* ------------------------------------------------------------------ *)
(* serve-oltp                                                           *)
(* ------------------------------------------------------------------ *)

let serve_rate = 200.0  (* offered queries per second *)
let serve_keys = 256  (* distinct EmpIDs a run draws from *)

(* Configured as [tango_cli serve] configures its session. *)
let serve_config =
  M.Config.(
    default |> with_tracing true |> with_profiling true |> with_plan_cache true)

(* The statements of serve-oltp.  A lookup that also returns its key
   column ([Lookup_key]) gets FILTER^D planned above PROJECT^D, and that
   SQL scans EMPLOYEE instead of using its index: about 15 ms instead of
   0.1 ms at scale 0.1.  Mixed into the open loop it makes the requests
   queued behind it swing the 90th percentile from seed to seed, so the
   mix leaves it out and the traced run times it on the side
   ([monitor.lookup_key_us]). *)
type statement = Lookup | Lookup_key | History

let statement_sql st x =
  match st with
  | Lookup -> Printf.sprintf "SELECT Name, Address FROM EMPLOYEE WHERE EmpID = %s" x
  | Lookup_key ->
      Printf.sprintf "SELECT EmpID, Name, Address FROM EMPLOYEE WHERE EmpID = %s" x
  | History ->
      Printf.sprintf
        "VALIDTIME SELECT PosID, EmpName, PayRate FROM POSITION WHERE EmpID = \
         %s ORDER BY PosID"
        x

let statement_name = function
  | Lookup -> "lookup"
  | Lookup_key -> "lookup_key"
  | History -> "history"

let serve_setup () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale db;
  (* the index a DBA would add for this application's history lookups *)
  Tango_dbms.Database.create_index db "POSITION" "EmpID";
  let mw = M.connect ~config:serve_config db in
  M.calibrate mw;
  (db, mw)

let endpoints mw =
  let open Tango_monitor in
  let log = Event_log.create ~capacity:256 ~sample_every:1 ~slow_keep_us:0.0 () in
  let slo =
    Slo.create
      ~objective:{ Slo.default_objective with Slo.latency_us = 100_000.0 }
      ()
  in
  Endpoints.handler (Endpoints.create ~log ~slo mw)

(* One query request of the mix: statement, key, and whether it is sent
   as JSON with a bind variable or as literal SQL. *)
type shape = { st : statement; key : int; json : bool }

let shape_sql s = statement_sql s.st (string_of_int s.key)

let shape_body s =
  if not s.json then shape_sql s
  else
    Tango_obs.Json.(
      to_string
        (Obj
           [ ("sql", String (statement_sql s.st "?"));
             ("params", List [ Int s.key ]) ]))

let oracle_name s = statement_name s.st ^ "|" ^ string_of_int s.key

(* The query mix, in groups of forty: thirty-two EMPLOYEE point lookups
   and eight POSITION histories, half as JSON with a bind variable and
   half as literal SQL, keys from the seeded pool. *)
let serve_shapes rng keys n =
  let group = Array.append (Array.make 32 Lookup) (Array.make 8 History) in
  let size = Array.length group in
  let groups = (n + size - 1) / size in
  Array.sub
    (Array.concat
       (List.init groups (fun _ ->
            let sts = shuffle rng group in
            let json = shuffle rng (Array.init size (fun i -> i < size / 2)) in
            Array.init size (fun i ->
                { st = sts.(i); json = json.(i);
                  key = keys.(Random.State.int rng (Array.length keys)) }))))
    0 n

let serve_oracle keys =
  in_child (fun () ->
      let tables = uis_tables ~position:(Uis.position ~n:n_pos ~employees:n_emp ()) in
      let h : expected = Hashtbl.create 1024 in
      Array.iter
        (fun key ->
          List.iter
            (fun st ->
              let s = { st; key; json = false } in
              Hashtbl.replace h (oracle_name s)
                (Oracle.eval ~tables ~key:(oracle_key "q4") ~buckets:1 (shape_sql s)))
            [ Lookup; Lookup_key; History ])
        keys;
      h)

(* Queries due at [rate] per second for [seconds], and one metrics
   scrape per second, half a second out of phase with the start. *)
let serve_schedule ~expected shapes ~seconds =
  let rows s =
    match Hashtbl.find_opt expected (oracle_name s) with
    | Some e -> e.Oracle.rows
    | None -> -2
  in
  let queries =
    Array.mapi
      (fun i s ->
        { Loadgen.due_us = float_of_int i *. 1e6 /. serve_rate;
          payload = Loadgen.post_query (shape_body s); query = true;
          expect_rows = rows s })
      shapes
  in
  let scrapes =
    Array.init (int_of_float seconds) (fun i ->
        { Loadgen.due_us = (float_of_int i +. 0.5) *. 1e6;
          payload = Loadgen.get_metrics; query = false; expect_rows = -1 })
  in
  let all = Array.append queries scrapes in
  Array.stable_sort (fun a b -> Float.compare a.Loadgen.due_us b.Loadgen.due_us) all;
  all

let warm_schedule shapes =
  Array.mapi
    (fun i s ->
      { Loadgen.due_us = float_of_int i *. 2000.0;
        payload = Loadgen.post_query (shape_body s); query = true;
        expect_rows = -1 })
    shapes

(* Summary of one open-loop phase. *)
type serve_result = {
  s_tally : tally;
  completed_qps : float;
  offered_qps : float;
  completed_frac : float;
  lag_p90_ms : float;
  backlog_end : int;
  service_us : float array;  (** client-observed send-to-last-byte times *)
}

(* Latencies here are not scaled to nominal host speed: loopback HTTP
   time is mostly the kernel's, and it moved by a tenth while the
   reference unit moved by half. *)
let serve_phase ~port schedule =
  let outcomes = Loadgen.run ~port schedule in
  let t = tally () in
  let qs = List.filter (fun o -> o.Loadgen.req.Loadgen.query) outcomes in
  List.iter
    (fun o ->
      if o.Loadgen.req.Loadgen.query then
        (* named by the one-second window of its due time *)
        note t
          (string_of_int (int_of_float (o.Loadgen.req.Loadgen.due_us /. 1e6)))
          ((o.Loadgen.done_us -. o.Loadgen.req.Loadgen.due_us) /. 1000.0)
          o.Loadgen.ok
      else begin
        t.attempted <- t.attempted + 1;
        if not o.Loadgen.ok then t.failed <- t.failed + 1
      end)
    outcomes;
  let ok = List.filter (fun o -> o.Loadgen.ok) qs in
  let n_ok = float_of_int (List.length ok) in
  let n_q = float_of_int (List.length qs) in
  let last_due =
    List.fold_left (fun a o -> Float.max a o.Loadgen.req.Loadgen.due_us) 0.0 qs
  in
  let last_done = List.fold_left (fun a o -> Float.max a o.Loadgen.done_us) 0.0 ok in
  let lags =
    Array.of_list
      (List.map (fun o -> (o.Loadgen.sent_us -. o.Loadgen.req.Loadgen.due_us) /. 1000.0) outcomes)
  in
  {
    s_tally = t;
    completed_qps = n_ok /. (last_done /. 1e6);
    offered_qps = (n_q -. 1.0) /. (last_due /. 1e6);
    completed_frac = n_ok /. n_q;
    lag_p90_ms = Quantile.percentile 0.9 lags;
    (* still open 100 ms after the last request went out: a backlog that
       grew instead of draining *)
    backlog_end =
      List.length
        (List.filter (fun o -> o.Loadgen.done_us > last_due +. 100_000.0) outcomes);
    service_us =
      Array.of_list
        (List.map (fun o -> o.Loadgen.done_us -. o.Loadgen.sent_us) ok);
  }

let http_request body =
  { Tango_monitor.Http.meth = "POST"; path = "/query"; query = [];
    headers = [ ("content-length", string_of_int (String.length body)) ];
    body }

let metrics_request =
  { Tango_monitor.Http.meth = "GET"; path = "/metrics"; query = [];
    headers = []; body = "" }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms");
    ("throughput_qps", "1/s"); ("setup_s", "s"); ("ok_frac", "frac");
    ("heap_peak_mb", "MB") ]

let per_layer =
  [ ("tsql.compile_us", "us"); ("sql.parameterize_us", "us");
    ("core.hit_overhead_us", "us"); ("core.execute_us", "us");
    ("monitor.handler_us", "us"); ("http.roundtrip_us", "us");
    ("monitor.scrape_us", "us"); ("monitor.scrape_bytes", "bytes");
    ("monitor.lookup_key_us", "us");
    ("cache.hit_frac", "frac"); ("cache.template_hit_frac", "frac");
    ("cache.invalidations", "count"); ("cache.replans", "count");
    ("stats.collect_us", "us"); ("stats.collect_calls", "count");
    ("stats.collect_us_per_krow", "us/krow");
    ("volcano.optimize_us", "us"); ("volcano.cold_optimize_us_per_krow", "us/krow");
    ("volcano.classes", "count"); ("volcano.elements", "count");
    ("volcano.plans_distinct", "count"); ("sqlgen.translate_us", "us") ]
  @ List.concat_map
      (fun op -> [ ("xxl." ^ op ^ ".self_us", "us"); ("xxl." ^ op ^ ".rows", "count") ])
      Layers.ops
  @ [ ("dbms.execute_query_us", "us"); ("dbms.fetch_us", "us");
      ("dbms.fetch_us.spin0", "us"); ("dbms.bulk_load_us", "us");
      ("dbms.roundtrips", "count"); ("dbms.tuples", "count");
      ("dbms.bytes", "bytes"); ("dbms.reload_ms", "ms") ]
  @ List.map
      (fun l -> (l ^ ".alloc_bytes", "bytes"))
      [ "sql"; "tsql"; "volcano"; "sqlgen"; "core"; "stats"; "monitor"; "query" ]
  @ [ ("gc.minor_per_query", "count"); ("gc.major_per_query", "count");
      ("query.q1.p50_ms", "ms"); ("query.q2.p50_ms", "ms");
      ("query.q3.p50_ms", "ms"); ("query.q4.p50_ms", "ms");
      ("latency.p99_ms", "ms"); ("raw.latency_p50_ms", "ms");
      ("raw.latency_p90_ms", "ms"); ("raw.throughput_qps", "1/s");
      ("host.unit_us", "us");
      ("loadgen.offered_qps", "1/s"); ("loadgen.completed_qps", "1/s");
      ("loadgen.completed_frac", "frac"); ("loadgen.lag_p90_ms", "ms");
      ("loadgen.backlog_end", "count");
      ("trace.throughput_qps_untraced", "1/s"); ("trace.throughput_qps_traced", "1/s");
      ("trace.overhead_frac", "frac") ]

(* Peak resident set of this process. *)
let self_hwm_mb () = Loadgen.vm_hwm_mb "self"

let provenance ~workload ~seed ~trace ~config =
  let open Tango_obs.Json in
  to_string
    (Obj
       [ ("git", String Tango_monitor.Build_info.git_describe);
         ("workload", String workload); ("seed", Int seed);
         ("trace", Int trace); ("scale", Float scale);
         ("nproc", Int (Domain.recommended_domain_count ()));
         ("ocaml", String Sys.ocaml_version);
         ("roundtrip_spin", Int config.M.Config.roundtrip_spin);
         ("row_prefetch", Int config.M.Config.row_prefetch) ])

(* The result line.  [metrics] must name exactly the declared set; a
   metric the run did not measure (not applicable to its workload)
   reports 0. *)
let emit ~declared ~attempted ~failed ~correct metrics =
  let open Tango_obs.Json in
  let value name =
    match List.assoc_opt name metrics with
    | Some v when Float.is_finite v -> v
    | Some v when Float.is_nan v -> 0.0
    | Some _ -> 1e9 (* a percentile reaching a failed request *)
    | None -> 0.0
  in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool correct); ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, unit) ->
                     (name, Obj [ ("value", Float (value name)); ("unit", String unit) ]))
                   declared) ) ]))

let latency_metrics t =
  let l = latencies t in
  [ ("latency_p50_ms", Quantile.percentile 0.5 l);
    ("latency_p90_ms", Quantile.percentile 0.9 l) ]

(* serve-oltp's percentiles: each taken per one-second window of due
   times, then the median over the windows, so a host stall spoils the
   windows it hits rather than the run. *)
let windowed_latency_metrics t =
  let windows = Hashtbl.create 32 in
  List.iter
    (fun (w, ms) ->
      Hashtbl.replace windows w
        (ms :: Option.value ~default:[] (Hashtbl.find_opt windows w)))
    t.lat;
  let per p =
    Quantile.median
      (Array.of_seq
         (Seq.map
            (fun l -> Quantile.percentile p (Array.of_list l))
            (Hashtbl.to_seq_values windows)))
  in
  [ ("latency_p50_ms", per 0.5); ("latency_p90_ms", per 0.9) ]

(* Host stalls on a small VM decide the 99th percentile, so it is a
   per-layer metric, without a regression bound. *)
let latency_p99 t = ("latency.p99_ms", Quantile.percentile 0.99 (latencies t))

let summary_line ~workload t extra =
  Printf.printf "# %s: %d attempted, %d failed (failed_frac %.4f), %d latency samples%s\n"
    workload t.attempted t.failed
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    (List.length t.lat) extra

(* The time metrics as measured, before scaling to nominal host speed. *)
let raw_metrics t ~qps =
  let l = Array.of_list t.raw in
  [ ("raw.latency_p50_ms", Quantile.percentile 0.5 l);
    ("raw.latency_p90_ms", Quantile.percentile 0.9 l);
    ("raw.throughput_qps", qps);
    ("host.unit_us", Quantile.median (Array.of_list !Host.samples)) ]

let raw_line t ~qps ~setup =
  let m = raw_metrics t ~qps in
  Printf.printf
    "# as measured: p50 %.3f ms, p90 %.3f ms, %.3f q/s, set-up %.3f s; \
     host unit %.0f us (nominal %.0f)\n"
    (List.assoc "raw.latency_p50_ms" m) (List.assoc "raw.latency_p90_ms" m) qps setup
    (List.assoc "host.unit_us" m) Host.nominal_us

let layer_reductions () =
  let med n = (n, Layers.median n) and avg n = (n, Layers.mean n) in
  [ med "tsql.compile_us"; med "sql.parameterize_us"; med "core.hit_overhead_us";
    med "core.execute_us"; med "monitor.handler_us"; med "monitor.scrape_us";
    med "monitor.scrape_bytes"; med "monitor.lookup_key_us"; med "stats.collect_us";
    ("stats.collect_calls", Layers.count "stats.collect_us");
    med "volcano.optimize_us"; avg "volcano.classes"; avg "volcano.elements";
    ("volcano.plans_distinct", plans_distinct ()); med "sqlgen.translate_us";
    avg "dbms.execute_query_us"; avg "dbms.fetch_us"; avg "dbms.fetch_us.spin0";
    avg "dbms.bulk_load_us"; avg "dbms.roundtrips"; avg "dbms.tuples";
    avg "dbms.bytes"; med "dbms.reload_ms"; avg "gc.minor_per_query";
    avg "gc.major_per_query";
    ("stats.collect_us_per_krow", 1000.0 *. Quantile.slope !stats_points);
    ("volcano.cold_optimize_us_per_krow", 1000.0 *. Quantile.slope !cold_opt_points) ]
  @ List.concat_map
      (fun op -> [ avg ("xxl." ^ op ^ ".self_us"); avg ("xxl." ^ op ^ ".rows") ])
      Layers.ops
  @ List.map
      (fun l -> med (l ^ ".alloc_bytes"))
      [ "sql"; "tsql"; "volcano"; "sqlgen"; "core"; "stats"; "monitor"; "query" ]

(* ------------------------------------------------------------------ *)
(* Workload drivers                                                     *)
(* ------------------------------------------------------------------ *)

type run = {
  workload : string;
  seed : int;
  seconds : float;
}

let overhead ~untraced ~traced =
  [ ("trace.throughput_qps_untraced", untraced);
    ("trace.throughput_qps_traced", traced);
    ("trace.overhead_frac", 1.0 -. (traced /. untraced)) ]

let per_query_p50 t =
  List.map
    (fun q -> ("query." ^ q ^ ".p50_ms", Quantile.median (latencies ~name:q t)))
    [ "q1"; "q2"; "q3"; "q4" ]

let inproc_untraced r ~oracle ~warm ~loop =
  let expected = oracle () in
  let (db, mw), setup_s, setup_raw =
    timed_setups ~discard:(fun _ -> Gc.full_major ()) (setup_inproc ~warm)
  in
  let rng = Random.State.make [| r.seed |] in
  let c = client mw expected in
  let secs, qps, qps_raw = loop c db rng ~seconds:r.seconds in
  let t = c.tally in
  summary_line ~workload:r.workload t (Printf.sprintf ", %.2f s on the clock" secs);
  raw_line t ~qps:qps_raw ~setup:setup_raw;
  emit ~declared:end_to_end ~attempted:t.attempted ~failed:t.failed
    ~correct:(t.failed = 0)
    (latency_metrics t
    @ [ ("throughput_qps", qps);
        ("setup_s", setup_s);
        ("ok_frac", 1.0 -. (float_of_int t.failed /. float_of_int (max 1 t.attempted)));
        ("heap_peak_mb", self_hwm_mb ()) ])

let inproc_traced r ~oracle ~warm ~loop ~spin0 =
  let expected = oracle () in
  let (db, mw), _ = setup_inproc ~warm () in
  let tmw = Timed_backend.connect ~config:inproc_config db in
  M.calibrate tmw;
  warm tmw;
  let rng = Random.State.make [| r.seed |] in
  let plain = client mw expected in
  let _, qps_u, qps_u_raw = loop plain db rng ~seconds:r.seconds in
  let traced = client ~traced:true tmw expected in
  let c0 = M.plan_cache_stats tmw in
  let _, qps_t, _ = loop traced db rng ~seconds:r.seconds in
  let cache = cache_delta c0 (M.plan_cache_stats tmw) in
  if spin0 then begin
    (* the same queries with no simulated round-trip latency: how much of
       the fetch time is the latency stand-in *)
    let cfg = M.config tmw in
    M.set_config tmw (M.Config.with_roundtrip_spin 0 cfg);
    List.iter
      (fun (qname, sql) ->
        Timed_backend.reset ();
        (match M.query tmw sql with
        | report ->
            note traced.tally qname 0.0 (correct expected sql sql report.M.result)
        | exception _ -> note traced.tally qname infinity false);
        Layers.record "dbms.fetch_us.spin0" Timed_backend.acc.fetch_us)
      (paper_block rng);
    M.set_config tmw cfg
  end;
  ignore (probe_stats db);
  let failed = plain.tally.failed + traced.tally.failed in
  let attempted = plain.tally.attempted + traced.tally.attempted in
  summary_line ~workload:r.workload traced.tally
    (Printf.sprintf ", untraced %.1f q/s, traced %.1f q/s" qps_u qps_t);
  emit ~declared:per_layer ~attempted ~failed ~correct:(failed = 0)
    (layer_reductions () @ cache @ per_query_p50 plain.tally
    @ [ latency_p99 plain.tally ]
    @ raw_metrics plain.tally ~qps:qps_u_raw
    @ overhead ~untraced:qps_u ~traced:qps_t)

let paper_mix r ~traced =
  let oracle = paper_oracle and warm = warm_round in
  let loop c _db rng ~seconds = paper_loop c rng ~seconds in
  if traced then inproc_traced r ~oracle ~warm ~loop ~spin0:true
  else inproc_untraced r ~oracle ~warm ~loop

let reload_cycle_wl r ~traced =
  let oracle = reload_oracle and warm = warm_round in
  let loop c db rng ~seconds = reload_loop c db rng ~seconds in
  if traced then inproc_traced r ~oracle ~warm ~loop ~spin0:false
  else inproc_untraced r ~oracle ~warm ~loop

let serve_oltp r ~traced =
  let rng = Random.State.make [| r.seed |] in
  let keys = Array.init serve_keys (fun _ -> 1 + Random.State.int rng n_emp) in
  let n = int_of_float (serve_rate *. r.seconds) in
  let shapes = serve_shapes rng keys n in
  let expected = serve_oracle keys in
  let schedule = serve_schedule ~expected shapes ~seconds:r.seconds in
  let warm = warm_schedule (Array.sub shapes 0 40) in
  (* set-up: fork the server, which loads, indexes, calibrates and binds;
     then warm it over HTTP *)
  let start_server () =
    let t0 = now_us () in
    let srv =
      Loadgen.spawn ~lifetime_s:170 (fun () ->
          let _, mw = serve_setup () in
          endpoints mw)
    in
    ignore (Loadgen.run ~port:srv.Loadgen.port warm);
    (srv, (now_us () -. t0) /. 1e6)
  in
  let srv, setup_s, setup_raw =
    timed_setups ~reps:(if traced then 1 else setup_reps) ~discard:Loadgen.stop
      start_server
  in
  let res, hwm =
    Fun.protect
      ~finally:(fun () -> Loadgen.stop srv)
      (fun () ->
        let res = serve_phase ~port:srv.Loadgen.port schedule in
        (res, Loadgen.vm_hwm_mb (string_of_int srv.Loadgen.pid)))
  in
  let t = res.s_tally in
  summary_line ~workload:r.workload t
    (Printf.sprintf
       ", offered %.1f q/s, completed %.1f q/s, generator lag p90 %.3f ms%s"
       res.offered_qps res.completed_qps res.lag_p90_ms
       (if res.backlog_end > 0 then
          Printf.sprintf " -- FLAG: backlog grew (%d still open)" res.backlog_end
        else ""));
  raw_line t ~qps:res.completed_qps ~setup:setup_raw;
  let loadgen =
    [ ("loadgen.offered_qps", res.offered_qps);
      ("loadgen.completed_qps", res.completed_qps);
      ("loadgen.completed_frac", res.completed_frac);
      ("loadgen.lag_p90_ms", res.lag_p90_ms);
      ("loadgen.backlog_end", float_of_int res.backlog_end) ]
  in
  if not traced then
    emit ~declared:end_to_end ~attempted:t.attempted ~failed:t.failed
      ~correct:(t.failed = 0)
      (windowed_latency_metrics t
      @ [ ("throughput_qps", res.completed_qps); ("setup_s", setup_s);
          ("ok_frac", 1.0 -. (float_of_int t.failed /. float_of_int (max 1 t.attempted)));
          ("heap_peak_mb", hwm) ])
  else begin
    (* the in-process half: the handler called directly, untraced on a
       plain session, then traced on a timing-backend session *)
    let db, mw = serve_setup () in
    let plain = endpoints mw in
    let tmw = Timed_backend.connect ~config:serve_config db in
    M.calibrate tmw;
    let traced_h = endpoints tmw in
    let reqs = Array.map (fun s -> (s, http_request (shape_body s))) shapes in
    Array.iter (fun (_, q) -> ignore (plain q); ignore (traced_h q)) (Array.sub reqs 0 40);
    let half = r.seconds /. 2.0 in
    let closed_loop f =
      let t0 = now_us () in
      let i = ref 0 in
      Layers.probe_us := 0.0;
      while (now_us () -. t0 -. !Layers.probe_us) /. 1e6 < half do
        f reqs.(!i mod Array.length reqs);
        incr i
      done;
      float_of_int !i /. ((now_us () -. t0 -. !Layers.probe_us) /. 1e6)
    in
    let tl = tally () in
    let check s (resp : Tango_monitor.Http.response) =
      resp.Tango_monitor.Http.status = 200
      &&
      match Hashtbl.find_opt expected (oracle_name s) with
      | Some e -> Loadgen.rows_of resp.Tango_monitor.Http.body = e.Oracle.rows
      | None -> false
    in
    let qps_u =
      closed_loop (fun (s, q) ->
          let resp = plain q in
          note tl "query" 0.0 (check s resp))
    in
    let c0 = M.plan_cache_stats tmw in
    let last_scrape = ref (now_us ()) in
    let qps_t =
      closed_loop (fun (s, q) ->
          let a0 = Gc.allocated_bytes () in
          let t0 = now_us () in
          let resp = traced_call tmw (fun () -> traced_h q) in
          Layers.record "monitor.handler_us" (now_us () -. t0);
          Layers.record "monitor.alloc_bytes" (Gc.allocated_bytes () -. a0);
          let p0 = now_us () and pb = !Layers.probe_us in
          note tl "query" 0.0 (check s resp);
          let sql = shape_sql s in
          let t1 = now_us () in
          (match M.query tmw sql with
          | report ->
              let hit_us = now_us () -. t1 in
              Layers.record_exec ~bulk_load_us:0.0 report.M.exec;
              note_plan (statement_name s.st) report;
              probe_layers tmw ~sql ~physical:report.M.physical
                ~hit_us:(match report.M.cache with
                  | Some c when c.M.cache_hit -> Some hit_us
                  | _ -> None)
          | exception e -> prerr_endline ("probe: " ^ Printexc.to_string e));
          if now_us () -. !last_scrape > 1e6 then begin
            last_scrape := now_us ();
            let resp = Layers.span "monitor.scrape" (fun () -> traced_h metrics_request) in
            Layers.record "monitor.scrape_bytes"
              (float_of_int (String.length resp.Tango_monitor.Http.body));
            let lk = { s with st = Lookup_key; json = false } in
            let resp =
              Layers.span "monitor.lookup_key" (fun () ->
                  traced_h (http_request (shape_body lk)))
            in
            note tl "lookup_key" 0.0 (check lk resp)
          end;
          Layers.probe_us := pb +. (now_us () -. p0))
    in
    let cache = cache_delta c0 (M.plan_cache_stats tmw) in
    ignore (probe_stats db);
    let failed = t.failed + tl.failed and attempted = t.attempted + tl.attempted in
    emit ~declared:per_layer ~attempted ~failed ~correct:(failed = 0)
      (layer_reductions () @ cache @ loadgen @ [ latency_p99 t ]
      @ raw_metrics t ~qps:res.completed_qps
      @ [ ( "http.roundtrip_us",
            Quantile.median res.service_us -. Layers.median "monitor.handler_us" ) ]
      @ overhead ~untraced:qps_u ~traced:qps_t)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME paper-mix | serve-oltp | reload-cycle");
      ("--seed", Arg.Set_int seed, "N seed for literals and order");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let r = { workload = !workload; seed = !seed; seconds = !seconds } in
  let traced = !trace = 1 in
  let run, config =
    match !workload with
    | "paper-mix" -> (paper_mix, inproc_config)
    | "serve-oltp" -> (serve_oltp, serve_config)
    | "reload-cycle" -> (reload_cycle_wl, inproc_config)
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  print_endline
    ("# provenance "
    ^ provenance ~workload:!workload ~seed:!seed ~trace:!trace ~config);
  run r ~traced
