(* In-memory spans of the traced run.  Each span is one timed call into a
   layer's public function, recorded by the benchmark itself; the
   per-layer metrics are reductions over them. *)

let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let record name v =
  match Hashtbl.find_opt samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace samples name (ref [ v ])

let values name =
  match Hashtbl.find_opt samples name with
  | Some l -> Array.of_list !l
  | None -> [||]

let median name = Quantile.median (values name)
let mean name = Quantile.mean (values name)
let count name = float_of_int (Array.length (values name))

(* Time spent inside probe calls: extra work the traced run does beside
   the workload, excluded from its throughput clock. *)
let probe_us = ref 0.0

(* [span name f] times [f ()] as a probe: its duration and allocation are
   recorded under [name ^ "_us"] and [layer ^ ".alloc_bytes"]. *)
let span ?alloc name f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Tango_obs.Clock.mono_us () in
  let r = f () in
  let dt = Tango_obs.Clock.mono_us () -. t0 in
  probe_us := !probe_us +. dt;
  record (name ^ "_us") dt;
  Option.iter (fun l -> record (l ^ ".alloc_bytes") (Gc.allocated_bytes () -. a0)) alloc;
  r

(* The middleware operators the [xxl.*] metrics report, keyed by the
   executed node kind. *)
let ops =
  [ "taggr"; "sort"; "tjoin"; "join"; "filter"; "project"; "transfer_m";
    "transfer_d"; "dup_elim"; "gather" ]

let op_of (n : Tango_core.Exec_plan.node) =
  match n.Tango_core.Exec_plan.kind with
  | Taggr _ -> Some "taggr"
  | Sort _ | Sort_noop _ -> Some "sort"
  | Tjoin _ -> Some "tjoin"
  | Merge_join _ -> Some "join"
  | Filter _ -> Some "filter"
  | Project _ -> Some "project"
  | Transfer_m _ -> Some "transfer_m"
  | Scatter _ -> Some "gather"
  | Dupelim _ -> Some "dup_elim"
  | Coalesce _ | Difference _ -> None

(* Per-operator self time (node time minus its children's) and rows of
   one executed plan, summed per operator kind and recorded once per
   query.  A [TRANSFER^M]'s dependencies are [TRANSFER^D] loads: their
   bulk-load time ([bulk_load_us], from the timing backend) is charged to
   [transfer_d] and taken out of the transfer's own self time. *)
let record_exec ~bulk_load_us (root : Tango_core.Exec_plan.node) =
  let self = Hashtbl.create 8 and rows = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  Tango_core.Exec_plan.iter
    (fun n ->
      let open Tango_core.Exec_plan in
      let kids = children n in
      let own =
        n.elapsed_us -. List.fold_left (fun a c -> a +. c.elapsed_us) 0.0 kids
      in
      match op_of n with
      | None -> ()
      | Some op ->
          add self op own;
          add rows op (float_of_int n.out_tuples);
          (match n.kind with
          | Transfer_m { deps = _ :: _ as deps; _ } ->
              add self "transfer_d" 0.0;
              List.iter
                (fun d -> add rows "transfer_d" (float_of_int d.source.out_tuples))
                deps
          | _ -> ()))
    root;
  if Hashtbl.mem self "transfer_d" then begin
    add self "transfer_d" bulk_load_us;
    add self "transfer_m" (-.bulk_load_us)
  end;
  List.iter
    (fun op ->
      record ("xxl." ^ op ^ ".self_us")
        (Option.value ~default:0.0 (Hashtbl.find_opt self op));
      record ("xxl." ^ op ^ ".rows")
        (Option.value ~default:0.0 (Hashtbl.find_opt rows op)))
    ops
