(* Host speed.  The benchmark runs on a shared 2-vCPU VM whose speed
   drifts by up to 2x over minutes (other tenants, SMT siblings).  A fixed
   unit of OCaml work that shares no code with the system under test --
   allocation, sorting and hashing, as the workloads do -- is timed next
   to the measurement, and time metrics are scaled to the speed at which
   that unit takes [nominal_us]. *)

let nominal_us = 16_000.0

let unit_us () =
  let t0 = Tango_obs.Clock.mono_us () in
  let a = Array.init 20_000 (fun i -> ((i * 7919) mod 20_011, string_of_int i)) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iter (fun (k, v) -> Hashtbl.replace h k v) a;
  ignore (Sys.opaque_identity (Hashtbl.length h));
  Tango_obs.Clock.mono_us () -. t0

(* Every unit timed in this run, for the [host.unit_us] metric. *)
let samples = ref []

(* How much slower than nominal the host runs now: the median of [n]
   units over [nominal_us]. *)
let slowdown ?(n = 5) () =
  let xs = Array.init n (fun _ -> unit_us ()) in
  samples := Array.to_list xs @ !samples;
  Quantile.median xs /. nominal_us
