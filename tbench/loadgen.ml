(* The serve-oltp load generator: an open loop over loopback HTTP.
   Requests are sent when due, whatever the state of earlier ones, from
   one thread multiplexing its connections with [select]; a request's
   latency runs from its due time to the last response byte, so a server
   stall also charges the requests it delayed. *)

type request = {
  due_us : float;  (** offset from the start of the schedule *)
  payload : string;  (** the raw HTTP request *)
  query : bool;  (** [false] for a metrics scrape *)
  expect_rows : int;  (** oracle row count ([-1] for scrapes) *)
}

type outcome = {
  req : request;
  sent_us : float;  (** offset at which the request went out *)
  done_us : float;  (** offset of the last response byte *)
  ok : bool;  (** status 200 and, for a query, the oracle's row count *)
}

let post_query body =
  Printf.sprintf
    "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/plain\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    (String.length body) body

let get_metrics =
  "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"

(* Split a raw response into status and body. *)
let parse_response raw =
  match String.index_opt raw ' ' with
  | None -> (0, "")
  | Some i ->
      let status =
        try int_of_string (String.sub raw (i + 1) 3) with _ -> 0
      in
      let rec find j =
        if j + 3 >= String.length raw then String.length raw
        else if String.sub raw j 4 = "\r\n\r\n" then j + 4
        else find (j + 1)
      in
      let b = find 0 in
      (status, String.sub raw b (String.length raw - b))

let rows_of body =
  match Tango_obs.Json.parse body with
  | Ok (Tango_obs.Json.Obj fields) -> (
      match List.assoc_opt "rows" fields with
      | Some (Tango_obs.Json.Int n) -> n
      | _ -> -1)
  | _ -> -1

let judge req raw =
  let status, body = parse_response raw in
  status = 200 && ((not req.query) || rows_of body = req.expect_rows)

type conn = {
  r : request;
  fd : Unix.file_descr;
  sent : float;
  mutable written : int;
  buf : Buffer.t;
}

let chunk = Bytes.create 65536

(* The generator wakes this long before a request is due and polls until
   it is.  On a busy host a vCPU that went idle can take a millisecond or
   more to run again after its timer fires, and since latency runs from
   the due time, that lateness would count in every request it hits. *)
let early_wake_us = 2000.0

(* Run [schedule] (sorted by due time) against [port]; requests still open
   [drain_s] after the last due time fail.  Returns the outcomes in
   completion order. *)
let run ~port ?(drain_s = 5.0) (schedule : request array) =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let now () = Tango_obs.Clock.mono_us () in
  let t0 = now () in
  let outcomes = ref [] in
  let finish c ok =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    outcomes := { req = c.r; sent_us = c.sent; done_us = now () -. t0; ok } :: !outcomes
  in
  let open_ = ref [] in
  let next = ref 0 in
  let n = Array.length schedule in
  let last_due = if n = 0 then 0.0 else schedule.(n - 1).due_us in
  let deadline = last_due +. (drain_s *. 1e6) in
  while (!next < n || !open_ <> []) && now () -. t0 < deadline do
    (* send everything due *)
    while !next < n && schedule.(!next).due_us <= now () -. t0 do
      let r = schedule.(!next) in
      incr next;
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      let c = { r; fd; sent = now () -. t0; written = 0; buf = Buffer.create 512 } in
      match Unix.connect fd addr with
      | () | (exception Unix.Unix_error (Unix.EINPROGRESS, _, _)) ->
          open_ := c :: !open_
      | exception Unix.Unix_error _ -> finish c false
    done;
    let writing = List.filter (fun c -> c.written < String.length c.r.payload) !open_ in
    let reading = List.filter (fun c -> c.written = String.length c.r.payload) !open_ in
    let wait =
      if !next < n then
        Float.max 0.0
          ((schedule.(!next).due_us -. (now () -. t0) -. early_wake_us) /. 1e6)
      else 0.05
    in
    let rd, wr, _ =
      try
        Unix.select
          (List.map (fun c -> c.fd) reading)
          (List.map (fun c -> c.fd) writing)
          [] (Float.min wait 0.05)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
        if List.memq c.fd wr then
          match
            Unix.single_write_substring c.fd c.r.payload c.written
              (String.length c.r.payload - c.written)
          with
          | k -> c.written <- c.written + k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error _ ->
              open_ := List.filter (fun o -> o != c) !open_;
              finish c false)
      writing;
    List.iter
      (fun c ->
        if List.memq c.fd rd then
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 ->
              open_ := List.filter (fun o -> o != c) !open_;
              finish c (judge c.r (Buffer.contents c.buf))
          | k -> Buffer.add_subbytes c.buf chunk 0 k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error _ ->
              open_ := List.filter (fun o -> o != c) !open_;
              finish c false)
      reading
  done;
  List.iter (fun c -> finish c false) !open_;
  (* requests never sent (the drain deadline passed first) fail too *)
  for i = !next to n - 1 do
    outcomes :=
      { req = schedule.(i); sent_us = infinity; done_us = infinity; ok = false }
      :: !outcomes
  done;
  List.rev !outcomes

(* ---- the server process ---- *)

(* Peak resident set (VmHWM) of process [pid], in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> nan
      in
      let v = loop () in
      close_in ic;
      v

type server = { pid : int; port : int }

(* Fork a server: the child runs [setup] (which returns a handler), binds
   a free loopback port, reports it through a pipe, and serves until
   SIGTERM.  Returns once the port is known, i.e. once the server is up.
   Should the parent die without stopping it, the child's alarm ends it
   within [lifetime_s]. *)
let spawn ~lifetime_s
    (setup : unit -> Tango_monitor.Http.request -> Tango_monitor.Http.response) =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      ignore (Unix.alarm lifetime_s);
      let code =
        try
          let handler = setup () in
          let sock = Tango_monitor.Http.listen ~port:0 () in
          let stop = ref false in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
          let port = string_of_int (Tango_monitor.Http.bound_port sock) ^ "\n" in
          ignore (Unix.write_substring wr port 0 (String.length port));
          Unix.close wr;
          Tango_monitor.Http.accept_loop ~should_stop:(fun () -> !stop) sock handler;
          0
        with e ->
          prerr_endline ("server: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let port =
        match input_line ic with
        | line -> int_of_string line
        | exception End_of_file -> failwith "server exited during set-up"
      in
      close_in ic;
      { pid; port }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid)
