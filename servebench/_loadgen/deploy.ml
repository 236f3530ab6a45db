(* Deployments and the closed loop.

   A deployment is the set of real server processes one workload talks
   to, spawned with every flag at its default except the port,
   [--data-dir] and [--shards].  The closed loop runs on one connection
   from this single-threaded process: it sends its next request only
   after the previous reply has been read and checked. *)

module W = Workload
module Client = Paradb_server.Client
module Protocol = Paradb_server.Protocol
module Clock = Paradb_telemetry.Clock
module Fact_format = Paradb_query.Fact_format

(* The flags the deployments leave at their defaults, for the run log. *)
let default_flags =
  "--workers 4 --cache-size 128 --durability full --compact-after 32 --compact-interval 10"

type t = {
  procs : Proc.t list;  (** every server process, front end last *)
  front : Proc.t;  (** what clients connect to *)
  shards : Proc.t list;  (** cluster shard servers *)
  data_dir : string option;
  argv : string list list;  (** each process's arguments, for the run log *)
}

let counter = ref 0

let fresh_path ~work prefix =
  incr counter;
  Filename.concat work (Printf.sprintf "%s-%d" prefix !counter)

let connect port = Client.connect ~timeout:60.0 ~retries:3 ~port ()

let spawn_serve ~work ?data_dir () =
  let args =
    [ "serve"; "--port"; "0" ] @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []
  in
  (Proc.spawn ~log:(fresh_path ~work "serve.log") args, args)

let teardown d = List.iter Proc.kill (List.rev d.procs)

let peak_rss_mb d =
  float_of_int (List.fold_left (fun a p -> a + Proc.vm_hwm_kb p) 0 d.procs) /. 1024.0

(* On-CPU nanoseconds of every thread of every process of [d]. *)
let cpu_ns d = List.fold_left (fun a p -> a + Proc.cpu_ns p) 0 d.procs

(* The deployment's CPU counter once it has stopped moving (two reads
   0.5 ms apart within 20 us of each other), or after 20 ms.  Reading
   it after each reply charges a request's trailing work -- the last
   socket write, a GC slice -- to that request rather than the next. *)
let settled_cpu_ns d =
  let deadline = Clock.now_ns () + 20_000_000 in
  let rec go prev =
    Unix.sleepf 0.0005;
    let now = cpu_ns d in
    if now - prev < 20_000 || Clock.now_ns () > deadline then now else go now
  in
  go (cpu_ns d)

(* --- samples -------------------------------------------------------- *)

type sample = {
  req : W.req;
  sent_ns : int;  (** when it was sent, on the monotonic clock *)
  wall_ns : int;  (** client-observed: send to last payload line read and checked *)
  cpu_ns : int;  (** CPU the deployment was charged for it, all threads *)
  stolen : Proc.jiffies;  (** the machine's jiffies over the same interval *)
  ok : bool;
  bytes : int;  (** reply size on the wire *)
  payload_bytes : int;  (** the payload lines of it, newlines included *)
}

let payload_bytes = function
  | Protocol.Err _ -> 0
  | Protocol.Ok_ { payload; _ } -> List.fold_left (fun n l -> n + String.length l + 1) 0 payload

let reply_bytes r =
  List.fold_left (fun n l -> n + String.length l + 1) 0 (Protocol.response_to_lines r)

(* Send [req] and check the reply; a transport failure is a wrong
   reply of 0 bytes.  [cpu_ns] is left 0. *)
let request c (req : W.req) =
  let t0 = Clock.now_ns () in
  let resp =
    try Some (Client.request_line c (W.line req))
    with Failure _ | Unix.Unix_error _ | Sys_error _ | End_of_file -> None
  in
  let ok = match resp with Some r -> W.check req r | None -> false in
  let wall_ns = Clock.now_ns () - t0 in
  let bytes, payload_bytes = match resp with Some r -> (reply_bytes r, payload_bytes r) | None -> (0, 0) in
  { req; sent_ns = t0; wall_ns; cpu_ns = 0; stolen = { Proc.total = 0; steal = 0 }; ok; bytes; payload_bytes }

(* [request] with the CPU [d] was charged for it and the machine's
   jiffies meanwhile; [cpu0] is its settled counter before sending.
   Returns the sample and the counter after. *)
let issue d c ~cpu0 req =
  let j0 = Proc.cpu_jiffies () in
  let s = request c req in
  let cpu1 = settled_cpu_ns d in
  let j1 = Proc.cpu_jiffies () in
  ({ s with cpu_ns = cpu1 - cpu0; stolen = { Proc.total = j1.total - j0.total; steal = j1.steal - j0.steal } }, cpu1)

(* --- the closed loop --------------------------------------------------- *)

type window = {
  samples : sample list;
  t0_ns : int;  (** when the loop started *)
  seconds : float;  (** how long the loop ran *)
  steal : float;  (** share of the machine's CPU time the host took *)
  facts_acked : int;
}

type schedule =
  | Paced of { cycles : int; period : float }
      (** start cycle [i] no earlier than [i * period] seconds after the
          first; a cycle that is due late starts at once *)
  | For of float  (** back to back until this many seconds have passed *)

(* Seconds between write-churn's cycle starts.  A cycle takes well under
   this on a 2-vCPU machine, so a slow stretch of the host delays cycles
   without dropping any, and a fixed count of cycles leaves the store in
   the same state (facts, segments, compactions) however fast the run
   went. *)
let churn_period = 0.16

(* [loop d wl schedule ~first_fact] runs cycles of the workload's
   requests on one connection: FACT [first_fact + i] first on a writing
   workload, then the reads.  [after_cycle] runs after each cycle. *)
let loop ?(after_cycle = ignore) d (wl : W.t) schedule ~first_fact =
  let c = connect d.front.Proc.port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let jiffies0 = Proc.cpu_jiffies () in
  let t0 = Clock.now_ns () in
  let cpu = ref (settled_cpu_ns d) in
  let acc = ref [] and acked = ref 0 in
  let send req =
    let s, cpu1 = issue d c ~cpu0:!cpu req in
    cpu := cpu1;
    acc := s :: !acc;
    (* a dead connection ends the loop; the failure is counted *)
    if s.bytes = 0 then raise Exit;
    s
  in
  let rec cycle i =
    let go =
      match schedule with
      | Paced { cycles; period } ->
          i < cycles
          &&
          let wait = t0 + int_of_float (float_of_int i *. period *. 1e9) - Clock.now_ns () in
          if wait > 0 then begin
            Unix.sleepf (float_of_int wait /. 1e9);
            cpu := settled_cpu_ns d
          end;
          true
      | For seconds -> Clock.now_ns () - t0 < int_of_float (seconds *. 1e9)
    in
    if go then begin
      if W.writes wl && (send (W.fact wl (first_fact + i))).ok then incr acked;
      Array.iter (fun r -> ignore (send r)) wl.W.cycle;
      after_cycle ();
      cycle (i + 1)
    end
  in
  (try cycle 0 with Exit -> ());
  {
    samples = List.rev !acc;
    t0_ns = t0;
    seconds = float_of_int (Clock.now_ns () - t0) /. 1e9;
    steal = Proc.steal_share jiffies0 (Proc.cpu_jiffies ());
    facts_acked = !acked;
  }

(* --- deployments -------------------------------------------------------- *)

let write_facts ~work db =
  let path = fresh_path ~work "graph.facts" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Fact_format.to_string db));
  path

(* Spawn [wl]'s deployment, LOAD [facts] as database [g] and send the
   workload's first read.  Set-up ends when that read's checked reply
   is in.  Returns the deployment, the set-up time in seconds and the
   first read's sample. *)
let deploy ~work (wl : W.t) ~facts =
  let t0 = Clock.now_ns () in
  let data_dir = if wl.W.name = W.Write_churn then Some (fresh_path ~work "data") else None in
  let shards, front =
    match wl.W.name with
    | W.Serve_wide | W.Write_churn -> ([], spawn_serve ~work ?data_dir ())
    | W.Cluster_read ->
        let shards = List.init 2 (fun _ -> spawn_serve ~work ()) in
        let addrs = String.concat "," (List.map (fun (p, _) -> string_of_int p.Proc.port) shards) in
        let args = [ "coordinator"; "--port"; "0"; "--shards"; addrs ] in
        (shards, (Proc.spawn ~log:(fresh_path ~work "coordinator.log") args, args))
  in
  let d =
    {
      procs = List.map fst (shards @ [ front ]);
      front = fst front;
      shards = List.map fst shards;
      data_dir;
      argv = List.map snd (shards @ [ front ]);
    }
  in
  match
    let c = connect d.front.Proc.port in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.request_line c (Printf.sprintf "LOAD g %s" facts) with
    | Protocol.Ok_ _ -> ()
    | Protocol.Err e -> failwith ("servebench: LOAD failed: " ^ e));
    let first = request c wl.W.first in
    (float_of_int (Clock.now_ns () - t0) /. 1e9, first)
  with
  | setup_s, first -> (d, setup_s, first)
  | exception e ->
      teardown d;
      raise e

(* Kill the server without warning, restart it over its store, and send
   [check] to the restarted server.  Returns the sample and the restart
   time in milliseconds (spawn until it listens). *)
let restart_check ~work d check =
  match d.data_dir with
  | None -> invalid_arg "restart_check: no data dir"
  | Some dir ->
      teardown d;
      let t0 = Clock.now_ns () in
      let p, _ = spawn_serve ~work ~data_dir:dir () in
      let restart_ms = float_of_int (Clock.now_ns () - t0) /. 1e6 in
      Fun.protect ~finally:(fun () -> Proc.kill p) @@ fun () ->
      let c = connect p.Proc.port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (request c check, restart_ms)

(* --- the run log ------------------------------------------------------ *)

let ms ns = float_of_int ns /. 1e6

(* The machine, the deployment and the window. *)
let log_header ~paradb ~seed (wl : W.t) ~argv (w : window) =
  [
    Printf.sprintf "workload %s seed %d nproc %d" (W.to_string wl.W.name) seed (Proc.nproc ());
    "paradb " ^ paradb;
  ]
  @ List.map (fun a -> "deployment: paradb " ^ String.concat " " a) argv
  @ [
      "flags at their defaults: " ^ default_flags;
      Printf.sprintf "window %.2fs, host steal %.3f of the machine's CPU time" w.seconds w.steal;
    ]

(* Per request class: samples, wall p50 and p90, mean CPU, reply bytes. *)
let class_lines samples =
  List.sort_uniq compare (List.map (fun s -> s.req.W.cls) samples)
  |> List.map (fun cls ->
         let mine = List.filter (fun s -> s.req.W.cls = cls) samples in
         let wall = List.map (fun s -> ms s.wall_ns) mine in
         Printf.sprintf "%-14s n=%-5d p50=%.3fms p90=%.3fms cpu=%.3fms bytes=%.0f" cls (List.length mine)
           (Stats.quantile wall 0.5) (Stats.quantile wall 0.9)
           (Stats.mean (List.map (fun s -> ms s.cpu_ns) mine))
           (Stats.mean (List.map (fun s -> float_of_int s.bytes) mine)))
