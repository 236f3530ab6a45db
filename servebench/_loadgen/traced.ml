(* The traced run (--trace 1): per-layer numbers, recorded from the
   benchmark's own code.

   1. Wire phase, the first half of the window: the workload's paced
      closed loop against the real deployment, with a METRICS scrape and
      a per-thread /proc read of every server process before and after.
      Their deltas give the counters as the servers count them.
   2. Replay phase, the second half: the same request stream replayed in
      this process through each layer's public functions, one request at
      a time, in the order [Session] composes them (on cluster-read, the
      order [Coordinator] composes them, against the same shard
      processes).  Every other cycle is traced: a root span per request
      and a child span per layer call.  The untraced cycles run the same
      calls, so comparing the two gives the tracing overhead.  Spans are
      written out once, at the end. *)

module W = Workload
module D = Deploy
module S = Stats
module Clock = Paradb_telemetry.Clock
module Protocol = Paradb_server.Protocol
module Plan = Paradb_server.Plan
module Plan_cache = Paradb_server.Plan_cache
module Catalog = Paradb_server.Catalog
module Compactor = Paradb_server.Compactor
module Client = Paradb_server.Client
module Source = Paradb_query.Source
module Cq = Paradb_query.Cq
module Atom = Paradb_query.Atom
module Term = Paradb_query.Term
module Constr = Paradb_query.Constr
module Fact_format = Paradb_query.Fact_format
module Planner = Paradb_planner.Planner
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Value = Paradb_relational.Value

(* --- METRICS scrapes ----------------------------------------------- *)

(* The integer following ["name":] (a counter), or the [field] of the
   histogram object following it; 0 when absent. *)
let json_int ?field json name =
  let find_from i pat =
    let n = String.length json and m = String.length pat in
    let rec go i = if i + m > n then None else if String.sub json i m = pat then Some (i + m) else go (i + 1) in
    go i
  in
  let number i =
    let j = ref i in
    while !j < String.length json && (json.[!j] = '-' || (json.[!j] >= '0' && json.[!j] <= '9')) do
      incr j
    done;
    int_of_string_opt (String.sub json i (!j - i))
  in
  match find_from 0 (Printf.sprintf "%S:" name) with
  | None -> 0
  | Some i -> (
      match field with
      | None -> Option.value ~default:0 (number i)
      | Some f -> (
          match find_from i (Printf.sprintf "%S:" f) with
          | Some j -> Option.value ~default:0 (number j)
          | None -> 0))

type scrape = { json : string; reply : int  (** the scrape's own reply bytes *) }

let scrape (p : Proc.t) =
  let c = D.connect p.Proc.port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request_line c "METRICS" with
  | Protocol.Ok_ { payload = [ json ]; _ } as r -> { json; reply = D.reply_bytes r }
  | _ -> failwith "servebench: METRICS failed"

(* --- the wire phase ------------------------------------------------- *)

type wire = {
  window : D.window;
  before : scrape list;  (** per process, front end last *)
  after : scrape list;
  threads_before : Proc.thread list list;
  threads_after : Proc.thread list list;
  store_growth : int;  (** bytes the store directory grew by *)
  segments_max : int;
  restart_ms : float;
  back : D.sample list;  (** write-churn's read-back of every acknowledged FACT *)
}

let wire_phase ~work ~seconds (wl : W.t) d ~first_fact =
  let store = Option.map (fun dir -> Filename.concat dir "g") d.D.data_dir in
  let bytes0 = Option.fold ~none:0 ~some:Proc.dir_bytes store in
  let seg_max = ref 0 in
  let sample_segments () =
    Option.iter (fun s -> seg_max := max !seg_max (Proc.count_suffix s ".seg")) store
  in
  let procs = d.D.procs in
  let before = List.map scrape procs in
  let threads_before = List.map Proc.threads procs in
  let window = D.loop ~after_cycle:sample_segments d wl (E2e.schedule wl seconds) ~first_fact in
  let threads_after = List.map Proc.threads procs in
  let after = List.map scrape procs in
  let store_growth = Option.fold ~none:0 ~some:Proc.dir_bytes store - bytes0 in
  let back, restart_ms =
    if W.writes wl then
      let back, ms = D.restart_check ~work d (W.read_back ~acked:(first_fact + window.D.facts_acked)) in
      ([ back ], ms)
    else ([], 0.0)
  in
  {
    window;
    before;
    after;
    threads_before;
    threads_after;
    store_growth;
    segments_max = !seg_max;
    restart_ms;
    back;
  }

(* --- the replay phase ----------------------------------------------- *)

(* Run [f] as span [name], adding the minor words it allocated to
   [alloc_words] when tracing. *)
let alloc_words = Hashtbl.create 8

let with_alloc name f =
  if not !Span.enabled then f ()
  else begin
    let w0 = Gc.minor_words () in
    let v = Span.with_ name f in
    let w = Gc.minor_words () -. w0 in
    Hashtbl.replace alloc_words name (w +. Option.value ~default:0.0 (Hashtbl.find_opt alloc_words name));
    v
  end

let parse_query text =
  match Span.with_ "query.parse" (fun () -> Source.parse_query text) with
  | Ok q -> q
  | Error e -> failwith e

(* One node's request path, composed from the layers' public calls in
   the order [Session] composes them. *)
let single_node cat cache (req : W.req) =
  let db = req.W.db in
  match req.W.verb with
  | W.Fact -> (
      match Span.with_ "storage.add_fact" (fun () -> Catalog.add_fact cat db req.W.body) with
      | Ok database ->
          Protocol.Ok_ { summary = Printf.sprintf "%s tuples=%d" db (Database.size database); payload = [] }
      | Error e -> Protocol.Err e)
  | W.Eval | W.Count -> (
      let q = parse_query req.W.body in
      match Catalog.find cat db with
      | None -> Protocol.Err ("no database " ^ db)
      | Some (database, generation) ->
          let eval = req.W.verb = W.Eval in
          let key =
            Span.with_ "query.key" (fun () ->
                (if eval then Plan.scoped_key else Plan.scoped_count_key) ~db ~generation Plan.Auto q)
          in
          let plan, _ =
            Span.with_ "plan_cache.lookup" (fun () ->
                Plan_cache.find_or_build cache ~key (fun () ->
                    let p = Span.with_ "planner.analyze" (fun () -> Plan.analyze Plan.Auto q) in
                    if eval then Span.with_ "compile.prepare" (fun () -> Plan.prepare p database ~generation)
                    else
                      Span.with_ "compile.prepare_count" (fun () ->
                          Plan.prepare_count p database ~generation)))
          in
          if eval then begin
            let r = with_alloc "run.eval" (fun () -> Plan.evaluate plan database q) in
            let payload = with_alloc "render" (fun () -> Plan.sorted_tuples r) in
            Protocol.Ok_ { summary = Printf.sprintf "rows=%d" (Relation.cardinality r); payload }
          end
          else begin
            let n = Span.with_ "run.count" (fun () -> Plan.count plan database q) in
            Protocol.Ok_ { summary = Printf.sprintf "count=%d" n; payload = [ string_of_int n ] }
          end)

(* --- the coordinator's path, against the real shards --- *)

let term_src = function Term.Var v -> v | Term.Const c -> Fact_format.value_to_syntax c
let atom_src a = Printf.sprintf "%s(%s)" a.Atom.rel (String.concat ", " (List.map term_src a.Atom.args))

let constr_src c =
  Printf.sprintf "%s %s %s" (term_src c.Constr.lhs)
    (match c.Constr.op with Constr.Neq -> "!=" | Constr.Lt -> "<" | Constr.Le -> "<=")
    (term_src c.Constr.rhs)

(* Reducer [i] as the coordinator writes it: atom [i] semijoined with
   the atoms sharing its first variable, under the constraints those
   atoms bind. *)
let reducer q i =
  let first a = match a.Atom.args with Term.Var v :: _ -> Some v | _ -> None in
  let atom = List.nth q.Cq.body i in
  let partners =
    match first atom with
    | None -> []
    | Some v -> List.filteri (fun j a -> j <> i && first a = Some v) q.Cq.body
  in
  let body = atom :: partners in
  let bound = List.concat_map Atom.vars body in
  let cs = List.filter (fun c -> List.for_all (fun v -> List.mem v bound) (Constr.vars c)) q.Cq.constraints in
  Printf.sprintf "gx%d(%s) :- %s." i
    (String.concat ", " (List.map term_src atom.Atom.args))
    (String.concat ", " (List.map atom_src body @ List.map constr_src cs))

let missing_relation e =
  List.exists
    (fun prefix -> String.starts_with ~prefix e)
    [ "query names a relation"; "Database.find: no relation"; "no database " ]

(* One round: every line to every shard, line-major; the payloads. *)
let round conns lines =
  Span.with_ "cluster.round" (fun () ->
      List.map
        (fun line ->
          List.concat_map
            (fun c ->
              match Client.request_line c line with
              | Protocol.Ok_ { payload; _ } -> payload
              | Protocol.Err e when missing_relation e -> []
              | Protocol.Err e -> failwith ("servebench: shard: " ^ e))
            (Array.to_list conns))
        lines)

let reparse name arity payload =
  match Span.with_ "cluster.reparse" (fun () -> Source.parse_facts (String.concat "\n" payload ^ "\n")) with
  | Error e -> failwith ("servebench: gathered facts: " ^ e)
  | Ok gdb -> (
      match Database.find_opt gdb name with
      | Some r -> r
      | None -> Relation.create ~name ~schema:(List.init arity (Printf.sprintf "a%d")) [])

let cluster_node conns (req : W.req) =
  match req.W.verb with
  | W.Fact -> invalid_arg "cluster_node: cluster-read sends no FACT"
  | W.Eval | W.Count ->
      let q = parse_query req.W.body in
      let eval = req.W.verb = W.Eval in
      let scatter =
        match
          Span.with_ "planner.analyze" (fun () ->
              Planner.shard_choice (Plan.analyze Plan.Auto q).Plan.pplan)
        with
        | Planner.Copartitioned _ -> true
        | Planner.Rekey _ -> false
      in
      let ok summary payload = Protocol.Ok_ { summary; payload } in
      if scatter && eval then begin
        let payload = List.hd (round conns [ Printf.sprintf "GATHER %s %s" req.W.db req.W.body ]) in
        let r = reparse q.Cq.name (List.length q.Cq.head) payload in
        let lines = with_alloc "render" (fun () -> Plan.sorted_tuples r) in
        ok (Printf.sprintf "rows=%d" (Relation.cardinality r)) lines
      end
      else if scatter then begin
        let counts = List.hd (round conns [ W.line req ]) in
        let n = List.fold_left (fun a l -> a + int_of_string (String.trim l)) 0 counts in
        ok (Printf.sprintf "count=%d" n) [ string_of_int n ]
      end
      else begin
        let lines = List.mapi (fun i _ -> Printf.sprintf "GATHER %s %s" req.W.db (reducer q i)) q.Cq.body in
        let scratch =
          List.mapi
            (fun i payload ->
              reparse (Printf.sprintf "gx%d" i) (List.length (List.nth q.Cq.body i).Atom.args) payload)
            (round conns lines)
          |> List.fold_left (fun acc r -> Database.add r acc) Database.empty
        in
        let rewritten =
          Cq.make ~name:q.Cq.name ~constraints:q.Cq.constraints ~head:q.Cq.head
            (List.mapi (fun i a -> Atom.make (Printf.sprintf "gx%d" i) a.Atom.args) q.Cq.body)
        in
        let plan = Span.with_ "planner.analyze" (fun () -> Plan.analyze Plan.Auto rewritten) in
        if eval then begin
          let plan = Span.with_ "compile.prepare" (fun () -> Plan.prepare plan scratch ~generation:0) in
          let r = with_alloc "run.eval" (fun () -> Plan.evaluate plan scratch rewritten) in
          ok
            (Printf.sprintf "rows=%d" (Relation.cardinality r))
            (with_alloc "render" (fun () -> Plan.sorted_tuples r))
        end
        else begin
          let plan = Span.with_ "compile.prepare_count" (fun () -> Plan.prepare_count plan scratch ~generation:0) in
          let n = Span.with_ "run.count" (fun () -> Plan.count plan scratch rewritten) in
          ok (Printf.sprintf "count=%d" n) [ string_of_int n ]
        end
      end

type replayed = { r_req : W.req; traced : bool; wall_ns : int; r_ok : bool }

(* Replay [cycles] cycles through [serve], tracing the odd ones when
   [trace]; FACTs are numbered from [first_fact].  Each
   reply goes through the protocol codec via [wire_file], standing in
   for the socket; the reading channel is opened afresh for each reply
   because an in_channel would serve a seek back from its buffer. *)
let replay ?(trace = true) ~wire_file ~cycles ~first_fact serve (wl : W.t) =
  let oc = open_out_bin wire_file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let rid = ref 0 and acc = ref [] in
  let one traced (req : W.req) =
    incr rid;
    Span.enabled := traced;
    let t0 = Clock.now_ns () in
    let ok =
      Span.request !rid (fun () ->
          let resp = try serve req with Failure e -> Protocol.Err e in
          Span.with_ "wire.write" (fun () ->
              seek_out oc 0;
              Protocol.write_response oc resp);
          Span.with_ "loadgen.read" (fun () ->
              let ic = open_in_bin wire_file in
              Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
              match Protocol.read_response ic with Some r -> W.check req r | None -> false))
    in
    let wall_ns = Clock.now_ns () - t0 in
    Span.enabled := false;
    acc := { r_req = req; traced; wall_ns; r_ok = ok } :: !acc
  in
  for i = 0 to cycles - 1 do
    let traced = trace && i mod 2 = 1 in
    if W.writes wl then one traced (W.fact wl (first_fact + i));
    Array.iter (one traced) wl.W.cycle
  done;
  List.rev !acc

(* The replay's own single-node stack: a catalog holding the graph as
   [g] (with a store on write-churn, compacted by the background
   compactor at the server's defaults) and a 128-entry plan cache. *)
let replay_single ~work ~cycles ~facts (wl : W.t) =
  let data_dir = if W.writes wl then Some (D.fresh_path ~work "replay-data") else None in
  let cat = Catalog.create ?data_dir () in
  (match Result.bind (Paradb_storage.Store.load_database facts) (Catalog.load cat "g") with
  | Ok _ -> ()
  | Error e -> failwith e);
  let compactor =
    if W.writes wl then Some (Compactor.start ~catalog:cat ~min_segments:32 ~interval:10.0) else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Compactor.stop compactor) @@ fun () ->
  let serve = single_node cat (Plan_cache.create ~capacity:128 ()) in
  let wire_file = D.fresh_path ~work "wire" in
  let warm = replay ~trace:false ~wire_file ~cycles:E2e.warm_cycles ~first_fact:0 serve wl in
  (warm, replay ~wire_file ~cycles ~first_fact:E2e.warm_cycles serve wl)

(* The coordinator's path against the deployment's shards. *)
let replay_cluster ~work ~cycles (wl : W.t) d =
  let conns = Array.of_list (List.map (fun p -> D.connect p.Proc.port) d.D.shards) in
  Fun.protect ~finally:(fun () -> Array.iter Client.close conns) @@ fun () ->
  let wire_file = D.fresh_path ~work "wire" in
  let warm = replay ~trace:false ~wire_file ~cycles:E2e.warm_cycles ~first_fact:0 (cluster_node conns) wl in
  (warm, replay ~wire_file ~cycles ~first_fact:0 (cluster_node conns) wl)

(* --- putting it together ------------------------------------------- *)

type outcome = {
  wire : wire;
  replay_warm : replayed list;  (** checked, not measured *)
  replayed : replayed list;
  spans : Span.t array;
  firsts : D.sample list;
  warm : D.window;
  argv : string list list;  (** the deployment's processes *)
}

let run ~work ~seconds (wl : W.t) =
  let facts = D.write_facts ~work wl.W.db in
  let d, _, first = D.deploy ~work wl ~facts in
  let wire, replayed =
    Fun.protect ~finally:(fun () -> D.teardown d) @@ fun () ->
    let warm = D.loop d wl (D.Paced { cycles = E2e.warm_cycles; period = 0.0 }) ~first_fact:0 in
    let wire = wire_phase ~work ~seconds:(seconds /. 2.0) wl d ~first_fact:warm.D.facts_acked in
    (* as many cycles as the wire phase ran *)
    let first_cls = wl.W.cycle.(0).W.cls in
    let cycles =
      List.length (List.filter (fun (s : D.sample) -> s.D.req.W.cls = first_cls) wire.window.D.samples)
    in
    let replay_warm, replayed =
      match wl.W.name with
      | W.Cluster_read -> replay_cluster ~work ~cycles wl d
      | W.Serve_wide | W.Write_churn -> replay_single ~work ~cycles ~facts wl
    in
    ((wire, warm), (replay_warm, replayed))
  in
  let wire, warm = wire and replay_warm, replayed = replayed in
  { wire; replay_warm; replayed; spans = Span.all (); firsts = [ first ]; warm; argv = d.D.argv }

let attempted o =
  List.length o.wire.window.D.samples + List.length o.replay_warm + List.length o.replayed
  + List.length o.firsts
  + List.length o.warm.D.samples + List.length o.wire.back

let failed o =
  let bad = List.filter (fun (s : D.sample) -> not s.D.ok) in
  List.length (bad (o.wire.window.D.samples @ o.firsts @ o.warm.D.samples @ o.wire.back))
  + List.length (List.filter (fun r -> not r.r_ok) (o.replay_warm @ o.replayed))

(* In BENCHMARK.json order; a layer the workload does not use reads 0. *)
let metrics (wl : W.t) o =
  let w = o.wire in
  let fl = float_of_int in
  let self = Span.self_times o.spans in
  let total name = match Hashtbl.find_opt self name with Some (_, t) -> t | None -> 0 in
  let mean_self name =
    match Hashtbl.find_opt self name with Some (n, t) when n > 0 -> fl t /. fl n | _ -> 0.0
  in
  let count name = match Hashtbl.find_opt self name with Some (n, _) -> n | None -> 0 in
  let alloc_mw name =
    match Hashtbl.find_opt alloc_words name with
    | Some words when count name > 0 -> words /. fl (count name) /. 1e6
    | _ -> 0.0
  in
  let loop = w.window.D.samples in
  let requests = List.length loop in
  let of_verb v = List.filter (fun (s : D.sample) -> s.D.req.W.verb = v) loop in
  let delta ?field name =
    List.fold_left2 (fun acc b a -> acc + json_int ?field a.json name - json_int ?field b.json name) 0 w.before w.after
  in
  let last l = List.nth l (List.length l - 1) in
  let front ?field name =
    json_int ?field (last w.after).json name - json_int ?field (last w.before).json name
  in
  let facts = w.window.D.facts_acked in
  (* client-observed latency of the right replies, one verb *)
  let wall v = List.filter_map (fun (s : D.sample) -> if s.D.ok then Some (D.ms s.D.wall_ns) else None) (of_verb v) in
  (* per-thread CPU over the wire phase *)
  let thread_deltas before after =
    List.filter_map
      (fun (a : Proc.thread) ->
        Option.map
          (fun (b : Proc.thread) -> (a.Proc.run_ns - b.Proc.run_ns, a.Proc.switches - b.Proc.switches))
          (List.find_opt (fun (b : Proc.thread) -> b.Proc.tid = a.Proc.tid) before))
      after
  in
  let per_proc = List.map2 thread_deltas w.threads_before w.threads_after in
  let cpu_of ds = List.fold_left (fun a (c, _) -> a + c) 0 ds in
  let all_cpu = List.fold_left (fun a ds -> a + cpu_of ds) 0 per_proc in
  let busiest ds = List.fold_left (fun a (c, _) -> max a c) 0 ds in
  let other_cpu = List.fold_left (fun a ds -> a + cpu_of ds - busiest ds) 0 per_proc in
  let switches = List.fold_left (fun a ds -> List.fold_left (fun a (_, s) -> a + s) a ds) 0 per_proc in
  (* replay *)
  let roots = List.filter (fun s -> s.Span.parent = 0) (Array.to_list o.spans) in
  let root_ns = List.fold_left (fun a s -> a + Span.dur s) 0 roots in
  let covered = Span.covered o.spans in
  let covered_ns = List.fold_left (fun a s -> a + covered s) 0 roots in
  let overhead =
    let classes = List.sort_uniq compare (List.map (fun r -> r.r_req.W.cls) o.replayed) in
    let num, den =
      List.fold_left
        (fun (num, den) cls ->
          let walls t =
            List.filter_map
              (fun r -> if r.r_req.W.cls = cls && r.traced = t then Some (fl r.wall_ns) else None)
              o.replayed
          in
          match (walls true, walls false) with
          | [], _ | _, [] -> (num, den)
          | t, u ->
              let n = fl (List.length t + List.length u) in
              (num +. (n *. (S.median t -. S.median u)), den +. (n *. S.median u)))
        (0.0, 0.0) classes
    in
    if den = 0.0 then 0.0 else num /. den
  in
  let rounds = List.filter (fun s -> s.Span.name = "cluster.round") (Array.to_list o.spans) in
  let coordinator_cpu =
    match wl.W.name with W.Cluster_read -> cpu_of (last per_proc) | _ -> 0
  in
  let render_ns = total "render" and run_eval_ns = total "run.eval" in
  [
    S.m "query.parse_us" "us" (mean_self "query.parse" /. 1e3);
    S.m "query.key_us" "us" (mean_self "query.key" /. 1e3);
    S.m "plan_cache.lookup_us" "us" (mean_self "plan_cache.lookup" /. 1e3);
    S.m "plan_cache.hit_ratio" "ratio"
      (let h = delta "server.plan_cache.hits" and m = delta "server.plan_cache.misses" in
       S.ratio h (h + m));
    S.m "plan_cache.evictions" "count" (fl (delta "server.plan_cache.evictions"));
    S.m "planner.analyze_ms" "ms" (mean_self "planner.analyze" /. 1e6);
    S.m "compile.prepare_ms" "ms" (mean_self "compile.prepare" /. 1e6);
    S.m "compile.prepare_count_ms" "ms" (mean_self "compile.prepare_count" /. 1e6);
    S.m "compile.pipelines_per_req" "count"
      (S.ratio (delta "compile.pipelines" + delta "compile.count_pipelines") requests);
    S.m "run.eval_ms" "ms" (mean_self "run.eval" /. 1e6);
    S.m "run.count_ms" "ms" (mean_self "run.count" /. 1e6);
    S.m "run.rows_out" "rows"
      (S.mean
         (List.filter_map
            (fun (s : D.sample) ->
              match s.D.req.W.expect with W.Rows a -> Some (fl (Array.length a)) | _ -> None)
            (of_verb W.Eval)));
    S.m "run.eval_alloc_mw" "Mword" (alloc_mw "run.eval");
    S.m "render.ms" "ms" (mean_self "render" /. 1e6);
    S.m "render.alloc_mw" "Mword" (alloc_mw "render");
    S.m "render.share" "ratio"
      (if render_ns + run_eval_ns = 0 then 0.0 else S.ratio render_ns (render_ns + run_eval_ns));
    (* the before-scrape's own reply is counted in the delta *)
    S.m "wire.reply_bytes" "B" (S.ratio (front "server.bytes_out" - (last w.before).reply) requests);
    S.m "wire.payload_bytes" "B" (S.mean (List.map (fun (s : D.sample) -> fl s.D.payload_bytes) loop));
    S.m "wire.write_ms" "ms" (mean_self "wire.write" /. 1e6);
    S.m "loadgen.read_ms" "ms" (mean_self "loadgen.read" /. 1e6);
    S.m "server.other_threads_cpu_share" "ratio" (S.ratio other_cpu all_cpu);
    S.m "server.ctx_switches_per_req" "count" (S.ratio switches requests);
    S.m "client.eval_p50_ms" "ms" (S.quantile (wall W.Eval) 0.5);
    S.m "client.eval_p90_ms" "ms" (S.quantile (wall W.Eval) 0.9);
    S.m "client.count_p50_ms" "ms" (S.quantile (wall W.Count) 0.5);
    S.m "client.count_p90_ms" "ms" (S.quantile (wall W.Count) 0.9);
    S.m "storage.fact_p50_ms" "ms" (S.quantile (wall W.Fact) 0.5);
    S.m "storage.fact_p90_ms" "ms" (S.quantile (wall W.Fact) 0.9);
    S.m "storage.fact_cpu_ms" "ms" (S.mean (List.map (fun (s : D.sample) -> fl s.D.cpu_ns /. 1e6) (of_verb W.Fact)));
    S.m "storage.add_fact_ms" "ms" (mean_self "storage.add_fact" /. 1e6);
    S.m "storage.fsync_per_fact" "count" (S.ratio (front "storage.fsync.calls") facts);
    S.m "storage.bytes_per_fact" "B" (S.ratio w.store_growth facts);
    S.m "storage.segments_max" "count" (fl w.segments_max);
    S.m "storage.compaction_runs" "count" (fl (front "storage.compaction.runs"));
    S.m "storage.compaction_ms" "ms"
      (S.ratio (front ~field:"sum" "storage.compaction.ns") (front ~field:"count" "storage.compaction.ns") /. 1e6);
    S.m "storage.restart_ms" "ms" w.restart_ms;
    S.m "cluster.rounds_per_req" "count" (S.ratio (front "cluster.rounds") requests);
    S.m "cluster.round_p50_ms" "ms"
      (if rounds = [] then 0.0 else S.median (List.map (fun s -> fl (Span.dur s) /. 1e6) rounds));
    S.m "cluster.gather_bytes_per_req" "B" (S.ratio (front "cluster.bytes_in") requests);
    S.m "cluster.coordinator_cpu_share" "ratio" (S.ratio coordinator_cpu all_cpu);
    S.m "cluster.reparse_ms" "ms" (mean_self "cluster.reparse" /. 1e6);
    S.m "trace.overhead_share" "ratio" overhead;
    S.m "replay.unattributed_share" "ratio" (S.ratio (root_ns - covered_ns) root_ns);
  ]
  |> List.map (fun m -> if Float.is_nan m.S.value then { m with S.value = 0.0 } else m)
