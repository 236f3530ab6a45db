(* The end-to-end run (--trace 0): set up [setup_reps] times, warm up,
   run the closed loop on the last deployment and, on write-churn, read
   back every acknowledged FACT after a kill -9 and a restart over the
   store. *)

module W = Workload
module D = Deploy
module S = Stats

let setup_reps = 9
let warm_cycles = 4

(* Write-churn's cycles are paced and counted, the read-only workloads
   run back to back for the window. *)
let schedule (wl : W.t) seconds =
  if W.writes wl then
    D.Paced { cycles = max 1 (int_of_float (seconds /. D.churn_period)); period = D.churn_period }
  else D.For seconds

let ms = D.ms
let of_verb verb samples = List.filter (fun (s : D.sample) -> s.D.req.W.verb = verb && s.D.ok) samples

(* Deploy [setup_reps] times; every deployment but the last is torn
   down.  Returns the last one, every set-up time and the first reads. *)
let set_up ~work (wl : W.t) =
  let facts = D.write_facts ~work wl.W.db in
  let rec go i times firsts =
    let d, t, first = D.deploy ~work wl ~facts in
    if i < setup_reps then begin
      D.teardown d;
      go (i + 1) (t :: times) (first :: firsts)
    end
    else (d, t :: times, first :: firsts)
  in
  go 1 [] []

type outcome = {
  wl : W.t;
  setup_times : float list;
  window : D.window;
  checks : D.sample list;  (** set-up reads, warm-up and the read-back *)
  rss_mb : float;
  argv : string list list;  (** the deployment's processes *)
}

let run ~work ~seconds (wl : W.t) =
  let d, setup_times, firsts = set_up ~work wl in
  Fun.protect ~finally:(fun () -> D.teardown d) @@ fun () ->
  let warm = D.loop d wl (D.Paced { cycles = warm_cycles; period = 0.0 }) ~first_fact:0 in
  let window = D.loop d wl (schedule wl seconds) ~first_fact:warm.D.facts_acked in
  let rss_mb = D.peak_rss_mb d in
  let back =
    if W.writes wl then
      let acked = warm.D.facts_acked + window.D.facts_acked in
      [ fst (D.restart_check ~work d (W.read_back ~acked)) ]
    else []
  in
  let checks = firsts @ warm.D.samples @ back in
  { wl; setup_times; window; checks; rss_mb; argv = d.D.argv }

let attempted o = List.length o.window.D.samples + List.length o.checks

let failed o =
  List.length (List.filter (fun (s : D.sample) -> not s.D.ok) (o.window.D.samples @ o.checks))

(* The window is cut into [slices] equal stretches of time.  Each CPU
   figure is the median over the stretches of that stretch's mean, with
   the share of the machine's CPU time the host stole while the
   stretch's requests ran taken off.  The guest kernel charges stolen
   time to the thread it was taken from, and the host has stolen 20-30%
   of the CPU for 10-20 s at a time: measured per stretch, CPU per
   request rose with steal as 1 / (1 - steal share), by up to 31%.  The
   median keeps a burst the correction misses from moving the figure
   unless it covers three of the five stretches. *)
let slices = 5

(* [slice o ns] is the stretch a request sent at [ns] falls in. *)
let slice o =
  let t0 = o.window.D.t0_ns in
  let len = max 1 (int_of_float (o.window.D.seconds *. 1e9)) in
  fun ns -> max 0 (min (slices - 1) ((ns - t0) * slices / len))

let by_slice o verb stat =
  let slice = slice o in
  let mine = of_verb verb o.window.D.samples in
  List.init slices (fun k -> stat (List.filter (fun (s : D.sample) -> slice s.D.sent_ns = k) mine))

let p50 xs = S.quantile (List.map (fun (s : D.sample) -> ms s.D.wall_ns) xs) 0.5
let p90 xs = S.quantile (List.map (fun (s : D.sample) -> ms s.D.wall_ns) xs) 0.9
let cpu xs = S.mean (List.map (fun (s : D.sample) -> ms s.D.cpu_ns) xs)

(* The share of the machine's CPU time the host stole while [xs] ran. *)
let steal xs =
  let sum f = List.fold_left (fun a (s : D.sample) -> a + f s.D.stolen) 0 xs in
  Proc.steal_share { Proc.total = 0; steal = 0 } { Proc.total = sum (fun j -> j.Proc.total); steal = sum (fun j -> j.Proc.steal) }

let cpu_ms o verb =
  by_slice o verb (fun xs -> cpu xs *. (1.0 -. steal xs))
  |> List.filter (fun v -> not (Float.is_nan v))
  |> S.median

(* In BENCHMARK.json order. *)
let metrics o =
  let attempted = attempted o in
  [
    S.m "eval_cpu_ms" "ms" (cpu_ms o W.Eval);
    S.m "count_cpu_ms" "ms" (cpu_ms o W.Count);
    S.m "ok_ratio" "ratio" (S.ratio (attempted - failed o) attempted);
    S.m "peak_rss_mb" "MB" o.rss_mb;
    S.m "setup_s" "s" (S.median o.setup_times);
  ]

(* One line per timed request: seconds into the window, class, wall
   and CPU milliseconds, whether the reply was right. *)
let samples_tsv o =
  let t0 = o.window.D.t0_ns in
  List.map
    (fun (s : D.sample) ->
      Printf.sprintf "%.4f\t%s\t%.4f\t%.4f\t%b" (float_of_int (s.D.sent_ns - t0) /. 1e9) s.D.req.W.cls
        (ms s.D.wall_ns) (ms s.D.cpu_ns) s.D.ok)
    o.window.D.samples

(* The per-run log: machine, deployment, window, set-up times, each
   request class, each slice. *)
let log_lines ~paradb ~seed o =
  D.log_header ~paradb ~seed o.wl ~argv:o.argv o.window
  @ [ Printf.sprintf "set-up times: %s" (String.concat " " (List.map (Printf.sprintf "%.3fs") o.setup_times)) ]
  @ D.class_lines o.window.D.samples
  @ List.init slices (fun k ->
        let line verb =
          let xs = List.nth (by_slice o verb Fun.id) k in
          Printf.sprintf "%s n=%d p50=%.3f p90=%.3f cpu=%.3f steal=%.3f" (W.verb_name verb) (List.length xs) (p50 xs)
            (p90 xs) (cpu xs) (steal xs)
        in
        Printf.sprintf "slice %d: %s, %s" k (line W.Eval) (line W.Count))
