(* Checks of the reply checker and of failure counting: a wrong reply
   of any verb is rejected, and a rejected reply counts in [failed] and
   against [ok_ratio].  Exits 1 on the first failed check.  Run by
   servebench/test.py. *)

open Servebench
module W = Workload
module D = Deploy
module Protocol = Paradb_server.Protocol

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then exit 1

let ok_ summary payload = Protocol.Ok_ { summary; payload }

let () =
  let eval = { W.verb = W.Eval; cls = "eval.t"; db = "g"; body = "q"; expect = W.Rows [| "(1, 2)"; "(2, 3)" |] } in
  let count = { eval with W.verb = W.Count; cls = "count.t"; expect = W.Num 7 } in
  let fact = { eval with W.verb = W.Fact; cls = "fact.t"; expect = W.Tuples 41 } in
  let right = ok_ "engine=compiled cache=hit rows=2 ns=9" [ "(1, 2)"; "(2, 3)" ] in
  check "right EVAL reply accepted" (W.check eval right);
  check "EVAL with a wrong row rejected"
    (not (W.check eval (ok_ "engine=compiled cache=hit rows=2 ns=9" [ "(1, 2)"; "(2, 4)" ])));
  check "EVAL with a missing row rejected"
    (not (W.check eval (ok_ "engine=compiled cache=hit rows=1 ns=9" [ "(1, 2)" ])));
  check "EVAL with rows out of order rejected"
    (not (W.check eval (ok_ "engine=compiled cache=hit rows=2 ns=9" [ "(2, 3)"; "(1, 2)" ])));
  check "truncated EVAL rejected"
    (not (W.check eval (ok_ "engine=compiled cache=hit rows=3 ns=9 truncated=true" [ "(1, 2)"; "(2, 3)" ])));
  check "ERR rejected" (not (W.check eval (Protocol.Err "boom")));
  check "right COUNT accepted" (W.check count (ok_ "count=7" [ "7" ]));
  check "wrong COUNT rejected" (not (W.check count (ok_ "count=8" [ "8" ])));
  check "right FACT accepted" (W.check fact (ok_ "g tuples=41" []));
  check "FACT with a wrong tuple count rejected" (not (W.check fact (ok_ "g tuples=40" [])));
  let read_back = W.read_back ~acked:2 in
  check "read-back expects every acked fact"
    (W.check read_back (ok_ "rows=2" [ "(0, 1)"; "(1, 2)" ])
    && not (W.check read_back (ok_ "rows=1" [ "(0, 1)" ])));
  let sample req resp = { D.req; sent_ns = 0; wall_ns = 1_000_000; cpu_ns = 2_000_000; stolen = { Proc.total = 100; steal = 0 }; ok = W.check req resp; bytes = 10; payload_bytes = 8 } in
  let o =
    {
      E2e.wl = W.make W.Serve_wide ~seed:1 W.tiny;
      setup_times = [ 0.1; 0.3; 0.2 ];
      window =
        {
          D.samples =
            [
              sample eval right;
              sample eval (ok_ "engine=compiled cache=hit rows=2 ns=9" [ "(1, 2)"; "(9, 9)" ]);
              sample count (ok_ "count=7" [ "7" ]);
              sample fact (ok_ "g tuples=41" []);
            ];
          t0_ns = 0;
          seconds = 1.0;
          steal = 0.0;
          facts_acked = 1;
        };
      checks = [ sample count (Protocol.Err "gone") ];
      rss_mb = 1.0;
      argv = [];
    }
  in
  let value name = (List.find (fun m -> m.Stats.name = name) (E2e.metrics o)).Stats.value in
  check "wrong replies counted as failed" (E2e.attempted o = 5 && E2e.failed o = 2);
  check "wrong replies counted in ok_ratio" (value "ok_ratio" = 0.6);
  check "wrong replies left out of CPU" (value "eval_cpu_ms" = 2.0);
  check "set-up time is the median" (value "setup_s" = 0.2);
  let stolen s = { s with D.stolen = { Proc.total = 100; steal = 25 } } in
  let o = { o with E2e.window = { o.E2e.window with D.samples = List.map stolen o.E2e.window.D.samples } } in
  check "stolen CPU time taken off" (List.assoc "eval_cpu_ms" (List.map (fun m -> (m.Stats.name, m.Stats.value)) (E2e.metrics o)) = 1.5)
