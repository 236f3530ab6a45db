(* The serving benchmark's load generator; see servebench/README.md.

     loadgen.exe --workload NAME --seed N --seconds S --trace 0|1
                 --paradb PATH --work DIR [--log FILE] [--size full|tiny]

   Prints one JSON object as the last line of standard output: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  The run log goes to standard error and to --log.  Exits
   non-zero, printing no result, if the run cannot finish. *)

open Servebench
module W = Workload

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work = ref "" and size = ref "full" and log = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME serve-wide | write-churn | cluster-read");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--paradb", Arg.Set_string Proc.paradb, "PATH the paradb binary");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--log", Arg.Set_string log, "FILE also write the run log here");
      ("--size", Arg.Set_string size, "full|tiny graph size");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "loadgen.exe";
  let fail msg =
    prerr_endline ("servebench: " ^ msg);
    exit 2
  in
  let name =
    match List.assoc_opt !workload W.names with
    | Some n -> n
    | None -> fail ("unknown workload " ^ !workload)
  in
  let size = match !size with "full" -> W.full | "tiny" -> W.tiny | s -> fail ("unknown size " ^ s) in
  if !work = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then
    fail "need --work, a positive --seconds and --trace 0 or 1";
  let wl = W.make name ~seed:!seed size in
  let emit lines =
    List.iter (fun l -> prerr_endline ("servebench: " ^ l)) lines;
    if !log <> "" then
      Out_channel.with_open_text !log (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  in
  match
    if !trace = 0 then begin
      let o = E2e.run ~work:!work ~seconds:!seconds wl in
      emit (E2e.log_lines ~paradb:!Proc.paradb ~seed:!seed o);
      if !log <> "" then
        Out_channel.with_open_text (Filename.remove_extension !log ^ ".samples.tsv") (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) (E2e.samples_tsv o));
      let metrics = E2e.metrics o in
      (match List.find_opt (fun m -> not (Float.is_finite m.Stats.value)) metrics with
      | Some m -> failwith ("no samples for " ^ m.Stats.name)
      | None -> ());
      let failed = E2e.failed o in
      Stats.result_line ~correct:(failed = 0) ~attempted:(E2e.attempted o) ~failed metrics
    end
    else begin
      let o = Traced.run ~work:!work ~seconds:!seconds wl in
      if !log <> "" then Span.write_jsonl (Filename.remove_extension !log ^ ".spans.jsonl") o.Traced.spans;
      let w = o.Traced.wire.Traced.window in
      emit
        (Deploy.log_header ~paradb:!Proc.paradb ~seed:!seed wl ~argv:o.Traced.argv w
        @ Deploy.class_lines w.Deploy.samples
        @ [
            Printf.sprintf "replayed %d requests, %d spans" (List.length o.Traced.replayed)
              (Array.length o.Traced.spans);
          ]);
      let failed = Traced.failed o in
      Stats.result_line ~correct:(failed = 0) ~attempted:(Traced.attempted o) ~failed (Traced.metrics wl o)
    end
  with
  | line -> print_endline line
  | exception e -> fail (Printexc.to_string e)
