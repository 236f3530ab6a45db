module Cq = Paradb_query.Cq
module Tuple = Paradb_relational.Tuple
module Relation = Paradb_relational.Relation
module Planner = Paradb_planner.Planner
module Join_tree = Paradb_hypergraph.Join_tree

let fact_line name tuple =
  Printf.sprintf "%s(%s)." name
    (String.concat ", "
       (List.map Paradb_query.Fact_format.value_to_syntax (Tuple.to_list tuple)))

let fact_lines r =
  List.map (fact_line (Relation.name r))
    (List.sort Tuple.compare (Relation.tuples r))

let rows limits ~prefix ~rows ~ns lines =
  let payload, truncated =
    match limits.Guard.max_rows with
    | Some m when rows > m -> (List.filteri (fun i _ -> i < m) lines, true)
    | _ -> (lines, false)
  in
  Protocol.Ok_
    {
      summary =
        Printf.sprintf "%s rows=%d ns=%d%s" prefix rows ns
          (if truncated then " truncated=true" else "");
      payload;
    }

let check q =
  let plan = Plan.analyze Plan.Auto q in
  let pplan = plan.Plan.pplan in
  Protocol.Ok_
    {
      summary = Printf.sprintf "checked size=%d" (Cq.size q);
      payload =
        [
          Printf.sprintf "query: %s" (Cq.to_string q);
          Printf.sprintf "size %d vars %d" (Cq.size q) (Cq.num_vars q);
          Printf.sprintf "acyclic: %b" plan.Plan.acyclic;
          Printf.sprintf "class: %s"
            (Planner.classification_name pplan.Planner.classification);
          Printf.sprintf "width: %d" pplan.Planner.width;
          Printf.sprintf "join_tree: %s"
            (match plan.Plan.tree with
            | Some t -> Printf.sprintf "%d nodes" (Join_tree.n_nodes t)
            | None -> "none");
          Printf.sprintf "neq_partition_k: %d" plan.Plan.neq_k;
          Printf.sprintf "recommended_engine: %s"
            (Plan.engine_name plan.Plan.engine);
        ];
    }

let explain q =
  let pplan = Planner.plan q in
  Protocol.Ok_
    {
      summary =
        Printf.sprintf "plan class=%s width=%d steps=%d"
          (Planner.classification_name pplan.Planner.classification)
          pplan.Planner.width
          (List.length pplan.Planner.steps);
      payload = Planner.explain pplan;
    }
