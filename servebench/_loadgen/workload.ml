(* The workloads: the generated graph, the queries, the request stream,
   and the expected answer of every request, computed in process by the
   reference engines ([Cq_naive], [Yannakakis]) and never by the
   compiled pipeline the servers run.

   Each workload sends one query class per verb, so each latency and
   CPU metric describes exactly one kind of request. *)

module Tuple = Paradb_relational.Tuple
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Source = Paradb_query.Source
module Generators = Paradb_workload.Generators
module Cq_naive = Paradb_eval.Cq_naive
module Yannakakis = Paradb_yannakakis.Yannakakis
module Protocol = Paradb_server.Protocol

type name = Serve_wide | Write_churn | Cluster_read

let names = [ ("serve-wide", Serve_wide); ("write-churn", Write_churn); ("cluster-read", Cluster_read) ]
let to_string w = fst (List.find (fun (_, w') -> w' = w) names)

type verb = Eval | Count | Fact

let verb_name = function Eval -> "eval" | Count -> "count" | Fact -> "fact"

type expect =
  | Rows of string array  (** the payload lines, in order *)
  | Num of int  (** the COUNT payload *)
  | Tuples of int  (** the [tuples=] field of a FACT reply *)

type req = {
  verb : verb;
  cls : string;  (** request class, e.g. [eval.wide] *)
  db : string;
  body : string;  (** the query, or the fact for FACT *)
  expect : expect;
}

let line r =
  match r.verb with
  | Eval -> Printf.sprintf "EVAL %s auto %s" r.db r.body
  | Count -> Printf.sprintf "COUNT %s auto %s" r.db r.body
  | Fact -> Printf.sprintf "FACT %s %s" r.db r.body

(* --- graph and queries ---------------------------------------------- *)

type size = { nodes : int; edges : int }

let full = { nodes = 600; edges = 2400 }

(* For the benchmark's own tests. *)
let tiny = { nodes = 60; edges = 240 }

let graph ~seed size =
  Generators.edge_database (Random.State.make [| seed |]) ~nodes:size.nodes ~edges:size.edges

(* About 9.4k answer rows on the full graph: the answer side dominates. *)
let q_wide = ("wide", "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z.")

(* Cyclic with a narrow answer (about 190 rows): the database side. *)
let q_cycle4 = ("cycle4", "ans(X) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).")

(* Cyclic, few answers: the database side only. *)
let q_tri = ("tri", "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).")

(* Co-partitioned on X, so the coordinator scatters it in one round. *)
let q_star = ("star", "ans(X, Y, Z) :- e(X, Y), e(X, Z), Y != Z.")

let parse text =
  match Source.parse_query text with Ok q -> q | Error e -> failwith ("servebench: " ^ e)

(* Yannakakis where it applies (acyclic, no constraints), the naive
   backtracking evaluator otherwise. *)
let reference_rows db text =
  let q = parse text in
  let r =
    try Yannakakis.evaluate db q
    with Yannakakis.Cyclic_query | Invalid_argument _ -> Cq_naive.evaluate db q
  in
  Array.of_list (List.map Tuple.to_string (List.sort Tuple.compare (Relation.tuples r)))

let reference_count db text =
  let q = parse text in
  try Yannakakis.count db q with Yannakakis.Cyclic_query | Invalid_argument _ -> Cq_naive.count db q

(* --- request streams ------------------------------------------------- *)

type t = {
  name : name;
  db : Database.t;  (** the graph, loaded as database [g] *)
  first : req;  (** the read whose reply ends set-up *)
  cycle : req array;  (** the reads of one cycle, after its FACT on write-churn *)
}

let eval db (cls, text) =
  { verb = Eval; cls = "eval." ^ cls; db = "g"; body = text; expect = Rows (reference_rows db text) }

let count db (cls, text) =
  { verb = Count; cls = "count." ^ cls; db = "g"; body = text; expect = Num (reference_count db text) }

let make name ~seed size =
  let db = graph ~seed size in
  match name with
  | Serve_wide ->
      let wide = eval db q_wide in
      { name; db; first = wide; cycle = [| wide; count db q_cycle4 |] }
  | Write_churn ->
      let narrow = eval db q_cycle4 in
      { name; db; first = narrow; cycle = [| narrow; count db q_cycle4 |] }
  | Cluster_read ->
      let star = eval db q_star in
      { name; db; first = star; cycle = [| star; count db q_tri |] }

(* Only write-churn writes.  FACT [k] adds [w(k, k+1)] to [g], a
   relation no query reads: each FACT swaps [g]'s snapshot generation,
   so the reads after it miss the plan cache and recompile, but they
   cost the same however many facts a run writes. *)
let writes wl = wl.name = Write_churn
let written = "w"

let fact wl k =
  {
    verb = Fact;
    cls = "fact." ^ written;
    db = "g";
    body = Printf.sprintf "%s(%d, %d)." written k (k + 1);
    expect = Tuples (Database.size wl.db + k + 1);
  }

(* The end-of-run read-back: every acknowledged FACT, nothing else. *)
let read_back ~acked =
  let rows =
    List.init acked (fun k -> Tuple.of_ints [ k; k + 1 ])
    |> List.sort Tuple.compare |> List.map Tuple.to_string |> Array.of_list
  in
  {
    verb = Eval;
    cls = "eval.read-back";
    db = "g";
    body = Printf.sprintf "ans(X, Y) :- %s(X, Y)." written;
    expect = Rows rows;
  }

(* --- reply checking ----------------------------------------------- *)

(* The integer after [key=] in a reply summary. *)
let field key summary =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
          int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' summary)

let rec rows_equal i exp = function
  | [] -> i = Array.length exp
  | l :: rest -> i < Array.length exp && String.equal l exp.(i) && rows_equal (i + 1) exp rest

(* [check r resp] — is [resp] the right answer to [r]? *)
let check r (resp : Protocol.response) =
  match (resp, r.expect) with
  | Protocol.Err _, _ -> false
  | Protocol.Ok_ { summary; payload }, Rows exp ->
      field "rows" summary = Some (Array.length exp) && rows_equal 0 exp payload
  | Protocol.Ok_ { payload; _ }, Num n -> payload = [ string_of_int n ]
  | Protocol.Ok_ { summary; _ }, Tuples n -> field "tuples" summary = Some n
