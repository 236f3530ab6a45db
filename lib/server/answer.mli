(** Reply builders shared by the single-node {!Session} and the cluster
    coordinator, so that both answer the same request byte-identically
    (the property the differential oracle's [cluster] engine fuzzes). *)

(** [fact_line name tuple] — [name(v1, v2).], the one line format whose
    values survive a round-trip through [Source.parse_facts]: GATHER
    payloads, DIGEST checksums and the coordinator's BULK slices. *)
val fact_line : string -> Paradb_relational.Tuple.t -> string

(** [fact_lines r] — [r]'s rows as {!fact_line}s under its own name,
    sorted with [Tuple.compare]. *)
val fact_lines : Paradb_relational.Relation.t -> string list

(** [rows limits ~prefix ~rows ~ns lines] — an EVAL or GATHER reply:
    payload [lines] (one per answer row, [rows] of them) cut at
    [limits.max_rows], summary [<prefix> rows=<rows> ns=<ns>] plus
    [truncated=true] when rows were dropped. *)
val rows :
  Guard.limits -> prefix:string -> rows:int -> ns:int -> string list ->
  Protocol.response

(** The CHECK reply: the query's static analysis (size, acyclicity,
    planner class and width, join tree, inequality partition, the
    engine [auto] resolves to). *)
val check : Paradb_query.Cq.t -> Protocol.response

(** The EXPLAIN reply: the planner's physical plan, one line per item. *)
val explain : Paradb_query.Cq.t -> Protocol.response
