(** Compiled push-based evaluation of planner plans.

    [compile] lowers a {!Paradb_planner.Planner.t} against one database
    snapshot into a pipeline of fused OCaml closures over the
    dictionary-encoded code rows: per-atom selections and projections are
    materialized once, acyclic plans are fully semijoin-reduced (the
    Yannakakis guarantee: enumeration from the root never dead-ends), and
    each plan step becomes a scan / hash-probe / membership closure
    writing variable codes into a flat register file.  Running the
    compiled pipeline does no planning, no [Value.t] decoding on the join
    path, no binding allocation and no per-tuple variant dispatch — the
    warm-path contract the server's plan cache relies on.

    There is one lowering and two sinks, fixed at lowering time.  The
    same join-tree traversal read in the Bool semiring collects the
    deduplicated answer ({!Rows}); read in the Nat semiring it counts
    satisfying valuations ({!Count}).  The sink decides only the emit and
    what a dead-variable barrier does: [Rows] dedups the live prefix,
    [Count] memoizes the downstream count per live prefix, so counting
    stays within the same complexity envelope as deduplicated
    enumeration.

    The compiled value is bound to the snapshot it was compiled against;
    the server keys its cache on the catalog generation so a stale
    pipeline is never reused after LOAD/FACT.

    Budget discipline matches the interpreted engines: [compile] polls
    while materializing and reducing, and the pipeline polls at a strided
    checkpoint ({!Paradb_telemetry.Budget.Exhausted} propagates). *)

(** What a run of the pipeline produces. *)
type _ sink =
  | Rows : Paradb_relational.Relation.t sink
      (** the result relation (head schema [a0..an], name = query name),
          deduplicated *)
  | Count : int sink
      (** the number of satisfying valuations of the body variables
          (Nat-semiring semantics — matches
          {!Paradb_eval.Cq_naive.count}, not the cardinality of the
          deduplicated output) *)

(** A plan lowered against one snapshot for one sink. *)
type exec

(** [compile sink plan db] materializes and reduces the per-atom
    relations and fuses the pipeline for [sink].  Raises
    [Invalid_argument] if the database lacks a relation named in the
    query (the interpreters' behaviour).  Counts on
    [compile.pipelines]. *)
val compile :
  ?budget:Paradb_telemetry.Budget.t ->
  'r sink -> Paradb_planner.Planner.t -> Paradb_relational.Database.t -> exec

(** [run sink exec] executes the pipeline.  Safe to call concurrently
    from several domains: all per-run state is local.  Raises
    [Invalid_argument] if [exec] was compiled for the other sink. *)
val run : ?budget:Paradb_telemetry.Budget.t -> 'r sink -> exec -> 'r

(** [evaluate db q] = plan, compile, run for [Rows] — the one-shot
    convenience used by the differential oracle. *)
val evaluate :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> Paradb_relational.Relation.t

(** [count db q] = plan, compile, run for [Count]. *)
val count :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> int
