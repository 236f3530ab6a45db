module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Dictionary = Paradb_relational.Dictionary
module Row_set = Paradb_relational.Row_set
module Code_row = Paradb_relational.Code_row
module Planner = Paradb_planner.Planner
module Budget = Paradb_telemetry.Budget
module Metrics = Paradb_telemetry.Metrics
module Mutate = Paradb_telemetry.Mutate
open Paradb_query

let m_pipelines = Metrics.counter "compile.pipelines"

type _ sink =
  | Rows : Relation.t sink
  | Count : int sink

(* Per-run state: a flat register file (one slot per query variable,
   holding dictionary codes), the strided budget checkpoint, and the
   sink's accumulators — [out]/[seen] for [Rows], [total]/[memo] for
   [Count]; the other sink's fields stay empty.  Allocated fresh by
   [run], so one compiled [exec] can be executed concurrently from
   several domains. *)
type state = {
  regs : int array;
  mutable ticks : int;
  budget : Budget.t option;
  out : Row_set.t;  (** [Rows]: the deduplicated head rows *)
  seen : Row_set.t array;
      (** [Rows]: one distinct-prefix set per dead-variable barrier *)
  mutable total : int;  (** [Count]: valuations counted so far *)
  memo : int Code_row.Table.t array;
      (** [Count]: one live-prefix count memo per dead-variable barrier *)
}

type exec = {
  counts : bool;  (** lowered for the [Count] sink *)
  name : string;
  head_schema : string list;
  nregs : int;
  nbarriers : int;
  pipeline : state -> unit;
}

(* Same order of magnitude as the interpreters' probe stride: cheap
   enough to leave on, frequent enough that expiry surfaces fast. *)
let budget_stride = 512

let tick st =
  st.ticks <- st.ticks + 1;
  if st.ticks land (budget_stride - 1) = 0 then Budget.poll st.budget

(* Materialize one atom: select rows matching the constant and
   repeated-variable pattern, project to the distinct variables (schema =
   variable names), into the global dictionary. *)
let materialize ?budget db scan atom =
  let rel = Database.find db scan.Planner.rel in
  (* Code-level work assumes the shared dictionary; re-encode the odd
     relation built against a private one. *)
  let rel =
    if Relation.dict rel == Dictionary.global then rel
    else
      Relation.create ~name:(Relation.name rel)
        ~schema:(Relation.schema_list rel) (Relation.tuples rel)
  in
  let arity = Atom.arity atom in
  if Relation.arity rel <> arity then
    (* Interpreters treat arity-mismatched tuples as non-matching. *)
    Relation.of_codes ~name:scan.Planner.rel ~schema:scan.Planner.vars Seq.empty
  else begin
    let sels =
      Array.of_list
        (List.map
           (fun (pos, v) -> (pos, Dictionary.intern Dictionary.global v))
           scan.Planner.selections)
    in
    let eqs = Array.of_list scan.Planner.equalities in
    (* First-occurrence position of each distinct variable, in [vars]
       order: the projection that turns a stored row into a plan row. *)
    let fpos =
      let first = Hashtbl.create 4 in
      List.iteri
        (fun i t ->
          match t with
          | Term.Var x when not (Hashtbl.mem first x) -> Hashtbl.add first x i
          | _ -> ())
        atom.Atom.args;
      Array.of_list (List.map (Hashtbl.find first) scan.Planner.vars)
    in
    let keep row =
      Array.for_all (fun (pos, c) -> row.(pos) = c) sels
      && Array.for_all (fun (a, b) -> row.(a) = row.(b)) eqs
    in
    let n = ref 0 in
    let rows =
      Relation.fold_codes
        (fun row acc ->
          incr n;
          if !n land (budget_stride - 1) = 0 then Budget.poll budget;
          if keep row then Code_row.sub row fpos :: acc else acc)
        rel []
    in
    Relation.of_codes ~name:scan.Planner.rel ~schema:scan.Planner.vars
      (List.to_seq rows)
  end

let ground_holds c =
  match (c.Constr.lhs, c.Constr.rhs) with
  | Term.Const a, Term.Const b -> Constr.eval_op c.Constr.op a b
  | _ -> invalid_arg "Compile: ground constraint with a variable"

(* One fused register-level check per constraint. *)
let compile_constraint reg_of c =
  let operand = function
    | Term.Var x -> `Reg (reg_of x)
    | Term.Const v -> `Const (Dictionary.intern Dictionary.global v, v)
  in
  let l = operand c.Constr.lhs and r = operand c.Constr.rhs in
  match c.Constr.op with
  | Constr.Neq -> (
      match (l, r) with
      | `Reg a, `Reg b -> fun regs -> regs.(a) <> regs.(b)
      | `Reg a, `Const (c, _) -> fun regs -> regs.(a) <> c
      | `Const (c, _), `Reg b -> fun regs -> c <> regs.(b)
      | `Const (c1, _), `Const (c2, _) ->
          let v = c1 <> c2 in
          fun _ -> v)
  | (Constr.Lt | Constr.Le) as op ->
      let value = function
        | `Reg a -> fun regs -> Dictionary.value Dictionary.global regs.(a)
        | `Const (_, v) -> fun _ -> v
      in
      let lv = value l and rv = value r in
      fun regs -> Constr.eval_op op (lv regs) (rv regs)

(* Materialize every atom and apply the plan's semijoin program (full
   reduction for acyclic plans).  Count-preserving: materialization's
   projection to first-occurrence variable positions is injective on the
   rows matching the selection pattern, and semijoins only drop rows that
   join with nothing. *)
let reduced_mats ?budget plan db atoms =
  let mats =
    Array.mapi
      (fun i scan -> materialize ?budget db scan atoms.(i))
      plan.Planner.scans
  in
  List.iter
    (fun (target, filter) ->
      Budget.poll budget;
      mats.(target) <- Relation.semijoin mats.(target) mats.(filter))
    plan.Planner.reduce;
  mats

let is_count : type r. r sink -> bool = function Rows -> false | Count -> true

(* The one lowering.  The sink is fixed here, so every [match sink]
   below runs once per plan step at compile time and leaves a closure
   specialized to one sink: no per-tuple test of which sink is in use.

   - [Rows] (the Bool semiring) emits the head row into a dedup set, and
     at a dead-variable barrier drops a live prefix it has already seen.
   - [Count] (the Nat semiring) adds one per satisfying valuation, and
     at a barrier memoizes: past a barrier the downstream count is a
     function of the live registers alone (later steps read only
     already-bound key registers or registers they bind themselves, and
     the emit reads none), so each distinct live prefix runs the subtree
     once and replays its count from the memo thereafter.  Counting must
     NOT dedup — dedup is Bool's ⊕, and collapsing multiplicities is
     precisely the bug the counting oracle exists to catch. *)
let compile : type r. ?budget:Budget.t -> r sink -> Planner.t -> Database.t -> exec =
 fun ?budget sink plan db ->
  Budget.poll budget;
  let q = plan.Planner.query in
  let vars = Cq.vars q in
  let nregs = List.length vars in
  let reg_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.add tbl x i) vars;
    Hashtbl.find tbl
  in
  let head_schema = List.mapi (fun i _ -> Printf.sprintf "a%d" i) q.Cq.head in
  let emit : state -> unit =
    match sink with
    | Rows ->
        let hspec =
          Array.of_list
            (List.map
               (function
                 | Term.Var x -> `Reg (reg_of x)
                 | Term.Const v -> `Const (Dictionary.intern Dictionary.global v))
               q.Cq.head)
        in
        fun st ->
          tick st;
          let row =
            Array.map (function `Reg r -> st.regs.(r) | `Const c -> c) hspec
          in
          Row_set.add st.out row
    | Count ->
        fun st ->
          tick st;
          st.total <- st.total + 1
  in
  let ground_ok = List.for_all ground_holds plan.Planner.ground in
  let nbarriers, pipeline =
    if not ground_ok then (0, fun _ -> ())
    else if q.Cq.body = [] then (0, emit)
    else begin
      let atoms = Array.of_list q.Cq.body in
      (* Acyclic plans: full semijoin reduction at compile time, so the
         pipeline below enumerates without dead ends (Yannakakis). *)
      let mats = reduced_mats ?budget plan db atoms in
      let filters_at i =
        match
          List.filter_map
            (fun (j, c) -> if j = i then Some (compile_constraint reg_of c) else None)
            plan.Planner.filters
        with
        | [] -> None
        | checks ->
            let checks = Array.of_list checks in
            Some (fun regs -> Array.for_all (fun f -> f regs) checks)
      in
      let with_filters i next =
        match filters_at i with
        | None -> next
        | Some check -> fun st -> if check st.regs then next st
      in
      (* Dead-variable barriers (planned by {!Planner.barrier_spec}): the
         sink's per-live-prefix table — a distinct-prefix set for [Rows],
         a count memo for [Count] — prunes duplicate continuation
         subtrees, which turns e.g. long-chain walk enumeration from
         exponential in the chain length into output-bounded work. *)
      let nbarriers = ref 0 in
      let barrier_spec =
        Array.map
          (function
            | None -> None
            | Some live ->
                let k = !nbarriers in
                incr nbarriers;
                Some (k, Array.of_list (List.map reg_of live)))
          plan.Planner.barriers
      in
      let with_barrier i next =
        match barrier_spec.(i) with
        | None -> next
        | Some (k, proj) -> (
            match sink with
            | Rows ->
                fun st ->
                  let seen = st.seen.(k) in
                  let before = Row_set.cardinal seen in
                  Row_set.add seen (Code_row.sub st.regs proj);
                  if Row_set.cardinal seen > before then next st
            | Count ->
                fun st ->
                  let key = Code_row.sub st.regs proj in
                  match Code_row.Table.find_opt st.memo.(k) key with
                  | Some c -> st.total <- st.total + c
                  | None ->
                      let saved = st.total in
                      st.total <- 0;
                      next st;
                      Code_row.Table.replace st.memo.(k) key st.total;
                      st.total <- saved + st.total)
      in
      let rec build steps i =
        match steps with
        | [] -> emit
        | step :: rest -> (
            let next = with_filters i (with_barrier i (build rest (i + 1))) in
            match step with
            | Planner.Scan { atom } ->
                let rel = mats.(atom) in
                let dst =
                  Array.of_list (List.map reg_of plan.Planner.scans.(atom).vars)
                in
                let n = Array.length dst in
                fun st ->
                  Relation.iter_codes
                    (fun row ->
                      tick st;
                      for k = 0 to n - 1 do
                        st.regs.(dst.(k)) <- row.(k)
                      done;
                      next st)
                    rel
            | Planner.Probe { atom; key; bind } ->
                let rel = mats.(atom) in
                let key_pos = Relation.positions rel key in
                let key_regs = Array.of_list (List.map reg_of key) in
                let idx = Relation.hash_index rel key_pos in
                let bind_src = Relation.positions rel bind in
                let bind_dst = Array.of_list (List.map reg_of bind) in
                (* Mutation hook: bind the first output column from the
                   probe key's first column instead of its own — a
                   single-point bug the differential oracle must catch,
                   in either sink. *)
                if
                  Mutate.enabled "probe_key_swap"
                  && Array.length bind_src > 0
                  && Array.length key_pos > 0
                then bind_src.(0) <- key_pos.(0);
                let n = Array.length bind_dst in
                fun st ->
                  Relation.probe_iter rel idx st.regs key_regs (fun row ->
                      tick st;
                      for k = 0 to n - 1 do
                        st.regs.(bind_dst.(k)) <- row.(bind_src.(k))
                      done;
                      next st)
            | Planner.Exists { atom; key } ->
                let rel = mats.(atom) in
                let key_pos = Relation.positions rel key in
                let key_regs = Array.of_list (List.map reg_of key) in
                let idx = Relation.hash_index rel key_pos in
                fun st ->
                  tick st;
                  if Relation.probe_mem rel idx st.regs key_regs then next st)
      in
      let pipeline = build plan.Planner.steps 0 in
      (!nbarriers, pipeline)
    end
  in
  Metrics.incr m_pipelines;
  {
    counts = is_count sink;
    name = q.Cq.name;
    head_schema;
    nregs;
    nbarriers;
    pipeline;
  }

let run : type r. ?budget:Budget.t -> r sink -> exec -> r =
 fun ?budget sink exec ->
  if is_count sink <> exec.counts then
    invalid_arg "Compile.run: pipeline was lowered for the other sink";
  Budget.poll budget;
  let st =
    {
      regs = Array.make (max exec.nregs 1) (-1);
      ticks = 0;
      budget;
      out =
        (match sink with
        | Rows -> Row_set.create 64
        | Count -> Row_set.of_unique_array [||] 0);
      seen =
        (match sink with
        | Rows -> Array.init exec.nbarriers (fun _ -> Row_set.create 64)
        | Count -> [||]);
      total = 0;
      memo =
        (match sink with
        | Rows -> [||]
        | Count -> Array.init exec.nbarriers (fun _ -> Code_row.Table.create 64));
    }
  in
  exec.pipeline st;
  match sink with
  | Rows ->
      Relation.of_codes ~name:exec.name ~schema:exec.head_schema
        (List.to_seq (Row_set.fold List.cons st.out []))
  | Count -> st.total

let evaluate ?budget db q = run ?budget Rows (compile ?budget Rows (Planner.plan q) db)
let count ?budget db q = run ?budget Count (compile ?budget Count (Planner.plan q) db)
