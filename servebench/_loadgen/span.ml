(* In-memory spans for the traced replay.

   The benchmark records them around its own calls into each layer's
   public functions, never inside the program.  They are kept in a
   growable array and written out once, when the run ends, so a span
   costs two clock reads and one array store.  Every span carries the
   id of its request and of the span that was open when it started. *)

module Clock = Paradb_telemetry.Clock

type t = {
  name : string;
  id : int;
  parent : int;  (** 0 for a request's root span *)
  rid : int;
  start_ns : int;
  stop_ns : int;
}

let enabled = ref false
let buf = ref [||]
let len = ref 0
let next_id = ref 0
let stack = ref []
let rid = ref 0

let push s =
  if !len = Array.length !buf then begin
    let grown = Array.make (max 1024 (2 * !len)) s in
    Array.blit !buf 0 grown 0 !len;
    buf := grown
  end;
  !buf.(!len) <- s;
  incr len

(* [with_ name f] times [f ()] as span [name] under the innermost open
   span of the current request; just [f ()] when recording is off. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start_ns = Clock.now_ns () in
    let finish () =
      let stop_ns = Clock.now_ns () in
      stack := List.tl !stack;
      push { name; id; parent; rid = !rid; start_ns; stop_ns }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* [request r f] runs [f] as the root span ["request"] of request [r]. *)
let request r f =
  rid := r;
  with_ "request" f

let all () = Array.sub !buf 0 !len
let dur s = s.stop_ns - s.start_ns

(* Nanoseconds of each span covered by its direct children. *)
let covered spans =
  let child = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  fun s -> Option.value ~default:0 (Hashtbl.find_opt child s.id)

(* Per span name: the number of spans and their summed self time (each
   span's duration minus the part its direct children cover). *)
let self_times spans =
  let covered = covered spans in
  let acc = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let n, total = Option.value ~default:(0, 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, total + dur s - covered s))
    spans;
  acc

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      Array.iter
        (fun s ->
          Printf.fprintf oc
            "{\"name\":%S,\"span\":%d,\"parent\":%d,\"rid\":%d,\"start_ns\":%d,\"dur_ns\":%d}\n"
            s.name s.id s.parent s.rid s.start_ns (dur s))
        spans)
