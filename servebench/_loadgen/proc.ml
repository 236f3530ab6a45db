(* Server subprocesses and what /proc says about them.

   [spawn] starts [paradb serve] / [paradb coordinator] on an ephemeral
   port and scrapes the bound port from its startup line.  The rest
   reads the kernel's per-thread accounting: [schedstat] gives each
   thread's on-CPU time in nanoseconds (time the host stole while the
   thread ran included) and the number of times it was switched in;
   [status] gives the peak resident set. *)

type t = { pid : int; port : int; log : string }

let paradb = ref "paradb"

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* Both startup lines name the bound address as 127.0.0.1:PORT. *)
let port_of text =
  let marker = "127.0.0.1:" in
  let n = String.length text and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = marker then begin
      let j = ref (i + m) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      if !j > i + m && !j < n then int_of_string_opt (String.sub text (i + m) (!j - i - m))
      else None
    end
    else find (i + 1)
  in
  find 0

exception Exited of string

(* Every process spawned and not yet reaped, killed at exit whatever
   path the load generator leaves by. *)
let live = ref []
let forget pid = live := List.filter (fun p -> p <> pid) !live

let wait_exit pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  forget pid

(* A no-op on a process already reaped, whose pid may have been reused. *)
let kill_pid pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    wait_exit pid
  end

let () = at_exit (fun () -> List.iter kill_pid !live)

(* [spawn ~log args] starts paradb with [args] (which must include
   [--port 0]) and returns once it listens. *)
let spawn ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list (!paradb :: args) in
  let pid = Unix.create_process !paradb argv Unix.stdin fd fd in
  live := pid :: !live;
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match port_of (read_file log) with
    | Some port -> { pid; port; log }
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | p, _ when p = pid ->
            forget pid;
            raise
              (Exited
                 (Printf.sprintf "paradb %s exited: %s" (String.concat " " args)
                    (read_file log)))
        | _ ->
            if Unix.gettimeofday () > deadline then begin
              kill_pid pid;
              raise (Exited "paradb did not come up within 30s")
            end;
            Unix.sleepf 0.001;
            wait ())
  in
  wait ()

let kill t = kill_pid t.pid

(* --- per-thread accounting ------------------------------------------ *)

type thread = { tid : int; run_ns : int; switches : int }

let threads t =
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  match Sys.readdir dir with
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match
            String.split_on_char ' '
              (String.trim (read_file (Printf.sprintf "%s/%s/schedstat" dir tid)))
          with
          | run :: _wait :: slices :: _ -> (
              match (int_of_string_opt tid, int_of_string_opt run, int_of_string_opt slices) with
              | Some tid, Some run_ns, Some switches -> { tid; run_ns; switches } :: acc
              | _ -> acc)
          | _ -> acc)
        [] tids
  | exception Sys_error _ -> []

(* On-CPU nanoseconds of every live thread of [t], summed. *)
let cpu_ns t = List.fold_left (fun a th -> a + th.run_ns) 0 (threads t)

(* Peak resident set (VmHWM) in kB, 0 if unreadable. *)
let vm_hwm_kb t =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
          | [] -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" t.pid)))

(* --- the host ---------------------------------------------------------- *)

(* Jiffies summed over all cores since boot, from the first line of
   /proc/stat: all of them, and those the host gave to other guests
   (steal).  Both 0 where there is no /proc/stat. *)
type jiffies = { total : int; steal : int }

let cpu_jiffies () =
  let none = { total = 0; steal = 0 } in
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields -> (
          (* user nice system idle iowait irq softirq steal *)
          match List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt fields) with
          | [ _; _; _; _; _; _; _; steal ] as v -> { total = List.fold_left ( + ) 0 v; steal }
          | _ -> none)
      | _ -> none)
  | None | (exception Sys_error _) -> none

(* The share of all CPU time the host took between two readings. *)
let steal_share a b =
  if b.total > a.total then float_of_int (b.steal - a.steal) /. float_of_int (b.total - a.total) else 0.0

(* The CPUs this process may run on, as [nproc] counts them: the
   Cpus_allowed_list of /proc/self/status, e.g. "0-1" or "0,2-3". *)
let nproc () =
  let line =
    List.find_opt
      (String.starts_with ~prefix:"Cpus_allowed_list:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match line with
  | None -> 1
  | Some l ->
      let spec = String.trim (List.nth (String.split_on_char ':' l) 1) in
      List.fold_left
        (fun n range ->
          match List.map int_of_string_opt (String.split_on_char '-' range) with
          | [ Some _ ] -> n + 1
          | [ Some a; Some b ] -> n + b - a + 1
          | _ -> n)
        0
        (String.split_on_char ',' spec)

(* --- store directories ------------------------------------------------- *)

let rec dir_bytes path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | false -> ( try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
  | exception Sys_error _ -> 0

let count_suffix path suffix =
  match Sys.readdir path with
  | files -> Array.fold_left (fun n f -> if Filename.check_suffix f suffix then n + 1 else n) 0 files
  | exception Sys_error _ -> 0
