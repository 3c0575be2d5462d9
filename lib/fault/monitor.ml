module Etrace = Mp5_obs.Trace

exception Violation of string

type t = {
  epoch : int;
  fail_fast : bool;
  events : Etrace.t option;
  mutable next_due : int;
  mutable checks : int;
  mutable violations : int;
  mutable last : string option;
}

let create ?(epoch = 64) ?(fail_fast = true) ?events () =
  if epoch <= 0 then invalid_arg "Monitor.create: epoch must be positive";
  { epoch; fail_fast; events; next_due = 0; checks = 0; violations = 0; last = None }

let due t ~now = now >= t.next_due

let mark t ~now =
  t.next_due <- now + t.epoch;
  t.checks <- t.checks + 1

let checks t = t.checks
let violations t = t.violations
let ok t = t.violations = 0
let last_diagnostic t = t.last

(* Last [n] recorded trace events, oldest first, one line each. *)
let tail_events t n =
  match t.events with
  | None -> []
  | Some tr ->
      let keep = Array.make n "" in
      let count = ref 0 in
      Etrace.iter
        (fun ~kind ~cycle ~seq ~stage ~pipe ~aux ->
          keep.(!count mod n) <-
            Printf.sprintf "  cycle %d %s pkt=%d stage=%d pipe=%d aux=%d" cycle
              (Etrace.kind_name kind) seq stage pipe aux;
          incr count)
        tr;
      let m = min !count n in
      List.init m (fun i -> keep.((!count - m + i) mod n))

let report t ~cycle what =
  let tail = tail_events t 12 in
  let diag =
    Printf.sprintf "monitor: cycle %d: %s%s" cycle what
      (if tail = [] then ""
       else "\nlast trace events:\n" ^ String.concat "\n" tail)
  in
  t.violations <- t.violations + 1;
  t.last <- Some diag;
  if t.fail_fast then raise (Violation diag)

let summary t =
  Printf.sprintf "monitor: %d epochs checked, %d violations%s" t.checks t.violations
    (match t.last with None -> "" | Some d -> "\n" ^ d)
