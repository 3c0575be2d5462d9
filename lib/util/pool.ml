type t = {
  jobs : int;
  m : Mutex.t;
  work_cv : Condition.t;              (* workers: queue non-empty or shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t array;
  mutable stopped : bool;
}

(* Per-map bookkeeping: tasks left.  Guarded by the pool mutex. *)
type job = {
  pool : t;
  done_cv : Condition.t;
  mutable remaining : int;
}

let rec worker_loop t =
  Mutex.lock t.m;
  let rec next () =
    if t.stopped then begin
      Mutex.unlock t.m;
      None
    end
    else
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.m;
          Some task
      | None ->
          Condition.wait t.work_cv t.m;
          next ()
  in
  match next () with
  | None -> ()
  | Some task ->
      task ();
      worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      m = Mutex.create ();
      work_cv = Condition.create ();
      queue = Queue.create ();
      workers = [||];
      stopped = false;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  if jobs > 1 then
    at_exit (fun () ->
        (* Workers must be joined before the main domain exits. *)
        if not t.stopped then begin
          Mutex.lock t.m;
          t.stopped <- true;
          Condition.broadcast t.work_cv;
          Mutex.unlock t.m;
          Array.iter Domain.join t.workers;
          t.workers <- [||]
        end);
  t

let size t = t.jobs

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.m;
    t.stopped <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* Quiesce = shutdown that a later map undoes: the workers are joined (so
   no idle domain forces stop-the-world rendezvous on every minor GC of a
   timing section), but [stopped] is cleared again so the next parallel
   map lazily respawns them via [ensure_workers]. *)
let quiesce t =
  if t.jobs > 1 then begin
    Mutex.lock t.m;
    t.stopped <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers;
    t.workers <- [||];
    t.stopped <- false
  end

let ensure_workers t =
  if t.jobs > 1 && (not t.stopped) && Array.length t.workers = 0 then
    t.workers <- Array.init (t.jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t))

(* One task: compute f on the slice [lo, hi), writing per-element
   results in place.  A raising element is captured as [Error] with its
   backtrace and the rest of the slice still computes — one poisoned
   input never aborts the chunk, let alone the whole map. *)
let run_chunk job f src dst lo hi () =
  for i = lo to hi - 1 do
    dst.(i) <-
      Some
        (match f src.(i) with
        | v -> Ok v
        | exception exn -> Error (exn, Printexc.get_raw_backtrace ()))
  done;
  Mutex.lock job.pool.m;
  job.remaining <- job.remaining - 1;
  if job.remaining = 0 then Condition.broadcast job.done_cv;
  Mutex.unlock job.pool.m

let map_array_result t f src =
  let n = Array.length src in
  let one x =
    match f x with
    | v -> Ok v
    | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
  in
  if t.jobs = 1 || t.stopped || n <= 1 then Array.map one src
  else begin
    ensure_workers t;
    let dst = Array.make n None in
    (* Chunk so each domain gets several pieces — cheap insurance against
       uneven task costs — while keeping scheduling overhead negligible. *)
    let chunks = min n (t.jobs * 4) in
    let per = (n + chunks - 1) / chunks in
    let job = { pool = t; done_cv = Condition.create (); remaining = 0 } in
    Mutex.lock t.m;
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + per) in
      Queue.add (run_chunk job f src dst !lo hi) t.queue;
      job.remaining <- job.remaining + 1;
      lo := hi
    done;
    Condition.broadcast t.work_cv;
    (* The caller works the queue too, then sleeps until the last task
       (possibly running on a worker) completes. *)
    let rec drain () =
      if job.remaining > 0 then
        match Queue.take_opt t.queue with
        | Some task ->
            Mutex.unlock t.m;
            task ();
            Mutex.lock t.m;
            drain ()
        | None ->
            Condition.wait job.done_cv t.m;
            drain ()
    in
    drain ();
    Mutex.unlock t.m;
    Array.map (function Some r -> r | None -> assert false) dst
  end

let map_array t f src =
  let n = Array.length src in
  if t.jobs = 1 || t.stopped || n <= 1 then Array.map f src
  else begin
    let rs = map_array_result t f src in
    (* Every task ran and every domain joined; re-raise the failure of
       the smallest input index, with its original backtrace. *)
    Array.iter
      (function Error (exn, bt) -> Printexc.raise_with_backtrace exn bt | Ok _ -> ())
      rs;
    Array.map (function Ok v -> v | Error _ -> assert false) rs
  end

let map_list t f l = Array.to_list (map_array t f (Array.of_list l))
let init t n f = map_array t f (Array.init n Fun.id)
