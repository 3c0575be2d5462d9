(** Struct-of-arrays storage for in-flight packet state.

    The cycle-level simulator's hot loops touch four things per packet
    per stage: the header fields, the arrival metadata (seq, time-in,
    ECN mark) and the per-access resolution state (guard outcome, cell,
    destination pipeline, completion flags).  Keeping those in boxed
    per-packet records costs a pointer chase per touch and scatters
    packets across the heap; the slab instead keys everything by an
    {e arena slot} (a plain [int]) and stores each component in one flat
    [int array]:

    - per slot: [seq], [time_in], [ecn] (0/1)
    - per slot x field: [fields], stride [nf]
    - per slot x access: [gk], [cell], [dest], [done_], [counted],
      [pos], stride [na]

    A packet in flight {e is} its slot number; FIFOs, stage slots and
    transfer buffers carry ints.  Kernels read and write the header
    window [fields.(slot * nf .. slot * nf + nf - 1)] through a
    retargeted {!Mp5_banzai.Expr.frame}, so the compiled per-packet path
    dereferences no packet object at all.  Slot numbers are never
    observable in results or snapshots (both serialize by value), so the
    allocator is free to recycle slots in any order.

    The arrays are [mutable] because {!alloc} grows them by doubling:
    never cache an array across an allocation — re-read it through the
    record ([t.fields], two loads) instead.  [alloc] returns a {e stale}
    slot; the caller owns the reset.  Not thread-safe: a slab belongs to
    one simulator, which one domain steps at a time. *)

type t = {
  nf : int;  (** ints of header state per slot *)
  na : int;  (** stateful accesses per slot *)
  mutable cap : int;  (** slots allocated *)
  mutable seq : int array;
  mutable time_in : int array;
  mutable ecn : int array;  (** 0 = unmarked, 1 = ECN-marked *)
  mutable fields : int array;  (** stride [nf] *)
  mutable gk : int array;  (** stride [na]; 0 unknown / 1 false / 2 true *)
  mutable cell : int array;  (** stride [na]; -1 = unresolved *)
  mutable dest : int array;  (** stride [na] *)
  mutable done_ : int array;  (** stride [na]; 0/1 *)
  mutable counted : int array;  (** stride [na]; 0/1, holds an in-flight pin *)
  mutable pos : int array;
      (** stride [na]; the {!Mp5_arch.Fifo} position of the access's
          delivered phantom, -1 while none has been delivered.  The
          stateful insert and a drop's phantom cancellation go to the
          entry through it, so no FIFO keeps a key directory. *)
  free : int Mp5_util.Vec.t;  (** recycled slots, LIFO *)
  mutable next : int;  (** bump allocator high-water *)
}

val create : nf:int -> na:int -> t
(** An empty slab; the first allocations size the arrays. *)

val alloc : t -> int
(** Claim a slot: the most recently released one, else a fresh one
    (growing the arrays by doubling).  Contents are stale — the caller
    resets every component it uses. *)

val release : t -> int -> unit
(** Return a slot to the free list and set its [seq] to [-1], a value
    no packet has: a phantom delivery that names the slot and its
    packet's seq sees the mismatch and knows the packet is gone (the
    slot's next packet has another seq too).  No ownership checking:
    releasing a live slot corrupts the simulation, exactly like
    double-freeing the old arena's packet records did. *)

val clear : t -> unit
(** Release every slot at once, keeping the arrays: slots then come out
    in the order a fresh slab hands them out ([0, 1, ...]). *)
