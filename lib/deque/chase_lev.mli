(** Lock-free Chase–Lev work-stealing deque (Chase & Lev, SPAA 2005),
    adapted to OCaml 5 [Atomic] (sequentially consistent operations).

    Ownership discipline: exactly one domain (the owner) may call
    {!push_bottom} and {!pop_bottom}; any number of domains may call
    {!steal} concurrently.  This matches the algorithm's setting, where
    "each deque is always owned by the same single worker" (Section 3).

    The buffer grows automatically; elements are never overwritten while a
    concurrent thief may still read them, relying on garbage collection for
    reclamation (the classical GC-based variant of the algorithm).

    Layout: slots are unboxed (a private sentinel marks empty slots, so
    pushes allocate nothing), the owner caches a lower bound on [top] to
    skip the atomic read on non-full pushes, and [top]/[bottom]/the buffer
    pointer are padded onto separate cache lines.

    Constraint: because the sentinel is a non-float block, a [float t]'s
    slot array is boxed, {e never} a flat float array.  Every slot access
    must stay polymorphic (generic [Array.get]/[Array.set], which test the
    array tag at runtime); monomorphising the implementation at [float],
    or reaching into the buffer with float-array-specialised unsafe
    accessors, would read the sentinel as a [float] and is memory-unsafe. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 16) is rounded up to a power of two. *)

val push_bottom : 'a t -> 'a -> unit
(** Owner only. *)

val pop_bottom : 'a t -> 'a option
(** Owner only.  Takes the most recently pushed element; loses the race to
    a concurrent thief on the last element at most once. *)

val steal : 'a t -> 'a option
(** Any domain.  Takes the oldest element, or [None] if the deque is empty
    or the CAS race was lost (callers should retry elsewhere, as a failed
    steal attempt). *)

val size : 'a t -> int
(** Snapshot size; may be stale under concurrency.  Never negative. *)

val is_empty : 'a t -> bool
(** Snapshot emptiness; may be stale under concurrency. *)
