(** Deterministic event min-heap for discrete-event reconstruction.

    Entries pop in non-decreasing [(time, kind)] order; entries equal on
    both pop in {e reverse insertion order}.  The tie rule reproduces the
    order of the historical reversed-accumulator + stable-sort pipeline in
    {!Events}, so the float accumulations downstream (memory traces, peaks)
    are bit-identical to the pre-heap implementation — asserted by the
    heap-vs-sorted-reference tests in [test_sim].

    The backing store is a structure-of-arrays heap: parallel
    [times]/[kinds]/[seqs]/[payload] arrays indexed by heap slot, with no
    per-entry record or option boxing — sized once via [capacity] the heap
    never allocates on the add/pop path (the payload array itself is
    allocated on the first {!add}).

    Times are compared with [Float.compare] (a total order); NaN times are
    rejected at {!add}.  No randomness, no wall clock, no global state. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 16) pre-sizes the backing arrays; the heap still
    grows on demand past it.  Size it to the exact event count to make the
    whole add/drain cycle allocation-free after creation. *)

val add : 'a t -> time:float -> kind:int -> 'a -> unit
(** O(log n).  [kind] orders simultaneous events ([0] before [1], ...: the
    memory trace applies frees before allocations).
    @raise Invalid_argument on a NaN time. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum entry; [None] when empty. *)

val drain_into :
  'a t -> times:float array -> kinds:int array -> payloads:'a array -> int
(** Pop everything into the caller-provided arrays (filled from index 0, in
    deterministic pop order) and return the number of entries written — the
    flat, allocation-free counterpart of {!drain}.
    @raise Invalid_argument if any destination is shorter than {!length}. *)

val drain : 'a t -> (float * int * 'a) list
(** Pop everything: the full event list in deterministic order.  Allocates a
    tuple list; flat consumers use {!drain_into}.  (For a single
    generate-everything-then-drain batch with no interleaved adds, the
    stable radix sort inside {!Events.memory_trace} beats either drain: it
    writes each event to its slot in the tie order, then sorts on time
    alone with sequential passes instead of random heap probes; its
    order is total, so it matches this heap's pop order bit for bit.  The
    heap is for genuinely incremental producers.) *)

val length : 'a t -> int
val is_empty : 'a t -> bool
