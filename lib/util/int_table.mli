(** Hash table from non-negative [int] keys to [int] values.

    Open addressing with linear probing over one flat [int array] (key and
    value side by side), at most half full.  No boxing, no polymorphic
    hashing or comparison: a lookup costs a multiply, a mask and usually one
    cache line. *)

type t

val create : int -> t
(** [create n] is an empty table sized for [n] keys without growing. *)

val find : t -> int -> default:int -> int
(** The value bound to the key, or [default] when the key is absent. *)

val replace : t -> int -> int -> unit
(** Binds the key, replacing any previous binding.
    @raise Invalid_argument on a negative key. *)

val add : t -> int -> int -> bool
(** [add t key v] binds an absent key and returns [true]; on a present key
    it returns [false] and leaves the table unchanged.
    @raise Invalid_argument on a negative key. *)
