(** One differential-fuzzing case: a DAG together with the platform it is
    scheduled on, plus a human-readable label recording which generator
    family and platform regime produced it.

    The text serialisation (two header lines followed by the {!Dag} text
    format) is the on-disk shape of corpus entries, so shrunk failures can
    be replayed byte-for-byte by the regression suite. *)

type t = {
  label : string;  (** generator family + platform regime, e.g. ["chain/alpha=0.4"] *)
  dag : Dag.t;
  platform : Platform.t;
}

val make : label:string -> Dag.t -> Platform.t -> t

val to_string : t -> string
(** ["instance <label>\nplatform <p_blue> <p_red> <m_blue> <m_red>\n<dag text>"].
    Whitespace in the label is replaced by underscores; infinite capacities
    print as ["inf"]. *)

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)
