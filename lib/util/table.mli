(** ASCII table rendering for benchmark and experiment reports. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays the table out with a separator line under the
    header.  Ragged rows are padded with empty cells.  The first column is
    left-aligned, the others right-aligned. *)

val cell_f : float -> string
(** Numeric cell: ["%.3f"], or ["-"] for [nan], ["inf"] for infinities. *)

val cell_pct : float -> string
(** Percentage cell from a ratio in [\[0,1\]], e.g. [0.42 -> "42%"]. *)
