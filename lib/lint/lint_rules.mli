(** The project-invariant rule registry.

    Each rule is a purely syntactic pass over one file's {!Parsetree}
    (interfaces carry no expressions, so rules only inspect structures).
    Rules are deliberately conservative: they flag what is {e syntactically
    evident} and rely on inline pragmas / the allowlist for the deliberate
    exceptions, rather than guessing types.

    Rule ids (each independently selectable from the CLI):
    - ["determinism"] — wall-clock and unseeded-randomness sources
      ([Random.*], [Sys.time], [Unix.gettimeofday]/[Unix.time],
      [Domain.self]) outside [lib/par/] and [lib/util/rng.ml]: all
      randomness must flow through the seeded SplitMix64 [Rng] or the
      campaign is not replayable.
    - ["float-discipline"] — polymorphic [=], [<>], [compare], [min],
      [max] applied to a syntactically-evident float operand outside
      [lib/util/fp.ml]: epsilon comparisons belong to the [Fp] helpers,
      intentional exact ones to [Float.equal]/[Float.compare]/
      [Float.min]/[Float.max].
    - ["domain-safety"] — top-level [ref]/[Hashtbl.create]/[Queue.create]/
      [Stack.create]/[Buffer.create] globals in [lib/] (outside [lib/par/])
      that pool tasks could share unsynchronised (wrap in [Atomic]/[Mutex]
      or annotate), and [Mutex.lock] in a binding with no matching
      [Mutex.unlock]/[Fun.protect].
    - ["io-purity"] — console output ([print_*], [Printf.printf],
      [Format.printf], [stdout]/[stderr], ...) anywhere in [lib/]:
      libraries return data, [bin/] prints.
    - ["order-stability"] — [Hashtbl.iter]/[Hashtbl.fold]/[Hashtbl.to_seq*]
      anywhere: bucket order depends on insertion history, which breaks
      golden CSV digests unless the result is re-sorted (annotate those). *)

type ctx = { path : string }  (** repo-root-relative path of the file being checked *)

type t = {
  id : string;
  doc : string;  (** one-line description for [--help] and the docs *)
  applies : string -> bool;  (** path filter (carve-outs live here) *)
  check : ctx -> Parsetree.structure -> Lint_finding.t list;
}

val all : t list
(** Registry in canonical order: determinism, float-discipline,
    domain-safety, io-purity, order-stability. *)

val names : string list
val find : string -> t option
