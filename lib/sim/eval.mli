open Rtl

(** Reference evaluation of expressions against an environment.

    A direct recursive reading of the {!Rtl.Bitvec} semantics: the
    oracle the bit-blaster and the compiled {!Engine} are tested
    against, and the engine's fallback for expressions that are not
    netlist nodes. Evaluation is memoised per call on hash-cons tags,
    so shared sub-expressions are computed once. Out-of-range memory
    reads (address [>= depth]) evaluate to zero. *)

type env = {
  lookup_input : Expr.signal -> Bitvec.t;
  lookup_param : Expr.signal -> Bitvec.t;
  lookup_reg : Expr.signal -> Bitvec.t;
  lookup_mem : Expr.mem -> int -> Bitvec.t;
}

val eval : env -> Expr.t -> Bitvec.t
(** Evaluate one expression (fresh memo table). *)
