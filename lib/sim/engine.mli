open Rtl

(** Cycle-accurate two-phase simulator.

    Usage per cycle: set the inputs, optionally {!peek} combinational
    values, then {!step} to commit registers and memories and advance
    the cycle counter. Registers start from their declared reset value
    (zero when absent); memories from their initial contents (zeros when
    absent); parameters must be set before the first evaluation and stay
    fixed.

    The first evaluation ({!step}, {!peek_output}) compiles the
    netlist's next states, write ports and outputs into one levelised
    program over int slots. Each cycle then settles that program at most
    once: {!set_input}, {!set_param}, the pokes and {!step} mark it
    stale, and the next evaluation re-runs it. *)

type t

val create : Netlist.t -> t

val set_param : t -> string -> Bitvec.t -> unit
(** Set a symbolic parameter by name. Raises [Not_found] for unknown
    names and [Invalid_argument] on width mismatch. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Set a primary input for the current cycle. Inputs persist across
    cycles until overwritten (convenient for quasi-static control
    inputs). *)

val set_input_int : t -> string -> int -> unit

val peek : t -> Expr.t -> Bitvec.t
(** Evaluate an arbitrary expression against the current cycle's state
    and inputs. A netlist node is read from its slot; any other
    expression goes through {!Eval.eval}. *)

val peek_output : t -> string -> Bitvec.t
(** Evaluate a named netlist output. *)

val reg_value : t -> string -> Bitvec.t
val mem_value : t -> string -> int -> Bitvec.t

val poke_reg : t -> string -> Bitvec.t -> unit
(** Force a register's current value (testing / state injection). *)

val poke_mem : t -> string -> int -> Bitvec.t -> unit
(** [poke_mem t name i v] forces word [i] of a memory. Raises
    [Not_found] for unknown names and
    [Invalid_argument "Engine.poke_mem NAME: width mismatch"] when [v]
    is not the memory's data width. *)

val step : t -> unit
(** Commit one clock edge. *)

val run : t -> int -> unit
(** [run t n] steps [n] cycles with the current inputs. *)

val cycle : t -> int
(** Number of clock edges committed so far. *)

val netlist : t -> Netlist.t

val on_step : t -> (t -> unit) -> unit
(** Register a hook called after every {!step} (tracing, VCD). Hooks run
    in registration order. *)
