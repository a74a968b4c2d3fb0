(** Host speed probe.

    The cores of a shared host change speed: for seconds to minutes at a
    time, other tenants slow them by up to 3x, so the runs of a
    benchmark fall in different states. Two fixed probes owned by the
    benchmark, none of them the program's code, are timed next to the
    work: a pointer chase over a 256 KB single-cycle permutation
    (memory stalls) and four independent multiply chains (arithmetic
    throughput). Each slows with a different kind of contention.

    The calibrated time of a piece of work is its wall time times
    (c{_0} / c) ** {!chase_weight} * (a{_0} / a) ** {!alu_weight}, where
    c and a are the probes' median times during and just after the work
    and c{_0}, a{_0} their times on an idle host: the seconds the work
    takes at the host's nominal speed. The weights come from
    least-squares fits of the log of each job's slowdown on the logs of
    the two probes' slowdowns, on a 2-vCPU host: 0.30 and 0.85 over 142
    job repetitions of the four UPEC-SSC benchmark workloads (R{^2}
    0.89, against 0.80 for the chase alone and 0.86 for the chains
    alone), then 0.26 and 1.00 over 443 more, taken within each job.

    The probes run after the work has had the cache, so the chase's
    array is never warm. A change that shrinks the program's cache
    footprint can leave more of it in place and make the chase faster,
    which understates that change's gain; the raw wall times are kept
    next to the calibrated ones for that reason. *)

val chase_nominal : float
(** The chase's time, in seconds, on an idle 2-vCPU host. *)

val alu_nominal : float
(** The chains' time, in seconds, on an idle 2-vCPU host. *)

val chase_weight : float
val alu_weight : float

val period : float
(** Seconds of wall time between timer probes. *)

type 'a calibrated = {
  result : 'a;
  seconds : float;  (** wall seconds, the timer probes' time taken out *)
  factor : float;  (** turns [seconds] into seconds at nominal speed *)
  chase_s : float;  (** median chase time *)
  alu_s : float;  (** median chains time *)
}

val calibrated : timer:bool -> (unit -> 'a) -> 'a calibrated
(** [calibrated ~timer f] runs [f ()], then both probes and, when
    [timer], also both every {!period} seconds during it, from a
    [SIGALRM] handler that runs between the program's own steps and
    allocates nothing. The timer is stopped and [SIGALRM] restored to
    its default when [f] returns or raises. Not reentrant. *)
