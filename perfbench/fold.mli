(** Self-time folding of an {!Obs.Trace} JSONL dump.

    Two views of the same spans:

    - {b exclusive per domain}: a span's duration minus the part of it
      covered by spans nested inside it on the same domain — the
      textbook self time, per (domain, span name).
    - {b wall attribution}: every instant of the trace is charged to
      exactly one span, so the charges add up to the wall time the
      spans cover. While any domain other than the main one (the
      domain of the trace's first event) has a span open, the instant
      is split evenly between those domains' innermost spans — the
      main domain is then waiting on them, as it does inside a
      [Parallel.Pool] map. Otherwise the main domain's innermost open
      span takes it.

    "Innermost" is the open span that began last (ties: the one ending
    first), which is the nesting order for spans opened with
    [with_span] and also places spans written after the fact with
    [emit_span] (["alg1.iter"], ["sat.solve"]) correctly. *)

type span = { id : int; name : string; dom : int; t0 : float; t1 : float }

exception Bad_trace of string

val parse_lines : string list -> span list
(** Pair [begin]/[end] events by id; [instant] events are ignored.
    Raises {!Bad_trace} on a malformed line, a duplicate [begin], an
    [end] without its [begin] (or with another name or domain), an
    [end] before its [begin], or a span never ended. *)

val of_file : string -> span list

type t = {
  main_dom : int;
  exclusive : ((int * string) * float) list;
      (** self seconds per (domain, name), sorted *)
  attributed : (string * float) list;
      (** wall-attributed seconds per name, sorted by name *)
  inclusive : (string * float) list;
      (** summed durations per name (nested repeats count twice) *)
  counts : (string * int) list;  (** spans per name *)
  covered : float;
      (** seconds during which some span was open; equals the sum of
          [attributed] *)
}

val fold : span list -> t

val get : ('k * 'a) list -> 'k -> 'a option

val pp : wall:float option -> Format.formatter -> t -> unit
(** Exclusive time per span name per domain, the wall attribution, and
    — given the wall time the trace was taken over — the share of it
    the spans cover. *)
