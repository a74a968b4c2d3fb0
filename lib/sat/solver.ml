(* CDCL solver, MiniSat-flavoured. The implementation notes below follow
   the usual conventions:
   - assigns.(v): 0 = unassigned, 1 = true, -1 = false; literals are
     Lit.to_int codes
   - a clause watches its first two literals; it is registered in the
     watch list of the *negation* of each watched literal, so when a
     literal p is enqueued (made true) the clauses in watches.(p) have a
     watched literal that just became false.

   Clause arena. Every clause lives in one flat int array as a header
   followed by its literals; a clause reference is the offset [c] of
   its header:

     arena.(c)        size, the number of literals
     arena.(c + 1)    flags: bit 0 learnt, bit 1 removed; lbd lsl 2
     arena.(c + 2)    activity slot, an index into [cact] (learnt only)
     arena.(c + 3)..  the literals

   Watch lists, [clauses], [learnts] and [reason] hold these offsets.
   [reason.(v)] is -1 when [v] is unassigned or was assigned without a
   clause (decision, assumption, root unit). An implication allocates
   nothing and a watch visit touches one array besides the watch list.

   Compaction invariant. Learnt-DB reduction marks a clause removed,
   detaches it from both watch lists at once and counts its words as
   wasted; the words stay until compaction. No watch entry, reason or
   clause-list entry ever refers to a removed clause: detach is eager,
   and a clause that is the reason of an assignment is locked against
   deletion. Once removed clauses hold more than a fifth of the words in
   use, [reduce_db] calls [compact]: it writes each live clause's new
   offset into the slot word of its old header, remaps every reference
   through it in place (every list keeps its order), then slides the
   live clauses down and renumbers the activity slots densely.

   The trajectory contract. Propagation swaps literals in place to keep
   the watched pair at positions 0 and 1, and [reduce_db] sorts
   the learnts newest first with an unstable sort. Those swaps, the
   order of watch pushes and swap-removes, the eager detach and the
   reduction order fix the order clauses are visited in, hence the
   whole search: conflicts, decisions, propagations, models, and the
   literal order of traced deletions and of [export]. test_sat pins the
   search on php(8,7); blocker literals or binary watch lists would
   reorder visits and move those numbers. *)

type options = {
  use_vsids : bool;
  use_restarts : bool;
  use_phase_saving : bool;
  use_minimization : bool;
  var_decay : float;
  clause_decay : float;
  restart_base : int;
  max_learnts_factor : float;
  init_polarity : bool;
}

let default_options =
  {
    use_vsids = true;
    use_restarts = true;
    use_phase_saving = true;
    use_minimization = true;
    var_decay = 0.95;
    clause_decay = 0.999;
    restart_base = 100;
    max_learnts_factor = 0.4;
    init_polarity = false;
  }

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
}

type budget = {
  max_conflicts : int;
  max_propagations : int;
  max_seconds : float;
}

let no_budget = { max_conflicts = -1; max_propagations = -1; max_seconds = 0.0 }

let conflict_budget n = { no_budget with max_conflicts = n }
let time_budget s = { no_budget with max_seconds = s }

let scale_budget b f =
  let scale_i n = if n < 0 then n else max 1 (int_of_float (float_of_int n *. f)) in
  {
    max_conflicts = scale_i b.max_conflicts;
    max_propagations = scale_i b.max_propagations;
    max_seconds = (if b.max_seconds <= 0.0 then b.max_seconds else b.max_seconds *. f);
  }

let pp_budget fmt b =
  let parts =
    (if b.max_conflicts >= 0 then [ Printf.sprintf "conflicts<=%d" b.max_conflicts ] else [])
    @ (if b.max_propagations >= 0 then
         [ Printf.sprintf "propagations<=%d" b.max_propagations ]
       else [])
    @
    if b.max_seconds > 0.0 then [ Printf.sprintf "time<=%.3gs" b.max_seconds ]
    else []
  in
  Format.fprintf fmt "%s"
    (if parts = [] then "unlimited" else String.concat " " parts)

type tracer = {
  trace_add : Lit.t array -> unit;
  trace_delete : Lit.t array -> unit;
  trace_barrier : unit -> unit;
}

(* Growable int vectors: watch lists and clause lists. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let remove v x =
    let rec find i = if i >= v.len then -1 else if v.data.(i) = x then i else find (i + 1) in
    let i = find 0 in
    if i >= 0 then begin
      v.data.(i) <- v.data.(v.len - 1);
      v.len <- v.len - 1
    end
end

(* clause header layout, see the notes at the top *)
let hdr = 3
let f_learnt = 1
let f_removed = 2

type lastres = RSat | RUnsat | RNone

type t = {
  opts : options;
  mutable nvars : int;
  mutable assigns : int array;  (* by var *)
  mutable level : int array;  (* by var *)
  mutable reason : int array;  (* by var: clause offset, -1 none *)
  mutable activity : float array;  (* by var *)
  mutable polarity : bool array;  (* saved phase, by var *)
  mutable seen : bool array;  (* by var, scratch *)
  mutable level_stamp : int array;  (* by level, [compute_lbd] scratch *)
  mutable lbd_epoch : int;
  mutable watches : Ivec.t array;  (* by lit code *)
  mutable arena : int array;  (* clause headers and literals *)
  mutable arena_len : int;  (* words in use *)
  mutable arena_wasted : int;  (* words held by removed clauses *)
  mutable cact : float array;  (* learnt clause activity, by slot *)
  mutable nslots : int;
  mutable heap : int array;  (* binary max-heap of vars *)
  mutable heap_len : int;
  mutable heap_pos : int array;  (* by var; -1 when absent *)
  mutable trail : int array;  (* lit codes *)
  mutable trail_len : int;
  mutable trail_lim : int array;
  mutable trail_lim_len : int;
  mutable qhead : int;
  clauses : Ivec.t;  (* problem clauses, oldest first *)
  learnts : Ivec.t;  (* live learnt clauses, oldest first *)
  mutable var_inc : float;
  mutable clause_inc : float;
  mutable ok : bool;  (* false once trivially unsat *)
  mutable model : int array;
  mutable last_result : lastres;
  mutable conflict_core : int list;  (* assumption lits of final conflict *)
  mutable terminate : (unit -> bool) option;  (* polled during search *)
  mutable tracer : tracer option;  (* DRUP certificate sink *)
  (* resource limits of the in-flight [solve_bounded] call, as absolute
     thresholds against the cumulative counters; -1 / nonpositive
     deadline mean unlimited *)
  mutable lim_conflicts : int;
  mutable lim_propagations : int;
  mutable lim_deadline : float;  (* Unix.gettimeofday threshold *)
  mutable lim_clock_poll : int;  (* countdown until the next clock read *)
  (* stats *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt_total : int;
  mutable n_deleted : int;
}

let create ?(options = default_options) () =
  {
    opts = options;
    nvars = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    polarity = [||];
    seen = [||];
    level_stamp = [||];
    lbd_epoch = 0;
    watches = [||];
    arena = [||];
    arena_len = 0;
    arena_wasted = 0;
    cact = [||];
    nslots = 0;
    heap = [||];
    heap_len = 0;
    heap_pos = [||];
    trail = [||];
    trail_len = 0;
    trail_lim = [||];
    trail_lim_len = 0;
    qhead = 0;
    clauses = Ivec.create ();
    learnts = Ivec.create ();
    var_inc = 1.0;
    clause_inc = 1.0;
    ok = true;
    model = [||];
    last_result = RNone;
    conflict_core = [];
    terminate = None;
    tracer = None;
    lim_conflicts = -1;
    lim_propagations = -1;
    lim_deadline = 0.0;
    lim_clock_poll = 0;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt_total = 0;
    n_deleted = 0;
  }

let nvars t = t.nvars

let grow_array a n default =
  let old = Array.length a in
  if n <= old then a
  else begin
    let bigger = Array.make (max n (max 16 (2 * old))) default in
    Array.blit a 0 bigger 0 old;
    bigger
  end

(* ---- value of literals ---- *)

let value_in assigns l =
  (* 1 true, -1 false, 0 undef *)
  let a = assigns.(l lsr 1) in
  if l land 1 = 0 then a else -a

let lit_value t l = value_in t.assigns l

(* ---- VSIDS heap (max-heap on activity) ---- *)

let heap_lt t a b = t.activity.(a) > t.activity.(b)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(b) <- i;
  t.heap_pos.(a) <- j

let rec heap_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt t t.heap.(i) t.heap.(parent) then begin
      heap_swap t i parent;
      heap_up t parent
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_len && heap_lt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_len && heap_lt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap <- grow_array t.heap (t.heap_len + 1) 0;
    t.heap.(t.heap_len) <- v;
    t.heap_pos.(v) <- t.heap_len;
    t.heap_len <- t.heap_len + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap.(0) <- t.heap.(t.heap_len);
  t.heap_pos.(t.heap.(0)) <- 0;
  t.heap_pos.(v) <- -1;
  if t.heap_len > 0 then heap_down t 0;
  v

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  t.assigns <- grow_array t.assigns t.nvars 0;
  t.level <- grow_array t.level t.nvars 0;
  t.reason <- grow_array t.reason t.nvars (-1);
  t.activity <- grow_array t.activity t.nvars 0.0;
  t.polarity <- grow_array t.polarity t.nvars false;
  t.seen <- grow_array t.seen t.nvars false;
  t.heap_pos <- grow_array t.heap_pos t.nvars (-1);
  t.trail <- grow_array t.trail t.nvars 0;
  if Array.length t.watches < 2 * t.nvars then begin
    let old = Array.length t.watches in
    let bigger =
      Array.init (max (2 * t.nvars) (2 * old)) (fun i ->
          if i < old then t.watches.(i) else Ivec.create ())
    in
    t.watches <- bigger
  end;
  t.assigns.(v) <- 0;
  t.level.(v) <- 0;
  t.reason.(v) <- -1;
  t.activity.(v) <- 0.0;
  t.polarity.(v) <- t.opts.init_polarity;
  t.seen.(v) <- false;
  t.heap_pos.(v) <- -1;
  heap_insert t v;
  v

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let var_decay t = t.var_inc <- t.var_inc /. t.opts.var_decay

(* ---- clause arena ---- *)

let is_learnt t c = t.arena.(c + 1) land f_learnt <> 0
let is_removed t c = t.arena.(c + 1) land f_removed <> 0
let clause_lbd t c = t.arena.(c + 1) lsr 2
let clause_activity t c = t.cact.(t.arena.(c + 2))

let clause_lits t c = Array.sub t.arena (c + hdr) t.arena.(c)

let alloc_clause t lits ~learnt ~lbd =
  let n = Array.length lits in
  let c = t.arena_len in
  t.arena <- grow_array t.arena (c + hdr + n) 0;
  let slot =
    if learnt then begin
      t.cact <- grow_array t.cact (t.nslots + 1) 0.0;
      t.cact.(t.nslots) <- 0.0;
      t.nslots <- t.nslots + 1;
      t.nslots - 1
    end
    else 0
  in
  t.arena.(c) <- n;
  t.arena.(c + 1) <- (if learnt then f_learnt else 0) lor (lbd lsl 2);
  t.arena.(c + 2) <- slot;
  Array.blit lits 0 t.arena (c + hdr) n;
  t.arena_len <- c + hdr + n;
  c

let clause_bump t c =
  let s = t.arena.(c + 2) in
  t.cact.(s) <- t.cact.(s) +. t.clause_inc;
  if t.cact.(s) > 1e20 then begin
    (* slots of removed clauses are rescaled too; nothing reads them *)
    for i = 0 to t.nslots - 1 do
      t.cact.(i) <- t.cact.(i) *. 1e-20
    done;
    t.clause_inc <- t.clause_inc *. 1e-20
  end

let clause_decay t = t.clause_inc <- t.clause_inc /. t.opts.clause_decay

(* ---- trail ---- *)

let decision_level t = t.trail_lim_len

let enqueue t l reason =
  let v = l lsr 1 in
  t.assigns.(v) <- (if l land 1 = 0 then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail <- grow_array t.trail (t.trail_len + 1) 0;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let new_decision_level t =
  t.trail_lim <- grow_array t.trail_lim (t.trail_lim_len + 1) 0;
  (* levels are not bounded by [nvars]: an assumption that is already
     true opens an empty level *)
  t.level_stamp <- grow_array t.level_stamp (t.trail_lim_len + 2) 0;
  t.trail_lim.(t.trail_lim_len) <- t.trail_len;
  t.trail_lim_len <- t.trail_lim_len + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_len - 1 downto bound do
      let l = t.trail.(i) in
      let v = l lsr 1 in
      if t.opts.use_phase_saving then t.polarity.(v) <- l land 1 = 0;
      t.assigns.(v) <- 0;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_len <- bound;
    t.qhead <- bound;
    t.trail_lim_len <- lvl
  end

(* ---- watches ---- *)

let attach t c =
  Ivec.push t.watches.(t.arena.(c + hdr) lxor 1) c;
  Ivec.push t.watches.(t.arena.(c + hdr + 1) lxor 1) c

let detach t c =
  Ivec.remove t.watches.(t.arena.(c + hdr) lxor 1) c;
  Ivec.remove t.watches.(t.arena.(c + hdr + 1) lxor 1) c

(* ---- propagation ---- *)

exception Conflict of int

(* Returns the conflicting clause, or -1. No clause is allocated while
   propagating, so the arena can be hoisted. *)
let propagate t =
  let arena = t.arena and assigns = t.assigns in
  try
    while t.qhead < t.trail_len do
      let p = t.trail.(t.qhead) in
      t.qhead <- t.qhead + 1;
      t.n_propagations <- t.n_propagations + 1;
      let false_lit = p lxor 1 in
      let ws = t.watches.(p) in
      let i = ref 0 in
      while !i < ws.Ivec.len do
        let c = ws.Ivec.data.(!i) in
        let l0 = c + hdr in
        (* Ensure the false literal is at position 1. *)
        if arena.(l0) = false_lit then begin
          arena.(l0) <- arena.(l0 + 1);
          arena.(l0 + 1) <- false_lit
        end;
        let first = arena.(l0) in
        if value_in assigns first = 1 then incr i (* satisfied *)
        else begin
          (* Find a new literal to watch. *)
          let stop = l0 + arena.(c) in
          let k = ref (l0 + 2) in
          while !k < stop && value_in assigns arena.(!k) = -1 do
            incr k
          done;
          if !k < stop then begin
            let nl = arena.(!k) in
            arena.(l0 + 1) <- nl;
            arena.(!k) <- false_lit;
            Ivec.push t.watches.(nl lxor 1) c;
            ws.Ivec.data.(!i) <- ws.Ivec.data.(ws.Ivec.len - 1);
            ws.Ivec.len <- ws.Ivec.len - 1
          end
          else if value_in assigns first = -1 then begin
            (* conflict *)
            t.qhead <- t.trail_len;
            raise_notrace (Conflict c)
          end
          else begin
            (* unit *)
            enqueue t first c;
            incr i
          end
        end
      done
    done;
    -1
  with Conflict c -> c

(* ---- proof tracing ---- *)

(* The callbacks receive fresh arrays: clause literals are mutated
   later by watch reordering, so aliasing would corrupt the certificate. *)
let trace_add t lits =
  match t.tracer with
  | None -> ()
  | Some tr -> tr.trace_add (Array.map Lit.of_int lits)

let trace_delete t c =
  match t.tracer with
  | None -> ()
  | Some tr -> tr.trace_delete (Array.map Lit.of_int (clause_lits t c))

let trace_barrier t =
  match t.tracer with None -> () | Some tr -> tr.trace_barrier ()

let set_tracer t tr = t.tracer <- tr

(* ---- clause addition ---- *)

let add_clause t lits =
  if t.ok then begin
    t.last_result <- RNone;
    if decision_level t > 0 then cancel_until t 0;
    (* normalise: dedupe, drop false-at-0, detect tautology / sat-at-0 *)
    let lits = List.sort_uniq Stdlib.compare (List.map Lit.to_int lits) in
    let n_orig = List.length lits in
    let tauto =
      let rec chk = function
        | a :: (b :: _ as rest) -> if a lxor 1 = b then true else chk rest
        | _ -> false
      in
      chk lits
    in
    if not tauto then begin
      let lits = List.filter (fun l -> lit_value t l <> -1) lits in
      let sat0 = List.exists (fun l -> lit_value t l = 1) lits in
      if not sat0 then
        (* the stored clause may be a strict strengthening of the input
           (false-at-0 literals dropped); trace it so a proof checker's
           clause database mirrors ours.  The strengthened clause is RUP
           w.r.t. the input clause plus the root-level units. *)
        let simplified = List.length lits < n_orig in
        match lits with
        | [] ->
            trace_add t [||];
            t.ok <- false
        | [ l ] ->
            if simplified then trace_add t [| l |];
            enqueue t l (-1);
            if propagate t >= 0 then begin
              trace_add t [||];
              t.ok <- false
            end
        | _ ->
            let lits = Array.of_list lits in
            if simplified then trace_add t lits;
            let c = alloc_clause t lits ~learnt:false ~lbd:0 in
            Ivec.push t.clauses c;
            attach t c
    end
  end

(* ---- conflict analysis ---- *)

let compute_lbd t lits =
  (* distinct decision levels, counted with a per-call stamp *)
  t.lbd_epoch <- t.lbd_epoch + 1;
  let epoch = t.lbd_epoch and n = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let lv = t.level.(lits.(i) lsr 1) in
    if t.level_stamp.(lv) <> epoch then begin
      t.level_stamp.(lv) <- epoch;
      incr n
    end
  done;
  !n

(* Is l redundant w.r.t. the current learnt clause (all its reason
   antecedents eventually hit seen literals)? On failure, the marks
   added during this check are undone to keep later checks sound. *)
let lit_redundant t l abstract_levels to_clear =
  let arena = t.arena in
  let stack = ref [ l ] in
  let local_marks = ref [] in
  let ok = ref true in
  (try
     while !stack <> [] do
       let p =
         match !stack with x :: rest -> stack := rest; x | [] -> assert false
       in
       let c = t.reason.(p lsr 1) in
       if c < 0 then begin
         ok := false;
         raise Exit
       end;
       for k = c + hdr to c + hdr + arena.(c) - 1 do
         let q = arena.(k) in
         let v = q lsr 1 in
         if (not t.seen.(v)) && t.level.(v) > 0 then begin
           if
             t.reason.(v) >= 0
             && abstract_levels land (1 lsl (t.level.(v) land 31)) <> 0
           then begin
             t.seen.(v) <- true;
             local_marks := v :: !local_marks;
             stack := q :: !stack
           end
           else begin
             ok := false;
             raise Exit
           end
         end
       done
     done
   with Exit -> ());
  if !ok then to_clear := !local_marks @ !to_clear
  else List.iter (fun v -> t.seen.(v) <- false) !local_marks;
  !ok

let analyze t confl =
  (* returns (learnt lits array with UIP first, backtrack level, lbd) *)
  let arena = t.arena in
  let learnt = ref [] in
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_len - 1) in
  let confl = ref confl in
  let to_clear = ref [] in
  let continue_loop = ref true in
  while !continue_loop do
    let c = !confl in
    assert (c >= 0);
    if is_learnt t c then clause_bump t c;
    for k = c + hdr to c + hdr + arena.(c) - 1 do
      let q = arena.(k) in
      if q <> !p then begin
        let v = q lsr 1 in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          var_bump t v;
          t.seen.(v) <- true;
          to_clear := v :: !to_clear;
          if t.level.(v) >= decision_level t then incr path_c
          else learnt := q :: !learnt
        end
      end
    done;
    (* next literal to expand *)
    while not t.seen.(t.trail.(!index) lsr 1) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    let v = !p lsr 1 in
    t.seen.(v) <- false;
    confl := t.reason.(v);
    decr path_c;
    if !path_c <= 0 then continue_loop := false
  done;
  let uip = !p lxor 1 in
  (* minimisation *)
  let tail =
    if t.opts.use_minimization then begin
      let abstract_levels =
        List.fold_left
          (fun acc q -> acc lor (1 lsl (t.level.(q lsr 1) land 31)))
          0 !learnt
      in
      List.filter
        (fun q ->
          t.reason.(q lsr 1) < 0
          || not (lit_redundant t q abstract_levels to_clear))
        !learnt
    end
    else !learnt
  in
  List.iter (fun v -> t.seen.(v) <- false) !to_clear;
  let lits = Array.of_list (uip :: tail) in
  (* backtrack level: highest level among tail; move that literal to
     position 1 so it is watched. *)
  let bt =
    if Array.length lits = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if t.level.(lits.(i) lsr 1) > t.level.(lits.(!max_i) lsr 1) then
          max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      t.level.(lits.(1) lsr 1)
    end
  in
  (lits, bt, compute_lbd t lits)

(* Final conflict analysis: [failed] is an assumption literal found
   false. Returns the subset of assumption literals responsible (the
   decisions reachable in the reason graph from [failed]), including
   [failed] itself. Marks go in [t.seen], which is all false between
   analyses. *)
let analyze_final t failed =
  let core = ref [ failed ] in
  if decision_level t > 0 then begin
    let arena = t.arena and seen = t.seen in
    seen.(failed lsr 1) <- true;
    for i = t.trail_len - 1 downto t.trail_lim.(0) do
      let q = t.trail.(i) in
      let v = q lsr 1 in
      if seen.(v) then begin
        let c = t.reason.(v) in
        if c < 0 then begin
          (* a decision at level >= 1 under assumptions is an
             assumption; it was enqueued with its own polarity *)
          if t.level.(v) > 0 && q <> failed then core := q :: !core
        end
        else
          for k = c + hdr to c + hdr + arena.(c) - 1 do
            let r = arena.(k) in
            if r <> q then seen.(r lsr 1) <- true
          done;
        seen.(v) <- false
      end
    done;
    (* every mark is on an assigned variable; those below the first
       decision were not visited above *)
    for i = 0 to t.trail_lim.(0) - 1 do
      seen.(t.trail.(i) lsr 1) <- false
    done
  end;
  !core

(* ---- learnt DB reduction ---- *)

let m_compactions = Obs.Metrics.counter "sat.compactions"

(* Relocate the live clauses to the front of the arena; see the
   compaction invariant at the top. *)
let compact t =
  let a = t.arena in
  (* pass 1: forwarding offsets into the old slot words, activities to
     dense slots (slots rise with offsets, so this moves them down) *)
  let o = ref 0 and dst = ref 0 and slot = ref 0 in
  while !o < t.arena_len do
    let size = a.(!o) and flags = a.(!o + 1) in
    if flags land f_removed = 0 then begin
      if flags land f_learnt <> 0 then begin
        t.cact.(!slot) <- t.cact.(a.(!o + 2));
        incr slot
      end;
      a.(!o + 2) <- !dst;
      dst := !dst + hdr + size
    end;
    o := !o + hdr + size
  done;
  (* pass 2: remap every reference in place *)
  let remap (v : Ivec.t) =
    for i = 0 to v.len - 1 do
      v.data.(i) <- a.(v.data.(i) + 2)
    done
  in
  Array.iter remap t.watches;
  remap t.clauses;
  remap t.learnts;
  for v = 0 to t.nvars - 1 do
    let r = t.reason.(v) in
    if r >= 0 then t.reason.(v) <- a.(r + 2)
  done;
  (* pass 3: slide down; a clause's copy ends at or before the next
     clause's old header, so no unread header is overwritten *)
  let o = ref 0 and slot = ref 0 in
  while !o < t.arena_len do
    let size = a.(!o) and flags = a.(!o + 1) in
    if flags land f_removed = 0 then begin
      let d = a.(!o + 2) in
      Array.blit a !o a d (hdr + size);
      a.(d + 2) <-
        (if flags land f_learnt <> 0 then begin
           incr slot;
           !slot - 1
         end
         else 0)
    end;
    o := !o + hdr + size
  done;
  t.arena_len <- !dst;
  t.arena_wasted <- 0;
  t.nslots <- !slot;
  Obs.Metrics.incr m_compactions

let locked t c =
  let l = t.arena.(c + hdr) in
  lit_value t l = 1 && t.reason.(l lsr 1) = c

let reduce_db t =
  let cmp a b =
    (* worse first: higher lbd, then lower activity *)
    let la = clause_lbd t a and lb = clause_lbd t b in
    if la <> lb then Stdlib.compare lb la
    else Stdlib.compare (clause_activity t a) (clause_activity t b)
  in
  (* sorted newest first: the sort is unstable, its input order counts *)
  let learnts = t.learnts in
  let n = learnts.len in
  let arr = Array.init n (fun i -> learnts.data.(n - 1 - i)) in
  Array.sort cmp arr;
  let removed = ref 0 in
  Array.iteri
    (fun i c ->
      if i < n / 2 && clause_lbd t c > 2 && not (locked t c) then begin
        trace_delete t c;
        t.arena.(c + 1) <- t.arena.(c + 1) lor f_removed;
        t.arena_wasted <- t.arena_wasted + hdr + t.arena.(c);
        detach t c;
        incr removed
      end)
    arr;
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = learnts.data.(i) in
    if not (is_removed t c) then begin
      learnts.data.(!kept) <- c;
      incr kept
    end
  done;
  learnts.len <- !kept;
  t.n_deleted <- t.n_deleted + !removed;
  if 5 * t.arena_wasted > t.arena_len then compact t

(* ---- decisions ---- *)

let pick_branch_var t =
  if t.opts.use_vsids then begin
    let v = ref (-1) in
    while !v < 0 && t.heap_len > 0 do
      let cand = heap_pop t in
      if t.assigns.(cand) = 0 then v := cand
    done;
    !v
  end
  else begin
    let rec find i =
      if i >= t.nvars then -1 else if t.assigns.(i) = 0 then i else find (i + 1)
    in
    find 0
  end

let luby y x =
  (* MiniSat's Luby sequence: find the finite subsequence containing
     index x, then the position within it. *)
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

(* ---- main search ---- *)

type result = Sat | Unsat

exception Found_unsat
exception Interrupted
exception Budget_exhausted of string

let check_terminate t =
  (match t.terminate with
  | Some f -> if f () then raise Interrupted
  | None -> ());
  if t.lim_conflicts >= 0 && t.n_conflicts >= t.lim_conflicts then
    raise (Budget_exhausted "conflict budget exhausted");
  if t.lim_propagations >= 0 && t.n_propagations >= t.lim_propagations then
    raise (Budget_exhausted "propagation budget exhausted");
  if t.lim_deadline > 0.0 then begin
    (* the clock is orders of magnitude dearer than a counter compare:
       read it once every 256 search steps *)
    t.lim_clock_poll <- t.lim_clock_poll - 1;
    if t.lim_clock_poll <= 0 then begin
      t.lim_clock_poll <- 256;
      if Unix.gettimeofday () > t.lim_deadline then
        raise (Budget_exhausted "time budget exhausted")
    end
  end

let search t ~assumptions ~conflict_budget =
  (* returns Some result, or None if budget exhausted (restart) *)
  let max_learnts =
    max 1000
      (int_of_float
         (t.opts.max_learnts_factor *. float_of_int t.clauses.Ivec.len))
  in
  let conflicts_here = ref 0 in
  let result = ref None in
  (try
     while !result = None do
       check_terminate t;
       let confl = propagate t in
       if confl >= 0 then begin
         t.n_conflicts <- t.n_conflicts + 1;
         incr conflicts_here;
         if decision_level t = 0 then begin
           trace_add t [||];
           t.ok <- false;
           t.conflict_core <- [];
           result := Some Unsat
         end
         else begin
           let lits, bt, lbd = analyze t confl in
           trace_add t lits;
           cancel_until t bt;
           (if Array.length lits = 1 then enqueue t lits.(0) (-1)
            else begin
              let c = alloc_clause t lits ~learnt:true ~lbd in
              Ivec.push t.learnts c;
              t.n_learnt_total <- t.n_learnt_total + 1;
              clause_bump t c;
              attach t c;
              enqueue t lits.(0) c
            end);
           var_decay t;
           clause_decay t
         end
       end
       else if
         t.opts.use_restarts
         && conflict_budget >= 0
         && !conflicts_here >= conflict_budget
       then begin
         (* restart *)
         cancel_until t 0;
         t.n_restarts <- t.n_restarts + 1;
         trace_barrier t;
         raise Exit
       end
       else begin
         if t.learnts.Ivec.len >= max_learnts then begin
           reduce_db t;
           trace_barrier t
         end;
         (* assumption handling / decision *)
         let next = ref (-2) in
         while !next = -2 do
           if decision_level t < Array.length assumptions then begin
             let p = assumptions.(decision_level t) in
             let pv = lit_value t p in
             if pv = 1 then new_decision_level t (* already satisfied *)
             else if pv = -1 then begin
               t.conflict_core <- analyze_final t p;
               result := Some Unsat;
               raise Found_unsat
             end
             else next := p
           end
           else begin
             let v = pick_branch_var t in
             if v < 0 then begin
               result := Some Sat;
               raise Found_unsat (* exit loops; result already set *)
             end
             else next := (2 * v) + if t.polarity.(v) then 0 else 1
           end
         done;
         t.n_decisions <- t.n_decisions + 1;
         new_decision_level t;
         enqueue t !next (-1)
       end
     done;
     !result
   with
  | Exit -> None
  | Found_unsat -> !result)

type outcome = Solved of result | Unknown of string

let clear_limits t =
  t.lim_conflicts <- -1;
  t.lim_propagations <- -1;
  t.lim_deadline <- 0.0

let set_limits t budget =
  t.lim_conflicts <-
    (if budget.max_conflicts < 0 then -1
     else t.n_conflicts + budget.max_conflicts);
  t.lim_propagations <-
    (if budget.max_propagations < 0 then -1
     else t.n_propagations + budget.max_propagations);
  t.lim_deadline <-
    (if budget.max_seconds <= 0.0 then 0.0
     else Unix.gettimeofday () +. budget.max_seconds);
  t.lim_clock_poll <- 0

let solve_bounded_core ?(assumptions = []) ?(budget = no_budget) t =
  if not t.ok then begin
    t.last_result <- RUnsat;
    t.conflict_core <- [];
    Solved Unsat
  end
  else begin
    cancel_until t 0;
    t.conflict_core <- [];
    set_limits t budget;
    let assumptions = Array.of_list (List.map Lit.to_int assumptions) in
    let rec loop restarts =
      let budget =
        if t.opts.use_restarts then
          int_of_float (luby 2.0 restarts *. float_of_int t.opts.restart_base)
        else -1
      in
      match search t ~assumptions ~conflict_budget:budget with
      | Some r -> r
      | None -> loop (restarts + 1)
    in
    match loop 0 with
    | r ->
        clear_limits t;
        (match r with
        | Sat ->
            t.model <- Array.sub t.assigns 0 t.nvars;
            t.last_result <- RSat
        | Unsat -> t.last_result <- RUnsat);
        cancel_until t 0;
        Solved r
    | exception Interrupted ->
        (* leave the solver reusable: unwind to level 0 *)
        clear_limits t;
        cancel_until t 0;
        t.last_result <- RNone;
        raise Interrupted
    | exception Budget_exhausted reason ->
        (* same unwinding discipline as Interrupted, but the exhaustion
           is a result, not a control transfer: the caller keeps racing
           siblings or escalates the budget on the same solver *)
        clear_limits t;
        cancel_until t 0;
        t.last_result <- RNone;
        Unknown reason
  end

(* Observability handles, hoisted so the per-solve cost is a handful
   of atomic adds (plus one span line when tracing is on). *)
let m_solves = Obs.Metrics.counter "sat.solves"
let m_budget_exhausted = Obs.Metrics.counter "sat.budget_exhausted"
let m_conflicts = Obs.Metrics.counter "sat.conflicts"
let m_propagations = Obs.Metrics.counter "sat.propagations"
let m_restarts = Obs.Metrics.counter "sat.restarts"
let h_solve_seconds = Obs.Metrics.histogram "sat.solve_seconds"
let h_ppc = Obs.Metrics.histogram "sat.propagations_per_conflict"

let solve_bounded ?(assumptions = []) ?(budget = no_budget) t =
  Obs.Metrics.incr m_solves;
  let c0 = t.n_conflicts
  and p0 = t.n_propagations
  and r0 = t.n_restarts in
  let t0 = Unix.gettimeofday () in
  let finish verdict =
    let dc = t.n_conflicts - c0 and dp = t.n_propagations - p0 in
    Obs.Metrics.add m_conflicts dc;
    Obs.Metrics.add m_propagations dp;
    Obs.Metrics.add m_restarts (t.n_restarts - r0);
    Obs.Metrics.observe h_solve_seconds (Unix.gettimeofday () -. t0);
    if dc > 0 then
      Obs.Metrics.observe h_ppc (float_of_int dp /. float_of_int dc);
    (match verdict with
    | Some (Unknown _) -> Obs.Metrics.incr m_budget_exhausted
    | _ -> ());
    if Obs.Trace.enabled () then
      Obs.Trace.emit_span "sat.solve" ~t0 ~t1:(Unix.gettimeofday ())
        ~attrs:
          [
            ( "result",
              Obs.Trace.Str
                (match verdict with
                | Some (Solved Sat) -> "sat"
                | Some (Solved Unsat) -> "unsat"
                | Some (Unknown _) -> "unknown"
                | None -> "interrupted") );
            ("conflicts", Obs.Trace.Int dc);
            ("propagations", Obs.Trace.Int dp);
          ]
  in
  match solve_bounded_core ~assumptions ~budget t with
  | r ->
      finish (Some r);
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish None;
      Printexc.raise_with_backtrace e bt

let solve ?(assumptions = []) t =
  match solve_bounded ~assumptions t with
  | Solved r -> r
  | Unknown _ -> assert false (* no budget was set *)

let set_terminate t f = t.terminate <- f

let export t =
  (* Snapshot the problem: all original clauses plus the level-0 trail
     (root-level units and their propagation consequences) as unit
     clauses. Learnt clauses are implied and intentionally left out, so
     a portfolio racer starts from the same logical problem with its
     own search dynamics. *)
  if decision_level t > 0 then cancel_until t 0;
  let units =
    List.init t.trail_len (fun i -> [ Lit.of_int t.trail.(i) ])
  in
  let clauses =
    if not t.ok then [ [] ]
    else begin
      let acc = ref [] in
      for i = t.clauses.Ivec.len - 1 downto 0 do
        let c = t.clauses.Ivec.data.(i) in
        acc := Array.to_list (Array.map Lit.of_int (clause_lits t c)) :: !acc
      done;
      !acc
    end
  in
  (t.nvars, units @ clauses)

let nclauses t =
  (* same view of the problem as [export]: original clauses plus the
     root-level trail as units, learnt clauses excluded *)
  if decision_level t > 0 then cancel_until t 0;
  t.clauses.Ivec.len + t.trail_len

let value t l =
  if t.last_result <> RSat then invalid_arg "Solver.value: last result not Sat";
  let v = Lit.var l in
  if v >= Array.length t.model then invalid_arg "Solver.value: unknown var";
  let a = t.model.(v) in
  (* unassigned vars (eliminated by simplification) default to false *)
  if Lit.sign l then a = 1 else a <> 1

let value_var t v = value t (Lit.pos v)

let unsat_assumptions t =
  if t.last_result <> RUnsat then
    invalid_arg "Solver.unsat_assumptions: last result not Unsat";
  List.map Lit.of_int t.conflict_core

let stats t =
  {
    conflicts = t.n_conflicts;
    decisions = t.n_decisions;
    propagations = t.n_propagations;
    restarts = t.n_restarts;
    learnt_clauses = t.n_learnt_total;
    deleted_clauses = t.n_deleted;
  }

let diff_stats a b =
  {
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    restarts = a.restarts - b.restarts;
    learnt_clauses = a.learnt_clauses - b.learnt_clauses;
    deleted_clauses = a.deleted_clauses - b.deleted_clauses;
  }

let add_stats a b =
  {
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    learnt_clauses = a.learnt_clauses + b.learnt_clauses;
    deleted_clauses = a.deleted_clauses + b.deleted_clauses;
  }

let zero_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_clauses = 0;
    deleted_clauses = 0;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "conflicts=%d decisions=%d propagations=%d restarts=%d learnt=%d deleted=%d"
    s.conflicts s.decisions s.propagations s.restarts s.learnt_clauses
    s.deleted_clauses
