(* Sattolo's shuffle of 2^15 slots (256 KB): one cycle through every
   slot, so a chase visits them all in an order the prefetcher cannot
   follow. *)
let perm =
  let n = 1 lsl 15 in
  let a = Array.init n Fun.id in
  let s = ref 12345 in
  for i = n - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !s mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let chase_steps = 20_000
let alu_steps = 100_000
let chase_nominal = 4.0e-4
let alu_nominal = 2.5e-4
let chase_weight = 0.3
let alu_weight = 1.0
let period = 0.05

(* Both probes are inlined, so that the timer handler gets their times
   unboxed and allocates nothing. *)
let[@inline] chase () =
  let t0 = Unix.gettimeofday () in
  let p = ref 0 in
  for _ = 1 to chase_steps do
    p := perm.(!p)
  done;
  ignore (Sys.opaque_identity !p);
  Unix.gettimeofday () -. t0

(* Four independent multiply chains, so the loop is bound by the core's
   arithmetic throughput. *)
let[@inline] alu () =
  let t0 = Unix.gettimeofday () in
  let x1 = ref 1 and x2 = ref 2 and x3 = ref 3 and x4 = ref 4 in
  for i = 1 to alu_steps do
    x1 := (!x1 * 0x9E3779B1) + i;
    x2 := (!x2 * 0x7FEB352D) lxor i;
    x3 := (!x3 * 0x846CA68B) + (i lsl 1);
    x4 := (!x4 * 0x2C1B3C6D) lxor (i lsr 1)
  done;
  ignore (Sys.opaque_identity (!x1 + !x2 + !x3 + !x4));
  Unix.gettimeofday () -. t0

(* Times of the probes taken by the timer, in float arrays written in
   place so that the signal handler allocates nothing; [taken] counts
   them. Work longer than the buffers hold keeps the last [capacity]
   probes. *)
let capacity = 1 lsl 14
let chase_times = Array.make capacity 0.
let alu_times = Array.make capacity 0.
let taken = ref 0

let timer_probe _ =
  let i = !taken land (capacity - 1) in
  chase_times.(i) <- chase ();
  alu_times.(i) <- alu ();
  incr taken

let with_timer f =
  let tick = { Unix.it_interval = period; it_value = period } in
  let off = { Unix.it_interval = 0.; it_value = 0. } in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle timer_probe);
  ignore (Unix.setitimer Unix.ITIMER_REAL tick);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL off);
      Sys.set_signal Sys.sigalrm Sys.Signal_default)
    f

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type 'a calibrated = {
  result : 'a;
  seconds : float;
  factor : float;
  chase_s : float;
  alu_s : float;
}

let calibrated ~timer f =
  taken := 0;
  let t0 = Unix.gettimeofday () in
  let result = if timer then with_timer f else f () in
  let t = Unix.gettimeofday () -. t0 in
  let n = min !taken capacity in
  let inside = ref 0. in
  for i = 0 to n - 1 do
    inside := !inside +. chase_times.(i) +. alu_times.(i)
  done;
  let chase_s = median (Array.append [| chase () |] (Array.sub chase_times 0 n)) in
  let alu_s = median (Array.append [| alu () |] (Array.sub alu_times 0 n)) in
  {
    result;
    seconds = t -. !inside;
    factor =
      ((chase_nominal /. chase_s) ** chase_weight) *. ((alu_nominal /. alu_s) ** alu_weight);
    chase_s;
    alu_s;
  }
