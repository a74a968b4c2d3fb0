(* The host speed probe: [calibrated] returns the work's result, takes
   the timer probes' time out of the work's wall time, and leaves
   SIGALRM as it found it, also when the work raises. *)

let check what ok =
  if not ok then begin
    prerr_endline ("FAIL " ^ what);
    exit 1
  end

(* Spins for [seconds] of wall time, so the timer probes fall inside. *)
let spin seconds =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    incr n
  done;
  !n

let default_restored () = Sys.signal Sys.sigalrm Sys.Signal_default = Sys.Signal_default

let () =
  let c = Probe.calibrated ~timer:true (fun () -> spin 0.35) in
  check "result" (c.Probe.result > 0);
  check "timer probes taken out of the wall time" (c.seconds > 0.3 && c.seconds < 0.35);
  check "factor" (c.factor > 0. && Float.is_finite c.factor);
  check "probe times" (c.chase_s > 0. && c.alu_s > 0.);
  check "SIGALRM restored" (default_restored ());
  (match Probe.calibrated ~timer:true (fun () -> ignore (spin 0.15); failwith "boom") with
  | _ -> check "exception propagates" false
  | exception Failure m -> check "exception propagates" (m = "boom"));
  check "SIGALRM restored after an exception" (default_restored ());
  let c = Probe.calibrated ~timer:false (fun () -> ignore (spin 0.05)) in
  check "untimed work keeps its wall time" (c.seconds >= 0.05);
  print_endline "probe: ok"
