(* Tests for the cycle-accurate simulator. *)

open Rtl

let bv w v = Bitvec.of_int ~width:w v

let build_counter () =
  let open Netlist.Builder in
  let b = create "counter" in
  let enable = input b "enable" 1 in
  let count = reg b "count" 8 in
  set_next b count (Expr.mux enable Expr.(count +: one 8) count);
  output b "next_is_five" Expr.(count +: one 8 ==: of_int ~width:8 5);
  finalize b

let test_counter_steps () =
  let eng = Sim.Engine.create (build_counter ()) in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 5;
  Alcotest.(check int) "count = 5" 5
    (Bitvec.to_int (Sim.Engine.reg_value eng "count"));
  Sim.Engine.set_input_int eng "enable" 0;
  Sim.Engine.run eng 3;
  Alcotest.(check int) "still 5" 5
    (Bitvec.to_int (Sim.Engine.reg_value eng "count"));
  Alcotest.(check int) "cycles" 8 (Sim.Engine.cycle eng)

let test_peek_output () =
  let eng = Sim.Engine.create (build_counter ()) in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 4;
  Alcotest.(check int) "combinational output" 1
    (Bitvec.to_int (Sim.Engine.peek_output eng "next_is_five"))

let test_reset_values () =
  let open Netlist.Builder in
  let b = create "resettest" in
  let r = reg b ~init:(bv 8 42) "r" 8 in
  ignore r;
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Alcotest.(check int) "init value" 42
    (Bitvec.to_int (Sim.Engine.reg_value eng "r"));
  Sim.Engine.step eng;
  Alcotest.(check int) "held" 42 (Bitvec.to_int (Sim.Engine.reg_value eng "r"))

let build_memory_device () =
  let open Netlist.Builder in
  let b = create "mem" in
  let wen = input b "wen" 1 in
  let waddr = input b "waddr" 3 in
  let wdata = input b "wdata" 8 in
  let raddr = input b "raddr" 3 in
  let m = mem b "m" ~addr_width:3 ~data_width:8 ~depth:8 in
  write_port b m ~enable:wen ~addr:waddr ~data:wdata;
  output b "rdata" (Expr.memread m raddr);
  finalize b

let test_memory_write_read () =
  let eng = Sim.Engine.create (build_memory_device ()) in
  Sim.Engine.set_input_int eng "wen" 1;
  Sim.Engine.set_input_int eng "waddr" 3;
  Sim.Engine.set_input_int eng "wdata" 0xab;
  Sim.Engine.step eng;
  Sim.Engine.set_input_int eng "wen" 0;
  Sim.Engine.set_input_int eng "raddr" 3;
  Alcotest.(check int) "read back" 0xab
    (Bitvec.to_int (Sim.Engine.peek_output eng "rdata"));
  Alcotest.(check int) "mem_value" 0xab
    (Bitvec.to_int (Sim.Engine.mem_value eng "m" 3));
  Sim.Engine.set_input_int eng "raddr" 2;
  Alcotest.(check int) "other cell zero" 0
    (Bitvec.to_int (Sim.Engine.peek_output eng "rdata"))

let test_memory_port_priority () =
  let open Netlist.Builder in
  let b = create "prio" in
  let m = mem b "m" ~addr_width:2 ~data_width:8 ~depth:4 in
  (* two always-on ports to the same address; first must win *)
  write_port b m ~enable:Expr.vdd ~addr:(Expr.zero 2)
    ~data:(Expr.of_int ~width:8 1);
  write_port b m ~enable:Expr.vdd ~addr:(Expr.zero 2)
    ~data:(Expr.of_int ~width:8 2);
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Sim.Engine.step eng;
  Alcotest.(check int) "first port wins" 1
    (Bitvec.to_int (Sim.Engine.mem_value eng "m" 0))

let test_two_phase_semantics () =
  (* A swap register pair must exchange values atomically. *)
  let open Netlist.Builder in
  let b = create "swap" in
  let x = reg b ~init:(bv 8 1) "x" 8 in
  let y = reg b ~init:(bv 8 2) "y" 8 in
  set_next b x y;
  set_next b y x;
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Sim.Engine.step eng;
  Alcotest.(check int) "x got y" 2 (Bitvec.to_int (Sim.Engine.reg_value eng "x"));
  Alcotest.(check int) "y got x" 1 (Bitvec.to_int (Sim.Engine.reg_value eng "y"))

let test_params () =
  let open Netlist.Builder in
  let b = create "ptest" in
  let base = param b "base" 8 in
  let r = reg b "r" 8 in
  set_next b r Expr.(base +: one 8);
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Sim.Engine.set_param eng "base" (bv 8 9);
  Sim.Engine.step eng;
  Alcotest.(check int) "param used" 10
    (Bitvec.to_int (Sim.Engine.reg_value eng "r"))

let test_poke () =
  let eng = Sim.Engine.create (build_counter ()) in
  Sim.Engine.poke_reg eng "count" (bv 8 100);
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.step eng;
  Alcotest.(check int) "poked then stepped" 101
    (Bitvec.to_int (Sim.Engine.reg_value eng "count"))

let test_poke_mem_width () =
  let eng = Sim.Engine.create (build_memory_device ()) in
  Alcotest.check_raises "narrow word"
    (Invalid_argument "Engine.poke_mem m: width mismatch") (fun () ->
      Sim.Engine.poke_mem eng "m" 0 (bv 4 1));
  Sim.Engine.step eng;
  Alcotest.(check int) "word untouched" 0
    (Bitvec.to_int (Sim.Engine.mem_value eng "m" 0))

let test_trace () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let tr = Sim.Trace.attach eng [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 4;
  Alcotest.(check int) "trace length" 4 (Sim.Trace.length tr);
  Alcotest.(check int) "cycle 0 value" 1
    (Bitvec.to_int (Sim.Trace.get tr "count" 0));
  Alcotest.(check int) "cycle 3 value" 4
    (Bitvec.to_int (Sim.Trace.get tr "count" 3));
  let series = List.map Bitvec.to_int (Sim.Trace.series tr "count") in
  Alcotest.(check (list int)) "series" [ 1; 2; 3; 4 ] series

let test_vcd () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let v =
    Sim.Vcd.attach eng oc [ ("count", Expr.reg rd.Netlist.rd_signal) ]
  in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 3;
  Sim.Vcd.close v;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header present" true (contains contents "$date");
  Alcotest.(check bool) "has var decl" true (contains contents "$var wire 8");
  Alcotest.(check bool) "has timesteps" true (contains contents "#3")

let test_vcd_hierarchical_names () =
  (* hierarchical SoC names must come out as well-formed VCD: sanitised
     identifiers, a memory-cell suffix as the standard bit-select token,
     and a proper $timescale declaration *)
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let sig_ = Expr.reg rd.Netlist.rd_signal in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let v =
    Sim.Vcd.attach eng oc ~module_name:"instance_A"
      [
        ("soc.sram0.mem[3]", sig_);
        ("xbar_pub.pub0.arb.last", sig_);
        ("weird name!@#", sig_);
      ]
  in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 2;
  Sim.Vcd.close v;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "timescale declared" true
    (contains contents "$timescale 1 ns $end");
  Alcotest.(check bool) "scope named" true
    (contains contents "$scope module instance_A $end");
  (* the memory-cell index becomes a separate bit-select token *)
  Alcotest.(check bool) "bit-select token" true
    (contains contents "soc.sram0.mem [3] $end");
  Alcotest.(check bool) "plain hierarchical name kept" true
    (contains contents "xbar_pub.pub0.arb.last $end");
  (* no raw illegal characters survive in any $var line *)
  Alcotest.(check bool) "illegal chars sanitised" false
    (contains contents "weird name!@#");
  Alcotest.(check bool) "sanitised replacement present" true
    (contains contents "weird_name___ $end")

let test_trace_error_semantics () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let tr = Sim.Trace.attach eng [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 2;
  (* unknown names and out-of-range cycles raise the same exception
     with an identifying message — no bare Not_found anywhere *)
  Alcotest.check_raises "get unknown signal"
    (Invalid_argument "Trace.index_of: unknown signal nope") (fun () ->
      ignore (Sim.Trace.get tr "nope" 0));
  Alcotest.check_raises "series unknown signal"
    (Invalid_argument "Trace.index_of: unknown signal nope") (fun () ->
      ignore (Sim.Trace.series tr "nope"));
  Alcotest.check_raises "cycle past the end"
    (Invalid_argument "Trace.get: cycle out of range") (fun () ->
      ignore (Sim.Trace.get tr "count" 2));
  Alcotest.check_raises "negative cycle"
    (Invalid_argument "Trace.get: cycle out of range") (fun () ->
      ignore (Sim.Trace.get tr "count" (-1)));
  (* and the trace keeps recording correctly after the failed lookups *)
  Sim.Engine.run eng 1;
  Alcotest.(check int) "value after errors" 3
    (Bitvec.to_int (Sim.Trace.get tr "count" 2))

let test_trace_accessor_perf () =
  (* O(1) accessors: random access over a long trace must not rescan
     the row list. 2000 cycles x 2000 random gets was minutes with the
     old list representation; generous bound, but quadratic blows it. *)
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let tr = Sim.Trace.attach eng [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 2000;
  let t0 = Unix.gettimeofday () in
  for i = 0 to 1999 do
    let cycle = i * 997 mod 2000 in
    ignore (Sim.Trace.get tr "count" cycle)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "length" 2000 (Sim.Trace.length tr);
  Alcotest.(check bool)
    (Printf.sprintf "2000 random gets fast enough (%.3fs)" dt)
    true (dt < 1.0)

let test_vcd_final_timestep () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let v = Sim.Vcd.attach eng oc [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 3;
  Sim.Vcd.close v;
  Sim.Vcd.close v (* idempotent *);
  let size_at_close = (Unix.stat path).Unix.st_size in
  (* the hook is dead after close: further steps add nothing *)
  Sim.Engine.run eng 5;
  flush oc;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let final_size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "last cycle marker" true (contains contents "#3");
  (* close emits a final timestamp past the last cycle so viewers show
     the last values for a full cycle *)
  Alcotest.(check bool) "final timestamp from close" true
    (contains contents "#4");
  Alcotest.(check int) "no output after close" size_at_close final_size

let test_vcd_wide_dump_perf () =
  (* last-value tracking must not be quadratic in signal count: 400
     signals x 300 cycles was multi-second with the assoc list. *)
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let sig_ = Expr.reg rd.Netlist.rd_signal in
  let signals =
    List.init 400 (fun i -> (Printf.sprintf "sig%d" i, sig_))
  in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let t0 = Unix.gettimeofday () in
  let v = Sim.Vcd.attach eng oc signals in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 300;
  Sim.Vcd.close v;
  let dt = Unix.gettimeofday () -. t0 in
  close_out oc;
  Sys.remove path;
  Alcotest.(check bool)
    (Printf.sprintf "wide dump fast enough (%.3fs)" dt)
    true (dt < 5.0)

(* qcheck: simulator counter matches a functional model *)
let qcheck_counter_model =
  QCheck.Test.make ~count:100 ~name:"counter matches functional model"
    QCheck.(list_of_size Gen.(int_range 1 30) bool)
    (fun enables ->
      let eng = Sim.Engine.create (build_counter ()) in
      let expected = ref 0 in
      List.iter
        (fun en ->
          Sim.Engine.set_input_int eng "enable" (if en then 1 else 0);
          Sim.Engine.step eng;
          if en then expected := (!expected + 1) land 0xff)
        enables;
      Bitvec.to_int (Sim.Engine.reg_value eng "count") = !expected)

(* ---- differential: compiled engine vs a Sim.Eval reference ---- *)

let unops = Expr.[| Not; Neg; Redand; Redor; Redxor |]

let binops =
  Expr.
    [| Add; Sub; Mul; And; Or; Xor; Eq; Ne; Ult; Ule; Slt; Sle; Shl; Lshr; Ashr |]

let gen_width rs =
  if Random.State.int rs 3 = 0 then
    [| 1; 2; 31; 32; 33; 61; 62 |].(Random.State.int rs 7)
  else 1 + Random.State.int rs Bitvec.max_width

(* Biased towards zero, one, all ones, the sign bit and shift amounts
   around the width. *)
let gen_value rs w =
  let mask = (1 lsl w) - 1 in
  let bits () = Random.State.bits rs in
  let any = (bits () lsl 60) lxor (bits () lsl 30) lxor bits () in
  match Random.State.int rs 6 with
  | 0 -> 0
  | 1 -> 1
  | 2 -> mask
  | 3 -> (1 lsl (w - 1)) lor any land mask
  | 4 -> Random.State.int rs (w + 3) land mask
  | _ -> any land mask

let gen_bv rs w = bv w (gen_value rs w)

(* A random netlist covering every operator at widths 1-62, memories
   whose depth is not a power of two (so addresses reach past the end),
   and write ports that can clash in one cycle. Also returns extra
   expressions over the same state that are not netlist nodes. *)
let random_netlist rs =
  let open Netlist.Builder in
  let b = create "diff" in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let signals =
    Array.concat
      [
        Array.init 3 (fun i -> input b (Printf.sprintf "i%d" i) (gen_width rs));
        Array.init 2 (fun i -> param b (Printf.sprintf "p%d" i) (gen_width rs));
        Array.init 4 (fun i ->
            let w = gen_width rs in
            reg b ~init:(gen_bv rs w) (Printf.sprintf "r%d" i) w);
      ]
  in
  let m0 = mem b "m0" ~addr_width:3 ~data_width:(gen_width rs) ~depth:5 in
  let dw1 = gen_width rs in
  let m1 =
    mem b "m1" ~addr_width:4 ~data_width:dw1 ~depth:11
      ~init:(Array.init 11 (fun _ -> gen_bv rs dw1))
  in
  let fit e w =
    let we = Expr.width e in
    if we = w then e
    else if we > w then
      let lo = Random.State.int rs (we - w + 1) in
      Expr.slice e ~hi:(lo + w - 1) ~lo
    else if Random.State.int rs 4 = 0 then Expr.sign_extend e w
    else Expr.zero_extend e w
  in
  let leaf w =
    match Random.State.int rs 6 with
    | 0 -> Expr.of_int ~width:w (gen_value rs w)
    | 1 ->
        let m = if Random.State.bool rs then m0 else m1 in
        fit (Expr.memread m (fit (pick signals) m.Expr.m_addr_width)) w
    | _ -> fit (pick signals) w
  in
  let rec gen w d =
    if d = 0 then leaf w
    else
      let sub w = gen w (d - 1) in
      match Random.State.int rs 6 with
      | 0 -> fit (Expr.unop (pick unops) (sub (gen_width rs))) w
      | 1 | 2 ->
          let wa = if Random.State.bool rs then w else gen_width rs in
          fit (Expr.binop (pick binops) (sub wa) (sub wa)) w
      | 3 -> Expr.mux (sub 1) (sub w) (sub w)
      | 4 when w >= 2 ->
          let hi = 1 + Random.State.int rs (w - 1) in
          Expr.concat (sub hi) (sub (w - hi))
      | _ -> leaf w
  in
  Array.iteri
    (fun i e -> if i >= 5 then set_next b e (gen (Expr.width e) 4))
    signals;
  let port m ~addr =
    let enable = if Random.State.int rs 4 = 0 then Expr.vdd else gen 1 2 in
    write_port b m ~enable ~addr ~data:(gen m.Expr.m_data_width 2)
  in
  let a0 = gen 3 2 in
  port m0 ~addr:a0;
  port m0 ~addr:(if Random.State.bool rs then a0 else gen 3 2);
  port m0 ~addr:(gen 3 1);
  port m1 ~addr:(gen 4 2);
  Array.iteri
    (fun i op ->
      output b (Printf.sprintf "u%d" i) (Expr.unop op (gen (gen_width rs) 2)))
    unops;
  Array.iteri
    (fun i op ->
      let w = gen_width rs in
      output b (Printf.sprintf "b%d" i) (Expr.binop op (gen w 2) (gen w 2)))
    binops;
  for i = 0 to 3 do
    output b (Printf.sprintf "o%d" i) (gen (gen_width rs) 4)
  done;
  (finalize b, List.init 3 (fun _ -> gen (gen_width rs) 3))

(* The reference: a two-phase stepper over Sim.Eval.eval. Every next
   value is computed against the pre-edge state; write ports are then
   applied later-first, so earlier ports win. *)
type reference = {
  values : (string, Bitvec.t) Hashtbl.t;  (** inputs, params, registers *)
  words : (string, Bitvec.t array) Hashtbl.t;
}

let reference (nl : Netlist.t) =
  let values = Hashtbl.create 16 and words = Hashtbl.create 2 in
  List.iter
    (fun (s : Expr.signal) ->
      Hashtbl.replace values s.Expr.s_name (Bitvec.zero s.Expr.s_width))
    (nl.Netlist.inputs @ nl.Netlist.params);
  List.iter
    (fun rd ->
      Hashtbl.replace values rd.Netlist.rd_signal.Expr.s_name
        (Option.get rd.Netlist.rd_init))
    nl.Netlist.regs;
  List.iter
    (fun md ->
      let m = md.Netlist.md_mem in
      Hashtbl.replace words m.Expr.m_name
        (match md.Netlist.md_init with
        | Some a -> Array.copy a
        | None -> Array.make m.Expr.m_depth (Bitvec.zero m.Expr.m_data_width)))
    nl.Netlist.mems;
  { values; words }

let reference_eval r e =
  let value (s : Expr.signal) = Hashtbl.find r.values s.Expr.s_name in
  Sim.Eval.eval
    {
      Sim.Eval.lookup_input = value;
      lookup_param = value;
      lookup_reg = value;
      lookup_mem = (fun m i -> (Hashtbl.find r.words m.Expr.m_name).(i));
    }
    e

let reference_step (nl : Netlist.t) r =
  let next =
    List.map
      (fun rd ->
        (rd.Netlist.rd_signal.Expr.s_name, reference_eval r rd.Netlist.rd_next))
      nl.Netlist.regs
  in
  let writes =
    List.map
      (fun md ->
        ( md.Netlist.md_mem,
          List.filter_map
            (fun wp ->
              if Bitvec.is_zero (reference_eval r wp.Netlist.wp_enable) then None
              else
                Some
                  ( Bitvec.to_int (reference_eval r wp.Netlist.wp_addr),
                    reference_eval r wp.Netlist.wp_data ))
            md.Netlist.md_ports ))
      nl.Netlist.mems
  in
  List.iter (fun (name, v) -> Hashtbl.replace r.values name v) next;
  List.iter
    (fun ((m : Expr.mem), ws) ->
      let arr = Hashtbl.find r.words m.Expr.m_name in
      List.iter
        (fun (a, d) -> if a < m.Expr.m_depth then arr.(a) <- d)
        (List.rev ws))
    writes

let qcheck_engine_vs_reference =
  QCheck.Test.make ~count:100 ~name:"compiled engine matches Sim.Eval stepper"
    QCheck.(int_range 0 1073741823)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let nl, probes = random_netlist rs in
      let eng = Sim.Engine.create nl and r = reference nl in
      let same what a b =
        if not (Bitvec.equal a b) then
          QCheck.Test.fail_reportf "%s: engine %s, reference %s" what
            (Bitvec.to_string a) (Bitvec.to_string b)
      in
      let set (s : Expr.signal) v =
        Hashtbl.replace r.values s.Expr.s_name v;
        if List.memq s nl.Netlist.params then
          Sim.Engine.set_param eng s.Expr.s_name v
        else Sim.Engine.set_input eng s.Expr.s_name v
      in
      let settable = nl.Netlist.inputs @ nl.Netlist.params in
      let regs = Array.of_list nl.Netlist.regs in
      let mems = Array.of_list nl.Netlist.mems in
      let poke () =
        match Random.State.int rs 3 with
        | 0 ->
            let rd = regs.(Random.State.int rs (Array.length regs)) in
            let s = rd.Netlist.rd_signal in
            let v = gen_bv rs s.Expr.s_width in
            Hashtbl.replace r.values s.Expr.s_name v;
            Sim.Engine.poke_reg eng s.Expr.s_name v
        | 1 ->
            let m = mems.(Random.State.int rs (Array.length mems)).Netlist.md_mem in
            let i = Random.State.int rs m.Expr.m_depth in
            let v = gen_bv rs m.Expr.m_data_width in
            (Hashtbl.find r.words m.Expr.m_name).(i) <- v;
            Sim.Engine.poke_mem eng m.Expr.m_name i v
        | _ ->
            let s = List.nth settable (Random.State.int rs (List.length settable)) in
            set s (gen_bv rs s.Expr.s_width)
      in
      let check_outputs () =
        List.iter
          (fun (name, e) ->
            same ("output " ^ name) (Sim.Engine.peek_output eng name)
              (reference_eval r e))
          nl.Netlist.outputs;
        List.iter
          (fun e -> same "peek" (Sim.Engine.peek eng e) (reference_eval r e))
          (probes @ List.map (fun rd -> rd.Netlist.rd_next) nl.Netlist.regs)
      in
      for cycle = 1 to 20 do
        List.iter
          (fun s -> if Random.State.bool rs then set s (gen_bv rs s.Expr.s_width))
          settable;
        check_outputs ();
        for _ = 1 to Random.State.int rs 4 do
          poke ()
        done;
        if Random.State.bool rs then check_outputs ();
        if Random.State.bool rs then poke ();
        Sim.Engine.step eng;
        reference_step nl r;
        Array.iter
          (fun rd ->
            let name = rd.Netlist.rd_signal.Expr.s_name in
            same
              (Printf.sprintf "cycle %d register %s" cycle name)
              (Sim.Engine.reg_value eng name)
              (Hashtbl.find r.values name))
          regs;
        Array.iter
          (fun md ->
            let name = md.Netlist.md_mem.Expr.m_name in
            Array.iteri
              (fun i v ->
                same
                  (Printf.sprintf "cycle %d %s[%d]" cycle name i)
                  (Sim.Engine.mem_value eng name i) v)
              (Hashtbl.find r.words name))
          mems
      done;
      true)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "counter" `Quick test_counter_steps;
          Alcotest.test_case "peek output" `Quick test_peek_output;
          Alcotest.test_case "reset values" `Quick test_reset_values;
          Alcotest.test_case "memory write/read" `Quick test_memory_write_read;
          Alcotest.test_case "memory port priority" `Quick
            test_memory_port_priority;
          Alcotest.test_case "two-phase semantics" `Quick
            test_two_phase_semantics;
          Alcotest.test_case "parameters" `Quick test_params;
          Alcotest.test_case "poke" `Quick test_poke;
          Alcotest.test_case "poke_mem width check" `Quick
            test_poke_mem_width;
        ] );
      ( "trace+vcd",
        [
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "trace error semantics" `Quick
            test_trace_error_semantics;
          Alcotest.test_case "trace accessor perf" `Quick
            test_trace_accessor_perf;
          Alcotest.test_case "vcd dump" `Quick test_vcd;
          Alcotest.test_case "vcd final timestep + close" `Quick
            test_vcd_final_timestep;
          Alcotest.test_case "vcd wide dump perf" `Quick
            test_vcd_wide_dump_perf;
          Alcotest.test_case "vcd hierarchical names" `Quick
            test_vcd_hierarchical_names;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_counter_model;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 13 |])
            qcheck_engine_vs_reference;
        ] );
    ]
