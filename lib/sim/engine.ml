open Rtl

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* State elements of one kind (inputs, params, registers or memories)
   in netlist order, found by name for the API and by id for the
   compiler and the {!Eval} fallback. *)
type 'a bank = {
  elems : 'a array;
  by_name : (string, int) Hashtbl.t;
  by_id : int Itbl.t;
}

let bank name id elems =
  let n = Array.length elems in
  let by_name = Hashtbl.create n and by_id = Itbl.create n in
  Array.iteri
    (fun i e ->
      Hashtbl.replace by_name (name e) i;
      Itbl.replace by_id (id e) i)
    elems;
  { elems; by_name; by_id }

(* One instruction per netlist node; instruction [k] writes slot [k] and
   reads only lower slots. Operands are slots; [mask] is that of the
   result width unless noted. Every value is a non-negative immediate
   int below [2^width], since widths never exceed [Bitvec.max_width]. *)
type instr =
  | Const of int
  | Input of int  (** input index *)
  | Param of int  (** param index *)
  | Reg of int  (** register index *)
  | Memread of int * int  (** memory index, address *)
  | Not of int * int  (** a, mask *)
  | Neg of int * int  (** a, mask *)
  | Redand of int * int  (** a, mask of [a] *)
  | Redor of int
  | Redxor of int
  | Add of int * int * int  (** a, b, mask *)
  | Sub of int * int * int  (** a, b, mask *)
  | Mul of int * int * int  (** a, b, mask *)
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Eq of int * int
  | Ne of int * int
  | Ult of int * int
  | Ule of int * int
  | Slt of int * int * int  (** a, b, [Sys.int_size - width a] *)
  | Sle of int * int * int  (** a, b, [Sys.int_size - width a] *)
  | Shl of int * int * int  (** a, b, width *)
  | Lshr of int * int * int  (** a, b, width *)
  | Ashr of int * int * int  (** a, b, width *)
  | Mux of int * int * int  (** sel, then, else *)
  | Concat of int * int * int  (** hi, lo, width of lo *)
  | Slice of int * int * int  (** a, lo, mask *)

type port = { mem : int; enable : int; addr : int; data : int }

type prog = {
  code : instr array;
  vals : int array;  (** slot values, valid when the engine is not dirty *)
  slot_of : int Itbl.t;  (** expression tag -> slot *)
  next : int array;  (** register index -> slot of its next state *)
  ports : port array;  (** every write port, memory by memory, in order *)
}

type t = {
  nl : Netlist.t;
  inputs : Expr.signal bank;
  params : Expr.signal bank;
  regs : Expr.signal bank;
  mems : Expr.mem bank;
  input_vals : int array;
  param_vals : int array;
  reg_vals : int array;
  mem_vals : int array array;
  mutable prog : prog option;  (** compiled on first evaluation *)
  mutable dirty : bool;  (** state or inputs changed since the last settle *)
  mutable cycle : int;
  mutable hooks : (t -> unit) list;  (** reversed *)
}

let signal_bank = bank (fun s -> s.Expr.s_name) (fun s -> s.Expr.s_id)

let create (nl : Netlist.t) =
  let regs = Array.of_list nl.Netlist.regs in
  let mems = Array.of_list nl.Netlist.mems in
  {
    nl;
    inputs = signal_bank (Array.of_list nl.Netlist.inputs);
    params = signal_bank (Array.of_list nl.Netlist.params);
    regs = signal_bank (Array.map (fun rd -> rd.Netlist.rd_signal) regs);
    mems =
      bank
        (fun m -> m.Expr.m_name)
        (fun m -> m.Expr.m_id)
        (Array.map (fun md -> md.Netlist.md_mem) mems);
    input_vals = Array.make (List.length nl.Netlist.inputs) 0;
    param_vals = Array.make (List.length nl.Netlist.params) 0;
    reg_vals =
      Array.map
        (fun rd -> Option.fold ~none:0 ~some:Bitvec.to_int rd.Netlist.rd_init)
        regs;
    mem_vals =
      Array.map
        (fun md ->
          match md.Netlist.md_init with
          | Some a -> Array.map Bitvec.to_int a
          | None -> Array.make md.Netlist.md_mem.Expr.m_depth 0)
        mems;
    prog = None;
    dirty = true;
    cycle = 0;
    hooks = [];
  }

let mask w = (1 lsl w) - 1

(* Post-order over the next states, write ports and outputs: operands
   get their slots before the node that reads them. *)
let compile t =
  let slot_of = Itbl.create 1024 in
  let code = ref [] and n = ref 0 in
  let rec slot e =
    match Itbl.find_opt slot_of (Expr.tag e) with
    | Some k -> k
    | None ->
        let w = Expr.width e in
        let ins =
          match Expr.node e with
          | Expr.Const b -> Const (Bitvec.to_int b)
          | Expr.Input s -> Input (Itbl.find t.inputs.by_id s.Expr.s_id)
          | Expr.Param s -> Param (Itbl.find t.params.by_id s.Expr.s_id)
          | Expr.Reg s -> Reg (Itbl.find t.regs.by_id s.Expr.s_id)
          | Expr.Memread (m, a) ->
              let a = slot a in
              Memread (Itbl.find t.mems.by_id m.Expr.m_id, a)
          | Expr.Unop (op, a) -> (
              let wa = Expr.width a and a = slot a in
              match op with
              | Expr.Not -> Not (a, mask w)
              | Expr.Neg -> Neg (a, mask w)
              | Expr.Redand -> Redand (a, mask wa)
              | Expr.Redor -> Redor a
              | Expr.Redxor -> Redxor a)
          | Expr.Binop (op, a, b) -> (
              let sh = Sys.int_size - Expr.width a in
              let a = slot a in
              let b = slot b in
              match op with
              | Expr.Add -> Add (a, b, mask w)
              | Expr.Sub -> Sub (a, b, mask w)
              | Expr.Mul -> Mul (a, b, mask w)
              | Expr.And -> And (a, b)
              | Expr.Or -> Or (a, b)
              | Expr.Xor -> Xor (a, b)
              | Expr.Eq -> Eq (a, b)
              | Expr.Ne -> Ne (a, b)
              | Expr.Ult -> Ult (a, b)
              | Expr.Ule -> Ule (a, b)
              | Expr.Slt -> Slt (a, b, sh)
              | Expr.Sle -> Sle (a, b, sh)
              | Expr.Shl -> Shl (a, b, w)
              | Expr.Lshr -> Lshr (a, b, w)
              | Expr.Ashr -> Ashr (a, b, w))
          | Expr.Mux (s, a, b) ->
              let s = slot s in
              let a = slot a in
              Mux (s, a, slot b)
          | Expr.Concat (hi, lo) ->
              let hi = slot hi in
              Concat (hi, slot lo, Expr.width lo)
          | Expr.Slice (a, _, lo) -> Slice (slot a, lo, mask w)
        in
        let k = !n in
        incr n;
        code := ins :: !code;
        Itbl.add slot_of (Expr.tag e) k;
        k
  in
  let next =
    Array.of_list (List.map (fun rd -> slot rd.Netlist.rd_next) t.nl.Netlist.regs)
  in
  let ports =
    List.concat
      (List.mapi
         (fun mem md ->
           List.map
             (fun wp ->
               let enable = slot wp.Netlist.wp_enable in
               let addr = slot wp.Netlist.wp_addr in
               { mem; enable; addr; data = slot wp.Netlist.wp_data })
             md.Netlist.md_ports)
         t.nl.Netlist.mems)
  in
  List.iter (fun (_, e) -> ignore (slot e)) t.nl.Netlist.outputs;
  {
    code = Array.of_list (List.rev !code);
    vals = Array.make !n 0;
    slot_of;
    next;
    ports = Array.of_list ports;
  }

let sign_extend sh x = (x lsl sh) asr sh

let parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1

let settle t p =
  let v = p.vals in
  for k = 0 to Array.length p.code - 1 do
    v.(k) <-
      (match p.code.(k) with
      | Const c -> c
      | Input i -> t.input_vals.(i)
      | Param i -> t.param_vals.(i)
      | Reg i -> t.reg_vals.(i)
      | Memread (m, a) ->
          let mem = t.mem_vals.(m) and a = v.(a) in
          if a < Array.length mem then mem.(a) else 0
      | Not (a, m) -> lnot v.(a) land m
      | Neg (a, m) -> -v.(a) land m
      | Redand (a, m) -> Bool.to_int (v.(a) = m)
      | Redor a -> Bool.to_int (v.(a) <> 0)
      | Redxor a -> parity v.(a)
      | Add (a, b, m) -> (v.(a) + v.(b)) land m
      | Sub (a, b, m) -> (v.(a) - v.(b)) land m
      | Mul (a, b, m) -> v.(a) * v.(b) land m
      | And (a, b) -> v.(a) land v.(b)
      | Or (a, b) -> v.(a) lor v.(b)
      | Xor (a, b) -> v.(a) lxor v.(b)
      | Eq (a, b) -> Bool.to_int (v.(a) = v.(b))
      | Ne (a, b) -> Bool.to_int (v.(a) <> v.(b))
      | Ult (a, b) -> Bool.to_int (v.(a) < v.(b))
      | Ule (a, b) -> Bool.to_int (v.(a) <= v.(b))
      | Slt (a, b, sh) -> Bool.to_int (sign_extend sh v.(a) < sign_extend sh v.(b))
      | Sle (a, b, sh) -> Bool.to_int (sign_extend sh v.(a) <= sign_extend sh v.(b))
      | Shl (a, b, w) -> if v.(b) >= w then 0 else (v.(a) lsl v.(b)) land mask w
      | Lshr (a, b, w) -> if v.(b) >= w then 0 else v.(a) lsr v.(b)
      | Ashr (a, b, w) ->
          let n = if v.(b) >= w then w - 1 else v.(b) in
          (sign_extend (Sys.int_size - w) v.(a) asr n) land mask w
      | Mux (s, a, b) -> if v.(s) <> 0 then v.(a) else v.(b)
      | Concat (hi, lo, w) -> (v.(hi) lsl w) lor v.(lo)
      | Slice (a, lo, m) -> (v.(a) lsr lo) land m)
  done

(* The compiled program with every slot up to date. *)
let settled t =
  let p =
    match t.prog with
    | Some p -> p
    | None ->
        let p = compile t in
        t.prog <- Some p;
        p
  in
  if t.dirty then begin
    settle t p;
    t.dirty <- false
  end;
  p

let env t =
  let lookup bank vals (s : Expr.signal) =
    Bitvec.of_int ~width:s.Expr.s_width vals.(Itbl.find bank.by_id s.Expr.s_id)
  in
  {
    Eval.lookup_input = lookup t.inputs t.input_vals;
    Eval.lookup_param = lookup t.params t.param_vals;
    Eval.lookup_reg = lookup t.regs t.reg_vals;
    Eval.lookup_mem =
      (fun m i ->
        Bitvec.of_int ~width:m.Expr.m_data_width
          t.mem_vals.(Itbl.find t.mems.by_id m.Expr.m_id).(i));
  }

(* Index of [name] in [bank], after checking that [v] has its width. *)
let checked what bank width name v =
  let i = Hashtbl.find bank.by_name name in
  if Bitvec.width v <> width bank.elems.(i) then
    invalid_arg (Printf.sprintf "Engine.%s %s: width mismatch" what name);
  i

let signal_width s = s.Expr.s_width

let set_param t name v =
  t.param_vals.(checked "set_param" t.params signal_width name v) <- Bitvec.to_int v;
  t.dirty <- true

let set_input t name v =
  t.input_vals.(checked "set_input" t.inputs signal_width name v) <- Bitvec.to_int v;
  t.dirty <- true

let set_input_int t name v =
  let i = Hashtbl.find t.inputs.by_name name in
  t.input_vals.(i) <- v land mask t.inputs.elems.(i).Expr.s_width;
  t.dirty <- true

let slot_value p e k = Bitvec.of_int ~width:(Expr.width e) p.vals.(k)

let peek t e =
  match Option.bind t.prog (fun p -> Itbl.find_opt p.slot_of (Expr.tag e)) with
  | Some k -> slot_value (settled t) e k
  | None -> Eval.eval (env t) e

let peek_output t name =
  let e = Netlist.find_output t.nl name in
  let p = settled t in
  slot_value p e (Itbl.find p.slot_of (Expr.tag e))

let reg_value t name =
  let i = Hashtbl.find t.regs.by_name name in
  Bitvec.of_int ~width:t.regs.elems.(i).Expr.s_width t.reg_vals.(i)

let mem_value t name i =
  let m = Hashtbl.find t.mems.by_name name in
  Bitvec.of_int ~width:t.mems.elems.(m).Expr.m_data_width t.mem_vals.(m).(i)

let poke_reg t name v =
  t.reg_vals.(checked "poke_reg" t.regs signal_width name v) <- Bitvec.to_int v;
  t.dirty <- true

let poke_mem t name i v =
  let m = checked "poke_mem" t.mems (fun m -> m.Expr.m_data_width) name v in
  t.mem_vals.(m).(i) <- Bitvec.to_int v;
  t.dirty <- true

let step t =
  let p = settled t in
  let v = p.vals in
  (* Every next value is read from the settled slots, which the commit
     below does not touch. Later ports are applied first so earlier
     ports win on an address clash, matching the documented priority. *)
  for j = Array.length p.ports - 1 downto 0 do
    let wp = p.ports.(j) in
    if v.(wp.enable) <> 0 then begin
      let mem = t.mem_vals.(wp.mem) and a = v.(wp.addr) in
      if a < Array.length mem then mem.(a) <- v.(wp.data)
    end
  done;
  Array.iteri (fun i k -> t.reg_vals.(i) <- v.(k)) p.next;
  t.dirty <- true;
  t.cycle <- t.cycle + 1;
  List.iter (fun hook -> hook t) (List.rev t.hooks)

let run t n =
  for _ = 1 to n do
    step t
  done

let cycle t = t.cycle
let netlist t = t.nl
let on_step t hook = t.hooks <- hook :: t.hooks
