type t = { w : int; v : int }

let max_width = Sys.int_size - 1

let mask w = if w = max_width then -1 lsr 1 else (1 lsl w) - 1

let check_width w =
  if w < 1 || w > max_width then
    invalid_arg (Printf.sprintf "Bitvec: width %d out of [1, %d]" w max_width)

let of_int ~width v =
  check_width width;
  { w = width; v = v land mask width }

let width t = t.w
let to_int t = t.v

let to_signed_int t =
  if t.v land (1 lsl (t.w - 1)) <> 0 then t.v - (1 lsl t.w) else t.v

let zero w = of_int ~width:w 0
let one w = of_int ~width:w 1
let ones w = { w; v = mask w }
let equal a b = a.w = b.w && a.v = b.v
let compare a b = Stdlib.compare (a.w, a.v) (b.w, b.v)
let hash t = Hashtbl.hash (t.w, t.v)
let is_zero t = t.v = 0

let bit t i =
  if i < 0 || i >= t.w then invalid_arg "Bitvec.bit: index out of range";
  t.v land (1 lsl i) <> 0

let same_width a b =
  assert (a.w = b.w);
  a.w

let add a b =
  let w = same_width a b in
  { w; v = (a.v + b.v) land mask w }

let sub a b =
  let w = same_width a b in
  { w; v = (a.v - b.v) land mask w }

let mul a b =
  let w = same_width a b in
  (* Native products wrap modulo 2^Sys.int_size, a multiple of 2^w. *)
  { w; v = a.v * b.v land mask w }

let neg a = { w = a.w; v = -a.v land mask a.w }

let logand a b =
  let w = same_width a b in
  { w; v = a.v land b.v }

let logor a b =
  let w = same_width a b in
  { w; v = a.v lor b.v }

let logxor a b =
  let w = same_width a b in
  { w; v = a.v lxor b.v }

let lognot a = { w = a.w; v = lnot a.v land mask a.w }

let shl a b =
  let n = b.v in
  if n >= a.w then zero a.w else { w = a.w; v = a.v lsl n land mask a.w }

let lshr a b =
  let n = b.v in
  if n >= a.w then zero a.w else { w = a.w; v = a.v lsr n }

let ashr a b =
  let n = if b.v >= a.w then a.w - 1 else b.v in
  let s = to_signed_int a in
  { w = a.w; v = s asr n land mask a.w }

let of_bool b = { w = 1; v = (if b then 1 else 0) }

let eq a b =
  let _ = same_width a b in
  of_bool (a.v = b.v)

let ne a b =
  let _ = same_width a b in
  of_bool (a.v <> b.v)

let ult a b =
  let _ = same_width a b in
  of_bool (a.v < b.v)

let ule a b =
  let _ = same_width a b in
  of_bool (a.v <= b.v)

let slt a b =
  let _ = same_width a b in
  of_bool (to_signed_int a < to_signed_int b)

let sle a b =
  let _ = same_width a b in
  of_bool (to_signed_int a <= to_signed_int b)

let redand a = of_bool (a.v = mask a.w)
let redor a = of_bool (a.v <> 0)

let redxor a =
  let rec popcount acc v = if v = 0 then acc else popcount (acc + (v land 1)) (v lsr 1) in
  of_bool (popcount 0 a.v land 1 = 1)

let concat hi lo =
  let w = hi.w + lo.w in
  check_width w;
  { w; v = (hi.v lsl lo.w) lor lo.v }

let slice t ~hi ~lo =
  if lo < 0 || hi >= t.w || hi < lo then
    invalid_arg
      (Printf.sprintf "Bitvec.slice: [%d:%d] out of range for width %d" hi lo t.w);
  { w = hi - lo + 1; v = (t.v lsr lo) land mask (hi - lo + 1) }

let zero_extend t w =
  if w < t.w then invalid_arg "Bitvec.zero_extend: narrower target";
  check_width w;
  { w; v = t.v }

let sign_extend t w =
  if w < t.w then invalid_arg "Bitvec.sign_extend: narrower target";
  check_width w;
  { w; v = to_signed_int t land mask w }

let pp fmt t = Format.fprintf fmt "%d'h%x" t.w t.v
let to_string t = Format.asprintf "%a" pp t
