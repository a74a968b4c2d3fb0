module J = Upec.Json

type span = { id : int; name : string; dom : int; t0 : float; t1 : float }

exception Bad_trace of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_trace s)) fmt

let parse_lines lines =
  let open_ = Hashtbl.create 1024 in
  let spans = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if String.trim line <> "" then begin
        let v =
          try J.of_string line
          with J.Parse_error e -> bad "line %d: %s" lineno e
        in
        let field k conv =
          match conv (J.member k v) with
          | Some x -> x
          | None -> bad "line %d: missing or mistyped %S" lineno k
        in
        match field "ev" J.to_str with
        | "begin" ->
            let id = field "id" J.to_int in
            if Hashtbl.mem open_ id then
              bad "line %d: duplicate begin for span %d" lineno id;
            Hashtbl.replace open_ id
              ( field "name" J.to_str,
                field "dom" J.to_int,
                field "t" J.to_float,
                lineno )
        | "end" -> (
            let id = field "id" J.to_int in
            match Hashtbl.find_opt open_ id with
            | None -> bad "line %d: end without begin for span %d" lineno id
            | Some (name, dom, t0, _) ->
                Hashtbl.remove open_ id;
                let t1 = field "t" J.to_float in
                if field "name" J.to_str <> name || field "dom" J.to_int <> dom
                then bad "line %d: end of span %d does not match its begin" lineno id;
                if t1 < t0 then bad "line %d: span %d ends before it begins" lineno id;
                spans := { id; name; dom; t0; t1 } :: !spans)
        | "instant" -> ()
        | ev -> bad "line %d: unknown event kind %S" lineno ev
      end)
    lines;
  Hashtbl.iter
    (fun id (name, _, _, lineno) ->
      bad "span %d (%s, begun at line %d) never ended" id name lineno)
    open_;
  List.rev !spans

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | l -> read (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      parse_lines (read []))

type t = {
  main_dom : int;
  exclusive : ((int * string) * float) list;
  attributed : (string * float) list;
  inclusive : (string * float) list;
  counts : (string * int) list;
  covered : float;
}

let innermost = function
  | [] -> None
  | s :: rest ->
      let later a b =
        a.t0 > b.t0 || (a.t0 = b.t0 && (a.t1 < b.t1 || (a.t1 = b.t1 && a.id > b.id)))
      in
      Some (List.fold_left (fun b a -> if later a b then a else b) s rest)

let add tbl k x =
  Hashtbl.replace tbl k (x +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fold spans =
  let main_dom =
    match List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) spans with
    | s :: _ -> s.dom
    | [] -> 0
  in
  let events =
    List.concat_map (fun s -> [ (s.t0, 1, s); (s.t1, 0, s) ]) spans
    |> List.sort (fun (ta, ka, a) (tb, kb, b) -> compare (ta, ka, a.id) (tb, kb, b.id))
    |> Array.of_list
  in
  let active = Hashtbl.create 8 in
  let exclusive = Hashtbl.create 64 and attributed = Hashtbl.create 64 in
  let covered = ref 0. in
  let n = Array.length events in
  let i = ref 0 in
  while !i < n do
    let t, _, _ = events.(!i) in
    while
      !i < n
      &&
      let t', _, _ = events.(!i) in
      t' = t
    do
      let _, kind, s = events.(!i) in
      let open_ = Option.value ~default:[] (Hashtbl.find_opt active s.dom) in
      Hashtbl.replace active s.dom
        (if kind = 1 then s :: open_ else List.filter (fun o -> o.id <> s.id) open_);
      incr i
    done;
    if !i < n then begin
      let t_next, _, _ = events.(!i) in
      let dt = t_next -. t in
      let inner =
        Hashtbl.fold
          (fun dom open_ acc ->
            match innermost open_ with Some s -> (dom, s) :: acc | None -> acc)
          active []
      in
      List.iter (fun (dom, s) -> add exclusive (dom, s.name) dt) inner;
      (match List.filter (fun (dom, _) -> dom <> main_dom) inner with
      | [] -> (
          match List.assoc_opt main_dom inner with
          | Some s -> add attributed s.name dt
          | None -> ())
      | workers ->
          let share = dt /. float_of_int (List.length workers) in
          List.iter (fun (_, s) -> add attributed s.name share) workers);
      if inner <> [] then covered := !covered +. dt
    end
  done;
  let inclusive = Hashtbl.create 64 and counts = Hashtbl.create 64 in
  List.iter
    (fun s ->
      add inclusive s.name (s.t1 -. s.t0);
      Hashtbl.replace counts s.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.name)))
    spans;
  {
    main_dom;
    exclusive = sorted exclusive;
    attributed = sorted attributed;
    inclusive = sorted inclusive;
    counts = sorted counts;
    covered = !covered;
  }

let get l k = List.assoc_opt k l

let pp ~wall fmt t =
  Format.fprintf fmt "@[<v>exclusive seconds per span name per domain (main domain %d):@,"
    t.main_dom;
  List.iter
    (fun ((dom, name), s) -> Format.fprintf fmt "  dom %-3d %-24s %12.6f@," dom name s)
    t.exclusive;
  Format.fprintf fmt "wall-attributed seconds per span name:@,";
  List.iter
    (fun (name, s) ->
      Format.fprintf fmt "  %-32s %12.6f  (%d spans)@," name s
        (Option.value ~default:0 (get t.counts name)))
    t.attributed;
  Format.fprintf fmt "covered by spans: %.6f s" t.covered;
  (match wall with
  | Some w when w > 0. ->
      Format.fprintf fmt " of %.6f s wall (%.2f %%), untraced remainder %.6f s" w
        (100. *. t.covered /. w) (w -. t.covered)
  | _ -> ());
  Format.fprintf fmt "@]@."
