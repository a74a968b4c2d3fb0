(* The span folder on a synthetic trace: nesting on the main domain, a
   span written after the fact (as Obs.Trace.emit_span does), a worker
   domain the main domain waits on, and malformed traces. *)

let ev kind id name t dom =
  Printf.sprintf {|{"ev":"%s","id":%d,"parent":0,"name":"%s","t":%g,"dom":%d}|} kind id
    name t dom

let trace =
  [
    ev "begin" 1 "A" 0. 0;
    ev "begin" 2 "B" 1. 0;
    ev "end" 2 "B" 4. 0;
    ev "begin" 4 "W" 5.5 1;
    ev "begin" 5 "S" 6. 1;
    {|{"ev":"instant","id":6,"parent":5,"name":"tick","t":6.5,"dom":1}|};
    ev "end" 5 "S" 7. 1;
    ev "end" 4 "W" 8.5 1;
    (* written when it ended, after everything it encloses *)
    ev "begin" 3 "C" 5. 0;
    ev "end" 3 "C" 9. 0;
    ev "end" 1 "A" 10. 0;
    ev "begin" 7 "A" 12. 0;
    ev "end" 7 "A" 13. 0;
  ]

let close a b = Float.abs (a -. b) < 1e-9

let check what ok =
  if not ok then begin
    Printf.eprintf "FAIL: %s\n" what;
    exit 1
  end

let rejects what lines =
  match Fold.parse_lines lines with
  | _ -> check (what ^ " is rejected") false
  | exception Fold.Bad_trace _ -> ()

let () =
  let f = Fold.fold (Fold.parse_lines trace) in
  let got l k = Option.value ~default:nan (Fold.get l k) in
  check "main domain" (f.Fold.main_dom = 0);
  List.iter
    (fun ((dom, name), want) ->
      check
        (Printf.sprintf "exclusive %s on dom %d" name dom)
        (close (got f.Fold.exclusive (dom, name)) want))
    [ ((0, "A"), 4.); ((0, "B"), 3.); ((0, "C"), 4.); ((1, "W"), 2.); ((1, "S"), 1.) ];
  (* while the worker runs, the main domain's C is waiting *)
  List.iter
    (fun (name, want) ->
      check ("attributed " ^ name) (close (got f.Fold.attributed name) want))
    [ ("A", 4.); ("B", 3.); ("C", 1.); ("W", 2.); ("S", 1.) ];
  check "covered" (close f.Fold.covered 11.);
  check "attribution adds up to coverage"
    (close (List.fold_left (fun a (_, s) -> a +. s) 0. f.Fold.attributed) f.Fold.covered);
  check "inclusive A" (close (got f.Fold.inclusive "A") 11.);
  check "span count" (Fold.get f.Fold.counts "A" = Some 2);
  (* two workers at once share each instant evenly *)
  let g =
    Fold.fold
      (Fold.parse_lines
         [
           ev "begin" 1 "M" 0. 0;
           ev "begin" 2 "X" 0. 1;
           ev "begin" 3 "Y" 0. 2;
           ev "end" 2 "X" 2. 1;
           ev "end" 3 "Y" 1. 2;
           ev "end" 1 "M" 2. 0;
         ])
  in
  check "shared X" (close (got g.Fold.attributed "X") 1.5);
  check "shared Y" (close (got g.Fold.attributed "Y") 0.5);
  check "waiting main" (Fold.get g.Fold.attributed "M" = None);
  rejects "a begin without end" [ ev "begin" 1 "A" 0. 0 ];
  rejects "an end without begin" [ ev "end" 1 "A" 0. 0 ];
  rejects "a duplicate begin" [ ev "begin" 1 "A" 0. 0; ev "begin" 1 "A" 1. 0; ev "end" 1 "A" 2. 0 ];
  rejects "an end of another name" [ ev "begin" 1 "A" 0. 0; ev "end" 1 "B" 1. 0 ];
  rejects "an end on another domain" [ ev "begin" 1 "A" 0. 0; ev "end" 1 "A" 1. 1 ];
  rejects "an end before its begin" [ ev "begin" 1 "A" 2. 0; ev "end" 1 "A" 1. 0 ];
  rejects "a truncated line" [ {|{"ev":"begin","id":1|} ];
  print_endline "fold: ok"
