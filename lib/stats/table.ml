type t = { columns : string list; mutable rows : string list list }

let create ~columns = { columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 256 in
  let emit row =
    List.iteri
      (fun i cell ->
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell + 2) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit t.columns;
  emit (List.mapi (fun i _ -> String.make widths.(i) '-') t.columns);
  List.iter emit rows;
  Buffer.contents buf


let fms v = Printf.sprintf "%.1f" v
let pct v = Printf.sprintf "%.3f%%" (v *. 100.)
let mbps v = Printf.sprintf "%.1f" (v /. 1e6)
