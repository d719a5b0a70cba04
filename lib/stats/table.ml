let render ~header rows =
  let ncols = List.length header in
  if List.exists (fun r -> List.length r <> ncols) rows then
    invalid_arg "Table.render: arity mismatch";
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    (header :: rows);
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
  emit header;
  emit (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter emit rows;
  Buffer.contents buf

let fms v = Printf.sprintf "%.1f" v
let pct v = Printf.sprintf "%.3f%%" (v *. 100.)
