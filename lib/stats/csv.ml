let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let row_to_string row = String.concat "," (List.map escape row)

let to_string ~header rows =
  let arity = List.length header in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (row_to_string header);
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      if List.length row <> arity then
        invalid_arg "Csv.to_string: row arity mismatch";
      Buffer.add_string buf (row_to_string row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let float_cell v = Printf.sprintf "%.6g" v
