let escape field =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let row_to_string row = String.concat "," (List.map escape row)

let write ~path ~header rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (String.concat "\n" (List.map row_to_string (header :: rows)) ^ "\n"))
