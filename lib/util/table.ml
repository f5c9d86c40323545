let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s
  end

let render ~header rows =
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows in
  let normalize row =
    let n = List.length row in
    if n >= ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  let header = normalize header in
  let rows = List.map normalize rows in
  let widths = Array.make ncols 0 in
  let feed row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  feed header;
  List.iter feed rows;
  let buf = Buffer.create 1024 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad ~left:(i = 0) widths.(i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit header;
  Array.iter
    (fun w ->
      Buffer.add_string buf (String.make w '-');
      Buffer.add_string buf "  ")
    widths;
  (* Trim the trailing separator spacing. *)
  let sep_end = Buffer.length buf in
  Buffer.truncate buf (sep_end - 2);
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

let cell_f f =
  if Float.is_nan f then "-"
  else if Float.equal f infinity then "inf"
  else if Float.equal f neg_infinity then "-inf"
  else Printf.sprintf "%.3f" f

let cell_pct r = if Float.is_nan r then "-" else Printf.sprintf "%.0f%%" (100. *. r)
