(* [last_writer] maps the tile key [(row lsl 31) lor col] to the id of the
   task that last wrote the tile.  [deps] is scratch for the distinct
   writers a kernel depends on, kept sorted ascending. *)
type t = {
  builder : Dag.Builder.t;
  last_writer : Int_table.t;
  mutable deps : int array;
}

let create () =
  { builder = Dag.Builder.create (); last_writer = Int_table.create 64; deps = Array.make 3 0 }

let key (i, j) = (i lsl 31) lor j

let rec digits x = if x < 10 then 1 else 1 + digits (x / 10)

(* Written right to left: each index's digits, then its separator. *)
let name prefix idx =
  if Array.exists (fun x -> x < 0) idx then invalid_arg "Tiled.name: negative index";
  let len = Array.fold_left (fun acc x -> acc + 1 + digits x) (String.length prefix) idx in
  let b = Bytes.create len in
  Bytes.blit_string prefix 0 b 0 (String.length prefix);
  let pos = ref len in
  for k = Array.length idx - 1 downto 0 do
    let x = ref idx.(k) in
    for _ = 1 to digits idx.(k) do
      decr pos;
      Bytes.set b !pos (Char.unsafe_chr (Char.code '0' + (!x mod 10)));
      x := !x / 10
    done;
    decr pos;
    Bytes.set b !pos '_'
  done;
  Bytes.unsafe_to_string b

(* Insert the writer of [tile] (if any) into the sorted, duplicate-free
   prefix [deps.(0 .. n-1)]; returns the new length. *)
let add_dep t n tile =
  let w = Int_table.find t.last_writer (key tile) ~default:(-1) in
  if w < 0 then n
  else begin
    let k = ref n in
    while !k > 0 && t.deps.(!k - 1) > w do
      decr k
    done;
    if !k > 0 && t.deps.(!k - 1) = w then n
    else begin
      if n = Array.length t.deps then t.deps <- Array.append t.deps t.deps;
      Array.blit t.deps !k t.deps (!k + 1) (n - !k);
      t.deps.(!k) <- w;
      n + 1
    end
  end

let add_kernel t kernel ~name ~reads ~writes =
  let id =
    Dag.Builder.add_task t.builder ~name ~w_blue:(Kernels.cpu_ms kernel)
      ~w_red:(Kernels.gpu_ms kernel) ()
  in
  let n = List.fold_left (add_dep t) (add_dep t 0 writes) reads in
  for k = 0 to n - 1 do
    Dag.Builder.add_edge t.builder ~src:t.deps.(k) ~dst:id ~size:Kernels.tile_size
      ~comm:Kernels.tile_transfer_ms
  done;
  Int_table.replace t.last_writer (key writes) id

let finalize ?(pipeline_broadcasts = true) t =
  let g = Dag.Builder.finalize t.builder in
  if pipeline_broadcasts then Broadcast.linearize g else g
