(* Slot [s] is [slots.(2s)] (the key, [empty] when free) and
   [slots.(2s + 1)] (its value).  The capacity is a power of two and the
   table grows before it is more than half full, so every probe sequence
   ends at a free slot. *)
type t = { mutable slots : int array; mutable mask : int; mutable count : int }

let empty = -1

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { slots = Array.make (2 * !cap) empty; mask = !cap - 1; count = 0 }

(* Fibonacci-style multiplicative mixing: consecutive keys, and keys that
   differ only in their high bits, land far apart. *)
let[@inline] hash key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* The slot holding [key], or the free slot where it would go. *)
let slot slots mask key =
  let s = ref (hash key mask) in
  while
    let k = slots.(2 * !s) in
    k <> key && k <> empty
  do
    s := (!s + 1) land mask
  done;
  !s

let grow t =
  let old = t.slots in
  let cap = 2 * (t.mask + 1) in
  let slots = Array.make (2 * cap) empty and mask = cap - 1 in
  for s = 0 to t.mask do
    let k = old.(2 * s) in
    if k <> empty then begin
      let s' = slot slots mask k in
      slots.(2 * s') <- k;
      slots.((2 * s') + 1) <- old.((2 * s) + 1)
    end
  done;
  t.slots <- slots;
  t.mask <- mask

let find t key ~default =
  if key < 0 then default
  else
    let s = slot t.slots t.mask key in
    if t.slots.(2 * s) = key then t.slots.((2 * s) + 1) else default

(* Bind the absent [key] found free at slot [s], growing first (and
   probing again) when the table would pass half full. *)
let insert t s key v =
  let s =
    if 2 * (t.count + 1) > t.mask + 1 then begin
      grow t;
      slot t.slots t.mask key
    end
    else s
  in
  t.slots.(2 * s) <- key;
  t.slots.((2 * s) + 1) <- v;
  t.count <- t.count + 1

let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  let s = slot t.slots t.mask key in
  if t.slots.(2 * s) = key then t.slots.((2 * s) + 1) <- v else insert t s key v

let add t key v =
  if key < 0 then invalid_arg "Int_table.add: negative key";
  let s = slot t.slots t.mask key in
  if t.slots.(2 * s) = key then false
  else begin
    insert t s key v;
    true
  end
