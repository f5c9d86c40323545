let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0. xs in
    exp (logsum /. float_of_int (List.length xs))

let stdev xs =
  let n = List.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let minimum = function
  | [] -> nan
  | x :: xs -> List.fold_left Float.min x xs

let maximum = function
  | [] -> nan
  | x :: xs -> List.fold_left Float.max x xs

let quantile q xs =
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of [0,1]";
  match xs with
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
    if lo = hi then a.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end

let median xs = quantile 0.5 xs

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  median : float;
  max : float;
}

let summarize xs =
  {
    n = List.length xs;
    mean = mean xs;
    stdev = stdev xs;
    min = minimum xs;
    median = median xs;
    max = maximum xs;
  }
