let column width horizon t =
  if horizon <= 0. then 0
  else begin
    let c = int_of_float (float_of_int width *. t /. horizon) in
    max 0 (min (width - 1) c)
  end

let task_lanes width g platform s =
  let horizon = Schedule.makespan g platform s in
  let nprocs = Platform.n_procs platform in
  let lanes = Array.init nprocs (fun _ -> Bytes.make width '.') in
  for i = 0 to Dag.n_tasks g - 1 do
    let p = s.Schedule.procs.(i) in
    let t0 = s.Schedule.starts.(i) and t1 = Schedule.finish g platform s i in
    let c0 = column width horizon t0 in
    let c1 = max c0 (column width horizon t1 - if t1 < horizon then 1 else 0) in
    let label = Dag.name g i in
    for c = c0 to c1 do
      let k = c - c0 in
      let ch = if k < String.length label then label.[k] else '=' in
      Bytes.set lanes.(p) c ch
    done
  done;
  (horizon, lanes)

let memory_lane width g platform s mem =
  let horizon = Schedule.makespan g platform s in
  let trace = Events.memory_trace g platform s in
  let peak = Events.peak trace mem in
  let lane = Bytes.make width ' ' in
  if peak > 0. && horizon > 0. then
    for c = 0 to width - 1 do
      let t = horizon *. float_of_int c /. float_of_int width in
      let u = Events.usage_at trace mem t in
      let level = int_of_float (9.0 *. u /. peak +. 0.5) in
      Bytes.set lane c (if level <= 0 then '.' else Char.chr (Char.code '0' + min 9 level))
    done;
  (peak, lane)

let render ?(width = 72) g platform s =
  let buf = Buffer.create 1024 in
  let horizon, lanes = task_lanes width g platform s in
  Buffer.add_string buf (Printf.sprintf "makespan = %g\n" horizon);
  Array.iteri
    (fun p lane ->
      let mem = Platform.memory_of_proc platform p in
      Buffer.add_string buf
        (Printf.sprintf "P%-2d %-4s |%s|\n" p (Platform.memory_to_string mem) (Bytes.to_string lane)))
    lanes;
  List.iter
    (fun mem ->
      let peak, lane = memory_lane width g platform s mem in
      Buffer.add_string buf
        (Printf.sprintf "mem %-4s |%s| peak=%g\n" (Platform.memory_to_string mem)
           (Bytes.to_string lane) peak))
    Platform.memories;
  Buffer.contents buf

let render_memory_profile ?(width = 72) g platform s =
  let buf = Buffer.create 256 in
  List.iter
    (fun mem ->
      let peak, lane = memory_lane width g platform s mem in
      Buffer.add_string buf
        (Printf.sprintf "mem %-4s |%s| peak=%g\n" (Platform.memory_to_string mem)
           (Bytes.to_string lane) peak))
    Platform.memories;
  Buffer.contents buf
