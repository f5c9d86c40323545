(* Tests for the platform model: k memory pools and the dual-memory views. *)

open Helpers

let p = Platform.make ~p_blue:2 ~p_red:3 ~m_blue:10. ~m_red:20.

let test_make_rejects () =
  Alcotest.check_raises "no blue procs"
    (Invalid_argument "Platform.make: processor counts must be positive") (fun () ->
      ignore (Platform.make ~p_blue:0 ~p_red:1 ~m_blue:1. ~m_red:1.));
  Alcotest.check_raises "negative memory"
    (Invalid_argument "Platform.make: negative memory capacity") (fun () ->
      ignore (Platform.make ~p_blue:1 ~p_red:1 ~m_blue:(-1.) ~m_red:1.))

let test_counts () =
  check_int "total" 5 (Platform.n_procs p);
  check_int "blue" 2 (Platform.n_procs_of p Platform.Blue);
  check_int "red" 3 (Platform.n_procs_of p Platform.Red)

let test_capacity () =
  check_float "blue" 10. (Platform.capacity p Platform.Blue);
  check_float "red" 20. (Platform.capacity p Platform.Red);
  let u = Platform.unbounded ~p_blue:1 ~p_red:1 in
  check_float "unbounded" infinity (Platform.capacity u Platform.Blue)

let test_memory_of_proc () =
  check_bool "proc 0 blue" true (Platform.memory_of_proc p 0 = Platform.Blue);
  check_bool "proc 1 blue" true (Platform.memory_of_proc p 1 = Platform.Blue);
  check_bool "proc 2 red" true (Platform.memory_of_proc p 2 = Platform.Red);
  check_bool "proc 4 red" true (Platform.memory_of_proc p 4 = Platform.Red);
  Alcotest.check_raises "out of range" (Invalid_argument "Platform.memory_of_proc: out of range")
    (fun () -> ignore (Platform.memory_of_proc p 5))

let test_procs_of () =
  Alcotest.(check (list int)) "blue procs" [ 0; 1 ] (Platform.procs_of p Platform.Blue);
  Alcotest.(check (list int)) "red procs" [ 2; 3; 4 ] (Platform.procs_of p Platform.Red);
  check_int "first red" 2 (Platform.first_proc p Platform.Red)

let test_other () =
  check_bool "other blue" true (Platform.other Platform.Blue = Platform.Red);
  check_bool "other red" true (Platform.other Platform.Red = Platform.Blue)

let test_with_bounds () =
  let p' = Platform.with_bounds p ~m_blue:1. ~m_red:2. in
  check_float "new blue" 1. (Platform.capacity p' Platform.Blue);
  check_int "procs preserved" 5 (Platform.n_procs p')

let test_w () =
  let g = Toy.dex () in
  check_float "T1 blue" 3. (Platform.w g 0 Platform.Blue);
  check_float "T1 red" 1. (Platform.w g 0 Platform.Red)

(* [nan < 0.] is false: the sign check alone would let a NaN capacity in. *)
let test_of_pools_rejects_nan () =
  Alcotest.check_raises "NaN capacity"
    (Invalid_argument "Platform.of_pools: memory capacity: NaN") (fun () ->
      ignore
        (Platform.of_pools
           [ { Platform.procs = 1; capacity = 1. }; { Platform.procs = 1; capacity = nan } ]))

let test_dual_views_need_two_pools () =
  let three = Platform.of_pools (List.init 3 (fun _ -> { Platform.procs = 1; capacity = 5. })) in
  let raises what f =
    check_bool what true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "capacity" (fun () -> Platform.capacity three Platform.Red);
  raises "n_procs_of" (fun () -> Platform.n_procs_of three Platform.Blue);
  raises "procs_of" (fun () -> Platform.procs_of three Platform.Blue);
  raises "memory_of_proc" (fun () -> Platform.memory_of_proc three 0);
  raises "with_bounds" (fun () -> Platform.with_bounds three ~m_blue:1. ~m_red:1.);
  check_int "pool views still work" 3 (Platform.n_procs three)

let () =
  Alcotest.run "platform"
    [ ( "platform",
        [ Alcotest.test_case "make rejects" `Quick test_make_rejects;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "memory_of_proc" `Quick test_memory_of_proc;
          Alcotest.test_case "procs_of" `Quick test_procs_of;
          Alcotest.test_case "other" `Quick test_other;
          Alcotest.test_case "with_bounds" `Quick test_with_bounds;
          Alcotest.test_case "task durations" `Quick test_w;
          Alcotest.test_case "of_pools rejects NaN" `Quick test_of_pools_rejects_nan;
          Alcotest.test_case "dual views need two pools" `Quick test_dual_views_need_two_pools ] ) ]
