let generate ?pipeline_broadcasts ~n () =
  if n <= 0 then invalid_arg "Lu.generate: n must be positive";
  let t = Tiled.create () in
  for k = 0 to n - 1 do
    Tiled.add_kernel t Kernels.Getrf
      ~name:(Tiled.name "getrf" [| k |])
      ~reads:[] ~writes:(k, k);
    for j = k + 1 to n - 1 do
      Tiled.add_kernel t Kernels.Trsm_l
        ~name:(Tiled.name "trsml" [| k; j |])
        ~reads:[ (k, k) ] ~writes:(k, j)
    done;
    for i = k + 1 to n - 1 do
      Tiled.add_kernel t Kernels.Trsm_u
        ~name:(Tiled.name "trsmu" [| i; k |])
        ~reads:[ (k, k) ] ~writes:(i, k)
    done;
    for i = k + 1 to n - 1 do
      for j = k + 1 to n - 1 do
        Tiled.add_kernel t Kernels.Gemm
          ~name:(Tiled.name "gemm" [| i; j; k |])
          ~reads:[ (i, k); (k, j) ]
          ~writes:(i, j)
      done
    done
  done;
  Tiled.finalize ?pipeline_broadcasts t

let n_kernel_tasks ~n =
  let total = ref 0 in
  for k = 0 to n - 1 do
    let r = n - 1 - k in
    total := !total + 1 + (2 * r) + (r * r)
  done;
  !total

let n_tiles ~n = n * n
