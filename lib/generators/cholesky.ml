let generate ?pipeline_broadcasts ~n () =
  if n <= 0 then invalid_arg "Cholesky.generate: n must be positive";
  let t = Tiled.create () in
  for k = 0 to n - 1 do
    Tiled.add_kernel t Kernels.Potrf
      ~name:(Tiled.name "potrf" [| k |])
      ~reads:[] ~writes:(k, k);
    for i = k + 1 to n - 1 do
      Tiled.add_kernel t Kernels.Trsm_l
        ~name:(Tiled.name "trsm" [| i; k |])
        ~reads:[ (k, k) ] ~writes:(i, k)
    done;
    for i = k + 1 to n - 1 do
      Tiled.add_kernel t Kernels.Syrk
        ~name:(Tiled.name "syrk" [| i; k |])
        ~reads:[ (i, k) ] ~writes:(i, i);
      for j = k + 1 to i - 1 do
        Tiled.add_kernel t Kernels.Gemm
          ~name:(Tiled.name "gemm" [| i; j; k |])
          ~reads:[ (i, k); (j, k) ]
          ~writes:(i, j)
      done
    done
  done;
  Tiled.finalize ?pipeline_broadcasts t

let n_kernel_tasks ~n =
  (* Step k: 1 potrf + (n-1-k) trsm + (n-1-k) syrk + (n-1-k)(n-2-k)/2 gemm. *)
  let total = ref 0 in
  for k = 0 to n - 1 do
    let r = n - 1 - k in
    total := !total + 1 + r + r + (r * (r - 1) / 2)
  done;
  !total

let n_lower_tiles ~n = n * (n + 1) / 2
