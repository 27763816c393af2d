(* Conversions between the program's matrices and the plain arrays of
   indep.ml. *)

module Mat = Bose_linalg.Mat
module Cx = Bose_linalg.Cx

let to_mat (c : Indep.cmat) =
  Mat.init c.n c.n (fun i j -> Cx.make c.re.((i * c.n) + j) c.im.((i * c.n) + j))

let of_mat m =
  let n = Mat.rows m in
  let c = Indep.identity n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let (v : Cx.t) = Mat.get m i j in
      c.re.((i * n) + j) <- v.re;
      c.im.((i * n) + j) <- v.im
    done
  done;
  c
