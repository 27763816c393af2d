(* The benchmark's own reference code: a seeded generator and the
   output checks, written over plain float arrays so that nothing here
   depends on the compiler's libraries. A change to the program's
   [Rng], [Unitary.haar_random], [Plan.reconstruct] or fidelity code
   leaves both the inputs and the verdicts of this file unchanged. *)

(* ---- Generator: splitmix64, Box-Muller, Gram-Schmidt Haar ---- *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1) with 53 random bits. *)
let uniform r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

let int r bound = int_of_float (uniform r *. float_of_int bound)

let gaussian r =
  let u1 = 1. -. uniform r and u2 = uniform r in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

(* A dense complex matrix, row-major, real and imaginary planes apart. *)
type cmat = { n : int; re : float array; im : float array }

let identity n =
  let m = { n; re = Array.make (n * n) 0.; im = Array.make (n * n) 0. } in
  for i = 0 to n - 1 do
    m.re.((i * n) + i) <- 1.
  done;
  m

(* Haar-random unitary: Gram-Schmidt (two passes) over the columns of a
   complex Ginibre matrix. Gram-Schmidt leaves R with a positive real
   diagonal, which is exactly Mezzadri's phase fix, so Q is Haar. *)
let haar r n =
  let s = sqrt 0.5 in
  let cr = Array.init n (fun _ -> Array.make n 0.) in
  let ci = Array.init n (fun _ -> Array.make n 0.) in
  (* Row-major draw order, so the matrix does not depend on how the
     columns are stored. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      cr.(j).(i) <- s *. gaussian r;
      ci.(j).(i) <- s *. gaussian r
    done
  done;
  for j = 0 to n - 1 do
    let vr = cr.(j) and vi = ci.(j) in
    for _pass = 1 to 2 do
      for k = 0 to j - 1 do
        let qr = cr.(k) and qi = ci.(k) in
        let dr = ref 0. and di = ref 0. in
        for i = 0 to n - 1 do
          dr := !dr +. (qr.(i) *. vr.(i)) +. (qi.(i) *. vi.(i));
          di := !di +. (qr.(i) *. vi.(i)) -. (qi.(i) *. vr.(i))
        done;
        let dr = !dr and di = !di in
        for i = 0 to n - 1 do
          vr.(i) <- vr.(i) -. ((dr *. qr.(i)) -. (di *. qi.(i)));
          vi.(i) <- vi.(i) -. ((dr *. qi.(i)) +. (di *. qr.(i)))
        done
      done
    done;
    let norm = ref 0. in
    for i = 0 to n - 1 do
      norm := !norm +. (vr.(i) *. vr.(i)) +. (vi.(i) *. vi.(i))
    done;
    let inv = 1. /. sqrt !norm in
    for i = 0 to n - 1 do
      vr.(i) <- vr.(i) *. inv;
      vi.(i) <- vi.(i) *. inv
    done
  done;
  let m = { n; re = Array.make (n * n) 0.; im = Array.make (n * n) 0. } in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      m.re.((i * n) + j) <- cr.(j).(i);
      m.im.((i * n) + j) <- ci.(j).(i)
    done
  done;
  m

(* max |(U U^dagger - I)_ij| *)
let unitarity_error u =
  let n = u.n in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let sr = ref 0. and si = ref 0. in
      for j = 0 to n - 1 do
        let ar = u.re.((i * n) + j) and ai = u.im.((i * n) + j) in
        let br = u.re.((k * n) + j) and bi = u.im.((k * n) + j) in
        sr := !sr +. (ar *. br) +. (ai *. bi);
        si := !si +. (ai *. br) -. (ar *. bi)
      done;
      let target = if i = k then 1. else 0. in
      worst := Float.max !worst (Float.hypot (!sr -. target) !si)
    done
  done;
  !worst

(* ---- Plans, replayed as Λ · T_K ⋯ T_1 ---- *)

(* One rotation in the plan's stored form: T[m][m] = e^{iφ} c,
   T[m][n] = -s, T[n][m] = e^{iφ} s, T[n][n] = c. *)
type rot = { m : int; k : int; c : float; s : float; er : float; ei : float }

type plan = { modes : int; rots : rot array; lam_re : float array; lam_im : float array }

(* Left-multiply rows m and n by T; a dropped rotation keeps its phase
   and loses its mixing (c = 1, s = 0). *)
let replay ?kept p =
  let n = p.modes in
  let u = identity n in
  let re = u.re and im = u.im in
  Array.iteri
    (fun idx r ->
       let c, s =
         match kept with Some mask when not mask.(idx) -> (1., 0.) | _ -> (r.c, r.s)
       in
       let ecr = r.er *. c and eci = r.ei *. c in
       let esr = r.er *. s and esi = r.ei *. s in
       let om = r.m * n and on = r.k * n in
       for j = 0 to n - 1 do
         let ar = re.(om + j) and ai = im.(om + j) in
         let br = re.(on + j) and bi = im.(on + j) in
         re.(om + j) <- (ecr *. ar) -. (eci *. ai) -. (s *. br);
         im.(om + j) <- (ecr *. ai) +. (eci *. ar) -. (s *. bi);
         re.(on + j) <- (esr *. ar) -. (esi *. ai) +. (c *. br);
         im.(on + j) <- (esr *. ai) +. (esi *. ar) +. (c *. bi)
       done)
    p.rots;
  for i = 0 to n - 1 do
    let lr = p.lam_re.(i) and li = p.lam_im.(i) in
    for j = 0 to n - 1 do
      let o = (i * n) + j in
      let ar = re.(o) and ai = im.(o) in
      re.(o) <- (lr *. ar) -. (li *. ai);
      im.(o) <- (lr *. ai) +. (li *. ar)
    done
  done;
  u

let max_abs_diff a b =
  if a.n <> b.n then infinity
  else begin
    let worst = ref 0. in
    for o = 0 to (a.n * a.n) - 1 do
      worst := Float.max !worst (Float.hypot (a.re.(o) -. b.re.(o)) (a.im.(o) -. b.im.(o)))
    done;
    !worst
  end

(* |tr(A · B^dagger)| / N *)
let fidelity a b =
  let sr = ref 0. and si = ref 0. in
  for o = 0 to (a.n * a.n) - 1 do
    sr := !sr +. (a.re.(o) *. b.re.(o)) +. (a.im.(o) *. b.im.(o));
    si := !si +. (a.im.(o) *. b.re.(o)) -. (a.re.(o) *. b.im.(o))
  done;
  Float.hypot !sr !si /. float_of_int a.n

(* Keep the [kept] rotations of largest |θ| = atan2(s, c). *)
let hard_mask p ~kept =
  let total = Array.length p.rots in
  let theta = Array.map (fun r -> Float.atan2 r.s r.c) p.rots in
  let order = Array.init total (fun i -> i) in
  Array.stable_sort (fun i j -> compare theta.(i) theta.(j)) order;
  let mask = Array.make total true in
  for r = 0 to total - kept - 1 do
    mask.(order.(r)) <- false
  done;
  mask

(* The Monte-Carlo margin for a sampled-mask mean against the policy's
   τ_K. τ_K is the mean of [policy_trials] fidelities for the power that
   won a maximum over [powers] candidates; our estimate is the mean of
   [samples] fresh masks. Both have the per-mask standard deviation σ
   of the same distribution (estimated from our samples). By the union
   bound over the candidates and our own estimate, |mean − τ_K| stays
   below z·σ·(1/√L + 1/√m) unless an error beyond z standard errors
   occurred; z = 8 makes that chance negligible (and covers σ being
   underestimated by up to a factor 2). *)
let sampled_margin ~sigma ~policy_trials ~samples =
  let z = 8. in
  (z *. sigma *. ((1. /. sqrt (float_of_int policy_trials)) +. (1. /. sqrt (float_of_int samples))))
  +. 1e-12

let mean_sd xs =
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0. xs /. n in
  let var = Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.) in
  (mean, sqrt var)

(* ---- The text formats of serve replies (hex floats) ---- *)

let words line = List.filter (fun w -> w <> "") (String.split_on_char ' ' line)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* "plan N K", then K lines "r row m n c s ere eim", then N lines "l re im". *)
let parse_plan text =
  match lines text with
  | header :: rest ->
    (match words header with
     | [ "plan"; n; k ] ->
       let n = int_of_string n and k = int_of_string k in
       let body = Array.of_list rest in
       if Array.length body <> k + n then failwith "plan: wrong line count";
       let rots =
         Array.init k (fun i ->
             match words body.(i) with
             | [ "r"; _row; m; kk; c; s; er; ei ] ->
               {
                 m = int_of_string m;
                 k = int_of_string kk;
                 c = float_of_string c;
                 s = float_of_string s;
                 er = float_of_string er;
                 ei = float_of_string ei;
               }
             | _ -> failwith "plan: bad rotation line")
       in
       let lam = Array.init n (fun i -> words body.(k + i)) in
       let part f =
         Array.map
           (function [ "l"; re; im ] -> f (float_of_string re, float_of_string im) | _ -> failwith "plan: bad lambda line")
           lam
       in
       { modes = n; rots; lam_re = part fst; lam_im = part snd }
     | _ -> failwith "plan: bad header")
  | [] -> failwith "plan: empty"

(* "unitary N", then N² lines "e re im", row-major. *)
let parse_unitary text =
  match lines text with
  | header :: rest ->
    (match words header with
     | [ "unitary"; n ] ->
       let n = int_of_string n in
       let body = Array.of_list rest in
       if Array.length body <> n * n then failwith "unitary: wrong line count";
       let u = { n; re = Array.make (n * n) 0.; im = Array.make (n * n) 0. } in
       Array.iteri
         (fun o l ->
            match words l with
            | [ "e"; re; im ] ->
              u.re.(o) <- float_of_string re;
              u.im.(o) <- float_of_string im
            | _ -> failwith "unitary: bad entry line")
         body;
       u
     | _ -> failwith "unitary: bad header")
  | [] -> failwith "unitary: empty"

(* Squeezed vacuum through a lossless interferometer emits photons in
   pairs: every complete sample has an even total. *)
let even_parity sample = List.fold_left ( + ) 0 sample mod 2 = 0
