(* Tests of the benchmark's own generator and checkers (indep.ml): a
   checker that accepts everything would make every workload pass. *)

module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Pattern = Bose_hardware.Pattern

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* A realistic plan: the program's chain decomposition of a generated
   unitary, read back through the text format the serve replies use. *)
let decomposed n seed =
  let u = Indep.haar (Indep.rng seed) n in
  let plan = Eliminate.decompose (Pattern.chain n) (Conv.to_mat u) in
  (u, Indep.parse_plan (Plan.to_string plan))

let () =
  (* Generator. *)
  let a = Indep.haar (Indep.rng 5) 24 and b = Indep.haar (Indep.rng 5) 24 in
  let c = Indep.haar (Indep.rng 6) 24 in
  expect "same seed, same matrix" (a.re = b.re && a.im = b.im);
  expect "other seed, other matrix" (Indep.max_abs_diff a c > 1e-3);
  List.iter
    (fun n ->
       let e = Indep.unitarity_error (Indep.haar (Indep.rng n) n) in
       expect (Printf.sprintf "generated %dx%d is unitary to 1e-12 (%.1e)" n n e) (e <= 1e-12))
    [ 2; 17; 64 ];
  (* Replay of a hand-built single-rotation plan:
     Λ·T = diag(λ0, λ1) · [[e^{iφ}c, -s], [e^{iφ}s, c]]. *)
  let th = 0.3 and ph = 0.7 and l0 = 1.1 and l1 = -0.4 in
  let plan =
    {
      Indep.modes = 2;
      rots = [| { Indep.m = 0; k = 1; c = cos th; s = sin th; er = cos ph; ei = sin ph } |];
      lam_re = [| cos l0; cos l1 |];
      lam_im = [| sin l0; sin l1 |];
    }
  in
  let mul (ar, ai) (br, bi) = ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)) in
  let e = (cos ph, sin ph) and lam0 = (cos l0, sin l0) and lam1 = (cos l1, sin l1) in
  let entries =
    [|
      mul lam0 (mul e (cos th, 0.));
      mul lam0 (-.sin th, 0.);
      mul lam1 (mul e (sin th, 0.));
      mul lam1 (cos th, 0.);
    |]
  in
  let expected =
    { Indep.n = 2; re = Array.map fst entries; im = Array.map snd entries }
  in
  expect "single-rotation plan replays to its known product"
    (Indep.max_abs_diff (Indep.replay plan) expected <= 1e-15);
  (* Replay of real plans, and rejection of corrupted ones. *)
  let u, p = decomposed 12 3 in
  let err = Indep.max_abs_diff (Indep.replay p) u in
  expect (Printf.sprintf "decomposition replays to its input (%.1e)" err) (err <= 1e-12);
  let flipped = Array.copy p.rots in
  let i = Array.length flipped / 2 in
  flipped.(i) <- { (flipped.(i)) with s = -.flipped.(i).s };
  expect "a plan with one flipped sign is rejected"
    (Indep.max_abs_diff (Indep.replay { p with rots = flipped }) u > 1e-9);
  let swapped = Array.copy p.rots in
  (* Two consecutive chain rotations share a mode, so they do not commute. *)
  let j =
    let rec find j =
      let r0 = swapped.(j) and r1 = swapped.(j + 1) in
      if r0.m = r1.m || r0.m = r1.k || r0.k = r1.m || r0.k = r1.k then j else find (j + 1)
    in
    find 0
  in
  let x = swapped.(j) in
  swapped.(j) <- swapped.(j + 1);
  swapped.(j + 1) <- x;
  expect "a plan with one swapped rotation pair is rejected"
    (Indep.max_abs_diff (Indep.replay { p with rots = swapped }) u > 1e-9);
  (* Dropout masks: keeping everything is exact, dropping loses fidelity. *)
  let all = Indep.hard_mask p ~kept:(Array.length p.rots) in
  expect "hard mask keeping every rotation has fidelity 1"
    (Float.abs (Indep.fidelity (Indep.replay ~kept:all p) u -. 1.) <= 1e-12);
  let some = Indep.hard_mask p ~kept:(Array.length p.rots / 2) in
  expect "hard mask dropping half the rotations loses fidelity"
    (Indep.fidelity (Indep.replay ~kept:some p) u < 0.999);
  (* The text format of serve replies. *)
  let m = Conv.to_mat (Indep.haar (Indep.rng 9) 5) in
  let back = Indep.parse_unitary (Bose_linalg.Unitary.to_string m) in
  expect "unitary text parses bit-exactly" (Indep.max_abs_diff back (Conv.of_mat m) = 0.);
  (* Photon parity. *)
  expect "even-photon sample passes the parity check" (Indep.even_parity [ 1; 1; 0; 2 ]);
  expect "odd-photon sample fails the parity check" (not (Indep.even_parity [ 1; 0; 0; 0 ]));
  (* The sampled-mask margin grows with the spread and shrinks with samples. *)
  let m1 = Indep.sampled_margin ~sigma:1e-4 ~policy_trials:40 ~samples:24 in
  let m2 = Indep.sampled_margin ~sigma:1e-4 ~policy_trials:40 ~samples:96 in
  expect "margin shrinks with more samples" (m2 < m1 && m1 < 1e-3);
  if !failures > 0 then begin
    Printf.printf "%d checker test(s) failed\n" !failures;
    exit 1
  end
