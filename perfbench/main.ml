(* The repository's end-to-end benchmark. Run through perfbench/run.py,
   which builds this executable and bosec in release mode:

     main.exe --workload fullopt-64|baseline-500|serve-mix|fullopt-200 --seed N
              --seconds S --trace 0|1 --bosec PATH --work DIR

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics
   are the end-to-end ones, with --trace 1 the per-layer ones (see
   README.md for what each means on each workload). *)

module Mat = Bose_linalg.Mat
module Cx = Bose_linalg.Cx
module Perm = Bose_linalg.Perm
module Unitary = Bose_linalg.Unitary
module Rng = Bose_util.Rng
module Lattice = Bose_hardware.Lattice
module Pattern = Bose_hardware.Pattern
module Embedding = Bose_hardware.Embedding
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout
module Pool = Bose_par.Pool
module Obs = Bose_obs.Obs
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
module Flow = Bose_flow.Flow
module Diskcache = Bose_store.Diskcache
module Serve = Bose_serve.Serve
module Json = Bose_serve.Json
module Circuit = Bose_circuit.Circuit
module Gaussian = Bose_gbs.Gaussian
module Sampler = Bose_gbs.Sampler
module Compiler = Bosehedral.Compiler
module Config = Bosehedral.Config
module Pass = Bosehedral.Pass
module Pipeline = Bosehedral.Pipeline

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Collect first, so that every timed operation starts from the same
   heap state whatever ran before it; the collection is not timed. *)
let timed_clean f =
  Gc.full_major ();
  timed f

(* Median of [reps] timings of [f]. *)
let median_time reps f = median (List.init reps (fun _ -> snd (timed_clean f)))

(* The number after "[key]:" on the first line of [path] that starts
   with it; nan when there is none. *)
let read_field path key =
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let prefix = key ^ ":" in
        let skip = String.length prefix in
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix line ->
            Scanf.sscanf (String.sub line skip (String.length line - skip)) " %f" Fun.id
          | _ -> scan ()
          | exception End_of_file -> nan
        in
        scan ())

let vm_hwm_mb path = read_field path "VmHWM" /. 1024.

(* Operations and the outcome of every check made on them. *)
type tally = { mutable attempted : int; mutable failed : int; mutable correct : bool }

let tally () = { attempted = 0; failed = 0; correct = true }

let check t what ok =
  if not ok then begin
    t.correct <- false;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

type metric = { name : string; unit_ : string; value : float }

(* A value that is not a finite number is printed as null (JSON has no
   nan) and makes the run incorrect. *)
let print_result t metrics =
  let m =
    List.map
      (fun m ->
         check t (m.name ^ " is a finite number") (Float.is_finite m.value);
         let v = if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "null" in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name v m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    t.correct t.attempted t.failed (String.concat ", " m)

(* ------------------------------------------------------------------ *)
(* Conversions between the program's types and the checker's arrays   *)

let plan_of (p : Plan.t) : Indep.plan =
  {
    modes = p.Plan.modes;
    rots =
      Array.map
        (fun (e : Plan.element) ->
           let r = e.Plan.rotation in
           {
             Indep.m = r.Bose_linalg.Givens.m;
             k = r.n;
             c = r.c;
             s = r.s;
             er = r.ere;
             ei = r.eim;
           })
        p.Plan.elements;
    lam_re = Array.map (fun (l : Cx.t) -> l.re) p.Plan.lambda;
    lam_im = Array.map (fun (l : Cx.t) -> l.im) p.Plan.lambda;
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* The compile workloads: fullopt-200 and baseline-500                 *)

type compile_spec = {
  n : int;
  rows : int;
  cols : int;
  config : Config.t;
  tau : float;
  passes : int;  (** Passes over the compile's artifacts per round. *)
  hits : int;  (** Cache-hit recompiles per pass. *)
  checks : int;  (** Self-checks per pass. *)
  shots : int;  (** Shot circuits per pass. *)
  masks : int;  (** Sampled dropout masks checked per round. *)
  fixed_input : int option;
      (** [Some s]: the program is drawn from generator seed [s] whatever
          --seed says, because the BH0503 fault fires on some programs of
          this configuration and not on others, and the share of failed
          operations must not depend on the seed; [None]: drawn from
          --seed. *)
}

(* The program's own compile seed, as `bosec compile` uses by default. *)
let compile_seed = 2024

let fullopt_200 =
  {
    n = 200;
    rows = 3;
    cols = 67;
    config = Config.Full_opt;
    tau = 0.95;
    passes = 10;
    hits = 3;
    checks = 1;
    shots = 6;
    masks = 24;
    fixed_input = Some 1;
  }

(* The paper's configuration at a size where a 30-s run holds about ten
   compiles, so that the dropout policy checks run in a steady run. *)
let fullopt_64 =
  {
    n = 64;
    rows = 3;
    cols = 22;
    config = Config.Full_opt;
    tau = 0.95;
    passes = 2;
    hits = 2;
    checks = 1;
    shots = 3;
    masks = 24;
    fixed_input = Some 1;
  }

let baseline_500 =
  {
    n = 500;
    rows = 3;
    cols = 167;
    config = Config.Baseline;
    tau = 0.999;
    passes = 1;
    hits = 2;
    checks = 1;
    shots = 4;
    masks = 0;
    fixed_input = None;
  }

type compile_env = {
  spec : compile_spec;
  device : Lattice.t;
  u_ref : Indep.cmat;
  u : Mat.t;
  pool : Pool.t;
}

let setup_compile spec ~seed =
  let device = Lattice.create ~rows:spec.rows ~cols:spec.cols in
  let input_seed = Option.value spec.fixed_input ~default:seed in
  let u_ref = Indep.haar (Indep.rng input_seed) spec.n in
  let u = Conv.to_mat u_ref in
  let pool = Pool.create ~domains:2 in
  (* Warm-up: one small compile of the same configuration. *)
  let small = Conv.to_mat (Indep.haar (Indep.rng (seed + 7)) 16) in
  ignore
    (Compiler.compile ~tau:spec.tau ~pool ~rng:(Rng.create compile_seed) ~device
       ~config:spec.config small);
  { spec; device; u_ref; u; pool }

let compile_once env ?cache () =
  Compiler.compile ~tau:env.spec.tau ?cache ~pool:env.pool ~rng:(Rng.create compile_seed)
    ~device:env.device ~config:env.spec.config env.u

(* Record a finished compile's artifacts in [cache] under the same pass
   fingerprints a cached compile would have used: the default passes'
   fingerprint functions, with bodies that return the known artifacts.
   A later [compile_once ~cache] then replays every pass from the cache,
   which is the path a serve in-memory hit takes. *)
let prime_cache cache env (c : Compiler.t) =
  let ctx =
    Pass.context ~tau:env.spec.tau ~rng:(Rng.create compile_seed) ~device:env.device
      ~config:env.spec.config ~source:Pass.Device ~ws:(Mat.workspace ()) env.u
  in
  let known (p : Pass.t) artifact = { p with Pass.run = (fun _ -> artifact) } in
  let pipeline =
    Pipeline.make
      [
        known Pass.embed (Pass.Apattern c.Compiler.pattern);
        known Pass.map (Pass.Amapping c.Compiler.mapping);
        known Pass.decompose (Pass.Aplan c.Compiler.plan);
        known Pass.dropout (Pass.Apolicy c.Compiler.policy);
      ]
  in
  ignore (Pipeline.run ~cache pipeline ctx)

(* The independent checks on one compile. With [~full:false] (a compile
   identical to one already verified in this run) only the sampled-mask
   check runs, since it draws fresh masks each time. *)
let verify_compile t env ~rng ~full (c : Compiler.t) =
  let spec = env.spec in
  let n = spec.n in
  let p = plan_of c.Compiler.plan in
  let permuted = Conv.of_mat c.Compiler.mapping.Mapping.permuted in
  if full then begin
    let replay_err = Indep.max_abs_diff (Indep.replay p) permuted in
    check t (Printf.sprintf "plan replays to the permuted unitary (err %g)" replay_err)
      (replay_err <= 1e-9);
    let rp = c.Compiler.mapping.Mapping.row_perm and cp = c.Compiler.mapping.Mapping.col_perm in
    let exact = ref true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let (v : Cx.t) = Mat.get c.Compiler.mapping.Mapping.permuted (Perm.apply rp i) (Perm.apply cp j) in
        let o = (i * n) + j in
        if not (same_bits v.re env.u_ref.re.(o) && same_bits v.im env.u_ref.im.(o)) then
          exact := false
      done
    done;
    check t "un-permuting the mapping recovers the input bit-exactly" !exact;
    let pattern = c.Compiler.pattern in
    let edge a b = Pattern.parent pattern a = Some b || Pattern.parent pattern b = Some a in
    let adjacent a b =
      match (Pattern.site pattern a, Pattern.site pattern b) with
      | Some sa, Some sb ->
        let ra = sa / spec.cols and ca = sa mod spec.cols in
        let rb = sb / spec.cols and cb = sb mod spec.cols in
        abs (ra - rb) + abs (ca - cb) = 1
      | _ -> false
    in
    check t "every rotation addresses a coupled pattern edge"
      (Array.for_all (fun (r : Indep.rot) -> edge r.m r.k && adjacent r.m r.k) p.rots);
    check t "full rotation count" (Array.length p.rots = n * (n - 1) / 2)
  end;
  match c.Compiler.policy with
  | None -> ()
  | Some pol ->
    if full then begin
      let hard = Indep.hard_mask p ~kept:pol.Dropout.kept_count in
      let fh = Indep.fidelity (Indep.replay ~kept:hard p) permuted in
      check t (Printf.sprintf "hard mask fidelity %.9f >= tau %g" fh spec.tau)
        (fh >= spec.tau -. 1e-12)
    end;
    let fids =
      Array.init spec.masks (fun _ ->
          let mask = Dropout.sample_kept rng pol c.Compiler.plan in
          check t "sampled mask keeps M rotations"
            (Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask = pol.Dropout.kept_count);
          Indep.fidelity (Indep.replay ~kept:mask p) permuted)
    in
    let mean, sd = Indep.mean_sd fids in
    let _, trials = Pass.dropout_knobs Pass.Standard n in
    let margin = Indep.sampled_margin ~sigma:sd ~policy_trials:trials ~samples:spec.masks in
    check t
      (Printf.sprintf "sampled-mask mean %.9f within %.2g of tau_K %.9f" mean margin
         pol.Dropout.expected_fidelity)
      (Float.abs (mean -. pol.Dropout.expected_fidelity) <= margin)

(* The self-check `bosec compile` runs. Returns [true] when the only
   errors are the known BH0503 fault (the operation counts as failed);
   any other error is a correctness failure. *)
let self_check t env c =
  let errors = List.filter Diag.is_error (Compiler.lint ~unitary:env.u c) in
  let other = List.filter (fun d -> d.Diag.code <> "BH0503") errors in
  List.iter (fun d -> Format.eprintf "perfbench: self-check: %a@." Diag.pp d) other;
  check t "self-check reports no error other than BH0503" (other = []);
  errors <> [] && other = []

type compile_samples = {
  mutable compile_s : float list;
  mutable check_s : float list;
  mutable hit_ms : float list;
  mutable shot_ms : float list;
  mutable alloc_gb : float list;
  mutable bs_kept : int;
  mutable verified : (string * int array * int array) option;
      (** Plan bytes and permutations of the last fully verified compile. *)
}

(* One round: a compile as `bosec compile` runs it, then [passes]
   passes of [hits] recompiles replayed from a pass cache holding its
   artifacts, [checks] runs of the self-check and [shots] shot circuits,
   then the independent checks (outside every timer). The passes spread
   each kind of operation over the seconds after the compile: on the
   reference host memory-bound calls run at one of two speeds that
   alternate every few seconds, and a burst of one kind would catch
   only one of them. *)
let compile_round t env s ~rng =
  let spec = env.spec in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let c, dt = timed (fun () -> compile_once env ()) in
  s.alloc_gb <- ((Gc.allocated_bytes () -. a0) /. 1e9) :: s.alloc_gb;
  s.compile_s <- dt :: s.compile_s;
  t.attempted <- t.attempted + 1;
  let cache = Pipeline.Cache.create () in
  prime_cache cache env c;
  let cold_plan = Plan.to_string c.Compiler.plan in
  let known_fault = ref false in
  let kept = Compiler.beamsplitters_kept c in
  s.bs_kept <- kept;
  for _ = 1 to spec.passes do
    for _ = 1 to spec.hits do
      let h, dt = timed_clean (compile_once env ~cache) in
      s.hit_ms <- (dt *. 1e3) :: s.hit_ms;
      t.attempted <- t.attempted + 1;
      check t "cache hit replays every pass" (List.for_all snd h.Compiler.trace.Lint.executed);
      check t "cache hit reproduces the plan bytes" (Plan.to_string h.Compiler.plan = cold_plan)
    done;
    for _ = 1 to spec.checks do
      let fault, dt = timed_clean (fun () -> self_check t env c) in
      s.check_s <- dt :: s.check_s;
      known_fault := fault
    done;
    for _ = 1 to spec.shots do
      let circ, dt = timed_clean (fun () -> Compiler.shot_circuit rng c) in
      s.shot_ms <- (dt *. 1e3) :: s.shot_ms;
      t.attempted <- t.attempted + 1;
      check t "shot circuit carries M beamsplitters"
        ((Circuit.gate_counts circ).Circuit.beamsplitter = kept)
    done
  done;
  if !known_fault then t.failed <- t.failed + 1;
  let id =
    Some
      ( cold_plan,
        Perm.to_array c.Compiler.mapping.Mapping.row_perm,
        Perm.to_array c.Compiler.mapping.Mapping.col_perm )
  in
  verify_compile t env ~rng ~full:(id <> s.verified) c;
  s.verified <- id;
  c

let new_samples () =
  {
    compile_s = [];
    check_s = [];
    hit_ms = [];
    shot_ms = [];
    alloc_gb = [];
    bs_kept = 0;
    verified = None;
  }

(* Set up [setups] times (all environments but the last are torn down)
   and report the median: set-up time is gated, so it must be steady. *)
let setups = 5

let setup_median setup teardown =
  let rec go k times =
    let env, dt = timed setup in
    if k = 1 then (env, median (dt :: times))
    else begin
      teardown env;
      go (k - 1) (dt :: times)
    end
  in
  go setups []

let compile_e2e spec ~seed ~seconds =
  let env, setup_s = setup_median (fun () -> setup_compile spec ~seed) (fun e -> Pool.shutdown e.pool) in
  let t = tally () in
  let s = new_samples () in
  let rng = Rng.create (seed + 11) in
  let t0 = now () in
  let rec loop () =
    ignore (compile_round t env s ~rng);
    if now () -. t0 < seconds then loop ()
  in
  loop ();
  Pool.shutdown env.pool;
  let show name xs =
    Printf.eprintf "perfbench: %s samples:%s\n%!" name
      (String.concat "" (List.rev_map (Printf.sprintf " %.4g") xs))
  in
  show "compile_s" s.compile_s;
  show "check_s" s.check_s;
  show "hit_ms" s.hit_ms;
  show "shot_ms" s.shot_ms;
  ( t,
    [
      { name = "setup_s"; unit_ = "s"; value = setup_s };
      { name = "compile_s"; unit_ = "s"; value = median s.compile_s };
      { name = "check_s"; unit_ = "s"; value = median s.check_s };
      { name = "alloc_gb"; unit_ = "GB"; value = median s.alloc_gb };
      { name = "hit_ms"; unit_ = "ms"; value = median s.hit_ms };
      { name = "shot_ms"; unit_ = "ms"; value = median s.shot_ms };
      { name = "bs_kept"; unit_ = "count"; value = float_of_int s.bs_kept };
      { name = "peak_rss_mb"; unit_ = "MB"; value = vm_hwm_mb "/proc/self/status" };
    ] )

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)

(* Every per-layer metric, in BENCHMARK.json order. *)
let layer_metrics =
  [
    ("hardware.schedule_ms", "ms");
    ("decomp.decompose_s", "s");
    ("decomp.trial_decompositions", "count");
    ("decomp.replay_s", "s");
    ("decomp.plan_to_string_ms", "ms");
    ("linalg.haar_ms", "ms");
    ("linalg.unitary_to_string_ms", "ms");
    ("mapping.optimize_s", "s");
    ("mapping.polish_s", "s");
    ("mapping.polish_trials", "count");
    ("mapping.polish_accepted", "count");
    ("dropout.threshold_s", "s");
    ("dropout.policy_s", "s");
    ("dropout.fidelity_evals", "count");
    ("rng.sample_wor_ms", "ms");
    ("rng.sample_wor_mb", "MB");
    ("par.decompose_speedup", "x");
    ("par.pool_spawn_ms", "ms");
    ("core.fingerprint_ms", "ms");
    ("lint.plan_s", "s");
    ("lint.unitary_s", "s");
    ("lint.flow_s", "s");
    ("flow.analyze_ms", "ms");
    ("store.find_ms", "ms");
    ("store.store_ms", "ms");
    ("serve.handle_hit_ms", "ms");
    ("serve.json_parse_ms", "ms");
    ("serve.json_render_ms", "ms");
    ("gbs.sample_ms", "ms");
    ("trace.stage_sum_s", "s");
    ("trace.overhead_s", "s");
  ]

let layer_result t values =
  List.map
    (fun (name, unit_) ->
       let value = List.assoc_opt name values in
       check t (name ^ " was measured") (value <> None);
       { name; unit_; value = Option.value value ~default:nan })
    layer_metrics

let counter report name =
  float_of_int (Option.value (Obs.Report.counter report name) ~default:0)

(* The compile pipeline's four stages called one by one, exactly as the
   registered passes call them (same workspace discipline, same RNG
   stream), each under its own timer. Obs counters are switched on for
   the duration to count decompositions, polish trials and fidelity
   evaluations. Returns the plan and the per-stage metrics. *)
let staged_compile ?pool ~rng_seed ~device ~config ~tau u =
  let n = Mat.rows u in
  let ws = Mat.workspace () in
  let rng = Rng.create rng_seed in
  Obs.reset ();
  Obs.enable ();
  let pattern, t_embed =
    timed (fun () ->
        if Config.uses_tree_pattern config then Embedding.for_program device n
        else Embedding.baseline device n)
  in
  let (mapping : Mapping.t), t_optimize, t_polish =
    if Config.uses_mapping config then begin
      let first, t_opt =
        timed (fun () ->
            Mapping.optimize ~ws ?candidate_ks:(Pass.mapping_candidates Pass.Standard n) pattern u)
      in
      let trials = Pass.polish_trials Pass.Standard n in
      let m, t_pol =
        if trials > 0 then timed (fun () -> Mapping.polish ~ws ~trials ~tau ~rng pattern first)
        else (first, 0.)
      in
      (m, t_opt, t_pol)
    end
    else (Mapping.trivial u, 0., 0.)
  in
  let plan, t_decompose =
    timed (fun () -> Eliminate.decompose ~ws ?pool pattern mapping.Mapping.permuted)
  in
  let policy, t_policy =
    if Config.uses_dropout config then begin
      let powers, iterations = Pass.dropout_knobs Pass.Standard n in
      let p, dt =
        timed (fun () ->
            Dropout.make_policy ~ws ~powers ~iterations rng plan mapping.Mapping.permuted ~tau)
      in
      (Some p, dt)
    end
    else (None, 0.)
  in
  let report = Obs.Report.capture () in
  Obs.disable ();
  Obs.reset ();
  ( pattern,
    mapping,
    plan,
    policy,
    [
      ("decomp.trial_decompositions", counter report "decomp.decompositions");
      ("trace.stage_sum_s", t_embed +. t_optimize +. t_polish +. t_decompose +. t_policy);
    ]
    @ (if Config.uses_mapping config then
         [
           ("mapping.optimize_s", t_optimize);
           ("mapping.polish_s", t_polish);
           ("mapping.polish_trials", counter report "map.polish_trials");
           ("mapping.polish_accepted", counter report "map.polish_accepted");
         ]
       else [])
    @
    if Config.uses_dropout config then
      [
        ("dropout.policy_s", t_policy);
        ("dropout.fidelity_evals", counter report "dropout.fidelity_evals");
      ]
    else [] )

let lint_only pass_name ~unitary c =
  let others =
    List.filter_map
      (fun (p : Lint.pass) -> if p.Lint.name = pass_name then None else Some p.Lint.name)
      Lint.passes
  in
  Compiler.lint ~settings:{ Lint.default_settings with Lint.disabled_passes = others } ~unitary c

let pool_spawn_ms () =
  1e3
  *. median
       (List.init 3 (fun _ ->
            let p, dt = timed (fun () -> Pool.create ~domains:2) in
            Pool.shutdown p;
            dt))

(* ------------------------------------------------------------------ *)
(* serve-mix: one closed-loop connection to `bosec serve`              *)

let hit_modes = 32
let miss_modes = 16
let serve_tau = 0.999
let analyze_tau = 0.99
let hit_programs = 4
let sample_modes = 4
let sample_shots = 128
let sample_chains = 2

type req = Hit | Miss | Analyze | Sample

(* One round of the mix, in an order the seed shuffles each round. Hits
   and analyze requests walk the warmed programs in turn, so each program
   gets the same share of them whatever the seed. *)
let round_mix =
  List.init 16 (fun _ -> Hit) @ [ Miss; Miss; Analyze; Analyze; Sample; Sample; Sample; Sample ]

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type server = {
  pid : int;
  dir : string;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let request srv line =
  output_string srv.oc line;
  output_char srv.oc '\n';
  flush srv.oc;
  input_line srv.ic

let stderr_file dir = Filename.concat dir "stderr"

let start_server ~bosec ~dir =
  Unix.mkdir dir 0o755;
  (* A relative socket path stays under the sun_path length limit
     wherever the checkout lives. *)
  let sock = Filename.concat dir "s.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile (stderr_file dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* v=0x400: the OCaml runtime prints its allocation counters to stderr
     when the server exits, which is how the client sees the server's
     heap allocation. *)
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env bosec
      [| bosec; "serve"; "--socket"; sock; "--cache-dir"; Filename.concat dir "cache"; "--jobs"; "2" |]
      env devnull devnull err
  in
  Unix.close devnull;
  Unix.close err;
  let deadline = now () +. 30. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "bosec serve exited before accepting connections");
      if now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "bosec serve did not accept connections within 30 s"
      end;
      Unix.sleepf 0.005;
      connect ()
  in
  let fd = connect () in
  { pid; dir; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Ask the server to stop, wait until it has exited and remove its
   directory. Returns the words its heap allocated over its life (nan if
   it had to be killed). *)
let stop_server srv =
  (try ignore (request srv "{\"id\":0,\"op\":\"shutdown\"}") with _ -> ());
  (try Unix.close srv.fd with Unix.Unix_error _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      reap (tries - 1)
    | 0, _ ->
      Unix.kill srv.pid Sys.sigkill;
      ignore (Unix.waitpid [] srv.pid);
      false
    | _ -> true
  in
  let exited = reap 1000 in
  let words = if exited then read_field (stderr_file srv.dir) "allocated_words" else nan in
  rm_rf srv.dir;
  words

type hit_ref = {
  h_seed : int;
  h_key : string;
  h_plan_text : string;
  h_unitary_text : string;
  h_plan : Indep.plan;
  h_unitary : Indep.cmat;
}

let compile_line ~id ~modes ~rows ~cols ~seed =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"compile\",\"params\":{\"modes\":%d,\"rows\":%d,\"cols\":%d,\"seed\":%d,\"tau\":%g,\"config\":\"full-opt\"}}"
    id modes rows cols seed serve_tau

(* Reading replies with the server's own JSON codec: the checks below
   are on the plan and unitary text inside, not on the envelope. *)
let field k v =
  match Json.mem k v with Some x -> x | None -> failwith ("reply lacks field " ^ k)

let str_field k v =
  match Json.str (field k v) with Some s -> s | None -> failwith (k ^ " is not a string")

let int_field k v =
  match Json.int (field k v) with Some i -> i | None -> failwith (k ^ " is not an integer")

let ok_result reply =
  match Json.parse reply with
  | Error e -> failwith ("reply does not parse: " ^ e)
  | Ok v -> (
      match Json.mem "ok" v with
      | Some (Json.Bool true) -> field "result" v
      | _ -> failwith ("error reply: " ^ String.sub reply 0 (min 300 (String.length reply))))

(* A compile reply's plan must replay to the reply's unitary. *)
let replayed_reply t result =
  let plan_text = str_field "plan" result in
  let unitary_text = str_field "unitary" result in
  let plan = Indep.parse_plan plan_text and unitary = Indep.parse_unitary unitary_text in
  let err = Indep.max_abs_diff (Indep.replay plan) unitary in
  check t (Printf.sprintf "reply plan replays to the reply unitary (err %g)" err) (err <= 1e-9);
  (plan_text, unitary_text, plan, unitary)

(* A compile miss: the reply must be a cold compile whose plan replays. *)
let miss_request t srv ~id ~seed =
  let reply, dt =
    timed (fun () -> request srv (compile_line ~id ~modes:miss_modes ~rows:4 ~cols:4 ~seed))
  in
  let result = ok_result reply in
  check t "miss compiles cold" (Json.mem "cached" result = Some (Json.Str "none"));
  ignore (replayed_reply t result);
  dt

type serve_env = { srv : server; hits : hit_ref array }

let setup_serve ~bosec ~dir ~seed t =
  let srv = start_server ~bosec ~dir in
  let r = Indep.rng (seed + 3) in
  let warm i =
    let h_seed = 1 + Indep.int r 1_000_000_000 in
    let reply = request srv (compile_line ~id:i ~modes:hit_modes ~rows:6 ~cols:6 ~seed:h_seed) in
    let result = ok_result reply in
    let h_plan_text, h_unitary_text, h_plan, h_unitary = replayed_reply t result in
    { h_seed; h_key = str_field "key" result; h_plan_text; h_unitary_text; h_plan; h_unitary }
  in
  match Array.init hit_programs warm with
  | hits -> { srv; hits }
  | exception e ->
    ignore (stop_server srv);
    raise e

type serve_samples = {
  mutable hit_l : float list;
  mutable miss_l : float list;
  mutable analyze_l : float list;
  mutable sample_l : float list;
  mutable kept_l : float list;
}

(* The next program of [hits], in turn. *)
let cycler hits =
  let i = ref (-1) in
  fun () ->
    i := (!i + 1) mod Array.length hits;
    hits.(!i)

(* One round of the mix. A latency is recorded only once its reply has
   passed every check; a request that fails (an error reply, a reply
   that does not parse or lacks a field) is counted in [failed] and
   makes the run incorrect, since no request of the mix may fail. *)
let serve_round t env sm ~r ~next_id ~next_miss ~next_hit ~next_analyzed =
  let mix = Array.of_list round_mix in
  for i = Array.length mix - 1 downto 1 do
    let j = Indep.int r (i + 1) in
    let x = mix.(i) in
    mix.(i) <- mix.(j);
    mix.(j) <- x
  done;
  Array.iter
    (fun kind ->
       let id = next_id () in
       t.attempted <- t.attempted + 1;
       try
         match kind with
         | Hit ->
           let h = next_hit () in
           let reply, dt =
             timed (fun () ->
                 request env.srv (compile_line ~id ~modes:hit_modes ~rows:6 ~cols:6 ~seed:h.h_seed))
           in
           let result = ok_result reply in
           check t "hit is served from disk" (Json.mem "cached" result = Some (Json.Str "disk"));
           check t "hit plan bytes equal the first compile's"
             (str_field "plan" result = h.h_plan_text);
           check t "hit unitary bytes equal the first compile's"
             (str_field "unitary" result = h.h_unitary_text);
           sm.hit_l <- (dt *. 1e3) :: sm.hit_l
         | Miss ->
           let dt = miss_request t env.srv ~id ~seed:(next_miss ()) in
           sm.miss_l <- dt :: sm.miss_l
         | Analyze ->
           let h = next_analyzed () in
           let line =
             Printf.sprintf
               "{\"id\":%d,\"op\":\"analyze\",\"params\":{\"key\":%S,\"tau\":%g,\"seed\":%d}}" id
               h.h_key analyze_tau (Indep.int r 1_000_000)
           in
           let reply, dt = timed (fun () -> request env.srv line) in
           let report = field "report" (ok_result reply) in
           let total = hit_modes * (hit_modes - 1) / 2 in
           check t "analyze report covers the stored plan"
             (int_field "modes" report = hit_modes && int_field "rotations" report = total);
           let kept = int_field "kept" report in
           let f =
             Indep.fidelity (Indep.replay ~kept:(Indep.hard_mask h.h_plan ~kept) h.h_plan) h.h_unitary
           in
           check t (Printf.sprintf "analyze hard mask fidelity %.9f >= %g" f analyze_tau)
             (kept > 0 && kept <= total && f >= analyze_tau -. 1e-12);
           sm.kept_l <- float_of_int kept :: sm.kept_l;
           sm.analyze_l <- dt :: sm.analyze_l
         | Sample ->
           let line =
             Printf.sprintf
               "{\"id\":%d,\"op\":\"sample\",\"params\":{\"modes\":%d,\"shots\":%d,\"chains\":%d,\"seed\":%d}}"
               id sample_modes sample_shots sample_chains (Indep.int r 1_000_000)
           in
           let reply, dt = timed (fun () -> request env.srv line) in
           (match field "samples" (ok_result reply) with
            | Json.List samples ->
              check t "one sample per shot" (List.length samples = sample_shots);
              List.iter
                (function
                  | Json.Null -> ()
                  | Json.List counts ->
                    let counts =
                      List.map
                        (fun c ->
                           match Json.int c with
                           | Some k -> k
                           | None -> failwith "photon count is not an integer")
                        counts
                    in
                    check t "sample covers every mode" (List.length counts = sample_modes);
                    check t "sample photon number is even" (Indep.even_parity counts)
                  | _ -> failwith "sample is not a list")
                samples
            | _ -> failwith "samples is not a list");
           sm.sample_l <- (dt *. 1e3) :: sm.sample_l
       with Failure msg ->
         t.failed <- t.failed + 1;
         check t ("request succeeds: " ^ msg) false)
    mix

let serve_samples () = { hit_l = []; miss_l = []; analyze_l = []; sample_l = []; kept_l = [] }

(* Misses sent, outside every timer, to one of the servers torn down
   after set-up, to measure the server's heap allocation per miss. *)
let alloc_misses = 16

let serve_e2e ~bosec ~work ~seed ~seconds ~rounds =
  let t = tally () in
  let k = ref 0 in
  (* Servers 1 and 2 do the same set-up (same seed, same programs) and
     are torn down; server 2 then serves [alloc_misses] misses. The
     difference of their exit reports is the heap those misses
     allocated, whatever share of the mix misses make up. *)
  let words = Array.make setups nan in
  let teardown e =
    let sent =
      try
        if !k = 2 then begin
          let first = 1 + Indep.int (Indep.rng (seed + 13)) 1_000_000_000 in
          for i = 1 to alloc_misses do
            ignore (miss_request t e.srv ~id:(10_000 + i) ~seed:(first + i))
          done
        end;
        Ok ()
      with ex -> Error ex
    in
    words.(!k - 1) <- stop_server e.srv;
    match sent with Ok () -> () | Error ex -> raise ex
  in
  let env, setup_s =
    setup_median
      (fun () ->
         incr k;
         setup_serve ~bosec ~dir:(Filename.concat work (Printf.sprintf "srv%d" !k)) ~seed t)
      teardown
  in
  let sm = serve_samples () in
  let r = Indep.rng (seed + 5) in
  let id = ref 100 in
  let next_id () = incr id; !id in
  let miss = ref (1 + Indep.int r 1_000_000_000) in
  let next_miss () = incr miss; !miss in
  let next_hit = cycler env.hits and next_analyzed = cycler env.hits in
  let t0 = now () in
  let done_rounds = ref 0 in
  let rec loop () =
    serve_round t env sm ~r ~next_id ~next_miss ~next_hit ~next_analyzed;
    incr done_rounds;
    let more =
      match rounds with Some n -> !done_rounds < n | None -> now () -. t0 < seconds
    in
    if more then loop ()
  in
  let outcome = try Ok (loop ()) with e -> Error e in
  let rss = vm_hwm_mb (Printf.sprintf "/proc/%d/status" env.srv.pid) in
  ignore (stop_server env.srv);
  (match outcome with Ok () -> () | Error e -> raise e);
  let alloc_gb =
    (words.(1) -. words.(0)) *. float_of_int (Sys.word_size / 8) /. 1e9
    /. float_of_int alloc_misses
  in
  check t "server heap allocation was reported" (Float.is_finite alloc_gb && alloc_gb > 0.);
  ( t,
    [
      { name = "setup_s"; unit_ = "s"; value = setup_s };
      { name = "compile_s"; unit_ = "s"; value = median sm.miss_l };
      { name = "check_s"; unit_ = "s"; value = median sm.analyze_l };
      { name = "alloc_gb"; unit_ = "GB"; value = alloc_gb };
      { name = "hit_ms"; unit_ = "ms"; value = median sm.hit_l };
      { name = "shot_ms"; unit_ = "ms"; value = median sm.sample_l };
      { name = "bs_kept"; unit_ = "count"; value = median sm.kept_l };
      { name = "peak_rss_mb"; unit_ = "MB"; value = rss };
    ] )

(* Every layer timed in process at the serve-mix sizes: the miss-size
   compile staged pass by pass, and the calls a disk hit, an analyze and
   a sample request make on the server (the hit-size program stands in
   for the stored one). *)
let serve_layers t ~work ~seed =
  let r = Indep.rng (seed + 9) in
  (* The server draws a request's program from its seed and compiles it
     with a fresh generator on the same seed. *)
  let miss_seed = 1 + Indep.int r 1_000_000_000 in
  let hit_seed = 1 + Indep.int r 1_000_000_000 in
  let device16 = Lattice.create ~rows:4 ~cols:4 in
  let u16 = Unitary.haar_random (Rng.create miss_seed) miss_modes in
  let compile16 () =
    Compiler.compile ~tau:serve_tau ~rng:(Rng.create miss_seed) ~device:device16
      ~config:Config.Full_opt u16
  in
  let c16 = compile16 () in
  let t16 = median_time 3 compile16 in
  Gc.full_major ();
  let pattern16, _, plan16, _, stages =
    staged_compile ~rng_seed:miss_seed ~device:device16 ~config:Config.Full_opt ~tau:serve_tau u16
  in
  check t "staged compile reproduces Compiler.compile's plan bytes"
    (Plan.to_string plan16 = Plan.to_string c16.Compiler.plan);
  let stages =
    List.filter
      (fun (k, _) -> k <> "dropout.policy_s" && k <> "dropout.fidelity_evals")
      stages
  in
  let device32 = Lattice.create ~rows:6 ~cols:6 in
  let u32 = Unitary.haar_random (Rng.create hit_seed) hit_modes in
  let c32 =
    Compiler.compile ~tau:serve_tau ~rng:(Rng.create hit_seed) ~device:device32
      ~config:Config.Full_opt u32
  in
  let plan32 = c32.Compiler.plan and perm32 = c32.Compiler.mapping.Mapping.permuted in
  (* analyze: the policy rebuild and the flow analysis under its mask. *)
  Gc.full_major ();
  Obs.reset ();
  Obs.enable ();
  let policy, policy_s =
    timed (fun () -> Dropout.make_policy (Rng.create seed) plan32 perm32 ~tau:analyze_tau)
  in
  let evals = counter (Obs.Report.capture ()) "dropout.fidelity_evals" in
  Obs.disable ();
  Obs.reset ();
  let threshold_s = median_time 3 (fun () -> Dropout.find_threshold plan32 perm32 ~tau:analyze_tau) in
  let kept = Dropout.hard_kept policy plan32 in
  let flow_ms = 1e3 *. median_time 5 (fun () -> Flow.analyze ~kept plan32) in
  let wor_rng = Rng.create seed in
  let a0 = Gc.allocated_bytes () in
  let wor =
    median_time 5 (fun () ->
        Rng.sample_without_replacement wor_rng policy.Dropout.weights policy.Dropout.kept_count)
  in
  let wor_mb = (Gc.allocated_bytes () -. a0) /. 5. /. 1e6 in
  (* store: a fresh artifact written, a hot key read back. *)
  let store_dir = Filename.concat work "store" in
  let store = Diskcache.open_ ~dir:store_dir ~max_bytes:(64 * 1024 * 1024) in
  let key i = Printf.sprintf "%016x" (0xbe7c000 + i) in
  let meta = "fidelity=0x1p+0 rotations=496 modes=32" in
  let store_ms =
    1e3
    *. median
         (List.init 5 (fun i ->
              snd
                (timed_clean (fun () ->
                     Diskcache.store store ~key:(key i) ~meta ~plan:plan32 ~unitary:perm32))))
  in
  let find_ms =
    1e3
    *. median_time 10 (fun () ->
        match Diskcache.find store (key 0) with
        | Some _ -> ()
        | None -> check t "stored artifact is found" false)
  in
  (* serve: a disk hit handled in process, and its JSON codec. *)
  let srv = Serve.create ~cache_dir:(Filename.concat work "inproc") () in
  let line = compile_line ~id:1 ~modes:hit_modes ~rows:6 ~cols:6 ~seed:hit_seed in
  ignore (Serve.handle_line srv line);
  let hit_reply = ref "" in
  let handle_ms = 1e3 *. median_time 10 (fun () -> hit_reply := Serve.handle_line srv line) in
  Serve.shutdown srv;
  check t "in-process hit reply carries the in-process compile's plan"
    (str_field "plan" (ok_result !hit_reply) = Plan.to_string plan32);
  let parsed = ref Json.Null in
  let parse_ms =
    1e3
    *. median_time 10 (fun () ->
        match Json.parse !hit_reply with
        | Ok v -> parsed := v
        | Error e -> check t ("hit reply parses: " ^ e) false)
  in
  let render_ms = 1e3 *. median_time 10 (fun () -> Json.to_string !parsed) in
  (* gbs: the sample op's calls, chains on a 2-domain pool. *)
  let pool = Pool.create ~domains:2 in
  let sample_ms =
    1e3
    *. median_time 10 (fun () ->
        let u = Unitary.haar_random (Rng.create (seed + 1)) sample_modes in
        let state = Gaussian.vacuum sample_modes in
        for i = 0 to sample_modes - 1 do
          Gaussian.squeeze state i (Cx.re 0.35)
        done;
        Gaussian.interferometer state u;
        let s = Sampler.of_state ~max_photons:4 state in
        Sampler.draw_chains ~chains:sample_chains ~pool (Rng.create seed) s sample_shots)
  in
  let perm16 = c16.Compiler.mapping.Mapping.permuted in
  let serial = median_time 5 (fun () -> Eliminate.decompose pattern16 perm16) in
  let pooled = median_time 5 (fun () -> Eliminate.decompose ~pool pattern16 perm16) in
  Pool.shutdown pool;
  let stage_sum = List.assoc "trace.stage_sum_s" stages in
  stages
  @ [
    ("hardware.schedule_ms", 1e3 *. median_time 5 (fun () -> Pattern.full_schedule pattern16));
    ("decomp.decompose_s", serial);
    ("par.decompose_speedup", serial /. pooled);
    ("decomp.replay_s", median_time 5 (fun () -> Plan.reconstruct plan32));
    ("decomp.plan_to_string_ms", 1e3 *. median_time 10 (fun () -> Plan.to_string plan32));
    ("linalg.haar_ms", 1e3 *. median_time 10 (fun () -> Unitary.haar_random (Rng.create hit_seed) hit_modes));
    ("linalg.unitary_to_string_ms", 1e3 *. median_time 10 (fun () -> Unitary.to_string perm32));
    ("dropout.threshold_s", threshold_s);
    ("dropout.policy_s", policy_s);
    ("dropout.fidelity_evals", evals);
    ("rng.sample_wor_ms", wor *. 1e3);
    ("rng.sample_wor_mb", wor_mb);
    ("par.pool_spawn_ms", pool_spawn_ms ());
    ("core.fingerprint_ms", 1e3 *. median_time 10 (fun () -> Pass.Fingerprint.(mat seed u32)));
    ("lint.plan_s", median_time 3 (fun () -> lint_only "plan" ~unitary:u32 c32));
    ("lint.unitary_s", median_time 3 (fun () -> lint_only "unitary" ~unitary:u32 c32));
    ("lint.flow_s", median_time 3 (fun () -> lint_only "flow" ~unitary:u32 c32));
    ("flow.analyze_ms", flow_ms);
    ("store.find_ms", find_ms);
    ("store.store_ms", store_ms);
    ("serve.handle_hit_ms", handle_ms);
    ("serve.json_parse_ms", parse_ms);
    ("serve.json_render_ms", render_ms);
    ("gbs.sample_ms", sample_ms);
    ("trace.overhead_s", stage_sum -. t16);
  ]

(* One round of the mix (so a traced run attempts the same requests as
   an untraced one), then every layer at the mix's sizes. *)
let serve_trace ~bosec ~work ~seed =
  let t, _ = serve_e2e ~bosec ~work ~seed ~seconds:0. ~rounds:(Some 1) in
  (t, layer_result t (serve_layers t ~work ~seed))


(* Layer timings on the compile workloads' own program, after one
   counted round (so a traced run attempts the same operations as an
   untraced one). *)
let compile_trace spec ~work ~seed =
  let env = setup_compile spec ~seed in
  let t = tally () in
  let s = new_samples () in
  let c = compile_round t env s ~rng:(Rng.create (seed + 11)) in
  let n = spec.n in
  let reps = if n >= 400 then 2 else 3 in
  Gc.full_major ();
  let _, _, plan, _, stages =
    staged_compile ~pool:env.pool ~rng_seed:compile_seed ~device:env.device ~config:spec.config ~tau:spec.tau env.u
  in
  check t "staged compile reproduces Compiler.compile's plan bytes"
    (Plan.to_string plan = Plan.to_string c.Compiler.plan);
  let permuted = c.Compiler.mapping.Mapping.permuted in
  let pattern = c.Compiler.pattern in
  let serial = median_time reps (fun () -> Eliminate.decompose pattern permuted) in
  let pooled = median_time reps (fun () -> Eliminate.decompose ~pool:env.pool pattern permuted) in
  let dropout_metrics =
    match c.Compiler.policy with
    | None -> []
    | Some pol ->
      let threshold =
        median_time 1 (fun () -> Dropout.find_threshold c.Compiler.plan permuted ~tau:spec.tau)
      in
      let rng = Rng.create seed in
      let a0 = Gc.allocated_bytes () in
      let wor =
        median_time 5 (fun () ->
            Rng.sample_without_replacement rng pol.Dropout.weights pol.Dropout.kept_count)
      in
      let wor_mb = (Gc.allocated_bytes () -. a0) /. 5. /. 1e6 in
      [
        ("dropout.threshold_s", threshold);
        ("rng.sample_wor_ms", wor *. 1e3);
        ("rng.sample_wor_mb", wor_mb);
      ]
  in
  let stage_sum = List.assoc "trace.stage_sum_s" stages in
  let values =
    stages
    @ dropout_metrics
    @ [
      ("hardware.schedule_ms", 1e3 *. median_time reps (fun () -> Pattern.full_schedule pattern));
      ("decomp.decompose_s", serial);
      ("par.decompose_speedup", serial /. pooled);
      ("decomp.replay_s", median_time reps (fun () -> Plan.reconstruct c.Compiler.plan));
      ("decomp.plan_to_string_ms", 1e3 *. median_time reps (fun () -> Plan.to_string c.Compiler.plan));
      ( "linalg.haar_ms",
        1e3 *. median_time reps (fun () -> Unitary.haar_random (Rng.create seed) n) );
      ("linalg.unitary_to_string_ms", 1e3 *. median_time reps (fun () -> Unitary.to_string permuted));
      ("par.pool_spawn_ms", pool_spawn_ms ());
      ( "core.fingerprint_ms",
        1e3 *. median_time reps (fun () -> Pass.Fingerprint.(mat seed env.u)) );
      ("lint.plan_s", median_time 1 (fun () -> lint_only "plan" ~unitary:env.u c));
      ("lint.unitary_s", median_time 1 (fun () -> lint_only "unitary" ~unitary:env.u c));
      ("lint.flow_s", median_time 1 (fun () -> lint_only "flow" ~unitary:env.u c));
      ("flow.analyze_ms", 1e3 *. median_time reps (fun () -> Compiler.analyze c));
      ("trace.overhead_s", stage_sum -. median s.compile_s);
    ]
  in
  Pool.shutdown env.pool;
  (* Layers this workload's operations never call are timed at the
     serve-mix sizes, so that every metric is measured on every run. *)
  let others = List.filter (fun (k, _) -> not (List.mem_assoc k values)) (serve_layers t ~work ~seed) in
  (t, layer_result t (values @ others))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let bosec = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " fullopt-64 | baseline-500 | serve-mix | fullopt-200");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics instead of end-to-end ones");
      ("--bosec", Arg.Set_string bosec, " path of the bosec executable (serve-mix)");
      ("--work", Arg.Set_string work, " scratch directory for server sockets and caches");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --bosec PATH --work DIR";
  let compile_workloads =
    [ ("fullopt-200", fullopt_200); ("fullopt-64", fullopt_64); ("baseline-500", baseline_500) ]
  in
  let run =
    match (!workload, !trace) with
    | w, 0 when List.mem_assoc w compile_workloads ->
      fun _ -> compile_e2e (List.assoc w compile_workloads) ~seed:!seed ~seconds:!seconds
    | w, _ when List.mem_assoc w compile_workloads ->
      fun work -> compile_trace (List.assoc w compile_workloads) ~work ~seed:!seed
    | "serve-mix", 0 ->
      fun work -> serve_e2e ~bosec:!bosec ~work ~seed:!seed ~seconds:!seconds ~rounds:None
    | "serve-mix", _ -> fun work -> serve_trace ~bosec:!bosec ~work ~seed:!seed
    | w, _ ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  let work = Filename.concat !work (Printf.sprintf "w%d" (Unix.getpid ())) in
  Unix.mkdir work 0o755;
  let t, metrics = Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> run work) in
  print_result t metrics
