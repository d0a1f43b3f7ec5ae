(* The benchmark's entry point: runs one workload for a fixed amount of
   work and prints one JSON line of metrics.

     zbench --workload NAME --seed N --seconds S --trace 0|1

   [--seconds] sizes the work (epochs per round) from a nominal cost
   per epoch; the work done is then fixed by the arguments alone, never
   by the wall clock. Every round of a run replays the same seed, and
   all must reach the same MC tip and SC state roots. With [--trace 0]
   the line holds the end-to-end metrics, computed from each tick's
   (phase's) fastest wall over the rounds at nominal machine speed
   ([fastest]). With [--trace 1] it holds the
   per-layer metrics: one round traces every other epoch-long run of
   ticks, so traced and untraced ticks run under the same machine speed
   and give the tracing overhead, and one round is traced throughout for
   the layer figures; the [Zen_obs.Report] self-time table goes to
   stderr. Every run passes the correctness gate or exits 1. *)

open Perfbench
open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ms s = s *. 1000.

(* ---- workloads ---- *)

(* One domain: a second one proves in the background between ticks,
   while the client signs and the speed kernel runs, so how much of an
   epoch's proving the tick timer saw depended on how long those gaps
   took, and the kernel shared its CPU with proofs. With a sequential
   pool the pipeline's proofs run inside [Node.pump], in the tick. *)
let sc_payments =
  {
    World.sidechains = 1;
    epoch_len = 8;
    submit_len = 2;
    domains = 1;
    users = 16;
    payments = 4;
  }

let cross_chain =
  {
    World.sidechains = 4;
    epoch_len = 4;
    submit_len = 2;
    domains = 1;
    users = 2;
    payments = 0;
  }

(* Assumed wall of one measured epoch with its speed measurements, in
   seconds (about what a 2-core x86 VM takes): [--seconds] becomes a
   fixed epoch count through it, so the work done never depends on the
   clock. *)
let epoch_cost = function
  | "sc_payments" -> 3.0
  | "cross_chain" -> 1.5
  | _ -> 4.3

(* Each round replays the run's seed, so a tick (phase) does the same
   work in every round and its walls differ only by the machine. *)
let rounds = 2

(* Set-ups run on their own besides the rounds' own, so that [setup_s]
   is a median of five. *)
let extra_setups = 3

let domains = function
  | "sc_payments" -> sc_payments.domains
  | "cross_chain" -> cross_chain.domains
  | _ -> 1

let epochs_for ~workload ~seconds =
  let per_round = float_of_int seconds /. float_of_int rounds in
  max 1 (int_of_float (Float.round (per_round /. epoch_cost workload)))

(* The machine's speed factor now (see [Speed]): the kernel's time on
   the CPUs the run is pinned to over its nominal time. *)
let speed ~domains () = Speed.measure (Speed.cpus domains) /. Speed.nominal_ms

(* Speed factor of span i of a round (0 = set-up, k = measured tick or
   step k), from the factors measured just before and just after it. *)
let around speeds =
  let s = Array.of_list speeds in
  fun i -> (s.(i) +. s.(i + 1)) /. 2.

(* The metrics at the nominal machine speed ([norm]) go to stdout; both
   these and the ones from the measured walls ([raw]) go to stderr. *)
let at_speed ~factors ~raw norm =
  let a = Stats.sorted factors in
  let n = Array.length a in
  Printf.eprintf
    "speed factors (kernel time / nominal): %d, min %.3f median %.3f max %.3f\n"
    n a.(0) (Stats.median factors) a.(n - 1);
  List.iter2
    (fun r n ->
      Printf.eprintf "  %-20s measured %12.4f  at nominal speed %12.4f %s\n"
        r.name r.value n.value r.unit_)
    raw norm;
  norm

(* ---- world workloads ---- *)

(* The round with every measured tick wall, and its set-up, divided by
   the speed factor around it. *)
let world_at_speed ((r : World.round), setup) =
  let around = around (List.rev r.speeds) in
  let walls =
    List.rev r.walls |> List.mapi (fun k w -> w /. around (k + 1)) |> List.rev
  in
  ({ r with walls }, setup /. around 0)

(* Position by position, the smallest of the rounds' walls, which did
   the same work: the repeat another tenant disturbed least. The host's
   slow stretches last from a fraction of a second to seconds and the
   speed factor only partly follows them; taking the faster repeat of
   every tick removes most of what is left. *)
let fastest = function
  | [] -> []
  | w :: ws -> List.fold_left (List.map2 Float.min) w ws

let bt_latencies (r : World.round) =
  let walls = Array.of_list (List.rev r.walls) in
  List.filter_map
    (fun (rc : World.txrec) ->
      match (rc.kind, rc.status) with
      | World.Bt, `Settled at ->
        let s = ref 0. in
        for k = rc.tick to at do
          s := !s +. walls.(k - 1)
        done;
        Some !s
      | _ -> None)
    r.measured

let epoch_walls (r : World.round) =
  let e = r.w.shape.epoch_len in
  let walls = List.rev r.walls in
  let rec go acc cur i = function
    | [] -> List.rev acc
    | w :: rest ->
      let cur = cur +. w in
      if (i + 1) mod e = 0 then go (cur :: acc) 0. (i + 1) rest
      else go acc cur (i + 1) rest
  in
  go [] 0. 0 walls

(* Counted: traffic of the measured epochs, whose certificates were all
   due by the run's last tick. *)
let counted (r : World.round) ~epochs =
  List.filter (fun (rc : World.txrec) -> rc.epoch < epochs) r.measured

let settled rcs =
  List.length
    (List.filter
       (fun (rc : World.txrec) ->
         match rc.status with `Settled _ -> true | _ -> false)
       rcs)

let gate_world (r : World.round) ~epochs =
  let w = r.w in
  let h = w.h in
  let st = Chain.tip_state h.chain in
  Array.iteri
    (fun i (sc : Zen_sim.Harness.sidechain) ->
      if Zen_sim.Harness.is_ceased h sc then World.gate "sc%d ceased" (i + 1);
      if r.certified.(i) <> epochs - 1 then
        World.gate "sc%d: last certified epoch %d, expected %d" (i + 1)
          r.certified.(i) (epochs - 1);
      let mc_epochs =
        match Sc_ledger.find st.scs sc.ledger_id with
        | None -> []
        | Some s ->
          List.rev_map
            (fun (c : Sc_ledger.cert_record) -> c.cert.epoch_id)
            s.certs
      in
      if mc_epochs <> List.init epochs Fun.id then
        World.gate "sc%d: MC certificates are not one per epoch in order" (i + 1))
    w.scs;
  let balances =
    Array.fold_left
      (fun acc sc ->
        acc + Amount.to_int (Zen_sim.Harness.sc_balance_on_mc h sc))
      0 w.scs
  in
  let issued =
    w.issued0
    + (st.height * Amount.to_int (Chain.params h.chain).Chain_state.subsidy)
  in
  let have = Amount.to_int (Chain_state.circulating st) + balances in
  if have <> issued then
    World.gate "value not conserved: MC coins + SC balances = %d, issued %d"
      have issued;
  List.iter
    (fun (rc : World.txrec) ->
      match (rc.status, rc.bt_receiver) with
      | `Settled _, Some recv ->
        if Utxo_set.coins_of_addr st.utxos recv = [] then
          World.gate "settled BT has no MC payout"
      | _ -> ())
    r.measured

let digest_world (r : World.round) =
  let h = r.w.h in
  Hash.to_raw (Chain.tip_hash h.chain)
  :: List.map
       (fun (sc : Zen_sim.Harness.sidechain) ->
         Fp.to_string (Sc_state.hash (Node.tip_state sc.node)))
       (Array.to_list r.w.scs)

(* The highest percentile with at least 10 samples beyond it, in ms. *)
let tail_ms xs =
  let n = List.length xs in
  if n <= 10 then
    World.gate "%d samples are too few for a tail percentile; raise --seconds" n
  else ms (Stats.tail xs)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let world_e2e ~epochs (r : World.round) ~setups =
  let ticks kind =
    List.filter_map
      (fun (w, c) -> if c = kind then Some w else None)
      (List.combine r.walls r.cert_ticks)
  in
  let counted = counted r ~epochs in
  let bts = bt_latencies r in
  let settled_n = settled counted in
  ( [
      m "setup_s" "s" (Stats.median setups);
      m "settled_tx_per_s" "1/s" (float_of_int settled_n /. Stats.sum r.walls);
      m "tick_p50_ms" "ms" (ms (Stats.median (ticks false)));
      m "tick_tail_ms" "ms" (tail_ms (ticks false));
      m "cert_tick_p50_ms" "ms" (ms (Stats.median (ticks true)));
      m "bt_latency_p50_ms" "ms" (ms (Stats.median bts));
      m "bt_latency_tail_ms" "ms" (tail_ms bts);
      m "phase_p50_ms" "ms" (ms (Stats.median (epoch_walls r)));
      m "tx_settled_frac" "ratio"
        (float_of_int settled_n /. float_of_int (max 1 (List.length counted)));
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ],
    List.length counted,
    List.length counted - settled_n )

(* ---- per-layer (traced round) ---- *)

let counter name = Zen_obs.Counter.value (Zen_obs.Counter.make name)

let span_totals () =
  let forest = Zen_obs.Report.forest () in
  let by_name = Zen_obs.Report.self_time_by_name forest in
  let rec all acc (n : Zen_obs.Report.node) =
    List.fold_left all (n :: acc) n.children
  in
  let nodes = List.fold_left all [] forest in
  let total name =
    List.fold_left
      (fun (c, s) (n : Zen_obs.Report.node) ->
        if n.event.name = name && n.event.phase = Zen_obs.Trace.Complete then
          (c + 1, s +. n.event.dur)
        else (c, s))
      (0, 0.) nodes
  in
  let self name =
    List.fold_left
      (fun acc (a : Zen_obs.Report.agg) ->
        if a.key = name then acc +. a.agg_self_s else acc)
      0. by_name
  in
  let client =
    List.fold_left
      (fun (c, s) (n : Zen_obs.Report.node) ->
        if n.event.cat = "client" then (c + 1, s +. n.event.dur) else (c, s))
      (0, 0.) nodes
  in
  (total, self, client)

let per_call (c, s) = if c = 0 then 0. else s /. float_of_int c
let ratio a b = if b = 0. then 0. else a /. b

let layer_metrics ~overhead ~txs ~blocks ~certs ~mc_txs
    ~mc_certs ~cache ~depth ~stale ~live_first ~live_last ~rolled_back
    ~replayed ~root =
  let total, self, client = span_totals () in
  let txs_f = float_of_int (max 1 txs) in
  let per_tx name = float_of_int (counter name) /. txs_f in
  let busy = float_of_int (counter "pool.worker.busy_us")
  and idle = float_of_int (counter "pool.worker.idle_us") in
  let hits, misses = cache in
  let _, root_s = total root in
  [
    m "client.sign_ms_per_tx" "ms" (ms (per_call client));
    m "mainchain.build_block_ms" "ms" (ms (per_call (total "Miner.build_block")));
    m "mainchain.add_block_ms" "ms" (ms (per_call (total "Chain.add_block")));
    m "mainchain.submit_us" "us" (1e6 *. per_call (total "Harness.submit"));
    m "mainchain.txs_per_block" "count" (ratio (float_of_int mc_txs) (float_of_int blocks));
    m "mainchain.certs_per_block" "count" (ratio (float_of_int mc_certs) (float_of_int blocks));
    m "core.verify_cache_hit_rate" "ratio"
      (ratio (float_of_int hits) (float_of_int (hits + misses)));
    m "latus.submit_tx_ms" "ms" (ms (per_call (total "Node.submit_tx")));
    m "latus.forge_ms" "ms" (ms (per_call (total "Node.forge")));
    m "latus.pump_ms" "ms" (ms (per_call (total "Node.pump")));
    m "latus.build_certificate_ms" "ms"
      (ms (ratio (snd (total "Node.build_certificate")) (float_of_int certs)));
    m "latus.pipeline_depth_max" "count" (float_of_int depth);
    m "latus.mempool_stale" "count" (float_of_int stale);
    m "latus.live_utxos_first" "count" (float_of_int live_first);
    m "latus.live_utxos_last" "count" (float_of_int live_last);
    m "snark.proves_per_tx" "count" (per_tx "snark.prove");
    m "snark.constraint_evals_per_tx" "count" (per_tx "snark.r1cs.constraint_evals");
    m "snark.verifies_per_block" "count"
      (ratio (float_of_int (counter "snark.verify")) (float_of_int blocks));
    m "latus.carry_merges_per_cert" "count"
      (ratio (float_of_int (counter "latus.pipeline.merges.carry")) (float_of_int certs));
    m "crypto.poseidon_perms_per_tx" "count" (per_tx "crypto.poseidon.permutations");
    m "crypto.sha256_bytes_per_tx" "bytes" (per_tx "crypto.sha256.bytes");
    m "crypto.pool_utilization" "ratio" (ratio busy (busy +. idle));
    m "crypto.pool_steals" "count" (float_of_int (counter "pool.steals"));
    m "state.rolled_back_frac" "ratio" rolled_back;
    m "state.replayed_phases" "count" (float_of_int replayed);
    m "obs.trace_overhead_frac" "ratio" overhead;
    m "sim.tick_unattributed_frac" "ratio" (ratio (self root) root_s);
  ]

let start_tracing () =
  Zen_obs.Registry.reset ();
  Zen_obs.Trace.set_buffer_limit 2_000_000;
  Zen_obs.Registry.enable ()

let same_digests what = function
  | [] -> ()
  | d :: rest ->
    if List.exists (( <> ) d) rest then
      World.gate "%s reached different tips or roots on one seed" what

(* [samples] are (traced, counted, wall) in run order, where samples
   [period] apart sit at the same position of the workload's cycle and
   one of them is traced. Each counted pair gives traced ÷ untraced
   wall; the result is their median, minus one. Pairing by position
   keeps the cost differences between positions out of the figure. *)
let overhead ~period samples =
  let a = Array.of_list samples in
  List.init (max 0 (Array.length a - period)) (fun i ->
      let ti, ci, wi = a.(i) and tj, cj, wj = a.(i + period) in
      if ci && cj && ti <> tj then Some (if ti then wi /. wj else wj /. wi)
      else None)
  |> List.filter_map Fun.id |> Stats.median
  |> fun r -> r -. 1.

(* Measured tick k is traced in the overhead round when this holds:
   every other run of [epoch_len] ticks, each run holding every epoch
   position once. Traced and untraced ticks then have the same mix of
   positions (neighbouring ticks can differ in cost), and run within
   seconds of each other. *)
let alternate ~epoch_len k = (k - 1) / epoch_len mod 2 = 1

let run_world ~workload ~shape ~seed ~seconds ~trace =
  let epochs = epochs_for ~workload ~seconds in
  let round ?hook ?traced ?speed () =
    let r, setup = World.run_round ?hook ?traced ?speed ~seed ~epochs shape in
    gate_world r ~epochs;
    (r, setup)
  in
  if not trace then begin
    let speed = speed ~domains:shape.domains in
    (* Of a set-up or an earlier round only the numbers are kept, as
       measured and at nominal speed, so no two worlds share the heap:
       the last round's records stand for every round's (same seed,
       same digests). *)
    let walls x =
      let (r : World.round), setup = x and n, setup' = world_at_speed x in
      ((r.walls, setup), (n.walls, setup'))
    in
    let setups =
      List.init extra_setups (fun _ ->
          walls (World.run_round ~speed ~seed ~epochs:0 shape))
    in
    let earlier =
      List.init (rounds - 1) (fun _ ->
          let x = round ~speed () in
          (digest_world (fst x), walls x))
    in
    let last = round ~speed () in
    same_digests "the rounds" (digest_world (fst last) :: List.map fst earlier);
    let e2e pick =
      let ws = pick (walls last) :: List.map (fun (_, x) -> pick x) earlier in
      world_e2e ~epochs
        { (fst last) with walls = fastest (List.map fst ws) }
        ~setups:(List.map snd (List.map pick setups @ ws))
    in
    let raw, attempted, failed = e2e fst in
    let norm, _, _ = e2e snd in
    (at_speed ~raw norm ~factors:(List.rev (fst last).speeds), attempted, failed)
  end
  else begin
    let alt, _ = round ~traced:(alternate ~epoch_len:shape.epoch_len) () in
    let ticks =
      List.rev (List.combine alt.walls alt.cert_ticks)
      |> List.mapi (fun i (w, c) ->
             (alternate ~epoch_len:shape.epoch_len (i + 1), not c, w))
    in
    let cache0 = ref (0, 0) in
    let hook () =
      start_tracing ();
      let s = Verifier.Cache.stats () in
      cache0 := (s.hits, s.misses)
    in
    let r, _ =
      Fun.protect ~finally:Zen_obs.Registry.disable (fun () -> round ~hook ())
    in
    same_digests "the traced rounds" [ digest_world alt; digest_world r ];
    let s = Verifier.Cache.stats () in
    let included =
      List.length
        (List.filter
           (fun (rc : World.txrec) ->
             match rc.status with `Included | `Settled _ -> true | _ -> false)
           r.measured)
    in
    let blocks = List.length r.walls in
    let certs = List.length (List.filter Fun.id r.cert_ticks) * shape.sidechains in
    let metrics =
      layer_metrics ~overhead:(overhead ~period:shape.epoch_len ticks) ~txs:included ~blocks ~certs
        ~mc_txs:r.mc_txs ~mc_certs:r.mc_certs
        ~cache:(s.hits - fst !cache0, s.misses - snd !cache0)
        ~depth:r.depth_max ~stale:(World.stale r.w) ~live_first:r.live_first
        ~live_last:(World.live r.w) ~rolled_back:0. ~replayed:0 ~root:"bench.tick"
    in
    prerr_string (Zen_obs.Report.human ());
    let c = counted r ~epochs in
    (metrics, List.length c, List.length c - settled c)
  end

(* ---- state soak ---- *)

let soak_epochs ~seconds = epochs_for ~workload:"state_soak" ~seconds

let soak_e2e (r : Soak.round) ~setups =
  let phases_per_epoch = (Soak.profile ~epochs:1).phases in
  (* [cur] holds the walls of the current epoch's phases, newest first,
     each with the re-mining of a reorg that followed it. *)
  let ordinary = ref [] and closing = ref [] and phases = ref [] in
  let bt = ref [] and applied = ref 0 and wall = ref 0. in
  let cur = ref [] and idx = ref 1 in
  List.iter
    (fun s ->
      match s with
      | Soak.Phase { applied = a; wall = w; _ } ->
        applied := !applied + a;
        wall := !wall +. w;
        phases := w :: !phases;
        cur := w :: !cur;
        if (!idx + 1) mod phases_per_epoch = 0 then ()
        else ordinary := w :: !ordinary;
        incr idx
      | Soak.Reorg { wall = w; _ } ->
        wall := !wall +. w;
        cur := (match !cur with x :: rest -> (x +. w) :: rest | [] -> [ w ])
      | Soak.Close { wall = w; _ } ->
        wall := !wall +. w;
        (match !cur with
        | last :: _ -> closing := (last +. w) :: !closing
        | [] -> ());
        (* Phase q's BTs are committed when the epoch's root is taken:
           the walls from q's start to the close. *)
        let rec suffixes acc = function
          | [] -> ()
          | x :: rest ->
            let acc = acc +. x in
            bt := acc :: !bt;
            suffixes acc rest
        in
        suffixes w !cur;
        cur := [])
    r.steps;
  let app = r.stats.applied and skipped = r.stats.skipped in
  ( [
      m "setup_s" "s" (Stats.median setups);
      m "settled_tx_per_s" "1/s" (float_of_int !applied /. !wall);
      m "tick_p50_ms" "ms" (ms (Stats.median !ordinary));
      m "tick_tail_ms" "ms" (tail_ms !ordinary);
      m "cert_tick_p50_ms" "ms" (ms (Stats.median !closing));
      m "bt_latency_p50_ms" "ms" (ms (Stats.median !bt));
      m "bt_latency_tail_ms" "ms" (tail_ms !bt);
      m "phase_p50_ms" "ms" (ms (Stats.median !phases));
      m "tx_settled_frac" "ratio" (float_of_int app /. float_of_int (app + skipped));
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ],
    app + skipped,
    skipped )

let soak_round ?traced ?speed ~seed ~epochs () =
  match Soak.run_round ?traced ?speed ~seed ~epochs () with
  | Error e -> World.gate "soak: %s" e
  | Ok r -> r

let soak_digest (r : Soak.round) = [ Hash.to_raw r.stats.digest ]

let wall = function
  | Soak.Phase p -> p.wall
  | Soak.Reorg p -> p.wall
  | Soak.Close p -> p.wall

let with_wall wall = function
  | Soak.Phase p -> Soak.Phase { p with wall }
  | Soak.Reorg p -> Soak.Reorg { p with wall }
  | Soak.Close p -> Soak.Close { p with wall }

(* The round with its set-up and every step's wall divided by the speed
   factor around it. *)
let soak_at_speed (r : Soak.round) =
  let around = around r.speeds in
  {
    r with
    setup = r.setup /. around 0;
    steps = List.mapi (fun i s -> with_wall (wall s /. around (i + 1)) s) r.steps;
  }

(* As [world_fastest]: the first round's steps, each with its fastest
   wall over the rounds. *)
let soak_fastest = function
  | [] -> invalid_arg "soak_fastest"
  | (r : Soak.round) :: _ as rs ->
    let walls = fastest (List.map (fun (r : Soak.round) -> List.map wall r.steps) rs) in
    { r with steps = List.map2 with_wall walls r.steps }

let run_soak ~seed ~seconds ~trace =
  let epochs = soak_epochs ~seconds in
  if not trace then begin
    let speed = speed ~domains:1 in
    let setups =
      List.init extra_setups (fun _ -> Soak.setup ~speed ~seed ~epochs)
    in
    let rs = List.init rounds (fun _ -> soak_round ~speed ~seed ~epochs ()) in
    same_digests "the rounds" (List.map soak_digest rs);
    let e2e ~setup rs =
      soak_e2e (soak_fastest rs)
        ~setups:(List.map setup setups @ List.map (fun (r : Soak.round) -> r.setup) rs)
    in
    let raw, attempted, failed = e2e ~setup:fst rs in
    let norm, _, _ =
      e2e ~setup:(fun (wall, speeds) -> wall /. around speeds 0)
        (List.map soak_at_speed rs)
    in
    ( at_speed ~raw norm
        ~factors:(List.concat_map (fun (r : Soak.round) -> r.speeds) rs),
      attempted,
      failed )
  end
  else begin
    (* Nine phases an epoch: alternating phases flip parity every
       epoch, so each phase position is traced once in two epochs. *)
    let alt =
      Fun.protect ~finally:Zen_obs.Registry.disable (fun () ->
          soak_round ~traced:(fun i -> i mod 2 = 0) ~seed ~epochs ())
    in
    let r =
      Fun.protect ~finally:Zen_obs.Registry.disable (fun () ->
          start_tracing ();
          soak_round ~seed ~epochs ())
    in
    same_digests "the traced rounds" [ soak_digest alt; soak_digest r ];
    let phases =
      List.filter_map
        (function
          | Soak.Phase { wall; traced; _ } -> Some (traced, true, wall)
          | _ -> None)
        alt.steps
    in
    let s = r.stats in
    let metrics =
      layer_metrics
        ~overhead:(overhead ~period:(Soak.profile ~epochs:1).phases phases)
        ~txs:s.applied ~blocks:0 ~certs:0 ~mc_txs:0 ~mc_certs:0 ~cache:(0, 0)
        ~depth:0 ~stale:0 ~live_first:0 ~live_last:0
        ~rolled_back:(float_of_int s.rolled_back_txs /. float_of_int (max 1 s.applied))
        ~replayed:s.replayed_phases ~root:"Workload.run"
    in
    prerr_string (Zen_obs.Report.human ());
    (metrics, s.applied + s.skipped, s.skipped)
  end

(* ---- main ---- *)

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name
              x.value x.unit_)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let calibrate = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sc_payments | cross_chain | state_soak");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--calibrate", Arg.Set_int calibrate,
       "CPU time the speed kernel on this CPU, print its median ms");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "zbench --workload NAME --seed N --seconds S --trace 0|1";
  if !calibrate >= 0 then begin
    Speed.pin [| !calibrate |];
    Printf.printf "%.17g\n" (Speed.sample ());
    exit 0
  end;
  let trace = !trace = 1 and seed = !seed and seconds = max 1 !seconds in
  (* Before any domain exists, so the pool's domains inherit it. *)
  Speed.pin (Speed.cpus (domains !workload));
  try
    let metrics, attempted, failed =
      match !workload with
      | "sc_payments" -> run_world ~workload:!workload ~shape:sc_payments ~seed ~seconds ~trace
      | "cross_chain" -> run_world ~workload:!workload ~shape:cross_chain ~seed ~seconds ~trace
      | "state_soak" -> run_soak ~seed ~seconds ~trace
      | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
    in
    print_endline (json ~correct:true ~attempted ~failed metrics)
  with World.Gate msg ->
    prerr_endline ("correctness gate failed: " ^ msg);
    exit 1
