(* Pipelined epoch proving: the Recursive.Incremental online fold must
   be byte-identical to the test-side batch fold (Fold_oracle) for every
   prefix length and every domain count (including error selection),
   Prover_pool.prove_and_merge must reproduce a sequential
   prove-wrap-fold oracle exactly, and a harness run is a pure function
   of its seed for every domain count. Known-answer digests pin the
   bytes recorded before the burst and two-phase paths were retired. *)

open Zen_crypto
open Zen_snark
open Zen_latus
open Zendoo
open Zen_sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let amount n = Amount.of_int_exn n

let params = Params.default
let family = Circuits.make params

let ceil_log2 n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  if n <= 1 then 0 else go 0 1

let popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

(* ---- Incremental = batch balanced fold, on a cheap synthetic chain ---- *)

(* The t_snark step circuit: s_to = Poseidon(s_from, x). Cheap enough
   to build a 17-link chain once and reuse across all the prefix
   tests. *)
let synth_step s x =
  let ctx = Gadget.create () in
  let w_from = Gadget.input ctx s in
  let s_to = Poseidon.hash2 s x in
  let w_to = Gadget.input ctx s_to in
  let wx = Gadget.witness ctx x in
  Gadget.assert_eq ~label:"step" ctx (Gadget.poseidon2 ctx w_from wx) w_to;
  (Gadget.finalize ~name:"pipe.step" ctx, s_to)

let make_chain sys pk vk s0 n =
  let rec go s i acc =
    if i = n then List.rev acc
    else begin
      let (_, public, witness), s_to = synth_step s (Fp.of_int (2000 + i)) in
      let proof = ok (Backend.prove pk ~public ~witness) in
      let tp =
        ok (Recursive.of_base sys ~vk ~s_from:s ~s_to ~extra:[||] proof)
      in
      go s_to (i + 1) (tp :: acc)
    end
  in
  go s0 0 []

let chain17 =
  lazy
    (let (c, _, _), _ = synth_step Fp.zero Fp.zero in
     let pk, vk = Backend.setup c in
     let sys = Recursive.create ~name:"t-pipe" ~base_vks:[ vk ] in
     (sys, make_chain sys pk vk (Fp.of_int 1) 17))

let take n l = List.filteri (fun i _ -> i < n) l
let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let bytes_of tp = Backend.proof_encode (Recursive.final_proof tp)

let incremental_of sys ts =
  let acc = Recursive.Incremental.create sys in
  List.iter (Recursive.Incremental.push acc) ts;
  (acc, Recursive.Incremental.finish acc)

(* Every prefix length 1..17 (all binary-counter shapes), every pool
   arity, one growing accumulator: each [finish] must match the batch
   fold of the same prefix, proving [finish] is non-destructive — the
   lost-certificate rebuild path. *)
let test_incremental_all_prefixes () =
  let sys, chain = Lazy.force chain17 in
  let acc = Recursive.Incremental.create sys in
  checkb "empty finish is the batch fold's error" true
    (Recursive.Incremental.finish acc = Fold_oracle.fold_balanced sys []);
  List.iteri
    (fun i tp ->
      let len = i + 1 in
      Recursive.Incremental.push acc tp;
      checki (Printf.sprintf "len %d count" len) len
        (Recursive.Incremental.count acc);
      checkb
        (Printf.sprintf "len %d pending <= ceil(log2 %d)" len len)
        true
        (Recursive.Incremental.pending_merges acc <= ceil_log2 len);
      checki
        (Printf.sprintf "len %d pending = popcount - 1" len)
        (popcount len - 1)
        (Recursive.Incremental.pending_merges acc);
      let inc = ok (Recursive.Incremental.finish acc) in
      List.iter
        (fun domains ->
          let pool = Pool.get ~domains in
          let bal =
            ok (Fold_oracle.fold_balanced ~pool sys (take len chain))
          in
          checks
            (Printf.sprintf "len %d domains %d bytes" len domains)
            (bytes_of bal) (bytes_of inc))
        [ 1; 2; 4 ];
      checkb
        (Printf.sprintf "len %d endpoints" len)
        true
        (Fp.equal (Recursive.s_from inc) (Fp.of_int 1)
        && Fp.equal (Recursive.s_to inc)
             (Recursive.s_to (List.nth chain (len - 1)))))
    chain

(* qcheck: random prefix x pool arity x optional adjacency break. On
   success the bytes must match; on failure the error strings must —
   the incremental fold reports the same (level, pair)-first failure
   the batch fold does, even with several broken pairs. *)
let equivalence_prop (len, domains, gap) =
  let sys, chain = Lazy.force chain17 in
  let ts = take len chain in
  let ts, broken =
    match gap with
    | Some k when len >= 3 -> (drop_nth (1 + (k mod (len - 2))) ts, true)
    | _ -> (ts, false)
  in
  let pool = Pool.get ~domains in
  let bal = Fold_oracle.fold_balanced ~pool sys ts in
  let _, inc = incremental_of sys ts in
  match (bal, inc) with
  | Ok b, Ok i -> (not broken) && String.equal (bytes_of b) (bytes_of i)
  | Error eb, Error ei -> broken && String.equal eb ei
  | Ok _, Error _ | Error _, Ok _ -> false

let test_incremental_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Incremental = fold_balanced" ~count:60
       ~print:(fun (len, domains, gap) ->
         Printf.sprintf "len=%d domains=%d gap=%s" len domains
           (match gap with None -> "-" | Some k -> string_of_int k))
       QCheck2.Gen.(
         triple (int_range 1 17) (oneofl [ 1; 2; 4 ])
           (option (int_range 0 14)))
       equivalence_prop)

let test_incremental_double_break () =
  (* Two broken pairs: the reported failure must still be the first in
     the batch fold's (level, pair) execution order. *)
  let sys, chain = Lazy.force chain17 in
  let ts = take 11 chain |> drop_nth 8 |> drop_nth 3 in
  let bal = Fold_oracle.fold_balanced sys ts in
  let _, inc = incremental_of sys ts in
  match (bal, inc) with
  | Error eb, Error ei -> checks "same first error" eb ei
  | _ -> Alcotest.fail "both folds should fail on a doubly-broken chain"

(* ---- prove_and_merge = sequential oracle ---- *)

let pipe_steps n tag =
  List.init n (fun i ->
      Sc_tx.Insert
        (Utxo.make
           ~addr:(Hash.of_string ("t-pipe." ^ tag))
           ~amount:(amount (i + 1))
           ~nonce:(Hash.of_string (Printf.sprintf "tp-%s-%d" tag i))))

(* The reference: apply the steps natively, prove each from its
   pre-step snapshot, wrap it, and fold the whole list with the batch
   balanced fold — one step at a time, no pool, no dispatch. *)
let sequential_oracle rsys ~initial ~steps =
  let _, proofs_rev =
    List.fold_left
      (fun (st, acc) step ->
        let proof, vk, s_from, s_to = ok (Circuits.prove_step family st step) in
        ( ok (Sc_tx.apply_step st step),
          (proof, ok (Recursive.of_base rsys ~vk ~s_from ~s_to ~extra:[||] proof))
          :: acc ))
      (initial, []) steps
  in
  let proofs = List.rev proofs_rev in
  (List.map fst proofs, ok (Fold_oracle.fold_balanced rsys (List.map snd proofs)))

let test_prove_and_merge_oracle () =
  let rsys =
    Recursive.create ~name:"t-pipe-pp" ~base_vks:(Circuits.base_vks family)
  in
  let st = Sc_state.create params in
  let steps = pipe_steps 11 "pp" in
  let base_proofs, oracle_top = sequential_oracle rsys ~initial:st ~steps in
  let faults = [ (2, Prover_pool.Crash); (0, Prover_pool.Slow 5) ] in
  let runs =
    List.map
      (fun domains ->
        let pool = Pool.get ~domains in
        let proofs, stats, top =
          ok
            (Prover_pool.prove_and_merge ~pool ~faults family rsys ~initial:st
               ~steps ~workers:4 ~seed:9)
        in
        let label s = Printf.sprintf "domains %d: %s" domains s in
        checks (label "epoch proof bytes") (bytes_of oracle_top) (bytes_of top);
        checkb (label "task proofs") true
          (List.for_all2
             (fun tp p ->
               String.equal
                 (Backend.proof_encode tp.Prover_pool.proof)
                 (Backend.proof_encode p))
             proofs base_proofs);
        checkb (label "crashed worker never credited") true
          (List.for_all (fun tp -> tp.Prover_pool.worker <> 2) proofs);
        (stats, proofs))
      [ 1; 2 ]
  in
  (* The §5.4.1 incentive layer is drawn before execution: retries,
     rewards and per-task credit are the same for every domain count. *)
  (match runs with
  | [ (s1, p1); (s2, p2) ] ->
    checkb "crash forced retries" true (s1.Prover_pool.retries > 0);
    checki "retries (1/2 domains)" s1.Prover_pool.retries s2.Prover_pool.retries;
    checkb "rewards (1/2 domains)" true
      (s1.Prover_pool.rewards = s2.Prover_pool.rewards);
    checkb "credit (1/2 domains)" true
      (List.for_all2
         (fun a b ->
           a.Prover_pool.worker = b.Prover_pool.worker
           && a.Prover_pool.attempts = b.Prover_pool.attempts)
         p1 p2)
  | _ -> assert false);
  (* error selection: all workers crashed is an error *)
  let all_crashed = [ (0, Prover_pool.Crash); (1, Prover_pool.Crash) ] in
  checkb "all crashed is an error" true
    (Prover_pool.prove_and_merge ~faults:all_crashed family rsys ~initial:st
       ~steps ~workers:2 ~seed:9
     |> Result.is_error)

(* Known answer: the epoch of `zendoo-cli prove --steps 13` (default
   seed 77, 4 workers, MST depth 12, recursion system "cli"), whose
   digest and §5.4.1 reward split were recorded with the earlier
   two-phase and pipelined provers agreeing on them. *)
let test_prove_and_merge_kat () =
  let seed = 77 in
  let rsys = Recursive.create ~name:"cli" ~base_vks:(Circuits.base_vks family) in
  let steps =
    List.init 13 (fun i ->
        Sc_tx.Insert
          (Utxo.make
             ~addr:(Hash.of_string "cli-prove")
             ~amount:(amount (i + 1))
             ~nonce:(Hash.of_string (Printf.sprintf "cli-%d-%d" seed i))))
  in
  List.iter
    (fun domains ->
      let _, stats, top =
        ok
          (Prover_pool.prove_and_merge ~pool:(Pool.get ~domains) family rsys
             ~initial:(Sc_state.create params) ~steps ~workers:4 ~seed)
      in
      let label s = Printf.sprintf "domains %d: %s" domains s in
      checks (label "proof digest")
        "ff98fe1656b9b392777866c88f20e2c10ae97e1ef6e0c8d0757375ee5b3700ad"
        (Hash.to_hex (Hash.of_string (bytes_of top)));
      checks (label "rewards") "w0:4 w1:5 w2:1 w3:3"
        (String.concat " "
           (List.map
              (fun (w, r) -> Printf.sprintf "w%d:%d" w r)
              stats.Prover_pool.rewards)))
    [ 1; 4 ]

(* ---- harness determinism under a fault storm ---- *)

let storm_run ~domains =
  let plan =
    Faults.storm ~seed:11 ~first_tick:8 ~ticks:12 ~epochs:4 ~workers:4
      ~intensity:40 ()
  in
  let faults = Faults.create ~seed:11 plan in
  let pool = Pool.get ~domains in
  let h = Harness.create ~pool ~faults ~seed:"pipe.storm" () in
  Harness.fund h ~blocks:5;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:2 ~submit_len:5
         ~activation_delay:1 ())
  in
  (* real traffic, so epoch proofs have leaves to pipeline *)
  let receiver = Hash.of_string "pipe-user" in
  for i = 1 to 4 do
    ok
      (Harness.forward_transfer h sc ~receiver ~payback:receiver
         ~amount:(amount (100 * i)));
    Harness.tick_n h 3
  done;
  let certified =
    match
      Zen_mainchain.Sc_ledger.find
        (Zen_mainchain.Chain.tip_state h.chain).scs sc.ledger_id
    with
    | None -> 0
    | Some s -> List.length s.certs
  in
  Zen_obs.Clock.reset ();
  ( Harness.dump_log h,
    certified,
    Zen_mainchain.Chain.height h.chain,
    Node.certificate_stats sc.node )

let test_storm_log_identical () =
  let log1, cert1, height1, stats1 = storm_run ~domains:1 in
  let log2, cert2, height2, _ = storm_run ~domains:2 in
  checkb "liveness under faults" true (cert1 > 0);
  checki "same certified (1/2 domains)" cert1 cert2;
  checki "same height (1/2 domains)" height1 height2;
  checki "same log length (1/2 domains)" (List.length log1) (List.length log2);
  List.iter2 (fun a b -> checks "log line (1/2 domains)" a b) log1 log2;
  (* Known answer: the log digest recorded when this run was also
     checked against synchronous forge-path proving with a burst fold
     at certify time. *)
  checks "log digest (known answer)"
    "b8211fe23655519fc49be76421be2be2c692f62333cb47dcee7930cd2aa13126"
    (Hash.to_hex (Hash.of_string (String.concat "\n" log1)));
  checkb "certify stats recorded" true (List.length stats1 > 0);
  (* the certify path really is logarithmic: carry merges are the
     binary-counter tail, never the (leaves - 1) burst fold *)
  List.iter
    (fun (cs : Proof_pipeline.certificate_stats) ->
      checkb
        (Printf.sprintf "epoch %d carries %d <= ceil(log2 %d) + 1"
           cs.cert_epoch cs.cert_carry_merges cs.cert_leaves)
        true
        (cs.cert_carry_merges <= ceil_log2 (max 1 cs.cert_leaves) + 1);
      if cs.cert_leaves > 0 then
        checki
          (Printf.sprintf "epoch %d carries = popcount - 1" cs.cert_epoch)
          (popcount cs.cert_leaves - 1)
          cs.cert_carry_merges)
    stats1

(* ---- record retention ---- *)

let test_record_pruning () =
  let h = Harness.create ~seed:"pipe.prune" () in
  Harness.fund h ~blocks:5;
  let sc =
    ok
      (Harness.add_latus h ~name:"sc" ~family ~epoch_len:2 ~submit_len:5
         ~activation_delay:1 ())
  in
  let receiver = Hash.of_string "prune-user" in
  ok
    (Harness.forward_transfer h sc ~receiver ~payback:receiver
       ~amount:(amount 500));
  Harness.tick_n h 40;
  let certified =
    match
      Zen_mainchain.Sc_ledger.find
        (Zen_mainchain.Chain.tip_state h.chain).scs sc.ledger_id
    with
    | None -> 0
    | Some s -> List.length s.certs
  in
  checkb "many epochs certified" true (certified >= 10);
  (* 40 ticks at epoch_len 2 forge ~20 epochs of records; retention
     keeps the window anchored at the certified horizon instead *)
  checkb "records pruned to the retention window" true
    (Node.retained_records sc.node <= 2 * 10);
  checki "pipeline drained" 0 (Node.pipeline_depth sc.node)

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "incremental fold, all prefixes" `Quick
        test_incremental_all_prefixes;
      test_incremental_equivalence;
      Alcotest.test_case "incremental fold, double break" `Quick
        test_incremental_double_break;
      Alcotest.test_case "prove_and_merge = sequential oracle" `Quick
        test_prove_and_merge_oracle;
      Alcotest.test_case "prove_and_merge known answer" `Quick
        test_prove_and_merge_kat;
      Alcotest.test_case "storm: log identical across domains" `Quick
        test_storm_log_identical;
      Alcotest.test_case "records pruned to certified horizon" `Quick
        test_record_pruning;
    ] )
