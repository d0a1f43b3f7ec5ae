open Zen_crypto
open Zen_snark
open Zendoo

type keys = {
  pk : Backend.proving_key;
  vk : Backend.verification_key;
  constraints : int;
}

(* A compile-once circuit template: the gadget body plus the R1CS shape
   it synthesizes, digested exactly once at family creation. Every prove
   re-runs the same body in evaluation mode to fill the assignment for
   concrete values, so the per-proof cost is field arithmetic only — no
   constraint lists, no SHA-256 re-digesting. *)
type 'v template = {
  name : string;
  body : Gadget.ctx -> 'v -> unit;
  circuit : R1cs.circuit;
}

let template_hits =
  Zen_obs.Counter.make
    ~help:"Proves served by a compiled circuit template (no re-synthesis)"
    "latus.template.hits"

let bits_of_pos pos d = List.init d (fun i -> Fp.of_int ((pos lsr i) land 1))

(* ---- Slot-write circuit (Remove and Insert directions) ---- *)

type slot_values = {
  acc : Fp.t;
  addr : Fp.t;
  amt : Fp.t;
  nonce : Fp.t;
  pos : int;
  siblings : Fp.t list;
  s_from_v : Fp.t;
  s_to_v : Fp.t;
}

let slot_write_body ~depth ~remove ctx v =
  let s_from = Gadget.input ctx v.s_from_v in
  let s_to = Gadget.input ctx v.s_to_v in
  let acc = Gadget.witness ctx v.acc in
  let addr = Gadget.witness ctx v.addr in
  let amt = Gadget.witness ctx v.amt in
  let nonce = Gadget.witness ctx v.nonce in
  let path_bits =
    List.map
      (fun b ->
        let w = Gadget.witness ctx b in
        Gadget.assert_bool ~label:"slot.posbit" ctx w;
        w)
      (bits_of_pos v.pos depth)
  in
  let siblings = List.map (Gadget.witness ctx) v.siblings in
  Gadget.assert_le_bits ctx amt Amount.amount_bits;
  let leaf_commit = Gadget.poseidon_hash ctx [ addr; amt; nonce ] in
  let occupied = Gadget.poseidon2 ctx leaf_commit (Gadget.const Fp.one) in
  let empty = Gadget.const Smt.empty_leaf_hash in
  let root_occupied =
    Gadget.merkle_root ctx ~leaf:occupied ~path_bits ~siblings
  in
  let root_empty = Gadget.merkle_root ctx ~leaf:empty ~path_bits ~siblings in
  let root_before, root_after =
    if remove then (root_occupied, root_empty)
    else (root_empty, root_occupied)
  in
  Gadget.assert_eq ~label:"slot.s_from" ctx
    (Gadget.poseidon2 ctx root_before acc)
    s_from;
  Gadget.assert_eq ~label:"slot.s_to" ctx
    (Gadget.poseidon2 ctx root_after acc)
    s_to

(* ---- Backward-transfer accumulation circuit ---- *)

type append_values = {
  a_root : Fp.t;
  a_acc0 : Fp.t;
  a_recv : Fp.t;
  a_amt : Fp.t;
  a_s_from : Fp.t;
  a_s_to : Fp.t;
}

let append_body ctx v =
  let s_from = Gadget.input ctx v.a_s_from in
  let s_to = Gadget.input ctx v.a_s_to in
  let root = Gadget.witness ctx v.a_root in
  let acc0 = Gadget.witness ctx v.a_acc0 in
  let recv = Gadget.witness ctx v.a_recv in
  let amt = Gadget.witness ctx v.a_amt in
  Gadget.assert_le_bits ctx amt Amount.amount_bits;
  let bt_commit = Gadget.poseidon2 ctx recv amt in
  let acc1 = Gadget.poseidon2 ctx acc0 bt_commit in
  Gadget.assert_eq ~label:"append.s_from" ctx
    (Gadget.poseidon2 ctx root acc0)
    s_from;
  Gadget.assert_eq ~label:"append.s_to" ctx
    (Gadget.poseidon2 ctx root acc1)
    s_to

(* ---- Withdrawal-certificate binding circuit ---- *)

type wcert_values = {
  w_public : Fp.t array; (* quality, bt_root, end_prev, end_epoch, pd_root *)
  w_s_prev : Fp.t;
  w_s_last : Fp.t;
}

let wcert_body ctx v =
  let public = Array.to_list (Array.map (Gadget.input ctx) v.w_public) in
  let s_prev = Gadget.witness ctx v.w_s_prev in
  let s_last = Gadget.witness ctx v.w_s_last in
  let binding = Gadget.poseidon_hash ctx (public @ [ s_prev; s_last ]) in
  let binding_copy = Gadget.witness ctx (Gadget.value binding) in
  Gadget.assert_eq ~label:"wcert.binding" ctx binding binding_copy

(* ---- BTR/CSW ownership circuit (§5.5.3.2) ---- *)

type ownership_values = {
  o_public : Fp.t array; (* ref_block, nullifier, receiver, amount, pd_root *)
  o_addr : Fp.t;
  o_amt : Fp.t;
  o_nonce : Fp.t;
  o_pos : int;
  o_siblings : Fp.t list;
  o_root : Fp.t;
}

let ownership_body ~depth ctx v =
  let public = Array.map (Gadget.input ctx) v.o_public in
  let amount_pub = public.(3) in
  let addr = Gadget.witness ctx v.o_addr in
  let amt = Gadget.witness ctx v.o_amt in
  let nonce = Gadget.witness ctx v.o_nonce in
  let path_bits =
    List.map
      (fun b ->
        let w = Gadget.witness ctx b in
        Gadget.assert_bool ~label:"own.posbit" ctx w;
        w)
      (bits_of_pos v.o_pos depth)
  in
  let siblings = List.map (Gadget.witness ctx) v.o_siblings in
  let hist_root = Gadget.witness ctx v.o_root in
  Gadget.assert_le_bits ctx amt Amount.amount_bits;
  let leaf_commit = Gadget.poseidon_hash ctx [ addr; amt; nonce ] in
  let occupied = Gadget.poseidon2 ctx leaf_commit (Gadget.const Fp.one) in
  let root = Gadget.merkle_root ctx ~leaf:occupied ~path_bits ~siblings in
  Gadget.assert_eq ~label:"own.root" ctx root hist_root;
  Gadget.assert_eq ~label:"own.amount" ctx amt amount_pub

(* ---- Template compilation (once per family) ---- *)

let template_of ~name body dummy =
  let ctx = Gadget.create () in
  body ctx dummy;
  let circuit, _, _ = Gadget.finalize ~name ctx in
  { name; body; circuit }

type family = {
  params : Params.t;
  remove_keys : keys;
  insert_keys : keys;
  append_keys : keys;
  wcert : keys;
  ownership : keys;
  remove_tpl : slot_values template;
  insert_tpl : slot_values template;
  append_tpl : append_values template;
  wcert_tpl : wcert_values template;
  ownership_tpl : ownership_values template;
}

let keys_of circuit =
  let pk, vk = Backend.setup circuit in
  { pk; vk; constraints = R1cs.num_constraints circuit }

let dummy_slot depth =
  {
    acc = Fp.zero;
    addr = Fp.zero;
    amt = Fp.zero;
    nonce = Fp.zero;
    pos = 0;
    siblings = List.init depth (fun _ -> Fp.zero);
    s_from_v = Fp.zero;
    s_to_v = Fp.zero;
  }

let make params =
  let depth = params.Params.mst_depth in
  let remove_tpl =
    template_of ~name:"latus.remove"
      (slot_write_body ~depth ~remove:true)
      (dummy_slot depth)
  in
  let insert_tpl =
    template_of ~name:"latus.insert"
      (slot_write_body ~depth ~remove:false)
      (dummy_slot depth)
  in
  let append_tpl =
    template_of ~name:"latus.append_bt" append_body
      {
        a_root = Fp.zero;
        a_acc0 = Fp.zero;
        a_recv = Fp.zero;
        a_amt = Fp.zero;
        a_s_from = Fp.zero;
        a_s_to = Fp.zero;
      }
  in
  let wcert_tpl =
    template_of ~name:"latus.wcert" wcert_body
      {
        w_public = Array.make 5 Fp.zero;
        w_s_prev = Fp.zero;
        w_s_last = Fp.zero;
      }
  in
  let ownership_tpl =
    template_of ~name:"latus.ownership" (ownership_body ~depth)
      {
        o_public = Array.make 5 Fp.zero;
        o_addr = Fp.zero;
        o_amt = Fp.zero;
        o_nonce = Fp.zero;
        o_pos = 0;
        o_siblings = List.init depth (fun _ -> Fp.zero);
        o_root = Fp.zero;
      }
  in
  {
    params;
    remove_keys = keys_of remove_tpl.circuit;
    insert_keys = keys_of insert_tpl.circuit;
    append_keys = keys_of append_tpl.circuit;
    wcert = keys_of wcert_tpl.circuit;
    ownership = keys_of ownership_tpl.circuit;
    remove_tpl;
    insert_tpl;
    append_tpl;
    wcert_tpl;
    ownership_tpl;
  }

let base_vks f = [ f.remove_keys.vk; f.insert_keys.vk; f.append_keys.vk ]
let wcert_keys f = f.wcert
let ownership_keys f = f.ownership

let step_keys f = function
  | Sc_tx.Remove _ -> f.remove_keys
  | Sc_tx.Insert _ -> f.insert_keys
  | Sc_tx.Append_bt _ -> f.append_keys

let ( let* ) = Result.bind

(* How a prove obtains its assignment from a template. [templated] is
   the only production path: the shape check compares digests computed
   at compile time and the body runs in evaluation mode. [resynthesized]
   re-runs the body in synthesis mode and re-digests the result — the
   test oracle behind {!Resynthesis}. Both run the same gadget body, so
   they can only disagree if evaluation mode diverges from synthesis. *)
type prover = {
  run : 'v. keys -> 'v template -> 'v -> (Backend.proof, string) result;
}

let templated =
  {
    run =
      (fun keys tpl v ->
        Zen_obs.Counter.incr template_hits;
        if not (R1cs.same tpl.circuit (Backend.pk_circuit keys.pk)) then
          Error "circuit template diverged from setup"
        else begin
          let ctx = Gadget.create_eval () in
          tpl.body ctx v;
          let public, witness = Gadget.assignment ctx in
          Backend.prove keys.pk ~public ~witness
        end);
  }

let resynthesized =
  {
    run =
      (fun keys tpl v ->
        let ctx = Gadget.create () in
        tpl.body ctx v;
        let circuit, public, witness = Gadget.finalize ~name:tpl.name ctx in
        let expected = R1cs.digest (Backend.pk_circuit keys.pk) in
        if not (Hash.equal (R1cs.digest circuit) expected) then
          Error "circuit shape diverged from setup"
        else Backend.prove keys.pk ~public ~witness);
  }

let prove_step_with p f (state : Sc_state.t) step =
  let depth = f.params.Params.mst_depth in
  let s_from_v = Sc_state.hash state in
  match step with
  | Sc_tx.Remove utxo -> (
    match Mst.find_utxo state.mst utxo with
    | None -> Error "prove: utxo not in state"
    | Some pos ->
      let siblings = Smt.proof_siblings (Mst.prove_slot state.mst pos) in
      let* mst_after, _ = Mst.remove state.mst utxo in
      let s_to_v = Poseidon.hash2 (Mst.root mst_after) state.bt_acc in
      let v =
        {
          acc = state.bt_acc;
          addr = Hash.to_fp utxo.addr;
          amt = Amount.to_fp utxo.amount;
          nonce = Hash.to_fp utxo.nonce;
          pos;
          siblings;
          s_from_v;
          s_to_v;
        }
      in
      let* proof = p.run f.remove_keys f.remove_tpl v in
      Ok (proof, f.remove_keys.vk, s_from_v, s_to_v))
  | Sc_tx.Insert utxo -> (
    let pos = Utxo.position ~mst_depth:depth utxo in
    match Mst.get state.mst pos with
    | Some _ -> Error "prove: slot occupied"
    | None ->
      let siblings = Smt.proof_siblings (Mst.prove_slot state.mst pos) in
      let* mst_after, _ = Mst.insert state.mst utxo in
      let s_to_v = Poseidon.hash2 (Mst.root mst_after) state.bt_acc in
      let v =
        {
          acc = state.bt_acc;
          addr = Hash.to_fp utxo.addr;
          amt = Amount.to_fp utxo.amount;
          nonce = Hash.to_fp utxo.nonce;
          pos;
          siblings;
          s_from_v;
          s_to_v;
        }
      in
      let* proof = p.run f.insert_keys f.insert_tpl v in
      Ok (proof, f.insert_keys.vk, s_from_v, s_to_v))
  | Sc_tx.Append_bt bt ->
    let recv, amt = Backward_transfer.to_fp_pair bt in
    let acc1 = Sc_state.bt_acc_step state.bt_acc bt in
    let root = Mst.root state.mst in
    let s_to_v = Poseidon.hash2 root acc1 in
    let v =
      {
        a_root = root;
        a_acc0 = state.bt_acc;
        a_recv = recv;
        a_amt = amt;
        a_s_from = s_from_v;
        a_s_to = s_to_v;
      }
    in
    let* proof = p.run f.append_keys f.append_tpl v in
    Ok (proof, f.append_keys.vk, s_from_v, s_to_v)

let prove_wcert_binding_with p f ~quality ~bt_root ~end_prev_epoch ~end_epoch
    ~proofdata ~s_prev ~s_last =
  let w_public =
    Array.append
      (Withdrawal_certificate.sysdata ~quality ~bt_root
         ~end_prev_epoch ~end_epoch)
      [| Proofdata.root_fp proofdata |]
  in
  p.run f.wcert f.wcert_tpl { w_public; w_s_prev = s_prev; w_s_last = s_last }

let prove_ownership_with p f ~mst ~utxo ~reference_block ~receiver ~proofdata =
  match Mst.find_utxo mst utxo with
  | None -> Error "ownership: utxo not in the committed state"
  | Some pos ->
    let siblings = Smt.proof_siblings (Mst.prove_slot mst pos) in
    let o_public =
      Array.append
        (Mainchain_withdrawal.sysdata ~reference_block
           ~nullifier:(Utxo.nullifier utxo) ~receiver ~amount:utxo.amount)
        [| Proofdata.root_fp proofdata |]
    in
    p.run f.ownership f.ownership_tpl
      {
        o_public;
        o_addr = Hash.to_fp utxo.addr;
        o_amt = Amount.to_fp utxo.amount;
        o_nonce = Hash.to_fp utxo.nonce;
        o_pos = pos;
        o_siblings = siblings;
        o_root = Mst.root mst;
      }

let prove_step = prove_step_with templated
let prove_wcert_binding = prove_wcert_binding_with templated
let prove_ownership = prove_ownership_with templated

module Resynthesis = struct
  let prove_step = prove_step_with resynthesized
  let prove_wcert_binding = prove_wcert_binding_with resynthesized
  let prove_ownership = prove_ownership_with resynthesized
end
