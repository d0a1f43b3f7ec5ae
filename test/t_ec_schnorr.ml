(* Elliptic-curve group laws over secp256k1 and Schnorr signatures. *)

open Zen_crypto

let checkb = Alcotest.(check bool)

let bn = Bignum.of_int

let test_generator_on_curve () =
  match Ec.to_affine Ec.g with
  | None -> Alcotest.fail "G is infinity?"
  | Some (x, y) -> checkb "on curve" true (Ec.on_curve x y)

let test_group_order () =
  checkb "n*G = O" true (Ec.is_infinity (Ec.mul Ec.n Ec.g));
  checkb "(n+1)*G = G" true
    (Ec.equal (Ec.mul (Bignum.add Ec.n Bignum.one) Ec.g) Ec.g)

let test_add_double_consistency () =
  let g2 = Ec.double Ec.g in
  let g3 = Ec.add g2 Ec.g in
  let g4a = Ec.double g2 in
  let g4b = Ec.add g3 Ec.g in
  checkb "2G+G = 3G" true (Ec.equal g3 (Ec.mul (bn 3) Ec.g));
  checkb "2(2G) = 3G+G" true (Ec.equal g4a g4b)

let test_identity_laws () =
  checkb "O + G = G" true (Ec.equal (Ec.add Ec.infinity Ec.g) Ec.g);
  checkb "G + O = G" true (Ec.equal (Ec.add Ec.g Ec.infinity) Ec.g);
  checkb "G + (-G) = O" true (Ec.is_infinity (Ec.add Ec.g (Ec.neg Ec.g)))

let test_scalar_distributes () =
  let a = bn 123456 and b = bn 654321 in
  let lhs = Ec.mul (Bignum.add a b) Ec.g in
  let rhs = Ec.add (Ec.mul a Ec.g) (Ec.mul b Ec.g) in
  checkb "(a+b)G = aG + bG" true (Ec.equal lhs rhs)

let test_encode_decode () =
  let p = Ec.mul (bn 789) Ec.g in
  (match Ec.decode (Ec.encode p) with
  | Some q -> checkb "roundtrip" true (Ec.equal p q)
  | None -> Alcotest.fail "decode failed");
  (match Ec.decode (Ec.encode Ec.infinity) with
  | Some q -> checkb "infinity roundtrip" true (Ec.is_infinity q)
  | None -> Alcotest.fail "infinity decode failed");
  checkb "garbage rejected" true (Ec.decode "nonsense" = None)

let test_decode_off_curve () =
  let x = Bignum.to_bytes_be ~len:32 (bn 1) in
  let fake = "\004" ^ x ^ x in
  checkb "off-curve rejected" true (Ec.decode fake = None)

let test_schnorr_roundtrip () =
  let sk, pk = Schnorr.of_seed "test-key" in
  let s = Schnorr.sign sk "message" in
  checkb "valid" true (Schnorr.verify pk "message" s);
  checkb "wrong msg" false (Schnorr.verify pk "messagf" s);
  let _, pk2 = Schnorr.of_seed "other-key" in
  checkb "wrong key" false (Schnorr.verify pk2 "message" s)

let test_schnorr_determinism () =
  let sk, _ = Schnorr.of_seed "det" in
  let s1 = Schnorr.sign sk "m" and s2 = Schnorr.sign sk "m" in
  checkb "deterministic nonce" true
    (String.equal (Schnorr.sig_encode s1) (Schnorr.sig_encode s2))

let test_schnorr_sig_encoding () =
  let sk, pk = Schnorr.of_seed "enc" in
  let s = Schnorr.sign sk "m" in
  Alcotest.(check int) "96 bytes" 96 (String.length (Schnorr.sig_encode s));
  (match Schnorr.sig_decode (Schnorr.sig_encode s) with
  | Some s' -> checkb "decoded verifies" true (Schnorr.verify pk "m" s')
  | None -> Alcotest.fail "decode failed");
  checkb "truncated rejected" true (Schnorr.sig_decode "short" = None)

let test_schnorr_tamper () =
  let sk, pk = Schnorr.of_seed "tamper" in
  let s = Schnorr.sign sk "m" in
  let enc = Bytes.of_string (Schnorr.sig_encode s) in
  (* Flip one bit of s-part. *)
  Bytes.set enc 95 (Char.chr (Char.code (Bytes.get enc 95) lxor 1));
  match Schnorr.sig_decode (Bytes.to_string enc) with
  | None -> ()
  | Some s' -> checkb "tampered rejected" false (Schnorr.verify pk "m" s')

let test_pk_hash_injective_spot () =
  let _, pk1 = Schnorr.of_seed "a" and _, pk2 = Schnorr.of_seed "b" in
  checkb "distinct addrs" false
    (Hash.equal (Schnorr.pk_hash pk1) (Schnorr.pk_hash pk2))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:12 gen f)

let props =
  [
    prop "sign/verify random" QCheck2.Gen.(pair (small_string ~gen:printable) (small_string ~gen:printable))
      (fun (seed, msg) ->
        let sk, pk = Schnorr.of_seed seed in
        Schnorr.verify pk msg (Schnorr.sign sk msg));
    prop "scalar mult additive" QCheck2.Gen.(pair (int_bound 100000) (int_bound 100000))
      (fun (a, b) ->
        Ec.equal
          (Ec.mul (bn (a + b)) Ec.g)
          (Ec.add (Ec.mul (bn a) Ec.g) (Ec.mul (bn b) Ec.g)));
  ]

(* Equivalence with the bignum oracle (test/ec_oracle.ml,
   test/schnorr_oracle.ml) that the fixed-width curve replaced. *)

module O = Ec_oracle
module OS = Schnorr_oracle
module F = Ec.Field

let two256 = Bignum.shift_left Bignum.one 256
let fp = Bignum.Modring.create Ec.p

let to_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let gen_bytes32 = QCheck2.Gen.(string_size ~gen:char (return 32))

(* Uniform 256-bit values, and values within 2^40 of p, of 2^256 and of
   zero. *)
let gen_u256 =
  QCheck2.Gen.(
    oneof
      [
        map Bignum.of_bytes_be gen_bytes32;
        map (fun d -> Bignum.add Ec.p (Bignum.of_int d)) (int_bound (1 lsl 32));
        map (fun d -> Bignum.sub Ec.p (Bignum.of_int d)) (int_bound (1 lsl 40));
        map (fun d -> Bignum.sub two256 (Bignum.of_int (d + 1))) (int_bound (1 lsl 40));
        map Bignum.of_int (int_bound 1000);
      ])

let gen_scalar = QCheck2.Gen.map Bignum.of_bytes_be gen_bytes32

let edge_scalars =
  [
    Bignum.zero;
    Bignum.one;
    Bignum.sub Ec.n Bignum.one;
    Ec.n;
    Bignum.add Ec.n Bignum.one;
    Bignum.sub two256 Bignum.one;
  ]

let same_point p o = String.equal (Ec.encode p) (O.encode o)

let field_prop name count gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let modp x = Bignum.Modring.reduce fp x

let field_props =
  let pair = QCheck2.Gen.pair gen_u256 gen_u256 in
  [
    field_prop "field add/neg = modring" 300 pair (fun (a, b) ->
        let fa = F.of_bignum a and fb = F.of_bignum b in
        Bignum.equal (F.to_bignum (F.add fa fb))
          (Bignum.Modring.add fp (modp a) (modp b))
        && Bignum.equal (F.to_bignum (F.add fa (F.neg 1 fb)))
             (Bignum.Modring.sub fp (modp a) (modp b)));
    field_prop "field mul/sqr = modring" 300 pair (fun (a, b) ->
        let fa = F.of_bignum a and fb = F.of_bignum b in
        Bignum.equal (F.to_bignum (F.mul fa fb))
          (Bignum.Modring.mul fp (modp a) (modp b))
        && Bignum.equal (F.to_bignum (F.sqr fa))
             (Bignum.Modring.sq fp (modp a)));
    field_prop "field inv/is_zero/equal = modring" 60 pair (fun (a, b) ->
        let fa = F.of_bignum a and fb = F.of_bignum b in
        let ar = modp a in
        let inv_ok =
          if Bignum.is_zero ar then Bignum.is_zero (F.to_bignum (F.inv fa))
          else
            Bignum.equal (F.to_bignum (F.inv fa))
              (Bignum.Modring.inv_prime fp ar)
        in
        inv_ok
        && F.is_zero fa = Bignum.is_zero ar
        && F.equal fa fb = Bignum.equal ar (modp b));
  ]

(* Σ limbs.(i)·2^(26i), the value a limb array stands for. *)
let limbs_value l =
  Array.fold_right
    (fun li acc -> Bignum.add (Bignum.of_int li) (Bignum.shift_left acc 26))
    l Bignum.zero

let test_field_magnitude_bound () =
  (* mul/sqr take every limb below 2^29: check at the bound itself. *)
  let top = Array.make 10 ((1 lsl 29) - 1) in
  let mixed = Array.init 10 (fun i -> if i land 1 = 0 then (1 lsl 29) - 1 else 1) in
  List.iter
    (fun (la, lb) ->
      let a = F.of_limbs la and b = F.of_limbs lb in
      let va = limbs_value la and vb = limbs_value lb in
      checkb "mul at bound" true
        (Bignum.equal (F.to_bignum (F.mul a b))
           (Bignum.Modring.reduce fp (Bignum.mul va vb)));
      checkb "sqr at bound" true
        (Bignum.equal (F.to_bignum (F.sqr a))
           (Bignum.Modring.reduce fp (Bignum.mul va va))))
    [ (top, top); (top, mixed); (mixed, top) ];
  (* 7p limb by limb is zero; 7p + 1 is not. *)
  let p_limbs =
    [| 0x3FFFC2F; 0x3FFFFBF; 0x3FFFFFF; 0x3FFFFFF; 0x3FFFFFF; 0x3FFFFFF;
       0x3FFFFFF; 0x3FFFFFF; 0x3FFFFFF; 0x3FFFFF |]
  in
  let seven_p = Array.map (fun l -> 7 * l) p_limbs in
  checkb "7p is zero" true (F.is_zero (F.of_limbs seven_p));
  seven_p.(0) <- seven_p.(0) + 1;
  checkb "7p + 1 is not zero" false (F.is_zero (F.of_limbs seven_p));
  checkb "p is zero" true (F.is_zero (F.of_limbs p_limbs));
  checkb "p reads back as 0" true
    (Bignum.is_zero (F.to_bignum (F.of_limbs p_limbs)))

(* Random points as (fixed-width, oracle) pairs: k·G, plus a point with
   Z != 1 (a sum) for the fixed-width side. *)
let gen_point =
  QCheck2.Gen.(
    map
      (fun (k, j) ->
        let p = Ec.add (Ec.mul_g k) (Ec.mul_g j) in
        let o = O.add (O.mul k O.g) (O.mul j O.g) in
        (p, o))
      (pair gen_scalar gen_scalar))

let test_mul_edge_scalars () =
  let p = Ec.add (Ec.mul_g (bn 7)) (Ec.double Ec.g) in
  let o = O.add (O.mul (bn 7) O.g) (O.double O.g) in
  List.iter
    (fun k ->
      let name = Bignum.to_hex k in
      checkb ("mul_g " ^ name) true (same_point (Ec.mul_g k) (O.mul k O.g));
      checkb ("mul G " ^ name) true (same_point (Ec.mul k Ec.g) (O.mul k O.g));
      checkb ("mul P " ^ name) true (same_point (Ec.mul k p) (O.mul k o));
      checkb ("mul O " ^ name) true
        (same_point (Ec.mul k Ec.infinity) (O.mul k O.infinity)))
    edge_scalars

let test_add_double_special () =
  let p = Ec.mul_g (bn 12345) and o = O.mul (bn 12345) O.g in
  (* a second representation of P with Z != 1 *)
  let p' = Ec.add (Ec.mul_g (bn 12344)) Ec.g in
  checkb "P + P" true (same_point (Ec.add p p') (O.add o o));
  checkb "2P" true (same_point (Ec.double p') (O.double o));
  checkb "P + (-P)" true (Ec.is_infinity (Ec.add p (Ec.neg p')));
  checkb "O + O" true (Ec.is_infinity (Ec.add Ec.infinity Ec.infinity));
  checkb "2O" true (Ec.is_infinity (Ec.double Ec.infinity));
  checkb "-O" true (Ec.is_infinity (Ec.neg Ec.infinity));
  checkb "P + O" true (same_point (Ec.add p' Ec.infinity) o);
  checkb "-P" true (same_point (Ec.neg p') (O.neg o));
  checkb "P = P'" true (Ec.equal p p');
  checkb "P <> -P" false (Ec.equal p (Ec.neg p));
  checkb "P <> O" false (Ec.equal p Ec.infinity)

(* Fixed seeds and messages; the hex was recorded from the bignum
   implementation and must never change. *)
let known_answers =
  [
    ( "kat-0", "",
      "04f5bc12188a63ca7b458a7998ab2761204a17c8151233eacc5d5557064c081d09a266b8d206eabdae447ec39e964921c232de5539d25732c738bb61e835857859",
      "26a8b89baba86ae520e0238f670d9ae0cf4953343bd10aeb1be2b426131d1481eeb95d4ad313b02a31b2bc6d5adc66e727b4f2fb376cd2a7f42d9891f95c71dbf69260ade811620d737c224bbf58bb09798904862431fdfe3c3a107d4afd31c8" );
    ( "kat-1", "zendoo",
      "04cd266c8b0b3b1d98ddfd50f5ebc485ec9e0b60a44dd17d44ae3ab6cbd4e69897add1359c57162ee0df7711713d0e38dd37752528a8266b69619affc9fda9ec3a",
      "36031ab5c6e516c376b5f5e3cdc943cc09e7d07ce915c5a4228fc34475005efa7b5b1187962f6e1b0a4861caa00305b4668ea7a3756a299257837205ce7c34bfe83a3f36e9970d2d07a1c51d377150234d4724904e3dffa93856466b9ecf7c37" );
    ( "forger", "latus.block",
      "0443fd204961c7d26f899d6f72e0ac2eb8a1433fb887e9cee6194fc71da9d16619fe561163e0f5ac7065cd36086959eda7ca1fa055c076f93a7e02f2885dd460a7",
      "bc371d323a2fc02f42a34624d9feb07a08e104a245fb41897ffe7eb63b8eb7e2ba314e85ede523e10543afee5041251f0954523abb69b4cf5e8acc75be00790641f48fc738dfa7f767f554d73fabf6bba78f8cfdd0f6266ebfaf12fc0f2b217e" );
    ( "", "m",
      "04602732df07d7f46e6f7b28eef3e39eb9a91cf2781def8b1ceb1982c5f21a5a6c5ca13bff77e1a1b83313cfddf8f457fec4d17b0d3742ace0f71a7e7195c86b12",
      "2d9015366d86a81d8a70a045bfb05a58e2396aa08ab391c8e8fc2ab157892dd63704d7cb968c05e0c235a3e62abb23b30d872f08d4eedde89d7855071d9e5e1a821470a93151285d6473873490c6bfe60d3f349750be7d9bea2b99d1c15e40e1" );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, msg, pk_hex, sig_hex) ->
      let sk, pk = Schnorr.of_seed seed in
      let s = Schnorr.sign sk msg in
      Alcotest.(check string) ("pk " ^ seed) pk_hex (to_hex (Schnorr.pk_encode pk));
      Alcotest.(check string) ("sig " ^ seed) sig_hex (to_hex (Schnorr.sig_encode s));
      checkb ("verifies " ^ seed) true (Schnorr.verify pk msg s);
      checkb ("public_of_secret " ^ seed) true
        (Schnorr.pk_equal pk (Schnorr.public_of_secret sk)))
    known_answers

(* A point whose x is below 2^256 - p, so x + p still fits in 32 bytes:
   the non-canonical spelling of a valid point must be rejected. *)
let test_decode_non_canonical () =
  let sqrt a =
    (* a^((p+1)/4), valid since p = 3 mod 4 *)
    let e = Bignum.shift_right (Bignum.add Ec.p Bignum.one) 2 in
    let r = ref (F.of_bignum Bignum.one) in
    for i = Bignum.num_bits e - 1 downto 0 do
      r := F.sqr !r;
      if Bignum.bit e i then r := F.mul !r a
    done;
    !r
  in
  let rec find x =
    let fx = F.of_bignum (bn x) in
    let rhs = F.add (F.mul fx (F.sqr fx)) (F.of_bignum (bn 7)) in
    let y = sqrt rhs in
    if F.equal (F.sqr y) rhs then (bn x, F.to_bignum y) else find (x + 1)
  in
  let x, y = find 1 in
  let enc x y =
    "\004" ^ Bignum.to_bytes_be ~len:32 x ^ Bignum.to_bytes_be ~len:32 y
  in
  checkb "canonical accepted" true (Ec.decode (enc x y) <> None);
  checkb "x + p rejected" true (Ec.decode (enc (Bignum.add x Ec.p) y) = None);
  checkb "oracle agrees on x + p" true (O.decode (enc (Bignum.add x Ec.p) y) = None);
  checkb "x = p rejected" true (Ec.decode (enc Ec.p y) = None);
  checkb "y = p rejected" true (Ec.decode (enc x Ec.p) = None);
  checkb "on_curve x + p" false (Ec.on_curve (Bignum.add x Ec.p) y);
  checkb "on_curve x" true (Ec.on_curve x y)

let flip_bit s i =
  let b = Bytes.of_string s in
  Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
  Bytes.to_string b

(* Decode both sides from the same bytes; decoding and verification
   decisions must agree. *)
let same_decision pk_bytes msg sig_bytes =
  match
    ( Schnorr.pk_decode pk_bytes,
      Schnorr.sig_decode sig_bytes,
      OS.pk_decode pk_bytes,
      OS.sig_decode sig_bytes )
  with
  | Some pk, Some s, Some opk, Some os ->
    Schnorr.verify pk msg s = OS.verify opk msg os
  | None, _, None, _ | _, None, _, None -> true
  | _ -> false

let oracle_props =
  [
    prop "mul = oracle (G, random P, O)"
      QCheck2.Gen.(pair gen_scalar gen_point)
      (fun (k, (p, o)) ->
        same_point (Ec.mul_g k) (O.mul k O.g)
        && same_point (Ec.mul k p) (O.mul k o)
        && Ec.is_infinity (Ec.mul k Ec.infinity));
    prop "add/double = oracle" QCheck2.Gen.(pair gen_point gen_point)
      (fun ((p, o), (q, oq)) ->
        same_point (Ec.add p q) (O.add o oq)
        && same_point (Ec.double p) (O.double o)
        && same_point (Ec.add p (Ec.neg q)) (O.add o (O.neg oq)));
    prop "sign = oracle bytes"
      QCheck2.Gen.(pair (small_string ~gen:printable) (small_string ~gen:printable))
      (fun (seed, msg) ->
        let sk, pk = Schnorr.of_seed seed and osk, opk = OS.of_seed seed in
        String.equal (Schnorr.pk_encode pk) (OS.pk_encode opk)
        && String.equal
             (Schnorr.sig_encode (Schnorr.sign sk msg))
             (OS.sig_encode (OS.sign osk msg)));
    prop "verify decisions = oracle"
      QCheck2.Gen.(triple (small_string ~gen:printable) (int_bound 767) (int_bound 3))
      (fun (seed, bit, case) ->
        let sk, pk = Schnorr.of_seed seed in
        let msg = "m:" ^ seed in
        let sg = Schnorr.sig_encode (Schnorr.sign sk msg) in
        let pkb = Schnorr.pk_encode pk in
        let _, other = Schnorr.of_seed ("other" ^ seed) in
        let r = String.sub sg 0 64 in
        let s_of b = r ^ Bignum.to_bytes_be ~len:32 b in
        let s_ge_n = [| Ec.n; Bignum.add Ec.n Bignum.one; Bignum.sub two256 Bignum.one; Ec.n |] in
        same_decision pkb msg sg
        && same_decision pkb msg (flip_bit sg bit)
        && same_decision (Schnorr.pk_encode other) msg sg
        && same_decision pkb (msg ^ "'") sg
        && same_decision pkb msg (s_of s_ge_n.(case))
        && same_decision pkb msg (String.make 64 '\000' ^ String.sub sg 64 32)
        && same_decision "\000" msg sg
        && same_decision (flip_bit pkb (8 + (bit mod 512))) msg sg);
  ]

let suite =
  ( "ec-schnorr",
    [
      Alcotest.test_case "generator on curve" `Quick test_generator_on_curve;
      Alcotest.test_case "group order" `Quick test_group_order;
      Alcotest.test_case "add/double" `Quick test_add_double_consistency;
      Alcotest.test_case "identity" `Quick test_identity_laws;
      Alcotest.test_case "scalar distributes" `Quick test_scalar_distributes;
      Alcotest.test_case "point encoding" `Quick test_encode_decode;
      Alcotest.test_case "off-curve rejected" `Quick test_decode_off_curve;
      Alcotest.test_case "schnorr roundtrip" `Quick test_schnorr_roundtrip;
      Alcotest.test_case "schnorr determinism" `Quick test_schnorr_determinism;
      Alcotest.test_case "schnorr encoding" `Quick test_schnorr_sig_encoding;
      Alcotest.test_case "schnorr tamper" `Quick test_schnorr_tamper;
      Alcotest.test_case "pk hash" `Quick test_pk_hash_injective_spot;
      Alcotest.test_case "field magnitude bound" `Quick test_field_magnitude_bound;
      Alcotest.test_case "mul edge scalars = oracle" `Quick test_mul_edge_scalars;
      Alcotest.test_case "add/double special cases" `Quick test_add_double_special;
      Alcotest.test_case "known answers" `Quick test_known_answers;
      Alcotest.test_case "non-canonical coordinates rejected" `Quick
        test_decode_non_canonical;
    ]
    @ props @ field_props @ oracle_props )
