(* Bechamel micro-benchmarks of the hot kernels: one Test.make per
   primitive, analyzed with OLS over the monotonic clock. *)

open Bechamel
open Toolkit
open Zen_crypto

let tests () =
  let a = Fp.of_int 123456789 and b = Fp.of_int 987654321 in
  let blob = String.make 1024 'x' in
  let sk, pk = Schnorr.of_seed "bench" in
  let signature = Schnorr.sign sk "msg" in
  let scalar =
    Bignum.of_hex
      "c0ffee0123456789abcdef0123456789abcdef0123456789abcdef0123456789"
  in
  let base = Ec.mul_g (Bignum.of_int 1234567) in
  let tree = Merkle.of_data (List.init 1024 string_of_int) in
  let proof = Merkle.prove tree 512 in
  let leaf = Hash.of_string "512" in
  let root = Merkle.root tree in
  (* SNARK verification: the constant-cost operation the protocol
     leans on. *)
  let circuit, public, witness =
    let ctx = Zen_snark.Gadget.create () in
    let x = Zen_snark.Gadget.input ctx Fp.one in
    let h = Zen_snark.Gadget.poseidon2 ctx x x in
    let out = Zen_snark.Gadget.witness ctx (Zen_snark.Gadget.value h) in
    Zen_snark.Gadget.assert_eq ctx h out;
    Zen_snark.Gadget.finalize ~name:"micro" ctx
  in
  let bpk, bvk = Zen_snark.Backend.setup circuit in
  let snark_proof = Result.get_ok (Zen_snark.Backend.prove bpk ~public ~witness) in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"fp-mul" (Staged.stage (fun () -> Fp.mul a b));
      Test.make ~name:"poseidon2" (Staged.stage (fun () -> Poseidon.hash2 a b));
      Test.make ~name:"sha256-1k" (Staged.stage (fun () -> Sha256.digest blob));
      Test.make ~name:"schnorr-sign"
        (Staged.stage (fun () -> Schnorr.sign sk "msg"));
      Test.make ~name:"schnorr-verify"
        (Staged.stage (fun () -> Schnorr.verify pk "msg" signature));
      Test.make ~name:"ec-mul-g" (Staged.stage (fun () -> Ec.mul_g scalar));
      Test.make ~name:"ec-mul-var"
        (Staged.stage (fun () -> Ec.mul scalar base));
      Test.make ~name:"mht-verify-1k"
        (Staged.stage (fun () -> Merkle.verify ~root ~leaf proof));
      Test.make ~name:"snark-verify"
        (Staged.stage (fun () ->
             Zen_snark.Backend.verify bvk ~public snark_proof));
    ]

let run () =
  print_newline ();
  print_endline "=== micro (bechamel OLS, ns/run) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-24s %12.1f ns\n" name est
      | _ -> Printf.printf "%-24s (no estimate)\n" name)
    results
