(* Test-only oracle: the Schnorr scheme of lib/crypto/schnorr.ml as it
   was over the bignum curve in Ec_oracle, recomputing the public key on
   every signature. *)

open Zen_crypto

type secret_key = Bignum.t
type public_key = Ec_oracle.point
type signature = { r : Ec_oracle.point; s : Bignum.t }

let ring = Ec_oracle.scalar_ring

(* Map 32 hash bytes to a non-zero scalar mod n. *)
let scalar_of_hash_material material =
  let rec go counter =
    let h =
      Sha256.digest_list [ material; string_of_int counter ]
    in
    let k = Bignum.Modring.reduce ring (Bignum.of_bytes_be h) in
    if Bignum.is_zero k then go (counter + 1) else k
  in
  go 0

let public_of_secret sk = Ec_oracle.mul sk Ec_oracle.g

let of_seed seed =
  let sk = scalar_of_hash_material (Sha256.digest ("zendoo.schnorr.keygen" ^ seed)) in
  (sk, public_of_secret sk)

let generate rng = of_seed (Rng.bytes rng 32)

let pk_encode = Ec_oracle.encode
let pk_decode s = Ec_oracle.decode s
let pk_equal = Ec_oracle.equal
let pk_hash pk = Hash.tagged "schnorr.pk" [ Ec_oracle.encode pk ]

let challenge r pk msg =
  scalar_of_hash_material
    (Sha256.digest_list [ "zendoo.schnorr.e"; Ec_oracle.encode r; Ec_oracle.encode pk; msg ])

let sign sk msg =
  let pk = public_of_secret sk in
  (* Deterministic nonce: HMAC(sk, msg), per-key-and-message. *)
  let k =
    scalar_of_hash_material
      (Sha256.hmac ~key:(Bignum.to_bytes_be ~len:32 sk) msg)
  in
  let r = Ec_oracle.mul k Ec_oracle.g in
  let e = challenge r pk msg in
  let s = Bignum.Modring.add ring k (Bignum.Modring.mul ring e sk) in
  { r; s }

let verify pk msg { r; s } =
  (not (Ec_oracle.is_infinity r))
  && Bignum.compare s Ec_oracle.n < 0
  &&
  let e = challenge r pk msg in
  (* s·G = R + e·P *)
  Ec_oracle.equal (Ec_oracle.mul s Ec_oracle.g) (Ec_oracle.add r (Ec_oracle.mul e pk))

let sig_encode { r; s } =
  match Ec_oracle.to_affine r with
  | None -> String.make 96 '\000'
  | Some (x, y) ->
    Bignum.to_bytes_be ~len:32 x
    ^ Bignum.to_bytes_be ~len:32 y
    ^ Bignum.to_bytes_be ~len:32 s

let sig_decode b =
  if String.length b <> 96 then None
  else begin
    let x = Bignum.of_bytes_be (String.sub b 0 32) in
    let y = Bignum.of_bytes_be (String.sub b 32 32) in
    let s = Bignum.of_bytes_be (String.sub b 64 32) in
    if Bignum.is_zero x && Bignum.is_zero y then Some { r = Ec_oracle.infinity; s }
    else if Ec_oracle.on_curve x y then Some { r = Ec_oracle.of_affine x y; s }
    else None
  end

let pp_pk fmt pk = Hash.pp fmt (pk_hash pk)
