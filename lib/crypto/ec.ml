(* secp256k1: y^2 = x^3 + 7 over F_p, p = 2^256 - 2^32 - 977.

   Field elements are fixed-width: ten unsigned limbs in base 2^26
   (libsecp256k1's 10x26 layout) held in OCaml ints, reduced with
   2^256 = 0x1000003D1 (mod p). Points are Jacobian (X, Y, Z) with
   x = X/Z^2, y = Y/Z^3. Multiples of G come from a precomputed affine
   table; other bases use a width-5 wNAF over an isomorphic curve on
   which the odd multiples are affine, so every addition is mixed. *)

module Field = struct
  type t = {
    l0 : int; l1 : int; l2 : int; l3 : int; l4 : int;
    l5 : int; l6 : int; l7 : int; l8 : int; l9 : int;
  }

  (* Magnitude. An element has magnitude m when limbs 0..8 are at most
     m * (2^26 + 2^5) and limb 9 at most m * 2^22. Canonical elements
     and the outputs of [mul], [sqr] and [norm_weak] have magnitude 1.
     [add] adds magnitudes, [mul_int k] multiplies them by k, and
     [neg m] takes magnitude m to m + 1. [mul] and [sqr] accept inputs
     of magnitude at most 7 (every limb below 2^29), which keeps every
     intermediate below 2^62. *)

  let m26 = 0x3FFFFFF
  let m22 = 0x3FFFFF

  (* p in limbs: p0 = 2^26 - 0x3D1, p1 = 2^26 - 1 - 0x40, p9 = 2^22 - 1. *)
  let p0 = 0x3FFFC2F
  let p1 = 0x3FFFFBF
  let p9 = 0x3FFFFF

  let zero = { l0 = 0; l1 = 0; l2 = 0; l3 = 0; l4 = 0;
               l5 = 0; l6 = 0; l7 = 0; l8 = 0; l9 = 0 }

  let one = { zero with l0 = 1 }
  let seven = { zero with l0 = 7 }

  (* Magnitude ma + mb. *)
  let add a b =
    { l0 = a.l0 + b.l0; l1 = a.l1 + b.l1; l2 = a.l2 + b.l2;
      l3 = a.l3 + b.l3; l4 = a.l4 + b.l4; l5 = a.l5 + b.l5;
      l6 = a.l6 + b.l6; l7 = a.l7 + b.l7; l8 = a.l8 + b.l8;
      l9 = a.l9 + b.l9 }

  (* Magnitude k * ma. *)
  let mul_int k a =
    { l0 = k * a.l0; l1 = k * a.l1; l2 = k * a.l2; l3 = k * a.l3;
      l4 = k * a.l4; l5 = k * a.l5; l6 = k * a.l6; l7 = k * a.l7;
      l8 = k * a.l8; l9 = k * a.l9 }

  (* (m + 1) * p - a for [a] of magnitude at most m: every limb of
     (m + 1) * p is at least the matching limb bound of magnitude m, so
     no limb goes negative. Magnitude m + 1. *)
  let neg m a =
    let k = m + 1 in
    let f = k * m26 in
    { l0 = (k * p0) - a.l0; l1 = (k * p1) - a.l1; l2 = f - a.l2;
      l3 = f - a.l3; l4 = f - a.l4; l5 = f - a.l5; l6 = f - a.l6;
      l7 = f - a.l7; l8 = f - a.l8; l9 = (k * p9) - a.l9 }

  (* One carry pass with the limb-9 overflow folded back by 0x1000003D1.
     Input limbs 0..8 below 2^62 and limb 9 below 2^46, so that overflow
     is below 2^25 and limb 2 ends at most 2^5 above 2^26; output
     magnitude 1. *)
  let norm_weak a =
    let c = a.l0 lsr 26 and r0 = a.l0 land m26 in
    let v = a.l1 + c in
    let r1 = v land m26 and c = v lsr 26 in
    let v = a.l2 + c in
    let r2 = v land m26 and c = v lsr 26 in
    let v = a.l3 + c in
    let r3 = v land m26 and c = v lsr 26 in
    let v = a.l4 + c in
    let r4 = v land m26 and c = v lsr 26 in
    let v = a.l5 + c in
    let r5 = v land m26 and c = v lsr 26 in
    let v = a.l6 + c in
    let r6 = v land m26 and c = v lsr 26 in
    let v = a.l7 + c in
    let r7 = v land m26 and c = v lsr 26 in
    let v = a.l8 + c in
    let r8 = v land m26 and c = v lsr 26 in
    let v = a.l9 + c in
    let r9 = v land m22 and c = v lsr 22 in
    let v = r0 + (c * 0x3D1) in
    let r0 = v land m26 and c2 = v lsr 26 in
    let v = r1 + (c lsl 6) + c2 in
    let r1 = v land m26 and c3 = v lsr 26 in
    { l0 = r0; l1 = r1; l2 = r2 + c3; l3 = r3; l4 = r4; l5 = r5; l6 = r6;
      l7 = r7; l8 = r8; l9 = r9 }

  (* Shared tail of [mul] and [sqr]. Columns d0..d18 of the product are
     each below 10 * 2^58 < 2^61.4. The high columns d9..d18 are
     carried into 26-bit digits t9..t19 (t19 < 2^33), then folded down
     with 2^260 = R0 + R1 * 2^26 (mod p), R0 = 0x3D10, R1 = 0x400; t19
     lands at weight 2^260 after one fold and is folded twice. Every
     folded column stays below 2^61.5, and limb 9 below 2^46, within the
     bounds of [norm_weak]. *)
  let reduce d0 d1 d2 d3 d4 d5 d6 d7 d8 d9 d10 d11 d12 d13 d14 d15 d16
      d17 d18 =
    let t9 = d9 land m26 and c = d9 lsr 26 in
    let v = d10 + c in
    let t10 = v land m26 and c = v lsr 26 in
    let v = d11 + c in
    let t11 = v land m26 and c = v lsr 26 in
    let v = d12 + c in
    let t12 = v land m26 and c = v lsr 26 in
    let v = d13 + c in
    let t13 = v land m26 and c = v lsr 26 in
    let v = d14 + c in
    let t14 = v land m26 and c = v lsr 26 in
    let v = d15 + c in
    let t15 = v land m26 and c = v lsr 26 in
    let v = d16 + c in
    let t16 = v land m26 and c = v lsr 26 in
    let v = d17 + c in
    let t17 = v land m26 and c = v lsr 26 in
    let v = d18 + c in
    let t18 = v land m26 and t19 = v lsr 26 in
    let u0 = d0 + (t10 * 0x3D10) + (t19 * 0xF44000) in
    let u1 = d1 + (t11 * 0x3D10) + (t10 * 0x400) + (t19 * 0x100000) in
    let u2 = d2 + (t12 * 0x3D10) + (t11 * 0x400) in
    let u3 = d3 + (t13 * 0x3D10) + (t12 * 0x400) in
    let u4 = d4 + (t14 * 0x3D10) + (t13 * 0x400) in
    let u5 = d5 + (t15 * 0x3D10) + (t14 * 0x400) in
    let u6 = d6 + (t16 * 0x3D10) + (t15 * 0x400) in
    let u7 = d7 + (t17 * 0x3D10) + (t16 * 0x400) in
    let u8 = d8 + (t18 * 0x3D10) + (t17 * 0x400) in
    let u9 = t9 + (t19 * 0x3D10) + (t18 * 0x400) in
    norm_weak
      { l0 = u0; l1 = u1; l2 = u2; l3 = u3; l4 = u4; l5 = u5; l6 = u6;
        l7 = u7; l8 = u8; l9 = u9 }

  (* Inputs of magnitude at most 7; output magnitude 1. *)
  let mul a b =
    let a0 = a.l0 and a1 = a.l1 and a2 = a.l2 and a3 = a.l3 and a4 = a.l4
    and a5 = a.l5 and a6 = a.l6 and a7 = a.l7 and a8 = a.l8 and a9 = a.l9 in
    let b0 = b.l0 and b1 = b.l1 and b2 = b.l2 and b3 = b.l3 and b4 = b.l4
    and b5 = b.l5 and b6 = b.l6 and b7 = b.l7 and b8 = b.l8 and b9 = b.l9 in
    reduce (a0 * b0)
      ((a0 * b1) + (a1 * b0))
      ((a0 * b2) + (a1 * b1) + (a2 * b0))
      ((a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0))
      ((a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0))
      ((a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1)
       + (a5 * b0))
      ((a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2)
       + (a5 * b1) + (a6 * b0))
      ((a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3)
       + (a5 * b2) + (a6 * b1) + (a7 * b0))
      ((a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4)
       + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0))
      ((a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5)
       + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0))
      ((a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5)
       + (a6 * b4) + (a7 * b3) + (a8 * b2) + (a9 * b1))
      ((a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5)
       + (a7 * b4) + (a8 * b3) + (a9 * b2))
      ((a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5)
       + (a8 * b4) + (a9 * b3))
      ((a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5)
       + (a9 * b4))
      ((a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5))
      ((a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6))
      ((a7 * b9) + (a8 * b8) + (a9 * b7))
      ((a8 * b9) + (a9 * b8))
      (a9 * b9)

  (* Input of magnitude at most 7; output magnitude 1. The doubled
     cross terms give the same column values as [mul a a]. *)
  let sqr a =
    let a0 = a.l0 and a1 = a.l1 and a2 = a.l2 and a3 = a.l3 and a4 = a.l4
    and a5 = a.l5 and a6 = a.l6 and a7 = a.l7 and a8 = a.l8 and a9 = a.l9 in
    let a12 = a1 lsl 1 and a22 = a2 lsl 1 and a32 = a3 lsl 1
    and a42 = a4 lsl 1 and a52 = a5 lsl 1 and a62 = a6 lsl 1
    and a72 = a7 lsl 1 and a82 = a8 lsl 1 and a92 = a9 lsl 1 in
    reduce (a0 * a0)
      (a0 * a12)
      ((a0 * a22) + (a1 * a1))
      ((a0 * a32) + (a1 * a22))
      ((a0 * a42) + (a1 * a32) + (a2 * a2))
      ((a0 * a52) + (a1 * a42) + (a2 * a32))
      ((a0 * a62) + (a1 * a52) + (a2 * a42) + (a3 * a3))
      ((a0 * a72) + (a1 * a62) + (a2 * a52) + (a3 * a42))
      ((a0 * a82) + (a1 * a72) + (a2 * a62) + (a3 * a52) + (a4 * a4))
      ((a0 * a92) + (a1 * a82) + (a2 * a72) + (a3 * a62) + (a4 * a52))
      ((a1 * a92) + (a2 * a82) + (a3 * a72) + (a4 * a62) + (a5 * a5))
      ((a2 * a92) + (a3 * a82) + (a4 * a72) + (a5 * a62))
      ((a3 * a92) + (a4 * a82) + (a5 * a72) + (a6 * a6))
      ((a4 * a92) + (a5 * a82) + (a6 * a72))
      ((a5 * a92) + (a6 * a82) + (a7 * a7))
      ((a6 * a92) + (a7 * a82))
      ((a7 * a92) + (a8 * a8))
      (a8 * a92)
      (a9 * a9)

  (* The canonical representative in [0, p). Input limbs below 2^31:
     after the first fold limb 9's overflow is a single bit, and one
     conditional subtraction of p (adding 0x1000003D1 and dropping bit
     256) finishes. *)
  let normalize a =
    let x = a.l9 lsr 22 in
    let t0 = a.l0 + (x * 0x3D1) and t1 = a.l1 + (x lsl 6) in
    let t9 = a.l9 land m22 in
    let t1 = t1 + (t0 lsr 26) and t0 = t0 land m26 in
    let t2 = a.l2 + (t1 lsr 26) and t1 = t1 land m26 in
    let t3 = a.l3 + (t2 lsr 26) and t2 = t2 land m26 in
    let t4 = a.l4 + (t3 lsr 26) and t3 = t3 land m26 in
    let t5 = a.l5 + (t4 lsr 26) and t4 = t4 land m26 in
    let t6 = a.l6 + (t5 lsr 26) and t5 = t5 land m26 in
    let t7 = a.l7 + (t6 lsr 26) and t6 = t6 land m26 in
    let t8 = a.l8 + (t7 lsr 26) and t7 = t7 land m26 in
    let t9 = t9 + (t8 lsr 26) and t8 = t8 land m26 in
    (* At least 2^256, or at least p: adding 0x1000003D1 carries out of
       limb 1 and through all-ones limbs 2..9. *)
    let ge_p =
      t9 lsr 22 <> 0
      || t9 = m22
         && t2 land t3 land t4 land t5 land t6 land t7 land t8 = m26
         && t1 + 0x40 + ((t0 + 0x3D1) lsr 26) > m26
    in
    if not ge_p then
      { l0 = t0; l1 = t1; l2 = t2; l3 = t3; l4 = t4; l5 = t5; l6 = t6;
        l7 = t7; l8 = t8; l9 = t9 }
    else begin
      let t0 = t0 + 0x3D1 and t1 = t1 + 0x40 in
      let t1 = t1 + (t0 lsr 26) and t0 = t0 land m26 in
      let t2 = t2 + (t1 lsr 26) and t1 = t1 land m26 in
      let t3 = t3 + (t2 lsr 26) and t2 = t2 land m26 in
      let t4 = t4 + (t3 lsr 26) and t3 = t3 land m26 in
      let t5 = t5 + (t4 lsr 26) and t4 = t4 land m26 in
      let t6 = t6 + (t5 lsr 26) and t5 = t5 land m26 in
      let t7 = t7 + (t6 lsr 26) and t6 = t6 land m26 in
      let t8 = t8 + (t7 lsr 26) and t7 = t7 land m26 in
      let t9 = t9 + (t8 lsr 26) and t8 = t8 land m26 in
      { l0 = t0; l1 = t1; l2 = t2; l3 = t3; l4 = t4; l5 = t5; l6 = t6;
        l7 = t7; l8 = t8; l9 = t9 land m22 }
    end

  (* Input limbs below 2^31. *)
  let is_zero a =
    let r = normalize a in
    r.l0 lor r.l1 lor r.l2 lor r.l3 lor r.l4 lor r.l5 lor r.l6 lor r.l7
    lor r.l8 lor r.l9 = 0

  (* Exact limb equality with 1: true only for the canonical one that
     [normalize]d points carry as Z. *)
  let is_one a =
    a.l0 = 1 && a.l1 lor a.l2 lor a.l3 lor a.l4 lor a.l5 lor a.l6 lor a.l7
                lor a.l8 lor a.l9 = 0

  (* [a] of magnitude at most 20, [b] with limbs below 2^40. *)
  let equal a b = is_zero (add a (neg 1 (norm_weak b)))

  let rec sqrn a k = if k = 0 then a else sqrn (sqr a) (k - 1)

  (* a^(p-2) by a fixed addition chain: 255 squarings and 15
     multiplications. The binary expansion of p - 2 is 223 ones, a zero,
     22 ones, then 0000101101; xK below is a^(2^K - 1). Input magnitude
     at most 7. *)
  let inv a =
    let x2 = mul (sqr a) a in
    let x3 = mul (sqr x2) a in
    let x6 = mul (sqrn x3 3) x3 in
    let x9 = mul (sqrn x6 3) x3 in
    let x11 = mul (sqrn x9 2) x2 in
    let x22 = mul (sqrn x11 11) x11 in
    let x44 = mul (sqrn x22 22) x22 in
    let x88 = mul (sqrn x44 44) x44 in
    let x176 = mul (sqrn x88 88) x88 in
    let x220 = mul (sqrn x176 44) x44 in
    let x223 = mul (sqrn x220 3) x3 in
    let t = mul (sqrn x223 23) x22 in
    let t = mul (sqrn t 5) a in
    let t = mul (sqrn t 3) x2 in
    mul (sqrn t 2) a

  let of_limbs l =
    if Array.length l <> 10 then invalid_arg "Ec.Field.of_limbs";
    { l0 = l.(0); l1 = l.(1); l2 = l.(2); l3 = l.(3); l4 = l.(4);
      l5 = l.(5); l6 = l.(6); l7 = l.(7); l8 = l.(8); l9 = l.(9) }

  let to_limbs a =
    [| a.l0; a.l1; a.l2; a.l3; a.l4; a.l5; a.l6; a.l7; a.l8; a.l9 |]

  (* 32 big-endian bytes, any value below 2^256 (magnitude 1). *)
  let of_bytes s =
    let l = Array.make 10 0 in
    let acc = ref 0 and bits = ref 0 and k = ref 0 in
    for i = 31 downto 0 do
      acc := !acc lor (Char.code (String.unsafe_get s i) lsl !bits);
      bits := !bits + 8;
      if !bits >= 26 && !k < 9 then begin
        l.(!k) <- !acc land m26;
        acc := !acc lsr 26;
        bits := !bits - 26;
        incr k
      end
    done;
    l.(9) <- !acc;
    of_limbs l

  (* Canonical value below p, or [None]. *)
  let of_bytes_checked s =
    let a = of_bytes s in
    if a.l9 = p9
       && a.l2 land a.l3 land a.l4 land a.l5 land a.l6 land a.l7 land a.l8
          = m26
       && (a.l1 > p1 || (a.l1 = p1 && a.l0 >= p0))
    then None
    else Some a

  (* Input must be canonical. *)
  let to_bytes a =
    let l = to_limbs a in
    let b = Bytes.create 32 in
    let acc = ref 0 and bits = ref 0 and k = ref 0 in
    for i = 31 downto 0 do
      if !bits < 8 then begin
        acc := !acc lor (l.(!k) lsl !bits);
        bits := !bits + 26;
        incr k
      end;
      Bytes.unsafe_set b i (Char.unsafe_chr (!acc land 0xFF));
      acc := !acc lsr 8;
      bits := !bits - 8
    done;
    Bytes.unsafe_to_string b

  let of_bignum x = of_bytes (Bignum.to_bytes_be ~len:32 x)
  let to_bignum a = Bignum.of_bytes_be (to_bytes (normalize a))
end

module F = Field

let p =
  Bignum.of_hex
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

let n =
  Bignum.of_hex
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

let scalar_ring = Bignum.Modring.create n

(* Invariant on every finite point: X has magnitude at most 5, Y at most
   4 and Z at most 2. The formulas below state the magnitude of each
   intermediate; each result meets the invariant again. secp256k1 has
   prime order, so no finite point has Y = 0 and doubling never yields
   infinity. *)
type point = Inf | Jac of { x : F.t; y : F.t; z : F.t }

let infinity = Inf
let is_infinity = function Inf -> true | Jac _ -> false

(* y^2 = x^3 + 7 for canonical x, y. *)
let on_curve_fe x y = F.equal (F.sqr y) (F.add (F.mul x (F.sqr x)) F.seven)

let on_curve x y =
  Bignum.compare x p < 0
  && Bignum.compare y p < 0
  && on_curve_fe (F.of_bignum x) (F.of_bignum y)

let of_affine x y =
  if not (on_curve x y) then invalid_arg "Ec.of_affine: not on curve";
  Jac { x = F.of_bignum x; y = F.of_bignum y; z = F.one }

(* dbl-2009-l for a = 0: 2M + 5S. *)
let double pt =
  match pt with
  | Inf -> Inf
  | Jac { x; y; z } ->
    let a = F.sqr x in                                   (* 1 *)
    let b = F.sqr y in                                   (* 1 *)
    let c = F.sqr b in                                   (* 1 *)
    let t = F.sqr (F.add x b) in                         (* in 6 *)
    (* D = 2((X + B)^2 - A - C): 2 * (1 + 3) = 8, weakly normalised. *)
    let d = F.norm_weak (F.mul_int 2 (F.add t (F.neg 2 (F.add a c)))) in
    let e = F.mul_int 3 a in                             (* 3 *)
    let f = F.sqr e in                                   (* 1 *)
    let x3 = F.add f (F.neg 2 (F.mul_int 2 d)) in        (* 1 + 3 = 4 *)
    (* E(D - X3) with D - X3 = 1 + 5 = 6; 8C weakly normalised. *)
    let y3 =
      F.add
        (F.mul e (F.add d (F.neg 4 x3)))
        (F.neg 1 (F.norm_weak (F.mul_int 8 c)))          (* 1 + 2 = 3 *)
    in
    let z3 = F.mul_int 2 (F.mul y z) in                  (* 2 *)
    Jac { x = x3; y = y3; z = z3 }

(* madd-2004-hmv: Jacobian + affine (x2, y2 of magnitude at most 7),
   8M + 3S. Also returns the ratio H = Z3 / Z1. *)
let madd_h pt x2 y2 =
  match pt with
  | Inf -> (Jac { x = x2; y = y2; z = F.one }, F.one)
  | Jac { x = x1; y = y1; z = z1 } ->
    let z1z1 = F.sqr z1 in                               (* 1 *)
    let u2 = F.mul x2 z1z1 in                            (* 1 *)
    let s2 = F.mul y2 (F.mul z1 z1z1) in                 (* 1 *)
    let h = F.add u2 (F.neg 5 x1) in                     (* 1 + 6 = 7 *)
    let r = F.add s2 (F.neg 4 y1) in                     (* 1 + 5 = 6 *)
    if F.is_zero h then
      if F.is_zero r then (double pt, F.zero) else (Inf, F.zero)
    else begin
      let z3 = F.mul z1 h in                             (* 1 *)
      let hh = F.sqr h in                                (* 1 *)
      let hhh = F.mul hh h in                            (* 1 *)
      let v = F.mul x1 hh in                             (* 1 *)
      let x3 =
        F.add (F.sqr r) (F.neg 3 (F.add hhh (F.mul_int 2 v)))  (* 1 + 4 = 5 *)
      in
      let y3 =
        F.add
          (F.mul r (F.add v (F.neg 5 x3)))               (* in 1 + 6 = 7 *)
          (F.neg 1 (F.mul y1 hhh))                       (* 1 + 2 = 3 *)
      in
      (Jac { x = x3; y = y3; z = z3 }, h)
    end

let madd pt x2 y2 = fst (madd_h pt x2 y2)

(* add-1998-cmo-2: 12M + 4S. *)
let add p1 p2 =
  match (p1, p2) with
  | Inf, q | q, Inf -> q
  | Jac { x = x1; y = y1; z = z1 }, Jac { x = x2; y = y2; z = z2 } ->
    let z1z1 = F.sqr z1 and z2z2 = F.sqr z2 in
    let u1 = F.mul x1 z2z2 and u2 = F.mul x2 z1z1 in
    let s1 = F.mul y1 (F.mul z2 z2z2) and s2 = F.mul y2 (F.mul z1 z1z1) in
    let h = F.add u2 (F.neg 1 u1) in                     (* 3 *)
    let r = F.add s2 (F.neg 1 s1) in                     (* 3 *)
    if F.is_zero h then if F.is_zero r then double p1 else Inf
    else begin
      let hh = F.sqr h in
      let hhh = F.mul h hh in
      let v = F.mul u1 hh in
      let x3 =
        F.add (F.sqr r) (F.neg 3 (F.add hhh (F.mul_int 2 v)))  (* 5 *)
      in
      let y3 =
        F.add (F.mul r (F.add v (F.neg 5 x3))) (F.neg 1 (F.mul s1 hhh))
      in                                                 (* 3 *)
      Jac { x = x3; y = y3; z = F.mul h (F.mul z1 z2) }
    end

(* Coordinates of a point known to be finite. *)
let jac = function
  | Jac { x; y; z } -> (x, y, z)
  | Inf -> invalid_arg "Ec: unexpected infinity"

let neg = function
  | Inf -> Inf
  | Jac { x; y; z } -> Jac { x; y = F.norm_weak (F.neg 4 y); z }

(* Cross-multiplied: X1 Z2^2 = X2 Z1^2 and Y1 Z2^3 = Y2 Z1^3. *)
let equal p1 p2 =
  match (p1, p2) with
  | Inf, Inf -> true
  | Inf, _ | _, Inf -> false
  | Jac { x = x1; y = y1; z = z1 }, Jac { x = x2; y = y2; z = z2 } ->
    let z1z1 = F.sqr z1 and z2z2 = F.sqr z2 in
    F.equal (F.mul x1 z2z2) (F.mul x2 z1z1)
    && F.equal (F.mul y1 (F.mul z2 z2z2)) (F.mul y2 (F.mul z1 z1z1))

(* Canonical affine coordinates; no inversion when Z is exactly 1. *)
let affine = function
  | Inf -> None
  | Jac { x; y; z } ->
    if F.is_one z then Some (F.normalize x, F.normalize y)
    else begin
      let zi = F.inv z in
      let zi2 = F.sqr zi in
      Some (F.normalize (F.mul x zi2), F.normalize (F.mul y (F.mul zi2 zi)))
    end

let normalize pt =
  match affine pt with
  | None -> Inf
  | Some (x, y) -> Jac { x; y; z = F.one }

let to_affine pt =
  Option.map (fun (x, y) -> (F.to_bignum x, F.to_bignum y)) (affine pt)

let g =
  of_affine
    (Bignum.of_hex
       "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
    (Bignum.of_hex
       "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")

(* The scalar reduced mod n as 32 big-endian bytes. *)
let scalar_bytes k =
  Bignum.to_bytes_be ~len:32 (Bignum.Modring.reduce scalar_ring k)

(* Affine coordinates of finite Jacobian points with one inversion
   (Montgomery's trick: prefix products of Z, invert the last, then back
   out each 1/Z). *)
let batch_affine pts =
  let coords = Array.map jac pts in
  let len = Array.length coords in
  let prefix = Array.make len F.one in
  let acc = ref F.one in
  Array.iteri
    (fun i (_, _, z) ->
      acc := F.mul !acc z;
      prefix.(i) <- !acc)
    coords;
  let inv = ref (F.inv !acc) in
  let out = Array.make len (F.zero, F.zero) in
  for i = len - 1 downto 0 do
    let x, y, z = coords.(i) in
    let zi = if i = 0 then !inv else F.mul !inv prefix.(i - 1) in
    inv := F.mul !inv z;
    let zi2 = F.sqr zi in
    out.(i) <- (F.normalize (F.mul x zi2), F.normalize (F.mul y (F.mul zi2 zi)))
  done;
  out

(* Fixed-base table: for each of the 64 nibbles j of a scalar, the affine
   points d * 16^j * G for d = 1..15, stored flat as 20 limbs per point
   (x then y): 960 points in 150 KB. Built once at module
   initialisation, a window at a time (one inversion each, about 6 ms in
   all); read-only after, so it is safe to share across domains. *)
let gtab =
  let tab = Array.make (64 * 15 * 20) 0 in
  let gx, gy, _ = jac g in
  let base = ref (gx, gy) in
  for j = 0 to 63 do
    (* (d + 1) * 16^j * G for d = 0..15; the last is the next base. *)
    let bx, by = !base in
    let pts = Array.make 16 (Jac { x = bx; y = by; z = F.one }) in
    for d = 1 to 15 do
      pts.(d) <- madd pts.(d - 1) bx by
    done;
    let aff = batch_affine pts in
    for d = 0 to 14 do
      let x, y = aff.(d) in
      let off = ((j * 15) + d) * 20 in
      Array.blit (F.to_limbs x) 0 tab off 10;
      Array.blit (F.to_limbs y) 0 tab (off + 10) 10
    done;
    base := aff.(15)
  done;
  tab

let gtab_fe off =
  F.{ l0 = gtab.(off); l1 = gtab.(off + 1); l2 = gtab.(off + 2);
      l3 = gtab.(off + 3); l4 = gtab.(off + 4); l5 = gtab.(off + 5);
      l6 = gtab.(off + 6); l7 = gtab.(off + 7); l8 = gtab.(off + 8);
      l9 = gtab.(off + 9) }

(* k * G: one mixed addition per non-zero nibble, no doublings. *)
let mul_g k =
  let b = scalar_bytes k in
  let acc = ref Inf in
  for j = 0 to 63 do
    let byte = Char.code b.[31 - (j lsr 1)] in
    let d = if j land 1 = 0 then byte land 15 else byte lsr 4 in
    if d <> 0 then begin
      let off = ((j * 15) + d - 1) * 20 in
      acc := madd !acc (gtab_fe off) (gtab_fe (off + 10))
    end
  done;
  !acc

let wnaf_width = 5

(* Width-5 NAF of a 256-bit scalar: 257 digits, each zero or odd in
   (-16, 16), with sum digits.(i) * 2^i equal to the scalar. *)
let wnaf b =
  let len = 257 in
  let bit i =
    if i >= 256 then 0
    else (Char.code b.[31 - (i lsr 3)] lsr (i land 7)) land 1
  in
  let digits = Array.make len 0 in
  let carry = ref 0 and i = ref 0 in
  while !i < len do
    if bit !i = !carry then incr i
    else begin
      let now = min wnaf_width (len - !i) in
      let word = ref 0 in
      for j = now - 1 downto 0 do
        word := (!word lsl 1) lor bit (!i + j)
      done;
      let word = !word + !carry in
      carry := (word lsr (wnaf_width - 1)) land 1;
      digits.(!i) <- word - (!carry lsl wnaf_width);
      i := !i + now
    end
  done;
  digits

(* k * P by wNAF. The odd multiples P, 3P, .., 15P are made affine
   without an inversion: with D = 2P = (Xd, Yd, Zd), the isomorphism
   (x, y) -> (c^2 x, c^3 y) for c = Zd maps the curve to
   y^2 = x^3 + 7 c^6, on which D is affine; the doubling and addition
   formulas do not involve the curve constant, so the multiples are
   built there by mixed additions of D, rescaled to a common Z, and
   then are affine on the curve scaled once more by that Z. The result,
   accumulated on the scaled curve, maps back by multiplying its Z by
   the total scale. *)
let mul k pt =
  match pt with
  | Inf -> Inf
  | Jac { x; y; z } ->
    let dx, dy, dz = jac (double pt) in
    let dz2 = F.sqr dz in
    let xs = Array.make 8 F.zero
    and ys = Array.make 8 F.zero
    and ratios = Array.make 8 F.one in
    (* P on the scaled curve; P + i*D can never hit a special case of
       the mixed addition because the group has prime order > 16. *)
    let cur = ref (Jac { x = F.mul x dz2; y = F.mul y (F.mul dz2 dz); z }) in
    for i = 0 to 7 do
      if i > 0 then begin
        let q, h = madd_h !cur dx dy in
        cur := q;
        ratios.(i) <- h
      end;
      let x, y, _ = jac !cur in
      xs.(i) <- x;
      ys.(i) <- y
    done;
    let _, _, zg = jac !cur in
    (* The main loop negates entries with [F.neg 1]. *)
    ys.(7) <- F.norm_weak ys.(7);
    (* Rescale entry i by Z7 / Zi = ratios.(i+1) * .. * ratios.(7). *)
    let r = ref ratios.(7) in
    for i = 6 downto 0 do
      let r2 = F.sqr !r in
      xs.(i) <- F.mul xs.(i) r2;
      ys.(i) <- F.mul ys.(i) (F.mul r2 !r);
      if i > 0 then r := F.mul !r ratios.(i)
    done;
    let digits = wnaf (scalar_bytes k) in
    let acc = ref Inf in
    for i = Array.length digits - 1 downto 0 do
      acc := double !acc;
      let d = digits.(i) in
      if d > 0 then acc := madd !acc xs.(d lsr 1) ys.(d lsr 1)
      else if d < 0 then
        acc := madd !acc xs.((-d) lsr 1) (F.neg 1 ys.((-d) lsr 1))
    done;
    begin
      match !acc with
      | Inf -> Inf
      | Jac { x; y; z } -> Jac { x; y; z = F.mul z (F.mul dz zg) }
    end

let encode pt =
  match affine pt with
  | None -> "\000"
  | Some (x, y) -> "\004" ^ F.to_bytes x ^ F.to_bytes y

let decode s =
  if String.equal s "\000" then Some Inf
  else if String.length s = 65 && s.[0] = '\004' then
    match
      ( F.of_bytes_checked (String.sub s 1 32),
        F.of_bytes_checked (String.sub s 33 32) )
    with
    | Some x, Some y when on_curve_fe x y -> Some (Jac { x; y; z = F.one })
    | _ -> None
  else None
