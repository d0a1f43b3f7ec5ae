(** The secp256k1 elliptic curve y² = x³ + 7 over F_p,
    p = 2{^256} − 2{^32} − 977.

    Field elements are fixed-width (ten 26-bit limbs in OCaml ints,
    libsecp256k1's layout) with reduction by 2{^256} ≡ 0x1000003D1 and
    inversion by a fixed addition chain; points are Jacobian. Multiples
    of {!g} come from a fixed-base table of 960 affine points (150 KB,
    built once at module initialisation); other bases use a width-5
    wNAF with mixed Jacobian+affine additions. No state is mutated after
    initialisation, so every function is safe to call from any domain.

    Measured with [bench/main.exe micro] on a 2-vCPU x86-64 VM:
    [mul_g] 0.10 ms, [mul] 0.33 ms, so a Schnorr sign takes 0.16 ms and a
    verify 0.44 ms. The bignum double-and-add this replaced took 23 ms
    per verify on the same VM. *)

type point
(** A point on the curve, including the point at infinity. *)

val infinity : point
val g : point
(** The standard generator. *)

val p : Bignum.t
(** Base field modulus. *)

val n : Bignum.t
(** Group order (prime). *)

val is_infinity : point -> bool

val equal : point -> point -> bool
(** Compared in Jacobian coordinates by cross-multiplication, without
    an inversion. *)

val of_affine : Bignum.t -> Bignum.t -> point
(** Raises [Invalid_argument] if the coordinates are not on the curve.
    The result is normalised (Z = 1). *)

val to_affine : point -> (Bignum.t * Bignum.t) option
(** [None] for the point at infinity. *)

val normalize : point -> point
(** The same point with Z = 1 (one inversion unless already so), so
    that {!encode} and {!to_affine} need no inversion afterwards. *)

val add : point -> point -> point
val double : point -> point
val neg : point -> point

val mul : Bignum.t -> point -> point
(** Scalar multiplication by wNAF; the scalar is reduced mod [n]. *)

val mul_g : Bignum.t -> point
(** [mul_g k] is [mul k g] from the fixed-base table: one mixed addition
    per non-zero 4-bit window, no doublings. *)

val on_curve : Bignum.t -> Bignum.t -> bool
(** Both coordinates below [p] and on the curve. *)

val encode : point -> string
(** 65-byte uncompressed encoding (0x04 ‖ x ‖ y); a single 0x00 byte for
    infinity. *)

val decode : string -> point option
(** Inverse of {!encode}; rejects coordinates ≥ [p] and points off the
    curve. Decoded points are normalised. *)

val scalar_ring : Bignum.Modring.ring
(** Arithmetic mod [n], for building signature schemes on top. *)

(** Arithmetic in F_p on the fixed-width representation. Exposed so that
    tests can check it against {!Bignum.Modring}.

    A value's magnitude bounds its limbs: at most m·(2{^26} + 2{^5}) for
    limbs 0–8 and m·2{^22} for limb 9 at magnitude m. {!Field.mul} and
    {!Field.sqr} take magnitude ≤ 7 and return magnitude 1. *)
module Field : sig
  type t

  val of_bignum : Bignum.t -> t
  (** Any value below 2{^256}, not necessarily reduced. Raises
      [Invalid_argument] from 2{^256} up. *)

  val to_bignum : t -> Bignum.t
  (** The canonical value, below [p]. *)

  val of_limbs : int array -> t
  (** Ten little-endian base-2{^26} limbs, unchecked: for building
      inputs at a magnitude bound. *)

  val add : t -> t -> t
  val neg : int -> t -> t
  (** [neg m a] is −a for [a] of magnitude at most [m]. *)

  val mul : t -> t -> t
  val sqr : t -> t

  val inv : t -> t
  (** a{^p−2}; zero maps to zero. *)

  val is_zero : t -> bool
  val equal : t -> t -> bool
end
