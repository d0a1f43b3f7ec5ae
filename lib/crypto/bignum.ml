(* Little-endian limbs in base 2^26. Invariant: no trailing zero limbs,
   so [||] is the unique representation of zero. Base 2^26 keeps every
   intermediate product under 2^53 and lets schoolbook multiplication
   accumulate carries in a 63-bit OCaml int without overflow. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]

let norm (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let one = of_int 1
let two = of_int 2

let is_zero a = Array.length a = 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let num_bits a =
  let la = Array.length a in
  if la = 0 then 0
  else
    let top = a.(la - 1) in
    let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
    ((la - 1) * limb_bits) + width top

let bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      !carry
      + (if i < la then a.(i) else 0)
      + (if i < lb then b.(i) else 0)
    in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  norm r

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Bignum.sub: underflow";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Bignum.sub: underflow";
  norm r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let acc = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- acc land mask;
          carry := acc lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let acc = r.(!k) + !carry in
          r.(!k) <- acc land mask;
          carry := acc lsr limb_bits;
          incr k
        done
      end
    done;
    norm r
  end

(* Shift by whole limbs: the building blocks of Barrett reduction. *)
let shift_left_limbs (a : t) n : t =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + n) 0 in
    Array.blit a 0 r n la;
    r
  end

let shift_right_limbs (a : t) n : t =
  let la = Array.length a in
  if n >= la then zero else Array.sub a n (la - n)

let trunc_limbs (a : t) n : t =
  let la = Array.length a in
  if la <= n then a else norm (Array.sub a 0 n)

let shift_left a n =
  if n < 0 then invalid_arg "Bignum.shift_left: negative";
  let limbs = n / limb_bits and bits = n mod limb_bits in
  let a = shift_left_limbs a limbs in
  if bits = 0 || is_zero a then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) lsl bits) lor !carry in
      r.(i) <- v land mask;
      carry := v lsr limb_bits
    done;
    r.(la) <- !carry;
    norm r
  end

let shift_right a n =
  if n < 0 then invalid_arg "Bignum.shift_right: negative";
  let limbs = n / limb_bits and bits = n mod limb_bits in
  let a = shift_right_limbs a limbs in
  if bits = 0 || is_zero a then a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    for i = 0 to la - 1 do
      let hi = if i + 1 < la then a.(i + 1) else 0 in
      r.(i) <- ((a.(i) lsr bits) lor (hi lsl (limb_bits - bits))) land mask
    done;
    norm r
  end

(* Binary long division: simple and obviously correct. Only used on cold
   paths (Barrett setup, tests); hot-path reduction goes through Modring. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let nb = num_bits a in
    let q = Array.make (((nb - 1) / limb_bits) + 1) 0 in
    let r = ref zero in
    for i = nb - 1 downto 0 do
      let r' = shift_left !r 1 in
      let r' = if bit a i then add r' one else r' in
      if compare r' b >= 0 then begin
        r := sub r' b;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end else r := r'
    done;
    (norm q, !r)
  end

let rem a b = snd (divmod a b)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bignum.of_hex: bad character"

let of_hex s =
  let r = ref zero in
  String.iter
    (fun c ->
      if c <> ' ' then r := add (shift_left !r 4) (of_int (hex_digit c)))
    s;
  !r

let to_hex a =
  if is_zero a then "0"
  else begin
    let nb = num_bits a in
    let ndigits = ((nb - 1) / 4) + 1 in
    let buf = Buffer.create ndigits in
    for d = ndigits - 1 downto 0 do
      let v =
        (if bit a ((4 * d) + 3) then 8 else 0)
        lor (if bit a ((4 * d) + 2) then 4 else 0)
        lor (if bit a ((4 * d) + 1) then 2 else 0)
        lor if bit a (4 * d) then 1 else 0
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    Buffer.contents buf
  end

(* Bytes and limbs are both little-endian bit streams once the bytes
   are read from the end: feed an accumulator of at most 33 bits. *)
let of_bytes_be s =
  let len = String.length s in
  let r = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      r.(!k) <- !acc land mask;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits;
      incr k
    end
  done;
  if !bits > 0 then r.(!k) <- !acc;
  norm r

let to_bytes_be ?len a =
  let nbytes = if is_zero a then 0 else ((num_bits a - 1) / 8) + 1 in
  let out_len =
    match len with
    | None -> max nbytes 1
    | Some l ->
      if nbytes > l then invalid_arg "Bignum.to_bytes_be: too short";
      l
  in
  let b = Bytes.make out_len '\000' in
  let acc = ref 0 and bits = ref 0 and k = ref 0 in
  for i = 0 to nbytes - 1 do
    if !bits < 8 && !k < Array.length a then begin
      acc := !acc lor (a.(!k) lsl !bits);
      bits := !bits + limb_bits;
      incr k
    end;
    Bytes.set b (out_len - 1 - i) (Char.chr (!acc land 0xff));
    acc := !acc lsr 8;
    bits := !bits - 8
  done;
  Bytes.unsafe_to_string b

module Modring = struct
  type ring = { m : t; k : int; mu : t }

  let nat_add = add
  let nat_sub = sub

  let create m =
    if compare m two < 0 then invalid_arg "Modring.create: modulus < 2";
    let k = Array.length m in
    (* mu = floor(B^(2k) / m), the Barrett constant. *)
    let mu = fst (divmod (shift_left_limbs one (2 * k)) m) in
    { m; k; mu }

  (* Barrett reduction; valid for x < B^(2k). Larger inputs (rare: raw
     hash material) fall back to long division. *)
  let reduce { m; k; mu } x =
    if compare x m < 0 then x
    else if Array.length x > 2 * k then rem x m
    else begin
      let q1 = shift_right_limbs x (k - 1) in
      let q3 = shift_right_limbs (mul q1 mu) (k + 1) in
      let r1 = trunc_limbs x (k + 1) in
      let r2 = trunc_limbs (mul q3 m) (k + 1) in
      let r =
        if compare r1 r2 >= 0 then nat_sub r1 r2
        else nat_sub (nat_add r1 (shift_left_limbs one (k + 1))) r2
      in
      let r = ref r in
      while compare !r m >= 0 do
        r := nat_sub !r m
      done;
      !r
    end

  let add r a b =
    let s = nat_add a b in
    if compare s r.m >= 0 then nat_sub s r.m else s

  let sub r a b =
    if compare a b >= 0 then nat_sub a b else nat_sub (nat_add a r.m) b

  let mul r a b = reduce r (mul a b)
  let sq r a = mul r a a

  let pow r a e =
    let a = reduce r a in
    let nb = num_bits e in
    if nb = 0 then reduce r one
    else begin
      let acc = ref a in
      for i = nb - 2 downto 0 do
        acc := sq r !acc;
        if bit e i then acc := mul r !acc a
      done;
      !acc
    end

  let inv_prime r a =
    let a = reduce r a in
    if is_zero a then raise Division_by_zero;
    pow r a (nat_sub r.m two)
end
