(* Test-only batch folds of a transition chain, the reference shapes the
   production fold (Recursive.Incremental) is checked against.

   [fold_balanced] builds the Fig. 10 tree level by level: adjacent
   pairs are merged, halving the list each pass, and an odd trailing
   element is carried up unchanged. With a [pool], each level is a
   parallel map over its independent pairs; the result, and on failure
   the first error in (level, pair) order, is identical for every domain
   count. [fold_sequential] is the left fold, the degenerate tree of the
   ablations. Both are built on the public [Recursive.merge]. *)

open Zen_crypto
open Zen_snark

let empty = "recursive fold: empty transition list"

let fold_balanced ?(pool = Pool.sequential) sys = function
  | [] -> Error empty
  | ts ->
    let rec level arr =
      let n = Array.length arr in
      if n = 1 then Ok arr.(0)
      else begin
        let pairs = n / 2 in
        let merged =
          Pool.init_array pool ~cost:2.5 pairs (fun i ->
              Recursive.merge sys arr.(2 * i) arr.((2 * i) + 1))
        in
        let rec first_error i =
          if i >= pairs then None
          else
            match merged.(i) with
            | Error e -> Some e
            | Ok _ -> first_error (i + 1)
        in
        match first_error 0 with
        | Some e -> Error e
        | None ->
          level
            (Array.init
               ((n + 1) / 2)
               (fun i ->
                 if i < pairs then Result.get_ok merged.(i) else arr.(n - 1)))
      end
    in
    level (Array.of_list ts)

let fold_sequential sys = function
  | [] -> Error empty
  | t :: rest ->
    List.fold_left
      (fun acc t2 ->
        match acc with Error _ as e -> e | Ok t1 -> Recursive.merge sys t1 t2)
      (Ok t) rest
