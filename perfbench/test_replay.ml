(* The benchmark times the program users run: on identical traffic, the
   benchmark's own tick loop ([World.tick], which wraps each layer call in
   a span) and [Harness.tick] reach the same MC tip and certify the same
   epochs. *)

open Perfbench
open Zen_mainchain
open Zen_latus
module H = Zen_sim.Harness

let shape =
  {
    World.sidechains = 2;
    epoch_len = 4;
    submit_len = 2;
    domains = 1;
    users = 3;
    payments = 2;
  }

let ticks = 3 * shape.epoch_len

let run ~bench =
  let w = World.create ~seed:7 shape in
  for k = 0 to ticks do
    let traffic =
      if k = 0 then { World.mc_txs = []; sc_txs = [] }
      else fst (World.gen w ~tick_no:k)
    in
    if bench then ignore (World.tick w.h w.scs traffic : World.tick_out)
    else begin
      List.iter (H.submit w.h) traffic.mc_txs;
      List.iter
        (fun (i, tx) ->
          ignore (Node.submit_tx w.scs.(i).H.node tx : (unit, string) result))
        traffic.sc_txs;
      H.tick w.h
    end
  done;
  ( Chain.tip_hash w.h.chain,
    Array.map (fun (sc : H.sidechain) -> Node.certified_epochs sc.node) w.scs )

let () =
  let tip_d, epochs_d = run ~bench:true in
  let tip_h, epochs_h = run ~bench:false in
  let show e =
    String.concat " | "
      (Array.to_list
         (Array.map (fun l -> String.concat "," (List.map string_of_int l)) e))
  in
  Printf.printf "bench:   tip %s epochs %s\nharness: tip %s epochs %s\n"
    (Zen_crypto.Hash.short_hex tip_d) (show epochs_d)
    (Zen_crypto.Hash.short_hex tip_h) (show epochs_h);
  let certified = Array.for_all (fun l -> List.length l >= 2) epochs_d in
  if not (Zen_crypto.Hash.equal tip_d tip_h && epochs_d = epochs_h && certified)
  then begin
    prerr_endline "benchmark tick loop diverged from Harness.tick";
    exit 1
  end
