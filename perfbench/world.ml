(* The closed-loop world: a Zendoo mainchain with Latus
   sidechains, driven tick by tick from outside the library.

   [tick] re-plays [Zen_sim.Harness.tick]'s fault-free order — mine one
   MC block, then per sidechain forge, pump the proving pipeline and
   certify/submit — through the public functions of each layer, so each
   call can be wrapped in its own trace span here without adding one
   inside the library. The test in this directory checks that the two
   loops reach the same MC tip and certified epochs on identical
   traffic.

   Traffic is fixed per tick by the generator ([gen]), which runs
   between ticks: wallet building and signing are client work and stay
   outside the tick timer. *)

open Zen_crypto
open Zen_mainchain
open Zen_latus
open Zendoo
module H = Zen_sim.Harness

exception Gate of string

let gate fmt = Printf.ksprintf (fun s -> raise (Gate s)) fmt
let span cat name f = Zen_obs.Trace.with_span ~cat name f
let ok what = function Ok v -> v | Error e -> gate "%s: %s" what e

type shape = {
  sidechains : int;
  epoch_len : int;
  submit_len : int;
  domains : int;  (** pool size handed to mining, validation and nodes *)
  users : int;  (** SC accounts per sidechain *)
  payments : int;  (** signed payments per tick, on the first sidechain *)
}

(* ---- the system side: one tick ---- *)

type traffic = {
  mc_txs : Tx.t list;  (** FTs, submitted to the MC mempool *)
  sc_txs : (int * Sc_tx.t) list;  (** (sidechain index, tx) *)
}

type tick_out = {
  block : Block.t;  (** the MC block this tick mined *)
  admitted : (int * Sc_tx.t * (unit, string) result) list;
  forged : Sc_block.t option array;
  certs : int;  (** certificates built and submitted this tick *)
}

(* Mine, then per sidechain forge → pump → certify, as [Harness.tick]
   does with no fault plan. Certificates the miner skips are purged
   from the mempool, as the harness does for the certificates it
   manages. *)
let tick (h : H.t) (scs : H.sidechain array) (tr : traffic) =
  span "sim" "bench.tick" @@ fun () ->
  List.iter
    (fun tx -> span "mainchain" "Harness.submit" (fun () -> H.submit h tx))
    tr.mc_txs;
  let admitted =
    List.map
      (fun (i, tx) ->
        ( i,
          tx,
          span "latus" "Node.submit_tx" (fun () ->
              Node.submit_tx scs.(i).H.node tx) ))
      tr.sc_txs
  in
  h.time <- h.time + 1;
  let block, skipped =
    ok "mine"
      (span "mainchain" "Miner.build_block" (fun () ->
           Miner.build_block ~pool:h.pool ~aggregate:h.aggregate h.chain
             ~time:h.time ~miner_addr:h.miner_addr
             ~candidates:(Mempool.txs h.mempool)))
  in
  let chain, outcome =
    ok "add_block"
      (span "mainchain" "Chain.add_block" (fun () ->
           Chain.add_block ~pool:h.pool h.chain block))
  in
  (match outcome with
  | Chain.Extended_tip -> ()
  | Chain.Side_branch | Chain.Reorg _ -> gate "mined block did not extend the tip");
  h.chain <- chain;
  h.mempool <- Mempool.remove_included h.mempool block;
  List.iter
    (function
      | Tx.Certificate _ as tx -> h.mempool <- Mempool.remove h.mempool (Tx.txid tx)
      | _ -> ())
    skipped;
  let certs = ref 0 in
  let forged =
    Array.map
      (fun (sc : H.sidechain) ->
        let b =
          ok "forge"
            (span "latus" "Node.forge" (fun () ->
                 Node.forge sc.node ~mc:h.chain ~slot:h.time ()))
        in
        span "latus" "Node.pump" (fun () -> Node.pump sc.node);
        (match
           ok "certificate"
             (span "latus" "Node.build_certificate" (fun () ->
                  Node.build_certificate sc.node ~mc:h.chain))
         with
        | None -> ()
        | Some cert ->
          incr certs;
          span "mainchain" "Harness.submit" (fun () -> H.submit h cert));
        b)
      scs
  in
  { block; admitted; forged; certs = !certs }

(* ---- setup ---- *)

type user = {
  wallet : Sc_wallet.t;
  mutable two_inputs : bool;  (** shape of this user's last payment *)
  mutable refused : bool;  (** its last payment was refused at admission *)
}

type lane = {
  sc : H.sidechain;
  schedule : Epoch.schedule;
  funder : Wallet.t;  (** MC wallet paying this sidechain's FTs *)
  accounts : user array;
}

type t = {
  h : H.t;
  shape : shape;
  lanes : lane array;
  scs : H.sidechain array;
  rng : Rng.t;
  start : int;  (** common activation height of every sidechain *)
  issued0 : int;  (** MC value in existence before the first block *)
}

let fee = Amount.of_int_exn 1000

(* Every sidechain activates at one height, after the last registration:
   registering one by one with a fixed activation delay lets early
   sidechains miss their first certificate window while later ones
   register, and they cease during setup. *)
let register h shape family =
  let n = shape.sidechains in
  Array.init n (fun i ->
      ok "register"
        (H.add_latus h ~name:(Printf.sprintf "sc%d" (i + 1)) ~family
           ~epoch_len:shape.epoch_len ~submit_len:shape.submit_len
           ~activation_delay:(n - i) ()))

let ft_output lane (u : user) amount =
  let addr = List.hd (Sc_wallet.addresses u.wallet) in
  Tx.Ft
    (Forward_transfer.make ~ledger_id:lane.sc.H.ledger_id
       ~receiver_metadata:(Sc_tx.ft_metadata ~receiver:addr ~payback:addr)
       ~amount:(Amount.of_int_exn amount))

(* Set-up up to the first tick of the sidechains' first epoch: circuit
   compilation, coin maturity, registration and one funding
   transaction (FTs to every account and, with several sidechains, a
   coin for each sidechain's own MC wallet) left in the mempool for the
   first tick to mine. *)
let create ~seed shape =
  (* The verification cache is process-wide; a fresh world must not hit
     entries an earlier world of the same seed left behind. *)
  Verifier.Cache.clear ();
  let pool = Zen_crypto.Pool.get ~domains:shape.domains in
  let h = H.create ~pool ~seed:(Printf.sprintf "bench.%d" seed) () in
  let issued0 = Amount.to_int (Chain_state.circulating (Chain.tip_state h.chain)) in
  H.fund h ~blocks:3;
  let family = Circuits.make Params.default in
  let scs = register h shape family in
  let start = Chain.height h.chain + 1 in
  let rng = Rng.create seed in
  let lanes =
    Array.mapi
      (fun i (sc : H.sidechain) ->
        let funder =
          if shape.sidechains = 1 then h.mc_wallet
          else Wallet.create ~seed:(Printf.sprintf "bench.%d.funder.%d" seed i)
        in
        let accounts =
          Array.init shape.users (fun j ->
              let wallet =
                Sc_wallet.create ~seed:(Printf.sprintf "bench.%d.%d.%d" seed i j)
              in
              ignore (Sc_wallet.fresh_address wallet : Hash.t);
              { wallet; two_inputs = false; refused = false })
        in
        { sc; schedule = Epoch.of_config sc.config; funder; accounts })
      scs
  in
  let outputs =
    Array.to_list lanes
    |> List.concat_map (fun lane ->
           let fts =
             Array.to_list lane.accounts
             |> List.concat_map (fun u ->
                    List.init 2 (fun _ ->
                        ft_output lane u (1_000_000 + Rng.int rng 1_000_000)))
           in
           if lane.funder == h.mc_wallet then fts
           else
             Tx.Coin
               {
                 addr = Wallet.fresh_address lane.funder;
                 amount = Amount.of_int_exn 1_000_000_000;
               }
             :: fts)
  in
  let funding =
    ok "funding"
      (Wallet.build_transfer h.mc_wallet (Chain.tip_state h.chain) ~outputs ~fee)
  in
  H.submit h funding;
  { h; shape; lanes; scs; rng; start; issued0 }

(* ---- the client side: traffic for the next tick ---- *)

type kind = Pay | Ft | Bt

type txrec = {
  kind : kind;
  lane : int;
  tick : int;  (** tick index that submitted it *)
  mutable epoch : int;  (** withdrawal epoch it lands in *)
  mutable status : [ `Pending | `Mined | `Refused | `Included | `Settled of int ];
  id : Hash.t;  (** SC txid; the MC txid for an FT *)
  ft : Utxo.t option;  (** the SC coin an FT should create *)
  bt_receiver : Hash.t option;
  payer : user option;
}

let next_height t = Chain.height t.h.chain + 1

let position t =
  (next_height t - t.start) mod t.shape.epoch_len

let epoch_of lane height =
  match Epoch.epoch_of_height lane.schedule ~height with
  | Some e -> e
  | None -> gate "height %d precedes the sidechain's activation" height

let coins (u : user) st = Sc_wallet.utxos u.wallet st

(* One payment from account [u] to account [v]. The shape keeps the
   sidechain's live coin count flat: above target, spend the two largest
   coins exactly (one coin less); otherwise split the largest with a
   freshly drawn amount (one coin more). After a refusal the next
   payment switches shape: the output slots depend only on the inputs,
   so repeating the shape would hit the same slot again. *)
let payment t ~st ~(u : user) ~(v : user) ~above =
  match coins u st with
  | [] -> None
  | c1 :: rest ->
    let two =
      match rest with
      | [] -> false
      | _ :: _ -> if u.refused then not u.two_inputs else above
    in
    let amount =
      match rest with
      | c2 :: _ when two -> Amount.to_int c1.amount + Amount.to_int c2.amount
      | _ ->
        let a = Amount.to_int c1.amount in
        if a < 2 then a else 1 + Rng.int t.rng (a - 1)
    in
    u.two_inputs <- two;
    let to_ = List.hd (Sc_wallet.addresses v.wallet) in
    span "client" "Sc_wallet.build_payment" (fun () ->
        match
          Sc_wallet.build_payment u.wallet st ~to_
            ~amount:(Amount.of_int_exn amount)
        with
        | Ok tx -> Some tx
        | Error _ -> None)

(* Traffic for tick [tick_no]: per sidechain one FT and one BT (except
   on the epoch's first height, so BT latencies — whole ticks from
   admission to the tick accepting the certificate — fall into an odd
   number of span classes and the median sits inside one), plus
   [shape.payments] payments from distinct accounts on the first
   sidechain. Returns the transactions and their records. *)
let gen t ~tick_no =
  let pos = position t in
  let height = next_height t in
  let mc = ref [] and sc = ref [] and recs = ref [] in
  let record ?ft ?bt_receiver ?payer kind lane id =
    recs :=
      {
        kind;
        lane;
        tick = tick_no;
        epoch = epoch_of t.lanes.(lane) height;
        status = `Pending;
        id;
        ft;
        bt_receiver;
        payer;
      }
      :: !recs
  in
  Array.iteri
    (fun li lane ->
      let st = Node.next_block_state lane.sc.node in
      let n = Array.length lane.accounts in
      let payers =
        if li = 0 then
          List.init t.shape.payments (fun j ->
              ((tick_no * t.shape.payments) + j) mod n)
        else []
      in
      let target = 2 * n in
      let live = ref (Mst.occupied st.Sc_state.mst) in
      List.iter
        (fun ui ->
          let u = lane.accounts.(ui) in
          let v = lane.accounts.((ui + 1 + Rng.int t.rng (n - 1)) mod n) in
          match payment t ~st ~u ~v ~above:(!live > target) with
          | None -> ()
          | Some tx ->
            live := !live + (if u.two_inputs then -1 else 1);
            sc := (li, tx) :: !sc;
            record ~payer:u Pay li (Sc_tx.txid tx))
        payers;
      if pos > 0 then begin
        (* FT to the account with the fewest coins, BT of the smallest
           coin of the richest account that pays nothing this tick. *)
        let by_coins =
          List.init n (fun i -> (List.length (coins lane.accounts.(i) st), i))
          |> List.sort compare
        in
        let poorest = snd (List.hd by_coins) in
        let u = lane.accounts.(poorest) in
        let out = ft_output lane u (200_000 + Rng.int t.rng 800_000) in
        (match
           span "client" "Wallet.build_transfer" (fun () ->
               Wallet.build_transfer lane.funder (Chain.tip_state t.h.chain)
                 ~outputs:[ out ] ~fee)
         with
        | Error _ -> ()
        | Ok tx ->
          mc := tx :: !mc;
          let ft = match out with Tx.Ft ft -> ft | Tx.Coin _ -> assert false in
          let addr = List.hd (Sc_wallet.addresses u.wallet) in
          let utxo =
            Utxo.make ~addr ~amount:ft.amount
              ~nonce:(Utxo.derive_nonce ~source:(Forward_transfer.hash ft) ~index:0)
          in
          record ~ft:utxo Ft li (Tx.txid tx));
        match
          List.rev by_coins
          |> List.find_opt (fun (c, i) -> c > 0 && not (List.mem i payers))
        with
        | None -> ()
        | Some (_, ri) -> (
          let r = lane.accounts.(ri) in
          match List.rev (coins r st) with
          | [] -> ()
          | smallest :: _ -> (
            let mc_receiver =
              Hash.tagged "bench.bt"
                [ string_of_int li; string_of_int tick_no ]
            in
            match
              span "client" "Sc_wallet.build_backward_transfer" (fun () ->
                  Sc_wallet.build_backward_transfer r.wallet st ~utxo:smallest
                    ~mc_receiver)
            with
            | Error _ -> ()
            | Ok tx ->
              sc := (li, tx) :: !sc;
              record ~bt_receiver:mc_receiver Bt li (Sc_tx.txid tx)))
      end)
    t.lanes;
  ({ mc_txs = List.rev !mc; sc_txs = List.rev !sc }, List.rev !recs)

(* ---- accounting, outside the tick timer ---- *)

type round = {
  w : t;
  recs : (Hash.t, txrec) Hashtbl.t;
  by_epoch : (int * int, txrec list) Hashtbl.t;  (** included, per (lane, epoch) *)
  certified : int array;  (** last epoch accepted on the MC, per lane *)
  lane_epoch : int array;  (** epoch of the lane's newest SC block *)
  mutable walls : float list;  (** measured tick walls, newest first *)
  mutable cert_ticks : bool list;  (** per measured tick, newest first *)
  mutable measured : txrec list;
  mutable live_first : int;
  mutable mc_txs : int;  (** non-coinbase txs in measured MC blocks *)
  mutable mc_certs : int;  (** certificates in measured MC blocks *)
  mutable depth_max : int;  (** proving tasks left unfolded between ticks *)
  mutable speeds : float list;
      (** machine speed before set-up, before the first measured tick and
          after every measured tick, newest first *)
}

let lane_of_ledger w id =
  let rec go i =
    if i >= Array.length w.lanes then gate "certificate for an unknown sidechain"
    else if Hash.equal w.lanes.(i).sc.H.ledger_id id then i
    else go (i + 1)
  in
  go 0

let account r ~tick_no (out : tick_out) =
  let w = r.w in
  List.iter
    (fun (_, tx, res) ->
      match Hashtbl.find_opt r.recs (Sc_tx.txid tx) with
      | None -> ()
      | Some rc ->
        (match res with Error _ -> rc.status <- `Refused | Ok () -> ());
        Option.iter
          (fun u -> u.refused <- Result.is_error res)
          rc.payer)
    out.admitted;
  List.iter
    (fun tx ->
      match tx with
      | Tx.Certificate cert ->
        let li = lane_of_ledger w cert.ledger_id in
        if cert.epoch_id <> r.certified.(li) + 1 then
          gate "sc%d: epoch %d certified after epoch %d" (li + 1) cert.epoch_id
            r.certified.(li);
        r.certified.(li) <- cert.epoch_id;
        List.iter
          (fun rc ->
            (match rc.bt_receiver with
            | Some recv
              when not
                     (List.exists
                        (fun (bt : Backward_transfer.t) ->
                          Hash.equal bt.receiver_addr recv)
                        cert.bt_list) ->
              gate "sc%d: settled BT missing from its certificate" (li + 1)
            | _ -> ());
            rc.status <- `Settled tick_no)
          (Option.value ~default:[]
             (Hashtbl.find_opt r.by_epoch (li, cert.epoch_id)))
      | tx -> (
        match Hashtbl.find_opt r.recs (Tx.txid tx) with
        | Some rc when rc.status = `Pending -> rc.status <- `Mined
        | _ -> ()))
    out.block.txs;
  let include_ li rc epoch =
    rc.status <- `Included;
    rc.epoch <- epoch;
    let key = (li, epoch) in
    Hashtbl.replace r.by_epoch key
      (rc :: Option.value ~default:[] (Hashtbl.find_opt r.by_epoch key))
  in
  Array.iteri
    (fun li b ->
      let lane = w.lanes.(li) in
      (match b with
      | None -> ()
      | Some (b : Sc_block.t) ->
        (match List.rev b.mc_refs with
        | last :: _ -> r.lane_epoch.(li) <- epoch_of lane (Mc_ref.height last)
        | [] -> ());
        List.iter
          (fun tx ->
            match Hashtbl.find_opt r.recs (Sc_tx.txid tx) with
            | Some rc when rc.status = `Pending -> include_ li rc r.lane_epoch.(li)
            | _ -> ())
          b.txs);
      let mst = (Node.tip_state lane.sc.node).Sc_state.mst in
      Hashtbl.iter
        (fun _ rc ->
          match (rc.status, rc.ft) with
          | `Mined, Some utxo when rc.lane = li ->
            if Mst.find_utxo mst utxo <> None then
              include_ li rc r.lane_epoch.(li)
            else rc.status <- `Refused
          | _ -> ())
        r.recs)
    out.forged;
  (* An FT the miner skipped never reaches the sidechain. *)
  Hashtbl.iter
    (fun _ rc -> if rc.kind = Ft && rc.status = `Pending then rc.status <- `Refused)
    r.recs

let stale w =
  Array.fold_left (fun acc l -> acc + Node.mempool_size l.sc.H.node) 0 w.lanes

let live w =
  Array.fold_left
    (fun acc l -> acc + Mst.occupied (Node.tip_state l.sc.H.node).Sc_state.mst)
    0 w.lanes

(* [traced] turns the registry on for this tick alone (client work
   excluded), so traced and untraced ticks of one round can be
   compared under the same machine speed. *)
let step ?(traced = false) r ~tick_no ~measure =
  let traffic, recs =
    if tick_no = 0 then ({ mc_txs = []; sc_txs = [] }, []) else gen r.w ~tick_no
  in
  List.iter (fun rc -> Hashtbl.replace r.recs rc.id rc) recs;
  if traced then Zen_obs.Registry.enable ();
  let t0 = Unix.gettimeofday () in
  let out = tick r.w.h r.w.scs traffic in
  let wall = Unix.gettimeofday () -. t0 in
  if traced then Zen_obs.Registry.disable ();
  account r ~tick_no out;
  if measure then begin
    let txs = List.tl out.block.txs in
    r.mc_txs <- r.mc_txs + List.length txs;
    r.mc_certs <-
      r.mc_certs
      + List.length
          (List.filter (function Tx.Certificate _ -> true | _ -> false) txs);
    Array.iter
      (fun l -> r.depth_max <- max r.depth_max (Node.pipeline_depth l.sc.H.node))
      r.w.lanes;
    r.walls <- wall :: r.walls;
    r.cert_ticks <- (out.certs > 0) :: r.cert_ticks;
    r.measured <- List.rev_append recs r.measured
  end

(* One round: set-up — ending with the tick that mines the funding
   transaction — then [epochs] measured epochs. The sidechains activate
   at that first tick, so measured tick k sits at epoch position
   k mod epoch_len, and the last measured tick accepts the last epoch's
   certificates. [hook] runs between set-up and measurement; measured
   tick k is traced on its own when [traced k]. [speed] measures the
   machine's speed, outside every timed span. The heap is compacted
   first, so every round starts from the same heap, not from the
   garbage of the round before. *)
let run_round ?(hook = ignore) ?(traced = fun _ -> false) ?(speed = fun () -> 1.)
    ~seed ~epochs shape =
  Gc.compact ();
  let s0 = speed () in
  let t0 = Unix.gettimeofday () in
  let w = create ~seed shape in
  let n = Array.length w.lanes in
  let r =
    {
      w;
      recs = Hashtbl.create 1024;
      by_epoch = Hashtbl.create 64;
      certified = Array.make n (-1);
      lane_epoch = Array.make n 0;
      walls = [];
      cert_ticks = [];
      measured = [];
      live_first = 0;
      mc_txs = 0;
      mc_certs = 0;
      depth_max = 0;
      speeds = [ s0 ];
    }
  in
  step r ~tick_no:0 ~measure:false;
  let setup = Unix.gettimeofday () -. t0 in
  r.live_first <- live w;
  hook ();
  r.speeds <- speed () :: r.speeds;
  for k = 1 to epochs * shape.epoch_len do
    step r ~tick_no:k ~measure:true ~traced:(traced k);
    r.speeds <- speed () :: r.speeds
  done;
  (r, setup)
