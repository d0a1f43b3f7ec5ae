(* The state soak: [Zen_sim.Workload.run] on a scaled-down [soak]
   profile — no signatures, no SNARKs, only the state layer under
   zipfian traffic, diurnal bursts and reorgs.

   Wall time per phase is stamped from the run's deterministic [?log]
   lines: each line is written when a phase commits, a reorg has been
   re-mined or an epoch's root is taken, so the interval since the
   previous line is the wall of exactly that step. *)

module W = Zen_sim.Workload

let profile ~epochs =
  {
    W.soak with
    name = "bench-soak";
    users = 100_000;
    txs_per_epoch = 18_000;
    epochs;
    (* Nine phases: the diurnal wave then gives the eight phases that do
       not close an epoch the size classes 1-2-2-2-1, so their median
       falls inside one class, not on a boundary. A reorg every 5th
       phase lands on a different phase of each epoch. *)
    phases = 9;
    reorg_every = 5;
  }

type step =
  | Phase of { epoch : int; applied : int; wall : float; traced : bool }
  | Reorg of { epoch : int; wall : float }
  | Close of { epoch : int; wall : float }

type round = {
  setup : float;  (** start to the first committed phase *)
  steps : step list;  (** after the first phase, oldest first *)
  speeds : float list;
      (** machine speed before set-up, after it and after every step,
          oldest first *)
  stats : W.stats;
}

let parse ~traced line wall =
  match String.split_on_char ' ' line with
  | "workload" :: "epoch" :: e :: rest -> (
    let epoch = int_of_string e in
    match rest with
    | "done:" :: _ -> Some (Close { epoch; wall })
    | "phase" :: _ :: "reorg" :: _ -> Some (Reorg { epoch; wall })
    | "phase" :: _ :: counts :: _ -> (
      match String.split_on_char '/' counts with
      | applied :: _ ->
        Some (Phase { epoch; applied = int_of_string applied; wall; traced })
      | [] -> None)
    | _ -> None)
  | _ -> None

(* Phase i (from 1, counted after the first) runs with the registry on
   when [traced i]: the log line that ends one step switches it for the
   next, so traced and untraced phases of one round can be compared.
   [speed] measures the machine's speed, outside every timed step. As
   in [World.run_round], the round starts from a compacted heap. *)
let run_round ?traced ?(speed = fun () -> 1.) ~seed ~epochs () =
  Gc.compact ();
  let speeds = ref [ speed () ] in
  let t0 = Unix.gettimeofday () in
  let last = ref t0 and first = ref None and steps = ref [] in
  let phase = ref 1 in
  let on () = match traced with Some f -> f !phase | None -> false in
  let log line =
    let now = Unix.gettimeofday () in
    let calibrate =
      match !first with
      | None ->
        first := Some (now -. t0);
        true
      | Some _ -> (
        match parse ~traced:(on ()) line (now -. !last) with
        | None -> false
        | Some s ->
          steps := s :: !steps;
          (match s with Phase _ -> incr phase | Reorg _ | Close _ -> ());
          true)
    in
    if calibrate then speeds := speed () :: !speeds;
    Option.iter
      (fun _ ->
        if on () then Zen_obs.Registry.enable () else Zen_obs.Registry.disable ())
      traced;
    last := if calibrate then Unix.gettimeofday () else now
  in
  match
    Zen_obs.Trace.with_span ~cat:"sim" "Workload.run" (fun () ->
        W.run ~log ~seed (profile ~epochs))
  with
  | Error e -> Error e
  | Ok stats ->
    Ok
      {
        setup = Option.value ~default:0. !first;
        steps = List.rev !steps;
        speeds = List.rev !speeds;
        stats;
      }

exception First_phase

(* A set-up alone: [run_round]'s start, cut at the first committed
   phase. Returns its wall and the speeds measured before and after. *)
let setup ~speed ~seed ~epochs =
  Gc.compact ();
  let s0 = speed () in
  let t0 = Unix.gettimeofday () in
  match W.run ~log:(fun _ -> raise First_phase) ~seed (profile ~epochs) with
  | Ok _ | Error _ -> failwith "the soak committed no phase"
  | exception First_phase ->
    let wall = Unix.gettimeofday () -. t0 in
    (wall, [ s0; speed () ])
