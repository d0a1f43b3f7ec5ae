(* How fast the machine runs right now, measured with a fixed reference
   computation that shares no code with the library.

   The benchmark's host can change speed by tens of percent within a
   second (other tenants share its cores, caches and memory), and every
   wall time moves with it. Timing this kernel between the ticks of a
   round gives the speed factor at that moment — kernel time ÷ its
   nominal time ([nominal_ms]) — and each measured wall is divided by
   the factor around it, so the timing metrics read in milliseconds of a
   machine on which the kernel takes its nominal time.

   The host's speed is not even the same on every core, so a run is
   pinned to as many CPUs as the workload has domains ([pin]), and the
   kernel runs on each of those CPUs at once, one process per CPU.

   The kernel is the two kinds of work the library does most, in
   roughly equal parts of time: word arithmetic of the kind the field code does, and
   small allocations, balanced-tree updates, string building and list
   sorting. It runs in child processes of its own ([zbench --calibrate
   CPU]), so its heap and collector never see the library's: a change to
   the library cannot move the factor. Processes, not domains: domains
   would share one collector, and on two CPUs its synchronisation times
   come in two modes far apart. *)

(* Kernel time, in ms, on a 2-vCPU x86-64 VM in a typical stretch; any
   constant works, as long as it never changes. *)
let nominal_ms = 7.0

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"

(* Pins the calling thread, and the domains it spawns later, to these
   CPUs. *)
external pin : int array -> unit = "perfbench_pin"

(* The first [n] CPUs this process may run on (fewer if it has fewer). *)
let cpus n =
  let a = allowed_cpus () in
  Array.sub a 0 (min n (Array.length a))

module M = Map.Make (Int)

(* One kernel call: a multiply-and-fold chain modulo 2^61 - 1, then
   6000 keyed string inserts into a balanced map, the map flattened and
   sorted. *)
let kernel () =
  let acc = ref 1 in
  for j = 1 to 1_200_000 do
    let x = (!acc * 0x5bd1e995) + j in
    acc := (x land 0x1fffffffffffffff) + (x lsr 61)
  done;
  let x = ref (Sys.opaque_identity !acc land 0xffff) and m = ref M.empty in
  for _ = 1 to 6000 do
    x := ((!x * 2862933555777941757) + 3037000493) land 0xffffff;
    m := M.add !x (string_of_int !x) !m
  done;
  M.fold (fun k v acc -> (k, String.length v) :: acc) !m []
  |> List.sort compare |> List.length |> Sys.opaque_identity

(* Median kernel wall, in ms, over calls made for at least [seconds]:
   about seven calls, short enough to run between every two ticks. *)
let sample ?(seconds = 0.05) () =
  let stop = Unix.gettimeofday () +. seconds in
  let rec go acc =
    let t0 = Unix.gettimeofday () in
    ignore (kernel () : int);
    let t1 = Unix.gettimeofday () in
    let acc = ((t1 -. t0) *. 1000.) :: acc in
    if t1 >= stop then acc else go acc
  in
  Stats.median (go [])

(* [sample] on each CPU of [cpus] at once, each in a fresh child process
   running this executable with [--calibrate CPU], which pins itself to
   that CPU and prints its median on its one line of output. Returns
   the mean of those medians. *)
let measure cpus =
  let exe = Sys.executable_name in
  let ms =
    Array.to_list cpus
    |> List.map (fun c ->
           Unix.open_process_args_in exe [| exe; "--calibrate"; string_of_int c |])
    |> List.map (fun ic ->
           let line = In_channel.input_line ic in
           match (Unix.close_process_in ic, line) with
           | Unix.WEXITED 0, Some l -> float_of_string l
           | _ -> failwith "speed calibration failed")
  in
  Stats.sum ms /. float_of_int (List.length ms)
