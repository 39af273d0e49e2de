(* The benchmark driver: builds a workload's inputs from the seed, runs
   whole rounds of its ops for the requested time, checks the outputs,
   and prints every metric by name and unit. The last line of standard
   output is one JSON object:

     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}

   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones, from a run whose second half is traced by Obs. The
   exit code is 1 when any check failed.

   Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
   NAME is waters-lp, small-bb, service-replay, fig2-eval or all. *)

module H = Harness

let workloads =
  [ Waters_lp.workload; Small_bb.workload; Service_replay.workload; Fig2_eval.workload ]

(* Fixed runtime parameters, so the environment cannot move the numbers.
   run.py also pins OCAMLRUNPARAM, which sizes every domain's minor heap. *)
let pin_gc () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 120 }

(* Set-ups come in blocks: before the first round, at least [setups] of
   them over at least [setup_window] seconds; before each later round, at
   least one, over [setup_share] of the previous round's time. On the
   shared 2-vCPU VM the benchmark was built on, speed drifts by a fifth
   or more in phases of a second to minutes, so a median of set-ups made
   back to back lands in one or two phases; spread over the run, it
   samples the phases the rounds see. *)
let setups = 7
let setup_window = 3.0
let setup_share = 0.2
let out_dir = ".perfbench"

(* --- measuring ---------------------------------------------------- *)

(* Whole rounds, a new one started while the rounds so far took less
   than [seconds]. [between] runs before every round but the first, given
   the previous round's time, and is not measured. Returns each round's
   wall time. *)
let sum = List.fold_left ( +. ) 0.0

let measure ?(between = fun _ -> ()) h (inst : H.instance) ~seconds =
  let rounds = ref [] in
  while sum !rounds < seconds do
    (match !rounds with last :: _ -> between last | [] -> ());
    let t0 = H.now () in
    inst.H.round h;
    rounds := (H.now () -. t0) :: !rounds
  done;
  !rounds

(* Every round runs the same ops, so throughput is one round's ops over
   the median round time: a slow phase of a few seconds that stretches
   one round of many does not move it. *)
let ops_per_s h rounds =
  float_of_int h.H.attempted /. float_of_int (List.length rounds) /. H.median rounds

(* Each set-up starts from a collected heap, so no set-up pays for
   garbage an earlier one left behind. *)
let timed_setup (w : H.workload) ~seed =
  let h = H.create () in
  Gc.full_major ();
  let t0 = H.now () in
  let inst = w.H.setup h ~seed in
  (inst, H.now () -. t0)

(* --- trace post-processing --------------------------------------- *)

(* Self time per "bench" span name: each span's duration minus the part
   its child "bench" spans cover, nested per domain. *)
let self_times file =
  let tbl = Hashtbl.create 16 in
  let stacks = Hashtbl.create 4 in
  let ic = open_in file in
  let field ms k = List.assoc_opt k ms in
  (try
     while true do
       match Obs.Check.parse_json (input_line ic) with
       | Ok (Obs.Check.O ms) when field ms "cat" = Some (Obs.Check.S "bench") -> (
         let dom = match field ms "dom" with Some (Obs.Check.N d) -> int_of_float d | _ -> 0 in
         let stack = Option.value ~default:[] (Hashtbl.find_opt stacks dom) in
         match (field ms "kind", field ms "name") with
         | Some (Obs.Check.S "begin"), Some (Obs.Check.S name) ->
           Hashtbl.replace stacks dom ((name, ref 0.0) :: stack)
         | Some (Obs.Check.S "end"), Some (Obs.Check.S name) -> (
           let dur = match field ms "dur" with Some (Obs.Check.N d) -> d | _ -> 0.0 in
           match stack with
           | (n, children) :: rest when n = name ->
             let calls, self =
               Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl name)
             in
             Hashtbl.replace tbl name (calls + 1, self +. dur -. !children);
             (match rest with (_, c) :: _ -> c := !c +. dur | [] -> ());
             Hashtbl.replace stacks dom rest
           | _ -> failwith ("unbalanced span in trace: " ^ name))
         | _ -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* --- metrics ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let per_op h name =
  let ops = float_of_int (max 1 h.H.attempted) in
  H.get h name /. ops

let end_to_end h ~setup_s ~rounds =
  [ m "setup_s" "s" setup_s; m "ops_per_s" "1/s" (ops_per_s h rounds) ]

(* Latency percentiles, each within one kind of op: the median of the
   workload's main kind and its tail at the workload's [tail_p], and for
   service-replay the split by request kind. A figure the run cannot
   form (no such kind, or fewer than ten samples beyond the tail) is
   [None]. *)
let latencies (w : H.workload) h =
  let p50 kind = match H.samples h kind with [] -> None | xs -> Some (H.median xs) in
  let tail kind = H.tail ~p:w.H.tail_p (H.samples h kind) in
  let service = w.H.name = Service_replay.workload.H.name in
  [
    ("op_s.p50", p50 w.H.main_kind, w.H.main_kind);
    ("op_s.tail", tail w.H.main_kind, w.H.main_kind);
    ("repeat_s.p50", (if service then p50 "repeat" else None), "repeat");
    ("repeat_s.tail", (if service then tail "repeat" else None), "repeat");
    ("fresh_s.p50", (if service then p50 "fresh" else None), "fresh");
  ]

let span_self selfs name =
  match Hashtbl.find_opt selfs name with
  | Some (calls, self) when calls > 0 -> self /. float_of_int calls
  | _ -> 0.0

(* Per-layer metrics of the traced half [h]; the latencies come from the
   untraced half [untraced], where tracing cannot move them. *)
let per_layer w h ~untraced ~selfs ~overhead =
  let ratio a b = if H.get h b > 0.0 then H.get h a /. H.get h b else 0.0 in
  let pivots = H.get h "lp.pivots" +. H.get h "lp.dual_pivots" in
  List.map
    (fun (name, v, _) -> m name "s" (Option.value ~default:0.0 v))
    (latencies w untraced)
  @ [
    m "lp.pivots" "count/op" (per_op h "lp.pivots");
    m "lp.priced" "count/op" (per_op h "lp.priced");
    m "lp.refreshes" "count/op" (per_op h "lp.refreshes");
    m "lp.dual_pivots" "count/op" (per_op h "lp.dual_pivots");
    m "lp.time_s" "s" (per_op h "lp.time_s");
    m "lp.s_per_pivot" "s" (if pivots > 0.0 then H.get h "lp.time_s" /. pivots else 0.0);
    m "formulation.make_s" "s" (span_self selfs "formulation.make");
    m "bb.nodes" "count/op" (per_op h "bb.nodes");
    m "bb.rounds" "count/op" (per_op h "bb.rounds");
    m "c6.rows" "count/op" (per_op h "c6.rows");
    m "warm.hits" "count/op" (per_op h "warm.hits");
    m "warm.misses" "count/op" (per_op h "warm.misses");
    m "presolve.rows_dropped" "count/op" (per_op h "presolve.rows_dropped");
    m "bb.non_lp_s" "s" (per_op h "bb.non_lp_s");
    m "certify_s" "s" (span_self selfs "certify");
    m "protocol.parse_s" "s" (span_self selfs "protocol.parse");
    m "cache.key_s" "s" (span_self selfs "cache.key");
    m "engine.overhead_s" "s" (per_op h "engine.overhead_s");
    m "cache.hits" "count/op" (per_op h "cache.hits");
    m "cache.misses" "count/op" (per_op h "cache.misses");
    m "cache.warm_seeds" "count/op" (per_op h "cache.warm_seeds");
    m "cold.pivots" "count" (ratio "cold.pivots" "cold.requests");
    m "sibling.pivots" "count" (ratio "sibling.pivots" "sibling.requests");
    m "sensitivity_s" "s" (span_self selfs "sensitivity");
    m "groups_s" "s" (span_self selfs "groups");
    m "heuristic_s" "s" (span_self selfs "heuristic");
    m "sim_s" "s" (span_self selfs "sim");
    m "sim.transfers" "count/op" (per_op h "sim.transfers");
    m "sim.bytes" "count/op" (per_op h "sim.bytes");
    m "select.warm_excluded" "count" (H.get h "select.warm_excluded");
    m "trace.overhead" "ratio" overhead;
  ]

(* --- output ------------------------------------------------------- *)

type result = {
  wname : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_of_result r =
  let b = Buffer.create 512 in
  Printf.bprintf b {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{|} r.correct
    r.attempted r.failed;
  List.iteri
    (fun i mt ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b {|"%s":{"value":%.17g,"unit":"%s"}|} mt.name mt.value mt.unit_)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let report_faults ?(part = "") (w : H.workload) h =
  Printf.printf "%s%s: %d ops attempted, %d failed%s\n" w.H.name part h.H.attempted
    (H.failed h)
    (String.concat ""
       (Hashtbl.fold (fun f n acc -> Printf.sprintf " (%s: %d)" f n :: acc) h.H.faults []
        |> List.sort compare));
  let errors = List.rev h.H.errors in
  List.iteri
    (fun i e -> if i < 20 then Printf.printf "CHECK FAILED %s: %s\n" w.H.name e)
    errors;
  if List.length errors > 20 then
    Printf.printf "CHECK FAILED %s: ... %d more\n" w.H.name (List.length errors - 20)

let print_metric ?note mt =
  Printf.printf "  %-24s %16.9g %-9s%s\n" mt.name mt.value mt.unit_
    (match note with Some n -> "  (" ^ n ^ ")" | None -> "")

(* --- the two kinds of run ------------------------------------------ *)

let prepare (w : H.workload) ~seed =
  let t0 = H.now () in
  w.H.prepare ~seed;
  let dt = H.now () -. t0 in
  if dt > 0.001 then Printf.printf "%s: inputs picked in %.2f s\n" w.H.name dt

let run_untraced (w : H.workload) ~seed ~seconds =
  prepare w ~seed;
  let times = ref [] in
  (* a block of at least [n] set-ups over at least [window] seconds;
     the rounds run on the first block's last instance *)
  let set_up ~n ~window =
    let start = H.now () in
    let rec go k =
      let inst, dt = timed_setup w ~seed in
      times := dt :: !times;
      if k + 1 >= n && H.now () -. start >= window then inst else go (k + 1)
    in
    go 0
  in
  let inst = set_up ~n:setups ~window:setup_window in
  let between round_s =
    ignore (set_up ~n:1 ~window:(setup_share *. round_s));
    (* the next round does not collect the block's garbage *)
    Gc.full_major ()
  in
  let h = H.create () in
  let rounds = measure ~between h inst ~seconds in
  let times = !times in
  inst.H.check h;
  report_faults w h;
  let metrics = end_to_end h ~setup_s:(H.median times) ~rounds in
  Printf.printf "%s end-to-end (%d set-ups, %d rounds, %.2f s measured):\n" w.H.name
    (List.length times) (List.length rounds) (sum rounds);
  List.iter (fun mt -> print_metric mt) metrics;
  List.iter
    (fun (name, v, kind) ->
      Option.iter
        (fun v ->
          let pct = if Filename.extension name = ".tail" then w.H.tail_p else 0.5 in
          print_metric
            ~note:
              (Printf.sprintf "p%.0f over %d %s ops" (100.0 *. pct)
                 (List.length (H.samples h kind)) kind)
            (m name "s" v))
        v)
    (latencies w h);
  { wname = w.H.name; correct = h.H.errors = []; attempted = h.H.attempted;
    failed = H.failed h; metrics }

let run_traced (w : H.workload) ~seed ~seconds =
  let half = seconds /. 2.0 in
  prepare w ~seed;
  (* first half untraced, second half under Obs.with_trace *)
  let inst_a, _ = timed_setup w ~seed in
  let ha = H.create () in
  let rounds_a = measure ha inst_a ~seconds:half in
  inst_a.H.check ha;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let file = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" w.H.name seed) in
  if Sys.file_exists file then Sys.remove file;
  let hb = H.create () in
  let rounds_b =
    Obs.with_trace ~file (fun () ->
        let inst_b = w.H.setup hb ~seed in
        let rounds = measure hb inst_b ~seconds:half in
        inst_b.H.check hb;
        rounds)
  in
  let trace_ok =
    match Obs.Check.trace_file file with
    | Ok n ->
      Printf.printf "%s: trace %s passes trace-check (%d events)\n" w.H.name file n;
      true
    | Error e ->
      H.error hb "trace %s fails trace-check: %s" file e;
      false
  in
  let selfs = if trace_ok then self_times file else Hashtbl.create 1 in
  let overhead = ops_per_s hb rounds_b /. ops_per_s ha rounds_a in
  report_faults ~part:" (untraced half)" w ha;
  report_faults ~part:" (traced half)" w hb;
  Printf.printf "%s self time per layer (traced half, %d ops, %.2f s):\n" w.H.name
    hb.H.attempted (sum rounds_b);
  Printf.printf "  %-20s %8s %14s %14s\n" "span" "calls" "self_s" "self_s/call";
  Hashtbl.fold (fun name (calls, self) acc -> (name, calls, self) :: acc) selfs []
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
  |> List.iter (fun (name, calls, self) ->
         Printf.printf "  %-20s %8d %14.6f %14.9f\n" name calls self
           (self /. float_of_int calls));
  let metrics = per_layer w hb ~untraced:ha ~selfs ~overhead in
  Printf.printf "%s per-layer:\n" w.H.name;
  List.iter (fun mt -> print_metric mt) metrics;
  { wname = w.H.name;
    correct = ha.H.errors = [] && hb.H.errors = [];
    attempted = ha.H.attempted + hb.H.attempted;
    failed = H.failed ha + H.failed hb;
    metrics }

(* --- command line -------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload waters-lp|small-bb|service-replay|fig2-eval|all \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  pin_gc ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let wname = get "workload" and seed = int_of "seed" and seconds = int_of "seconds" in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let chosen =
    if wname = "all" then workloads
    else
      match List.find_opt (fun w -> w.H.name = wname) workloads with
      | Some w -> [ w ]
      | None -> usage ()
  in
  let seconds = float_of_int seconds in
  let results =
    List.map
      (fun w ->
        if traced then run_traced w ~seed ~seconds else run_untraced w ~seed ~seconds)
      chosen
  in
  (match results with
  | [ r ] -> print_endline (json_of_result r)
  | rs ->
    List.iter (fun r -> Printf.printf "%s %s\n" r.wname (json_of_result r)) rs;
    print_endline
      (json_of_result
         {
           wname = "all";
           correct = List.for_all (fun r -> r.correct) rs;
           attempted = List.fold_left (fun a r -> a + r.attempted) 0 rs;
           failed = List.fold_left (fun a r -> a + r.failed) 0 rs;
           metrics =
             List.concat_map
               (fun r -> List.map (fun mt -> { mt with name = r.wname ^ "/" ^ mt.name }) r.metrics)
               rs;
         }));
  (* a wrong answer fails the command, after its result is printed *)
  if not (List.for_all (fun r -> r.correct) results) then exit 1
