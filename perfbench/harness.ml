(* Shared machinery of the four workloads: op and layer timing, the
   per-run record of samples, work counts, faults and check failures, and
   the statistics the report is made of.

   Every call into a layer of the program goes through [layer], which
   wraps it in an [Obs.span] of category "bench" carrying the id of the
   op it belongs to. With tracing off that span is one atomic load, so
   the untraced run times the same code the traced run attributes. *)

let now = Milp.Clock.now

type t = {
  mutable next_op : int;
  mutable current_op : int;
  mutable samples : (string * float) list;  (* op kind, seconds *)
  mutable attempted : int;
  faults : (string, int) Hashtbl.t;  (* named fault -> failed ops *)
  mutable errors : string list;  (* failed correctness checks *)
  counts : (string, float) Hashtbl.t;  (* summed work counts *)
}

let create () =
  {
    next_op = 0;
    current_op = -1;
    samples = [];
    attempted = 0;
    faults = Hashtbl.create 4;
    errors = [];
    counts = Hashtbl.create 32;
  }

let layer h name f =
  Obs.span ~cat:"bench" name ~fields:[ ("op", Obs.Int h.current_op) ] f

(* One op: timed from outside, one trace id, counted as attempted. *)
let op h ~kind f =
  let id = h.next_op in
  h.next_op <- id + 1;
  h.current_op <- id;
  let t0 = now () in
  let r =
    Obs.span ~cat:"bench" "op"
      ~fields:[ ("op", Obs.Int id); ("kind", Obs.Str kind) ]
      f
  in
  let dt = now () -. t0 in
  h.current_op <- -1;
  h.samples <- (kind, dt) :: h.samples;
  h.attempted <- h.attempted + 1;
  (r, dt)

let add h name v =
  Hashtbl.replace h.counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt h.counts name))

let addi h name v = add h name (float_of_int v)
let get h name = Option.value ~default:0.0 (Hashtbl.find_opt h.counts name)

let fail h fault =
  Hashtbl.replace h.faults fault
    (1 + Option.value ~default:0 (Hashtbl.find_opt h.faults fault))

let failed h = Hashtbl.fold (fun _ n acc -> acc + n) h.faults 0

let error h fmt =
  Printf.ksprintf (fun m -> h.errors <- m :: h.errors) fmt

let samples h kind =
  List.filter_map (fun (k, s) -> if k = kind then Some s else None) h.samples

(* --- statistics --------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile [p] (0 < p < 1) when at least ten samples lie
   beyond it, else [None]: with fewer, that percentile is no tail. *)
let tail ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n - rank < 10 || rank < 1 then None else Some a.(rank - 1)

(* --- one workload ------------------------------------------------- *)

(* What a workload hands the driver loop once its inputs are built.
   [round] attempts one whole round of the same ops; [check] runs after
   measuring, outside any timed section, and files faults and check
   failures into the record. *)
type instance = {
  round : t -> unit;
  check : t -> unit;
}

type workload = {
  name : string;
  main_kind : string;  (* the op kind op_s.* is taken over *)
  tail_p : float;  (* the percentile op_s.tail and repeat_s.tail report *)
  prepare : seed:int -> unit;
      (* once per process, before the timed set-ups: picks inputs by
         running the program on candidates (service-replay only) *)
  setup : t -> seed:int -> instance;
}

let no_prepare ~seed:_ = ()
