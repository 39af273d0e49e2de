(* Correctness checks made apart from the code under test: each one
   re-derives what it needs from the model data, the plan or the platform
   parameters, and never compares against a stored copy of an earlier
   run's output. *)

open Rt_model
open Let_sem

let tol v = 1e-6 *. Float.max 1.0 (Float.abs v)

(* Value of a linear expression at [x], summed here term by term. *)
let eval_expr e x =
  let acc = ref (Milp.Linexpr.constant e) in
  Milp.Linexpr.iter_terms (fun c v -> acc := !acc +. (c *. x.(v))) e;
  !acc

(* Every bound and every row of [p] re-evaluated at [x]; returns each
   violation beyond a 1e-6 relative tolerance with its excess. *)
let lp_violations p x =
  let bad = ref [] in
  if Array.length x <> Milp.Problem.num_vars p then
    bad := [ (Printf.sprintf "x has %d entries for %d vars" (Array.length x)
                (Milp.Problem.num_vars p), infinity) ]
  else begin
    Milp.Problem.iter_vars
      (fun v _ (lo, hi) ->
        let excess = Float.max (lo -. x.(v)) (x.(v) -. hi) in
        if x.(v) < lo -. tol lo || x.(v) > hi +. tol hi then
          bad :=
            ( Printf.sprintf "var %s = %g outside [%g, %g]"
                (Milp.Problem.var_name p v) x.(v) lo hi,
              excess )
            :: !bad)
      p;
    Milp.Problem.iter_constrs
      (fun (c : Milp.Problem.constr) ->
        let lhs = eval_expr c.Milp.Problem.c_expr x in
        let rhs = c.Milp.Problem.c_rhs in
        let excess =
          match c.Milp.Problem.c_sense with
          | Milp.Problem.Le -> lhs -. rhs
          | Milp.Problem.Ge -> rhs -. lhs
          | Milp.Problem.Eq -> Float.abs (lhs -. rhs)
        in
        if excess > tol rhs then
          bad :=
            ( Printf.sprintf "row %s: lhs %.9g vs rhs %.9g"
                c.Milp.Problem.c_name lhs rhs,
              excess )
            :: !bad)
      p
  end;
  List.rev !bad

let objective_at p x = eval_expr (snd (Milp.Problem.objective p)) x

(* lambda_i at s0 re-derived from the plan and the platform's DMA costs:
   transfers run back to back from s0, each paying o_DP, the per-byte
   copy cost and o_ISR; a task is ready when the last transfer carrying
   one of its communications completes. *)
let lambda_s0_of_plan app (plan : Properties.plan) =
  let p = App.platform app in
  let ready = Array.make (App.num_tasks app) 0 in
  let cursor = ref 0 in
  List.iter
    (fun transfer ->
      let bytes =
        List.fold_left (fun acc c -> acc + (App.label app c.Comm.label).Label.size)
          0 transfer
      in
      let copy =
        int_of_float (Float.ceil (float_of_int bytes *. p.Platform.dma_ns_per_byte))
      in
      cursor :=
        !cursor + Time.to_ns p.Platform.o_dp + copy + Time.to_ns p.Platform.o_isr;
      List.iter
        (fun c -> ready.(c.Comm.task) <- max ready.(c.Comm.task) !cursor)
        transfer)
    plan;
  ready

(* The simulator's lambda for the jobs released at s0. *)
let sim_lambda_s0 app (m : Dma_sim.Sim.metrics) =
  let l = Array.make (App.num_tasks app) 0 in
  List.iter
    (fun (j : Dma_sim.Sim.job) ->
      if Time.equal j.Dma_sim.Sim.release Time.zero then
        l.(j.Dma_sim.Sim.task) <- Time.to_ns Time.(j.Dma_sim.Sim.ready - j.Dma_sim.Sim.release))
    m.Dma_sim.Sim.jobs;
  l

(* Every pattern's projected plan passes LET Properties 1-3 and is
   contiguous under the solution's allocation. *)
let plan_errors app groups sol =
  let alloc = Letdma.Solution.allocation sol in
  List.concat_map
    (fun (pat : Groups.pattern) ->
      let time = List.hd pat.Groups.occurrences in
      let plan = Letdma.Solution.plan_at app groups sol time in
      let props =
        match
          Properties.check_all app ~expected:pat.Groups.comms
            ~gap:pat.Groups.min_gap plan
        with
        | Ok () -> []
        | Error m -> [ Printf.sprintf "pattern at %s: %s" (Time.to_string time) m ]
      in
      let contiguity =
        match Mem_layout.Allocation.plan_feasible app alloc plan with
        | Ok () -> []
        | Error m ->
          [ Printf.sprintf "pattern at %s: not contiguous: %s" (Time.to_string time) m ]
      in
      props @ contiguity)
    (Groups.patterns groups)

(* Simulated lambda_i <= gamma_i under the proposed protocol. *)
let deadline_errors app gamma (m : Dma_sim.Sim.metrics) =
  List.filter_map
    (fun i ->
      if Time.compare m.Dma_sim.Sim.lambda.(i) gamma.(i) > 0 then
        Some
          (Printf.sprintf "task %d: simulated lambda %s > gamma %s" i
             (Time.to_string m.Dma_sim.Sim.lambda.(i))
             (Time.to_string gamma.(i)))
      else None)
    (List.init (App.num_tasks app) Fun.id)
