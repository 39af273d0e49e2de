(* small-bb: Letdma.Solve.solve at jobs = 1, NO-OBJ, alpha = 0.2, with a
   fixed node limit, over [instances] consecutive seeds of
   Workload.Generator.small_config starting at the benchmark seed (seeds
   without inter-core communications or schedulable gammas are skipped).
   One round solves every instance once.

   Each instance also gets a feasibility witness at set-up: the greedy
   heuristic's plan, certified and encoded into the raw model with no
   residual. With a witness, an Infeasible verdict is wrong. *)

open Let_sem
module H = Harness
module F = Letdma.Formulation

let node_limit = 50
let instances = 70
let alpha = 0.2

type inst = {
  gseed : int;
  app : Rt_model.App.t;
  groups : Groups.t;
  gamma : Rt_model.Time.t array;
  witness : bool;
}

(* The app, groups and gamma of generator seed [g], when it has
   inter-core communications and is schedulable at [alpha]. *)
let small_instance ~alpha g =
  let app =
    Workload.Generator.random ~seed:g ~config:Workload.Generator.small_config ()
  in
  let groups = Groups.compute app in
  if Comm.Set.is_empty (Groups.s0 groups) then None
  else
    match Rt_analysis.Sensitivity.gammas app ~alpha with
    | Some s when s.Rt_analysis.Sensitivity.schedulable ->
      Some (app, groups, s.Rt_analysis.Sensitivity.gamma)
    | Some _ | None -> None

let witness h app groups gamma =
  match Letdma.Heuristic.solve_unchecked app groups ~gamma with
  | None -> false
  | Some sol -> (
    match
      Letdma.Certify.certify ~source:Letdma.Certify.Heuristic app groups ~gamma sol
    with
    | Error _ -> false
    | Ok c when c.Letdma.Certify.warnings <> [] -> false
    | Ok _ -> (
      let inst =
        H.layer h "formulation.make" (fun () -> F.make F.No_obj app groups ~gamma)
      in
      match F.encode inst sol with
      | None -> false
      | Some x -> Checks.lp_violations inst.F.problem x = []))

let build h ~seed =
  let rec go g acc n =
    if n = instances then Array.of_list (List.rev acc)
    else
      match small_instance ~alpha g with
      | None -> go (g + 1) acc n
      | Some (app, groups, gamma) ->
        let witness = witness h app groups gamma in
        go (g + 1) ({ gseed = g; app; groups; gamma; witness } :: acc) (n + 1)
  in
  go seed [] 0

let solve i =
  Letdma.Solve.solve ~time_limit_s:600.0 ~node_limit ~jobs:1 F.No_obj i.app
    i.groups ~gamma:i.gamma

(* F1: the certifier rejects a branch-and-bound answer, with C5a/C5b
   big-M row residuals among the violations. *)
let is_f1 vs =
  List.exists
    (function
      | Letdma.Certify.Milp_residual r ->
        let n = r.Milp.Problem.res_name in
        String.length n >= 3 && (String.sub n 0 3 = "C5a" || String.sub n 0 3 = "C5b")
      | _ -> false)
    vs

(* Files one solve result as success, F1, F2 or a check failure. Every
   answer is re-certified here, from outside and untimed by the op. *)
let classify h ~what i (r : Letdma.Solve.result) =
  let st = r.Letdma.Solve.stats in
  match (r.Letdma.Solve.solution, r.Letdma.Solve.x, r.Letdma.Solve.certificate) with
  | Some sol, Some x, Some cert ->
    let again =
      H.layer h "certify" (fun () ->
          Letdma.Certify.certify ~milp:(r.Letdma.Solve.instance, x)
            ~source:(match st.Letdma.Solve.status with
                | Milp.Branch_bound.Optimal -> Letdma.Certify.Milp_optimal
                | _ -> Letdma.Certify.Milp_incumbent)
            i.app i.groups ~gamma:i.gamma sol)
    in
    (match (cert, again) with
     | Ok _, Error _ | Error _, Ok _ ->
       H.error h "%s seed %d: certifier verdict differs between runs" what i.gseed
     | _ -> ());
    (match cert with
     | Error vs when is_f1 vs -> H.fail h "F1"
     | Error vs ->
       H.error h "%s seed %d: answer rejected without a C5 residual (%d violations)"
         what i.gseed (List.length vs)
     | Ok _ ->
       List.iter (fun e -> H.error h "%s seed %d: %s" what i.gseed e)
         (Checks.plan_errors i.app i.groups sol);
       let m =
         Letdma.Baselines.run i.app i.groups Letdma.Baselines.Proposed
           ~solution:(Some sol)
       in
       List.iter (fun e -> H.error h "%s seed %d: %s" what i.gseed e)
         (Checks.deadline_errors i.app i.gamma m))
  | None, _, _ -> (
    match st.Letdma.Solve.status with
    | Milp.Branch_bound.Infeasible when i.witness ->
      H.error h "%s seed %d: Infeasible, but the heuristic witnesses feasibility"
        what i.gseed
    | Milp.Branch_bound.Unknown
      when st.Letdma.Solve.nodes >= node_limit && i.witness ->
      H.fail h "F2"
    | _ ->
      H.error h "%s seed %d: no answer, status not explained by F2" what i.gseed)
  | Some _, _, _ ->
    H.error h "%s seed %d: answer without assignment or certificate" what i.gseed

let setup h ~seed =
  let insts = build h ~seed in
  let results = ref [] in
  let round h =
    Array.iter
      (fun i ->
        let r, dt = H.op h ~kind:"solve" (fun () -> H.layer h "solve" (fun () -> solve i)) in
        let st = r.Letdma.Solve.stats in
        let lp = st.Letdma.Solve.lp in
        H.addi h "bb.nodes" st.Letdma.Solve.nodes;
        H.addi h "bb.rounds" st.Letdma.Solve.rounds;
        H.addi h "c6.rows" st.Letdma.Solve.c6_constraints;
        H.addi h "lp.pivots" lp.Milp.Branch_bound.lp_pivots;
        H.addi h "lp.dual_pivots" lp.Milp.Branch_bound.lp_dual_pivots;
        H.addi h "lp.priced" lp.Milp.Branch_bound.lp_pricing_scanned;
        H.addi h "lp.refreshes" lp.Milp.Branch_bound.lp_pricing_refreshes;
        H.addi h "warm.hits" lp.Milp.Branch_bound.lp_warm_hits;
        H.addi h "warm.misses" lp.Milp.Branch_bound.lp_warm_misses;
        H.addi h "presolve.rows_dropped" lp.Milp.Branch_bound.presolve_rows_dropped;
        H.add h "lp.time_s" lp.Milp.Branch_bound.lp_time_s;
        H.add h "bb.non_lp_s" (dt -. lp.Milp.Branch_bound.lp_time_s);
        results := (i, r) :: !results)
      insts
  in
  let check h =
    List.iter (fun (i, r) -> classify h ~what:"small-bb" i r) !results
  in
  { H.round; check }

let workload =
  { H.name = "small-bb"; main_kind = "solve"; tail_p = 0.85; prepare = H.no_prepare;
    setup }
