(* fig2-eval: the Fig. 2 evaluation with the greedy heuristic in place of
   the MILP, over WATERS at alpha in {0.1 .. 0.5} and [automotive] seeded
   Workload.Automotive applications (consecutive generator seeds from the
   benchmark seed; the application of generator seed g runs at alpha
   0.1 * (1 + g mod 5), so consecutive benchmark seeds share all but one
   of their ops, and seeds without communications or schedulable gammas
   are skipped).
   One op is one evaluation: sensitivity analysis, LET groups, heuristic,
   certification and the four approaches simulated. *)

open Rt_model
open Let_sem
module H = Harness

let alphas = [| 0.1; 0.2; 0.3; 0.4; 0.5 |]
let automotive = 45

type config = { name : string; app : App.t; alpha : float }

let usable app ~alpha =
  (not (Comm.Set.is_empty (Groups.s0 (Groups.compute app))))
  &&
  match Rt_analysis.Sensitivity.gammas app ~alpha with
  | Some s -> s.Rt_analysis.Sensitivity.schedulable
  | None -> false

let build ~seed =
  let waters = Workload.Waters2019.make () in
  let ws =
    Array.to_list
      (Array.map
         (fun alpha -> { name = Printf.sprintf "waters@%g" alpha; app = waters; alpha })
         alphas)
  in
  let rec go g acc n =
    if n = automotive then List.rev acc
    else
      let app = Workload.Automotive.generate ~seed:g () in
      let alpha = alphas.(g mod Array.length alphas) in
      if usable app ~alpha then
        go (g + 1) ({ name = Printf.sprintf "automotive-%d@%g" g alpha; app; alpha } :: acc)
          (n + 1)
      else go (g + 1) acc n
  in
  Array.of_list (ws @ go seed [] 0)

type outcome = {
  config : config;
  groups : Groups.t;
  gamma : Time.t array;
  sol : Letdma.Solution.t option;
  cert : (Letdma.Certify.t, Letdma.Certify.violation list) result option;
  proposed : Dma_sim.Sim.metrics option;
}

let evaluate h c =
  let app = c.app in
  let gamma =
    match
      H.layer h "sensitivity" (fun () -> Rt_analysis.Sensitivity.gammas app ~alpha:c.alpha)
    with
    | Some s -> s.Rt_analysis.Sensitivity.gamma
    | None -> [||]
  in
  let groups = H.layer h "groups" (fun () -> Groups.compute app) in
  let sol =
    H.layer h "heuristic" (fun () -> Letdma.Heuristic.solve_unchecked app groups ~gamma)
  in
  match sol with
  | None -> { config = c; groups; gamma; sol; cert = None; proposed = None }
  | Some s ->
    let cert =
      H.layer h "certify" (fun () ->
          Letdma.Certify.certify ~source:Letdma.Certify.Heuristic app groups ~gamma s)
    in
    let runs =
      List.map
        (fun a ->
          let m =
            H.layer h "sim" (fun () -> Letdma.Baselines.run app groups a ~solution:sol)
          in
          H.addi h "sim.transfers" m.Dma_sim.Sim.transfers_issued;
          H.addi h "sim.bytes" m.Dma_sim.Sim.bytes_moved;
          (a, m))
        Letdma.Baselines.all_approaches
    in
    { config = c; groups; gamma; sol; cert = Some cert;
      proposed = List.assoc_opt Letdma.Baselines.Proposed runs }

let check_outcome h o =
  let c = o.config in
  match (o.sol, o.cert, o.proposed) with
  | Some sol, Some (Ok cert), Some m ->
    let misses =
      List.exists
        (function Letdma.Certify.Deadline_miss _ -> true | _ -> false)
        cert.Letdma.Certify.warnings
    in
    if not misses then
      List.iter (fun e -> H.error h "fig2-eval %s: %s" c.name e)
        (Checks.deadline_errors c.app o.gamma m);
    let ours =
      Checks.lambda_s0_of_plan c.app
        (Letdma.Solution.schedule c.app o.groups sol Time.zero)
    in
    let sim = Checks.sim_lambda_s0 c.app m in
    Array.iteri
      (fun i l ->
        if l <> sim.(i) then
          H.error h "fig2-eval %s: task %d lambda at s0 is %d ns by the plan, %d ns simulated"
            c.name i l sim.(i))
      ours
  | Some _, Some (Error vs), _ ->
    H.error h "fig2-eval %s: heuristic plan rejected by the certifier (%d violations)"
      c.name (List.length vs)
  | _ -> H.error h "fig2-eval %s: no heuristic plan" c.name

let setup _h ~seed =
  let configs = build ~seed in
  let first = ref [] and later = ref [] and rounds = ref 0 in
  let round h =
    incr rounds;
    Array.iter
      (fun c ->
        let o, _ = H.op h ~kind:"eval" (fun () -> evaluate h c) in
        (* later rounds repeat the same ops: keep what the check
           compares them by, not their whole simulations *)
        if !rounds = 1 then first := o :: !first
        else later := (c.name, Option.map (fun m -> m.Dma_sim.Sim.lambda) o.proposed) :: !later)
      configs
  in
  let check h =
    List.iter (check_outcome h) !first;
    let lambdas = Hashtbl.create 128 in
    List.iter
      (fun o ->
        Hashtbl.replace lambdas o.config.name
          (Option.map (fun m -> m.Dma_sim.Sim.lambda) o.proposed))
      !first;
    List.iter
      (fun (name, l) ->
        if Hashtbl.find_opt lambdas name <> Some l then
          H.error h "fig2-eval %s: a later round simulated other latencies" name)
      !later
  in
  { H.round; check }

let workload =
  { H.name = "fig2-eval"; main_kind = "eval"; tail_p = 0.9; prepare = H.no_prepare;
    setup }
