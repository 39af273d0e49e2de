(* waters-lp: the root LP relaxations of the WATERS 2019 case study (the
   Table I instance, alpha = 0.2) under NO-OBJ, OBJ-DMAT and OBJ-DEL, each
   solved cold by Milp.Simplex.solve with devex pricing on the raw model
   (no presolve, no branch-and-bound). One round solves all three; the
   seed only rotates their order. *)

open Let_sem
module H = Harness
module F = Letdma.Formulation

(* F3: the simplex perturbs every inequality row's right-hand side by
   2e-8 * (1 + id mod 89) against degenerate stalling and returns the
   vertex of the perturbed rows, so original rows read violated by up to
   1.78e-6 — beyond the 1e-6 tolerance of the certifier and of these
   checks. A violation is filed as F3 when no row or bound is off by more
   than that largest perturbation plus the simplex's 1e-7 feasibility
   tolerance. *)
let f3_excess = 1.78e-6 +. 1e-7

type model = {
  oname : string;
  inst : F.instance;
  heuristic_x : float array option;  (* the heuristic's plan, encoded *)
}

let objectives =
  [
    ("no-obj", F.No_obj, Letdma.Heuristic.Per_task);
    ("dmat", F.Min_transfers, Letdma.Heuristic.Grouped);
    ("del", F.Min_delay_ratio, Letdma.Heuristic.Per_task);
  ]

let setup h ~seed =
  let app = Workload.Waters2019.make () in
  let groups = Groups.compute app in
  let gamma =
    match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
    | Some s -> s.Rt_analysis.Sensitivity.gamma
    | None -> failwith "waters-lp: WATERS is unschedulable at alpha 0.2"
  in
  let models =
    List.map
      (fun (oname, objective, granularity) ->
        let inst = H.layer h "formulation.make" (fun () ->
            F.make objective app groups ~gamma) in
        let heuristic_x =
          Option.bind
            (Letdma.Heuristic.solve_unchecked ~granularity app groups ~gamma)
            (F.encode inst)
        in
        { oname; inst; heuristic_x })
      objectives
    |> Array.of_list
  in
  let n = Array.length models in
  let order = Array.init n (fun i -> models.((i + (seed mod n + n)) mod n)) in
  let results = ref [] in
  let round h =
    Array.iter
      (fun m ->
        let p = m.inst.F.problem in
        let cnt = Milp.Simplex_core.fresh_counters () in
        let r, dt =
          H.op h ~kind:"lp" (fun () ->
              H.layer h "simplex.solve" (fun () ->
                  Milp.Simplex.solve ~pricing:Milp.Simplex.Devex ~counters:cnt
                    ~deadline:(H.now () +. 600.0) p))
        in
        H.addi h "lp.pivots" cnt.Milp.Simplex_core.pivots;
        H.addi h "lp.priced" cnt.Milp.Simplex_core.pricing_scanned;
        H.addi h "lp.refreshes" cnt.Milp.Simplex_core.pricing_refreshes;
        H.add h "lp.time_s" dt;
        results := (m, r) :: !results)
      order
  in
  let check h =
    List.iter
      (fun (m, r) ->
        let p = m.inst.F.problem in
        match r with
        | Milp.Simplex.Optimal { obj; x } -> (
          (match Checks.lp_violations p x with
           | [] -> ()
           | vs when List.for_all (fun (_, e) -> e <= f3_excess) vs -> H.fail h "F3"
           | (v, _) :: _ as vs ->
             H.error h "waters-lp %s: %d bound/row violations, e.g. %s"
               m.oname (List.length vs) v);
          let at_x = Checks.objective_at p x in
          if Float.abs (obj -. at_x) > Checks.tol at_x then
            H.error h "waters-lp %s: reported objective %.17g, objective at x %.17g"
              m.oname obj at_x;
          match m.heuristic_x with
          | None -> H.error h "waters-lp %s: heuristic plan does not encode" m.oname
          | Some hx ->
            (match Checks.lp_violations p hx with
             | [] -> ()
             | (v, _) :: _ -> H.error h "waters-lp %s: encoded heuristic infeasible: %s"
                           m.oname v);
            let hv = Checks.objective_at p hx in
            let lp_bound_ok =
              match fst (Milp.Problem.objective p) with
              | Milp.Problem.Minimize -> obj <= hv +. Checks.tol hv
              | Milp.Problem.Maximize -> obj >= hv -. Checks.tol hv
            in
            if not lp_bound_ok then
              H.error h "waters-lp %s: LP bound %.17g beyond heuristic objective %.17g"
                m.oname obj hv)
        | Milp.Simplex.Infeasible | Milp.Simplex.Unbounded
        | Milp.Simplex.Iteration_limit ->
          H.error h "waters-lp %s: LP relaxation did not reach an optimum" m.oname)
      !results
  in
  { H.round; check }

let workload =
  { H.name = "waters-lp"; main_kind = "lp"; tail_p = 0.9; prepare = H.no_prepare;
    setup }
