(* service-replay: one closed-loop client sending single-request batches
   of gold-class small-workload solves to Service.Engine.process, one
   worker domain. A family is a small_config seed (consecutive from the
   benchmark seed) whose requests all conclude within small-bb's node
   limit (see [prepare]). The request mix and order are those of the
   repository's service corpus (bench/main.ml, SERVICE section): five
   waves over the families, each wave one request per family, in turn a
   first request at alpha 0.2, an exact repeat of it, a sibling at alpha
   0.25, another exact repeat of the first, and a sibling at alpha 0.3.
   One round replays every wave against a fresh engine, so each round
   starts from an empty cache. *)

module H = Harness
module F = Letdma.Formulation
module P = Service.Protocol
module J = Resilience.Json

let families = 30
let alpha = 0.2
let deadline_s = 300.0

(* tag, alpha, and whether the wave repeats an earlier request exactly *)
let waves =
  [ ("a", alpha, false); ("a-r1", alpha, true); ("b", 0.25, false);
    ("a-r2", alpha, true); ("c", 0.3, false) ]

let sibling_alphas =
  List.filter_map (fun (_, a, repeat) -> if repeat || a = alpha then None else Some a) waves

type request = {
  line : string;
  id : string;
  kind : string;  (* "fresh" or "repeat" *)
  fresh_of : int;  (* index of the fresh request this one repeats *)
  gseed : int;
  req_alpha : float;
}

let status_name = function
  | Milp.Branch_bound.Optimal -> "optimal"
  | Milp.Branch_bound.Feasible -> "feasible"
  | Milp.Branch_bound.Infeasible -> "infeasible"
  | Milp.Branch_bound.Unbounded -> "unbounded"
  | Milp.Branch_bound.Unknown -> "unknown"

let request_line ~id ~seed ~alpha =
  Printf.sprintf
    {|{"id":"%s","op":"solve","workload":"small","seed":%d,"alpha":%g,"deadline_s":%g,"class":"gold"}|}
    id seed alpha deadline_s

(* The certifier's verdict on a direct answer: accepted, rejected with
   fault F1's C5a/C5b residuals, or rejected otherwise. *)
type verdict = Accepted | F1 | Rejected of int

type direct = {
  status : string;
  obj : float;
  transfers : int;
  verdict : verdict;
}

let solve_limited ?root_basis ?basis_out (app, groups, gamma) =
  Letdma.Solve.solve ~time_limit_s:600.0 ~node_limit:Small_bb.node_limit
    ~jobs:1 ?root_basis ?basis_out F.No_obj app groups ~gamma

let concluded (r : Letdma.Solve.result) =
  r.Letdma.Solve.solution <> None
  && r.Letdma.Solve.stats.Letdma.Solve.status = Milp.Branch_bound.Optimal

(* Only called on concluded results, which carry a solution and [x]. *)
let direct_of (r : Letdma.Solve.result) =
  match (r.Letdma.Solve.solution, r.Letdma.Solve.x) with
  | Some sol, Some x ->
    {
      status = status_name r.Letdma.Solve.stats.Letdma.Solve.status;
      obj = Checks.objective_at r.Letdma.Solve.instance.F.problem x;
      transfers = Letdma.Solution.num_transfers sol;
      verdict =
        (match r.Letdma.Solve.certificate with
         | Some (Ok _) -> Accepted
         | Some (Error vs) when Small_bb.is_f1 vs -> F1
         | Some (Error vs) -> Rejected (List.length vs)
         | None -> Rejected 0);
    }
  | _ -> invalid_arg "service-replay: direct answer without a solution"

(* Families per benchmark seed: (generator seed, the direct answer for
   each alpha), and the number of candidates skipped because only the
   warm-seeded path failed to conclude. *)
let selection : (int, (int * (float * direct) list) list * int) Hashtbl.t =
  Hashtbl.create 1

(* Every request of a family must conclude within the node limit along
   the path the service takes: the first request cold, and each sibling
   warm-seeded from the first request's root basis (the family's most
   recently used cache entry when the sibling arrives). The service has
   no node limit, so any other seed would run until the request
   deadline. The direct answers kept here are those of
   Letdma.Solve.solve on the same models outside the service; a solve
   that concludes before the node limit is the solve the request
   denotes. A candidate whose warm-seeded sibling fails although its
   cold solve concludes is counted in select.warm_excluded. *)
let prepare ~seed =
  if not (Hashtbl.mem selection seed) then begin
    let warm_excluded = ref 0 in
    let family g =
      match Small_bb.small_instance ~alpha g with
      | None -> None
      | Some first ->
        let basis_out = ref None in
        let a = solve_limited ~basis_out first in
        if not (concluded a) then None
        else
          let rec siblings acc = function
            | [] -> Some ((alpha, direct_of a) :: List.rev acc)
            | sa :: rest -> (
              match Small_bb.small_instance ~alpha:sa g with
              | None -> None
              | Some sib ->
                let b = solve_limited ?root_basis:!basis_out sib in
                if concluded b then siblings ((sa, direct_of b) :: acc) rest
                else begin
                  if concluded (solve_limited sib) then incr warm_excluded;
                  None
                end)
          in
          siblings [] sibling_alphas
    in
    let rec go g acc n =
      if n = families then List.rev acc
      else
        match family g with
        | Some answers -> go (g + 1) ((g, answers) :: acc) (n + 1)
        | None -> go (g + 1) acc n
    in
    let fams = go seed [] 0 in
    Hashtbl.replace selection seed (fams, !warm_excluded)
  end

(* The model a request denotes and its cache key, built and hashed from
   outside the service. *)
let cache_key h ~seed ~alpha =
  match Small_bb.small_instance ~alpha seed with
  | None -> failwith "service-replay: family seed lost its instance"
  | Some (app, groups, gamma) ->
    H.layer h "cache.key" (fun () ->
        let inst = F.make F.No_obj app groups ~gamma in
        Resilience.Checkpoint.fingerprint inst.F.problem)

let build_requests seeds =
  let reqs = ref [] and n = ref 0 in
  let firsts = Hashtbl.create 16 in
  List.iter
    (fun (tag, a, repeat) ->
      List.iter
        (fun g ->
          let id = Printf.sprintf "s%d-%s" g tag in
          let fresh_of =
            if repeat then Hashtbl.find firsts (g, a)
            else begin
              Hashtbl.replace firsts (g, a) !n;
              !n
            end
          in
          reqs :=
            { line = request_line ~id ~seed:g ~alpha:a; id;
              kind = (if repeat then "repeat" else "fresh"); fresh_of;
              gseed = g; req_alpha = a }
            :: !reqs;
          incr n)
        seeds)
    waves;
  Array.of_list (List.rev !reqs)

(* The solution fields a cache hit replays: everything from "tier" on. *)
let core_of line =
  let key = {|"tier":|} in
  let n = String.length line and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.sub line i k = key then Some (String.sub line i (n - i))
    else find (i + 1)
  in
  find 0

let setup h ~seed =
  prepare ~seed;
  let fams, warm_excluded = Hashtbl.find selection seed in
  H.addi h "select.warm_excluded" warm_excluded;
  let reqs = build_requests (List.map fst fams) in
  Array.iter
    (fun r ->
      if r.kind = "fresh" then ignore (cache_key h ~seed:r.gseed ~alpha:r.req_alpha))
    reqs;
  let rounds = ref [] in
  let round h =
    let engine =
      Service.Engine.create ~jobs:1 ~retry_on_crash:1
        ~cache_capacity:(families * (1 + List.length sibling_alphas)) ()
    in
    let out =
      Array.map
        (fun r ->
          let line, dt =
            H.op h ~kind:r.kind (fun () ->
                let parsed = H.layer h "protocol.parse" (fun () -> P.parse_request r.line) in
                match
                  H.layer h "engine.process" (fun () ->
                      Service.Engine.process engine [ parsed ])
                with
                | [ l ] -> l
                | ls -> Printf.sprintf "<%d response lines>" (List.length ls))
          in
          (String.trim line, dt))
        reqs
    in
    let cs = Service.Engine.cache_stats engine in
    Service.Engine.shutdown engine;
    H.addi h "cache.hits" cs.Service.Cache.hits;
    H.addi h "cache.misses" cs.Service.Cache.misses;
    H.addi h "cache.warm_seeds" cs.Service.Cache.warm_seeds;
    rounds := out :: !rounds
  in
  let check h =
    let direct r = List.assoc_opt r.req_alpha (List.assoc r.gseed fams) in
    List.iter
      (fun out ->
        Array.iteri
          (fun k (line, dt) ->
            let r = reqs.(k) in
            match J.parse line with
            | Ok (J.O ms) -> (
              let str m = match List.assoc_opt m ms with Some (J.S s) -> s | _ -> "" in
              let num m = match List.assoc_opt m ms with Some (J.N f) -> Some f | _ -> None in
              let boolean m = match List.assoc_opt m ms with Some (J.B b) -> Some b | _ -> None in
              if str "id" <> r.id then
                H.error h "service-replay %s: response carries id %S" r.id (str "id");
              (match num "time_s" with
               | Some t -> H.add h "engine.overhead_s" (dt -. t)
               | None -> ());
              if str "status" <> "ok" then
                H.error h "service-replay %s: status %S (%s)" r.id (str "status")
                  (str "error")
              else
                match direct r with
                | None -> H.error h "service-replay %s: no direct solve" r.id
                | Some d ->
                  (* the answer must be the direct solve's, certificate included *)
                  if str "solver" <> d.status then
                    H.error h "service-replay %s: service says %S, direct solve %S"
                      r.id (str "solver") d.status;
                  (match num "objective" with
                   | Some o when Float.abs (o -. d.obj) <= Checks.tol d.obj -> ()
                   | _ ->
                     H.error h "service-replay %s: objective differs from the direct solve"
                       r.id);
                  if num "transfers" <> Some (float_of_int d.transfers) then
                    H.error h "service-replay %s: %s transfers, direct solve %d" r.id
                      (Option.fold ~none:"no" ~some:(Printf.sprintf "%g") (num "transfers"))
                      d.transfers;
                  (match (boolean "certified", d.verdict) with
                   | Some true, Accepted -> ()
                   | Some false, F1 -> H.fail h "F1"
                   | Some c, v ->
                     H.error h "service-replay %s: certified %b, direct solve %s" r.id c
                       (match v with
                        | Accepted -> "certified"
                        | F1 -> "rejected with C5 residuals"
                        | Rejected n ->
                          Printf.sprintf "rejected without a C5 residual (%d violations)" n)
                   | None, _ -> H.error h "service-replay %s: no certified field" r.id);
                  let pivots = Option.value ~default:0.0 (num "pivots") in
                  if r.kind = "repeat" then begin
                    if str "cache" <> "hit" then
                      H.error h "service-replay %s: repeat answered with cache %S" r.id
                        (str "cache");
                    let first, _ = out.(r.fresh_of) in
                    if core_of line <> core_of first || core_of line = None then
                      H.error h "service-replay %s: repeat does not replay %s byte for byte"
                        r.id reqs.(r.fresh_of).id
                  end
                  else begin
                    let sibling = r.req_alpha <> alpha in
                    let expect = if sibling then "warm" else "miss" in
                    if str "cache" <> expect then
                      H.error h "service-replay %s: cache %S, expected %S" r.id
                        (str "cache") expect;
                    H.add h (if sibling then "sibling.pivots" else "cold.pivots") pivots;
                    H.addi h (if sibling then "sibling.requests" else "cold.requests") 1
                  end)
            | Ok _ | Error _ ->
              H.error h "service-replay %s: response is not a strict JSON object" r.id)
          out)
      !rounds
  in
  { H.round; check }

let workload =
  { H.name = "service-replay"; main_kind = "repeat"; tail_p = 0.8; prepare;
    setup }
