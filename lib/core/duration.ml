(* Deterministic-delay helpers shared by the timed builders.  A timed
   reachability construction only terminates when every delay resolves
   to one concrete value per environment; these helpers classify the
   duration kinds once so the state-class builder and the frozen
   explicit oracle agree to the letter on what is accepted and on the
   error text for what is not. *)

let det ~who env = function
  | Net.Zero -> 0.0
  | Net.Const d -> d
  | Net.Uniform (lo, hi) when Float.equal lo hi -> lo
  | Net.Choice ((v, _) :: rest)
    when List.for_all (fun (v', _) -> Float.equal v v') rest ->
    v
  | Net.Dynamic e when Expr.is_deterministic e -> Expr.eval_float env e
  | Net.Uniform _ | Net.Exponential _ | Net.Choice _ | Net.Dynamic _ ->
    invalid_arg (who ^ ": stochastic duration in a timed reachability net")

let deterministic = function
  | Net.Zero | Net.Const _ -> true
  | Net.Uniform (lo, hi) when Float.equal lo hi -> true
  | Net.Choice ((v, _) :: rest)
    when List.for_all (fun (v', _) -> Float.equal v v') rest ->
    true
  | Net.Dynamic e when Expr.is_deterministic e -> true
  | Net.Uniform _ | Net.Exponential _ | Net.Choice _ | Net.Dynamic _ -> false

let stochastic_parts ?(durations = true) net =
  let random e = not (Expr.is_deterministic e) in
  Array.to_list (Net.transitions net)
  |> List.concat_map (fun tr ->
         let name = tr.Net.t_name in
         let dur what d =
           if durations && not (deterministic d) then [ (what, name) ] else []
         in
         let action =
           List.exists
             (function
               | Expr.Assign (_, e) -> random e
               | Expr.Table_assign (_, i, e) -> random i || random e)
             tr.Net.t_action
         in
         dur "firing time" tr.Net.t_firing
         @ dur "enabling time" tr.Net.t_enabling
         @ (match tr.Net.t_predicate with
           | Some p when random p -> [ ("predicate", name) ]
           | Some _ | None -> [])
         @ if action then [ ("action", name) ] else [])

(* One clause per offence; a lone offender reads
   "who: stochastic firing time on transition t". *)
let check_net ~who net =
  match stochastic_parts net with
  | [] -> ()
  | parts ->
    invalid_arg
      (who ^ ": "
      ^ String.concat "; "
          (List.map
             (fun (what, name) ->
               Printf.sprintf "stochastic %s on transition %s" what name)
             parts))
