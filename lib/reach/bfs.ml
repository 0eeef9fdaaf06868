module Supervisor = Pnut_exec.Supervisor

type t = {
  store : Store.t;
  cap : int;
  frontier : Store.Frontier.t;
  mutable capped : bool;
}

let max_states t = t.cap
let push t i = Store.Frontier.push t.frontier i

let intern t m ~extra =
  let r = Store.intern t.store m ~extra ~max_states:t.cap in
  (match r with `Capped -> t.capped <- true | `Found _ | `Added _ -> ());
  r

type run = {
  capped : bool;
  stop : Supervisor.reason option;
  visited : int;
  frontier : int;
}

let run ~monitor ~max_states ~spill_threshold store ~seed ~expand =
  let monitored = Supervisor.active monitor in
  let frontier = Store.Frontier.create ~threshold:spill_threshold () in
  let t =
    { store; cap = Supervisor.state_cap monitor max_states; frontier;
      capped = false }
  in
  Fun.protect
    ~finally:(fun () -> Store.Frontier.close frontier)
    (fun () ->
      seed t;
      let rec loop pops =
        if Store.Frontier.is_empty frontier then None
        else
          match
            if monitored && pops land 255 = 0 then Supervisor.check monitor
            else None
          with
          | Some _ as stop -> stop
          | None ->
            expand t (Store.Frontier.pop frontier);
            loop (pops + 1)
      in
      let stop = loop 1 in
      { capped = t.capped; stop; visited = Store.num_states store;
        frontier = Store.Frontier.length frontier })

let complete r = (not r.capped) && r.stop = None

let verdict monitor r payload =
  Supervisor.verdict monitor ~stop:r.stop ~capped:r.capped ~visited:r.visited
    ~frontier:r.frontier payload
