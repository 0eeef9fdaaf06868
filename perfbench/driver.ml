(* The repository benchmark driver.

   Runs one workload for a given number of seconds and prints, as the
   last line of stdout, one JSON object with [correct], [attempted],
   [failed] and [metrics]:

   - [--trace 0]: the end-to-end metrics, measured untraced;
   - [--trace 1]: the per-layer metrics, from iterations run with spans
     and sink probes on, plus ablation builds and outside replays that
     split a layer's time; a per-layer table is printed above the JSON.

   Every workload is generated from [--seed]; the program under test
   receives only model text, which goes through [Parser.parse_net], and
   is then driven through the same public entry points, with the same
   packed/POR/jobs decisions, as the [pnut] CLI.  README.md in this
   directory gives the workloads, the metric definitions and the
   layer -> metric -> workload map. *)

module Net = Pnut_core.Net
module Prng = Pnut_core.Prng
module Kernel = Pnut_core.Kernel
module Marking = Pnut_core.Marking
module Config = Pnut_pipeline.Config
module Model = Pnut_pipeline.Model
module Interpreted = Pnut_pipeline.Interpreted
module Parser = Pnut_lang.Parser
module Sim = Pnut_sim.Simulator
module Binary = Pnut_trace.Binary
module Codec = Pnut_trace.Codec
module Stat = Pnut_stat.Stat
module Replication = Pnut_stat.Replication
module Graph = Pnut_reach.Graph
module Timed = Pnut_reach.Timed
module Packed = Pnut_reach.Packed
module Store = Pnut_reach.Store
module Stubborn = Pnut_reach.Stubborn
module Pool = Pnut_exec.Pool
module Supervisor = Pnut_exec.Supervisor

let span = Spans.span
let now_ns = Spans.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [pnut]'s default [-j 0] resolves to the core count; the benchmark
   caps it at the two domains its load is defined with. *)
let jobs = min 2 (Pool.resolve ~jobs:0 ())

(* The CLI's state cap as CI passes it for the large ring. *)
let max_states = 2_000_000

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Append a seeded tag to every place and transition name of a printed
   model: the same net, in the same order, under other names.  (Order
   is kept on purpose: the place-bound set-up's cost depends on the
   transition order by orders of magnitude.) *)
let rename_nodes rng net text =
  let tag = Printf.sprintf "_%04x" (Random.State.int rng 0x10000) in
  let names = Hashtbl.create 64 in
  Array.iter (fun p -> Hashtbl.replace names p.Net.p_name ()) (Net.places net);
  Array.iter (fun t -> Hashtbl.replace names t.Net.t_name ()) (Net.transitions net);
  let b = Buffer.create (String.length text + 1024) in
  let n = String.length text in
  let is_word c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
  in
  let rec go i =
    if i < n then
      if is_word text.[i] then begin
        let j = ref i in
        while !j < n && is_word text.[!j] do incr j done;
        let word = String.sub text i (!j - i) in
        Buffer.add_string b word;
        if Hashtbl.mem names word then Buffer.add_string b tag;
        go !j
      end
      else begin
        Buffer.add_char b text.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* -- workloads -- *)

type result = {
  firings : int;
      (** transition firings: started by the simulator, or fired by a
          state-space build (its edges) *)
  states : int;
      (** states produced: trace deltas of a simulation, or states
          (classes) interned by a build *)
  degraded : bool;  (** a supervised [Degraded] outcome *)
  check : unit -> string list;
      (** failed correctness checks; run outside the timed region *)
  layers : run:int -> (string * float) list;
      (** per-layer metrics of a traced iteration *)
}

type instance = {
  main : unit -> result;  (** the workload's main call chain *)
  release : unit -> unit;
      (** free the instance's resources, after [main] or instead of it;
          outside the timed region *)
}

type workload = {
  name : string;
  input : int -> string;  (** the model text for a seed *)
  setup : seed:int -> string -> instance;
  once : seed:int -> string -> string list;
      (** per-process checks against an independent reference *)
  extras : seed:int -> string -> (string * float) list * string list;
      (** traced run only: ablations and replays, with their checks *)
  derive : (string -> float) -> (string * float) list;
      (** per-layer metrics computed from the others *)
  parts : string list;
      (** per-layer times that, with [unattributed_s], add up to the
          traced wall time *)
}

(* Speed-up of [jobs] domains over one, for the builds that shard. *)
let shard_metrics ~prefix get =
  let speedup = get (prefix ^ ".jobs1_build_s") /. get (prefix ^ ".build_s") in
  [ (prefix ^ ".shard_speedup", speedup);
    ("exec.jobs", float_of_int jobs);
    ("exec.pool_speedup", speedup);
    ("exec.parallel_efficiency", speedup /. float_of_int jobs) ]

let parse text = span "lang.parse" (fun () -> Parser.parse_net text)

let setup_metrics ~run =
  [ ("lang.parse_s", Spans.seconds ~run "lang.parse");
    ("core.bounds_s", Spans.seconds ~run "core.bounds") ]

(* sim-stat: [pnut sim M --until 2e6 --seed S --trace F --format binary]
   then [pnut stat F] — the paper's Figure 5 pipeline. *)

let fig5_issue_throughput = 0.1238
let sim_until = 2e6

let sim_stat ~tmp =
  let first_digest = ref None in
  let reported = ref false in
  let setup ~seed text =
    let net = parse text in
    ignore (Pnut_core.Validate.check net);
    let oc = open_out_bin tmp in
    let enc = Spans.probe "trace.encode" in
    let sink = Spans.wrap enc (Binary.channel_sink oc) in
    let st = Sim.create ~prng:(Prng.create seed) ~sink net in
    let main () =
      let outcome =
        span "sim.run" (fun () -> Sim.run_supervised ~until:sim_until st)
      in
      let bytes = pos_out oc in
      span "trace.close" (fun () -> close_out oc);
      let dec = Spans.probe "stat.sink" in
      let stat_sink, get = Stat.sink () in
      span "trace.stream" (fun () ->
          In_channel.with_open_bin tmp (fun ic ->
              Codec.stream_channel ic (Spans.wrap dec stat_sink)));
      let report, rendered =
        span "stat.render" (fun () ->
            let r = get () in
            (r, Stat.render r))
      in
      let o = Supervisor.value outcome in
      let deltas = o.Sim.started + o.Sim.finished in
      let check () =
        let fails = ref [] in
        let fail m = fails := m :: !fails in
        if o.Sim.stop <> Sim.Horizon then fail "simulation stopped early";
        let bus =
          Stat.utilization report "Bus_busy"
          +. Stat.utilization report "Bus_free"
        in
        if Float.abs (bus -. 1.0) > 1e-9 then
          fail (Printf.sprintf "P-invariant Bus_busy + Bus_free averages %.12g" bus);
        let d = Digest.string rendered in
        (match !first_digest with
        | None -> first_digest := Some d
        | Some d0 ->
          if d <> d0 then fail "statistics report differs for the same seed");
        if not !reported then begin
          reported := true;
          let issue = Stat.throughput report "Issue" in
          Printf.printf
            "figure 5: Issue throughput %.4f vs the paper's %.4f (gap %+.1f%%); \
             the paper's figure is this model's only published reference, \
             the model is otherwise unvalidated\n"
            issue fig5_issue_throughput
            (100.0 *. (issue -. fig5_issue_throughput) /. fig5_issue_throughput)
        end;
        List.rev !fails
      in
      let layers ~run =
        let enc_s = Spans.probe_seconds enc in
        let stat_sink_s = Spans.probe_seconds dec in
        let sim_self = Spans.seconds ~run "sim.run" -. enc_s in
        let stat_self = stat_sink_s +. Spans.seconds ~run "stat.render" in
        setup_metrics ~run
        @ [ ("sim.events", float_of_int o.Sim.started);
            ("sim.self_s", sim_self);
            ("sim.ns_per_event", sim_self *. 1e9 /. float_of_int o.Sim.started);
            ("trace.deltas", float_of_int enc.Spans.calls);
            ("trace.bytes_per_delta",
             float_of_int bytes /. float_of_int enc.Spans.calls);
            ("trace.encode_s", enc_s +. Spans.seconds ~run "trace.close");
            ("trace.decode_s", Spans.seconds ~run "trace.stream" -. stat_sink_s);
            ("stat.self_s", stat_self);
            ("stat.ns_per_delta",
             stat_self *. 1e9 /. float_of_int dec.Spans.calls);
            ("exec.jobs", 1.0);
            ("exec.pool_speedup", 1.0);
            ("exec.parallel_efficiency", 1.0) ]
      in
      { firings = o.Sim.started; states = deltas;
        degraded = Supervisor.degraded outcome; check; layers }
    in
    let release () =
      close_out oc;
      Sys.remove tmp
    in
    { main; release }
  in
  {
    name = "sim-stat";
    input = (fun _seed -> Format.asprintf "%a" Net.pp (Model.full Config.default));
    setup;
    once = (fun ~seed:_ _ -> []);
    extras = (fun ~seed:_ _ -> ([], []));
    derive = (fun _ -> []);
    parts = [ "sim.self_s"; "trace.encode_s"; "trace.decode_s"; "stat.self_s" ];
  }

(* reach-untimed: [pnut reach ring.pn --max-states 2000000] on the
   9-place token ring of CI. *)

let ring_places = 9
let ring_tokens = 17

let binomial n k =
  let r = ref 1 in
  for i = 1 to k do
    r := !r * (n - k + i) / i
  done;
  !r

(* The ring under a seeded naming and declaration order; the token
   ring's graph is the same up to isomorphism for every seed. *)
let ring_input seed =
  let rng = Random.State.make [| seed |] in
  let name = shuffle rng (Array.init ring_places (Printf.sprintf "p%d")) in
  let b = Buffer.create 512 in
  Buffer.add_string b "net ring\n";
  Array.iter
    (fun i ->
      Printf.bprintf b "place %s%s\n" name.(i)
        (if i = 0 then Printf.sprintf " init %d" ring_tokens else ""))
    (shuffle rng (Array.init ring_places Fun.id));
  Array.iter
    (fun i ->
      Printf.bprintf b "transition t_%s\n  in %s\n  out %s\n" name.(i) name.(i)
        name.((i + 1) mod ring_places))
    (shuffle rng (Array.init ring_places Fun.id));
  Buffer.contents b

(* What [pnut reach] prints after the build: the summary and its
   stderr stats line, including the POR branching reduction. *)
let untimed_report ~por net g =
  let summary = Format.asprintf "%a" Graph.pp_summary g in
  let bps =
    match Graph.packed_bytes_per_state g with Some b -> b | None -> nan
  in
  let branching =
    if not por then 1.0
    else begin
      let trans = Kernel.transitions (Kernel.of_net net) in
      let total = ref 0 in
      for i = 0 to Graph.num_states g - 1 do
        let m = Marking.of_array (Graph.state g i).Graph.s_marking in
        Array.iter (fun c -> if Kernel.token_enabled c m then incr total) trans
      done;
      float_of_int !total /. float_of_int (max 1 (Graph.num_edges g))
    end
  in
  (summary, bps, branching)

(* [pnut reach]'s --packed auto and --por auto (no --ctl/--query). *)
let reach_modes net =
  let packed = span "core.bounds" (fun () -> Packed.bounds_known net) in
  (packed, Stubborn.unsupported net = None)

let ring_check g =
  let fails = ref [] in
  let want_states = binomial (ring_tokens + ring_places - 1) (ring_places - 1) in
  let want_edges =
    ring_places * binomial (ring_tokens + ring_places - 2) (ring_places - 1)
  in
  if not (Graph.complete g) then fails := "graph truncated" :: !fails;
  if Graph.num_states g <> want_states then
    fails :=
      Printf.sprintf "states %d, C(k+8,8) = %d" (Graph.num_states g) want_states
      :: !fails;
  if Graph.num_edges g <> want_edges then
    fails :=
      Printf.sprintf "edges %d, 9*C(k+7,8) = %d" (Graph.num_edges g) want_edges
      :: !fails;
  if Graph.deadlocks g <> [] then fails := "ring has a deadlock" :: !fails;
  List.rev !fails

let bits_for v =
  let rec go w = if v lsr w = 0 then w else go (w + 1) in
  go 0

(* The reach split, replayed outside the builder on the finished
   packed store: kernel expansion of every state (with the stubborn-set
   selection when POR is on), and interning of every successor into a
   fresh [Store] in the build's order.  Each part is a difference of two
   loops so that decoding the replay's input is not counted.  Returns
   CPU seconds of (expansion, POR selection over the plain enabled
   scan, interning), or an error when the store does not decode. *)
let reach_replay ~por net g =
  match Graph.packed_arrays g with
  | None -> Error "graph is not packed"
  | Some (arena, _index, succ_off, succ_dat) ->
    let layout = Packed.layout (Packed.create net) in
    let w = Packed.words layout in
    let n = Graph.num_states g in
    let ne = Graph.num_edges g in
    let np = Net.num_places net in
    let kernel = Kernel.of_net net in
    let trans = Kernel.transitions kernel in
    let t_bits = bits_for (max 0 (Array.length trans - 1)) in
    let env = Net.initial_env net in
    let parent = Array.make np 0 in
    let pm = Marking.unsafe_wrap parent in
    let child = Array.make np 0 in
    let cm = Marking.unsafe_wrap child in
    let decode i = Packed.decode_into layout arena ~pos:(i * w) parent in
    let decode_target k =
      Packed.decode_into layout arena ~pos:((succ_dat.(k) lsr t_bits) * w) child
    in
    (* The replay reads the store's physical arrays: check them against
       the graph's own accessors on a prefix first. *)
    let readable i =
      decode i;
      parent = (Graph.state g i).Graph.s_marking
      && List.init (succ_off.(i + 1) - succ_off.(i)) (fun k ->
             let x = succ_dat.(succ_off.(i) + k) in
             (x land ((1 lsl t_bits) - 1), x lsr t_bits))
         = List.map
             (fun e -> (e.Graph.e_transition, e.Graph.e_to))
             (Graph.successors g i)
    in
    if not (List.for_all readable (List.init (min n 64) Fun.id)) then
      Error "packed store does not decode under the replay's layout"
    else begin
      let sb = if por then Some (Stubborn.create kernel) else None in
      let sc = Option.map Stubborn.scratch sb in
      let fire_selected f =
        match sb, sc with
        | Some sb, Some sc -> Array.iter f (Stubborn.fired sb sc pm)
        | _ ->
          Array.iter
            (fun (c : Kernel.ctrans) ->
              if Kernel.enabled c pm env then f c.Kernel.s_id)
            trans
      in
      let count = ref 0 in
      let loop f = snd (time (fun () -> for i = 0 to n - 1 do f i done)) in
      let t_dec = loop decode in
      let t_scan =
        loop (fun i ->
            decode i;
            Array.iter (fun c -> if Kernel.enabled c pm env then incr count) trans)
      in
      let t_sel =
        if not por then t_scan
        else
          loop (fun i ->
              decode i;
              fire_selected (fun _ -> incr count))
      in
      let t_fire =
        loop (fun i ->
            decode i;
            fire_selected (fun tid ->
                Array.blit parent 0 child 0 np;
                Kernel.apply trans.(tid) cm))
      in
      let (), t_dec_e =
        time (fun () -> for k = 0 to ne - 1 do decode_target k done)
      in
      let store =
        Store.create (Packed.create net) ~num_transitions:(Array.length trans)
      in
      let (), t_int =
        time (fun () ->
            decode 0;
            ignore (Store.intern store parent ~extra:0 ~max_states);
            for k = 0 to ne - 1 do
              decode_target k;
              ignore (Store.intern store child ~extra:0 ~max_states)
            done)
      in
      if Store.num_states store <> n then
        Error
          (Printf.sprintf "replay interned %d states, the build %d"
             (Store.num_states store) n)
      else
        Ok
          ( (t_scan -. t_dec) +. (t_fire -. t_sel),
            t_sel -. t_scan,
            t_int -. t_dec_e )
    end

let reach_untimed =
  let setup ~seed:_ text =
    let net = parse text in
    let packed, por = reach_modes net in
    let main () =
      let outcome =
        span "reach.build" (fun () ->
            Graph.build_supervised ~max_states ~jobs ~packed ~por net)
      in
      let g = Supervisor.value outcome in
      let _summary, bps, _branching =
        span "reach.analysis" (fun () -> untimed_report ~por net g)
      in
      let layers ~run =
        setup_metrics ~run
        @ [ ("reach.states", float_of_int (Graph.num_states g));
            ("reach.edges", float_of_int (Graph.num_edges g));
            ("reach.bytes_per_state", bps);
            ("reach.build_s", Spans.seconds ~run "reach.build");
            ("reach.analysis_s", Spans.seconds ~run "reach.analysis") ]
      in
      { firings = Graph.num_edges g; states = Graph.num_states g;
        degraded = Supervisor.degraded outcome;
        check = (fun () -> ring_check g); layers }
    in
    { main; release = ignore }
  in
  let extras ~seed:_ text =
    let net = Parser.parse_net text in
    let packed, por = reach_modes net in
    let build ~jobs ~por () =
      Supervisor.value (Graph.build_supervised ~max_states ~jobs ~packed ~por net)
    in
    let full, _ = span "ablation.por_off" (fun () -> time (build ~jobs ~por:false)) in
    let full_states = Graph.num_states full in
    let fails = ring_check full in
    Pool.quiesce ();
    let serial, jobs1_s = span "ablation.jobs1" (fun () -> time (build ~jobs:1 ~por)) in
    let fails = fails @ ring_check serial in
    let replay = span "replay.reach" (fun () -> reach_replay ~por net serial) in
    let split, fails =
      match replay with
      | Ok (expand, por_s, intern) ->
        let share = float_of_int jobs in
        ( [ ("reach.expand_s", expand /. share);
            ("reach.por_overhead_s", por_s /. share);
            ("reach.intern_s", intern /. share) ],
          fails )
      | Error m -> ([], fails @ [ "reach replay: " ^ m ])
    in
    ( split
      @ [ ("reach.por_reduction",
           float_of_int full_states /. float_of_int (Graph.num_states serial));
          ("reach.jobs1_build_s", jobs1_s) ],
      fails )
  in
  {
    name = "reach-untimed";
    input = ring_input;
    setup;
    once = (fun ~seed:_ _ -> []);
    extras;
    derive =
      (fun get ->
        ( "reach.sweep_other_s",
          get "reach.build_s" -. get "reach.expand_s"
          -. get "reach.por_overhead_s" -. get "reach.intern_s" )
        :: shard_metrics ~prefix:"reach" get);
    parts =
      [ "reach.expand_s"; "reach.por_overhead_s"; "reach.intern_s";
        "reach.sweep_other_s"; "reach.analysis_s" ];
  }

(* reach-timed: [pnut reach --timed] on the pipeline with a 128-word
   instruction buffer, its places and transitions under seeded names. *)

let timed_buffer_words = 128

let timed_input seed =
  let net =
    Model.full { Config.default with Config.buffer_words = timed_buffer_words }
  in
  rename_nodes (Random.State.make [| seed |]) net (Format.asprintf "%a" Net.pp net)

let reach_timed =
  (* The untimed interleaving graph of the same net: every class
     marking must be one of its markings, and the deadlock markings
     must agree. *)
  let reference = ref None in
  let once ~seed:_ text =
    let net = Parser.parse_net text in
    let g = Graph.build ~max_states net in
    let markings = Hashtbl.create (Graph.num_states g) in
    for i = 0 to Graph.num_states g - 1 do
      Hashtbl.replace markings (Graph.state g i).Graph.s_marking ()
    done;
    let dead =
      List.sort_uniq compare
        (List.map (fun i -> (Graph.state g i).Graph.s_marking) (Graph.deadlocks g))
    in
    reference := Some (markings, dead);
    if Graph.complete g then [] else [ "untimed reference graph truncated" ]
  in
  let check g =
    match !reference with
    | None -> [ "no untimed reference" ]
    | Some (markings, dead) ->
      let fails = ref [] in
      if not (Timed.complete g) then fails := "class graph truncated" :: !fails;
      (* A class with a firing in flight holds an intermediate marking
         (inputs consumed, outputs not yet produced) that atomic untimed
         firing never shows; the subset check covers the others. *)
      let settled = ref 0 and stray = ref 0 in
      for i = 0 to Timed.num_states g - 1 do
        let s = Timed.state g i in
        if s.Timed.ts_flight = [] then begin
          incr settled;
          if not (Hashtbl.mem markings s.Timed.ts_marking) then incr stray
        end
      done;
      if !settled = 0 || !stray > 0 then
        fails :=
          Printf.sprintf "%d of %d settled class markings are not untimed-reachable"
            !stray !settled
          :: !fails;
      let timed_dead =
        List.sort_uniq compare
          (List.map (fun i -> (Timed.state g i).Timed.ts_marking) (Timed.deadlocks g))
      in
      if timed_dead <> dead then
        fails :=
          Printf.sprintf "deadlock markings: %d timed, %d untimed"
            (List.length timed_dead) (List.length dead)
          :: !fails;
      List.rev !fails
  in
  let setup ~seed:_ text =
    let net = parse text in
    let packed = span "core.bounds" (fun () -> Packed.bounds_known net) in
    let main () =
      let outcome =
        span "timed.build" (fun () ->
            Timed.build_supervised ~max_states ~jobs ~packed net)
      in
      let g = Supervisor.value outcome in
      let _summary, bps =
        span "timed.analysis" (fun () ->
            ( Format.asprintf "%a" Timed.pp_summary g,
              Timed.packed_bytes_per_state g ))
      in
      let layers ~run =
        let classes = Timed.num_states g and vectors = Timed.num_vectors g in
        setup_metrics ~run
        @ [ ("timed.classes", float_of_int classes);
            ("timed.vectors", float_of_int vectors);
            ("timed.vectors_per_class", float_of_int vectors /. float_of_int classes);
            ("timed.bytes_per_state", Option.value bps ~default:nan);
            ("timed.build_s", Spans.seconds ~run "timed.build");
            ("timed.analysis_s", Spans.seconds ~run "timed.analysis") ]
      in
      { firings = Timed.num_edges g; states = Timed.num_states g;
        degraded = Supervisor.degraded outcome;
        check = (fun () -> check g); layers }
    in
    { main; release = ignore }
  in
  let extras ~seed:_ text =
    let net = Parser.parse_net text in
    let packed = Packed.bounds_known net in
    Pool.quiesce ();
    let outcome, jobs1_s =
      span "ablation.jobs1" (fun () ->
          time (fun () -> Timed.build_supervised ~max_states ~jobs:1 ~packed net))
    in
    ([ ("timed.jobs1_build_s", jobs1_s) ], check (Supervisor.value outcome))
  in
  {
    name = "reach-timed";
    input = timed_input;
    setup;
    once;
    extras;
    derive = shard_metrics ~prefix:"timed";
    parts = [ "timed.build_s"; "timed.analysis_s" ];
  }

(* replicate-isa: [pnut replicate isa.pn --runs 64 --until 50000
   --throughput Issue] on the interpreted (table-driven) pipeline. *)

let isa_runs = 64
let isa_until = 50_000.0
let isa_confidence = 0.95
let isa_read r = Stat.throughput r "Issue"

let estimate_bits (e : Replication.estimate) =
  ( e.Replication.runs,
    List.map Int64.bits_of_float
      [ e.Replication.mean; e.Replication.stddev; e.Replication.half_width ] )

let replicate_isa =
  (* The jobs=1 estimate, and the wall time of that sweep. *)
  let reference = ref None in
  let sweep ~seed ~jobs net read =
    Replication.replicate_supervised ~seed ~confidence:isa_confidence ~jobs
      ~runs:isa_runs ~until:isa_until net read
  in
  let once ~seed text =
    let net = Parser.parse_net text in
    let outcome, wall = time (fun () -> sweep ~seed ~jobs:1 net isa_read) in
    match (Supervisor.value outcome).Replication.pr_estimate with
    | Some e when not (Supervisor.degraded outcome) ->
      reference := Some (estimate_bits e, wall);
      []
    | _ -> [ "jobs=1 replication sweep incomplete" ]
  in
  let check estimate =
    match !reference, estimate with
    | Some (bits, _), Some e when estimate_bits e = bits -> []
    | Some _, Some _ ->
      [ Printf.sprintf "estimate at jobs=%d differs from jobs=1" jobs ]
    | None, _ -> [ "no jobs=1 reference" ]
    | _, None -> [ "no estimate" ]
  in
  (* Untraced: the library sweep itself. *)
  let library ~seed net =
    let started = Atomic.make 0 and deltas = Atomic.make 0 in
    let read r =
      ignore (Atomic.fetch_and_add started r.Stat.events_started);
      ignore
        (Atomic.fetch_and_add deltas (r.Stat.events_started + r.Stat.events_finished));
      isa_read r
    in
    let outcome = span "stat.replicate" (fun () -> sweep ~seed ~jobs net read) in
    let p = Supervisor.value outcome in
    { firings = Atomic.get started; states = Atomic.get deltas;
      degraded = Supervisor.degraded outcome;
      check =
        (fun () ->
          (if p.Replication.pr_completed = isa_runs then []
           else [ "replications incomplete" ])
          @ check p.Replication.pr_estimate);
      layers = (fun ~run:_ -> []) }
  in
  (* Traced: the same sweep as [Replication.replicate_supervised]
     documents it (streams split from the seed in run order, one
     [Stat.sink] per run, [Pool.init] over the runs), with each run
     timed and its statistics sink probed, so simulation and
     statistics time can be told apart inside the pool. *)
  let mirror ~seed net =
    let master = Prng.create seed in
    let streams = Array.init isa_runs (fun _ -> Prng.split master) in
    let probes = Array.init isa_runs (fun _ -> Spans.probe "stat.sink") in
    let task = Array.make isa_runs (0, 0) in
    let (parent, results), pool_s =
      span "exec.pool" (fun () ->
          time (fun () ->
              Spans.current (),
              Pool.init ~jobs isa_runs (fun i ->
                  let t0 = now_ns () in
                  let sink, get = Stat.sink () in
                  let st =
                    Sim.create ~prng:streams.(i) ~sink:(Spans.wrap probes.(i) sink) net
                  in
                  let o = Sim.run ~until:isa_until st in
                  let v = isa_read (get ()) in
                  task.(i) <- (t0, now_ns ());
                  (o, v))))
    in
    Array.iter
      (fun (start_ns, stop_ns) ->
        Spans.add ~name:"sim.replication" ~parent ~start_ns ~stop_ns)
      task;
    let estimate =
      Replication.of_samples ~confidence:isa_confidence
        (Array.to_list (Array.map snd results))
    in
    let sum f = Array.fold_left (fun acc x -> acc + f x) 0 results in
    let started = sum (fun (o, _) -> o.Sim.started) in
    let deltas = sum (fun (o, _) -> o.Sim.started + o.Sim.finished) in
    let task_s =
      Array.fold_left (fun acc (a, b) -> acc +. (float_of_int (b - a) *. 1e-9)) 0.0 task
    in
    let stat_s = Array.fold_left (fun acc p -> acc +. Spans.probe_seconds p) 0.0 probes in
    let sim_s = task_s -. stat_s in
    let share = float_of_int jobs in
    let layers ~run =
      setup_metrics ~run
      @ [ ("sim.events", float_of_int started);
          ("sim.self_s", sim_s /. share);
          ("sim.ns_per_event", sim_s *. 1e9 /. float_of_int started);
          ("stat.self_s", stat_s /. share);
          ("stat.ns_per_delta", stat_s *. 1e9 /. float_of_int deltas);
          ("exec.jobs", share);
          ("exec.idle_s", pool_s -. (task_s /. share)) ]
    in
    { firings = started; states = deltas; degraded = false;
      check = (fun () -> check (Some estimate)); layers }
  in
  let setup ~seed text =
    let net = parse text in
    let main () = if !Spans.recording then mirror ~seed net else library ~seed net in
    { main; release = ignore }
  in
  {
    name = "replicate-isa";
    input = (fun _seed -> Format.asprintf "%a" Net.pp (Interpreted.full Config.default));
    setup;
    once;
    extras = (fun ~seed:_ _ -> ([], []));
    derive =
      (fun get ->
        match !reference with
        | Some (_, jobs1_s) ->
          let speedup = jobs1_s /. get "wall_s" in
          [ ("exec.pool_speedup", speedup);
            ("exec.parallel_efficiency", speedup /. float_of_int jobs) ]
        | None -> []);
    parts = [ "sim.self_s"; "stat.self_s"; "exec.idle_s" ];
  }

(* -- measurement -- *)

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MB");
    ("firings_per_s", "1/s"); ("states_per_s", "1/s") ]

let per_layer =
  [ ("lang.parse_s", "s"); ("core.bounds_s", "s");
    ("sim.events", "count"); ("sim.self_s", "s"); ("sim.ns_per_event", "ns");
    ("trace.deltas", "count"); ("trace.bytes_per_delta", "B");
    ("trace.encode_s", "s"); ("trace.decode_s", "s");
    ("stat.self_s", "s"); ("stat.ns_per_delta", "ns");
    ("reach.states", "count"); ("reach.edges", "count");
    ("reach.bytes_per_state", "B"); ("reach.build_s", "s");
    ("reach.intern_s", "s"); ("reach.expand_s", "s");
    ("reach.sweep_other_s", "s"); ("reach.por_overhead_s", "s");
    ("reach.por_reduction", "x"); ("reach.jobs1_build_s", "s");
    ("reach.shard_speedup", "x"); ("reach.analysis_s", "s");
    ("timed.classes", "count"); ("timed.vectors", "count");
    ("timed.vectors_per_class", "ratio"); ("timed.bytes_per_state", "B");
    ("timed.build_s", "s"); ("timed.jobs1_build_s", "s");
    ("timed.shard_speedup", "x"); ("timed.analysis_s", "s");
    ("exec.jobs", "count"); ("exec.pool_speedup", "x");
    ("exec.parallel_efficiency", "ratio"); ("exec.idle_s", "s");
    ("gc.minor_mwords", "Mwords"); ("gc.major_mwords", "Mwords");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB");
    ("unattributed_s", "s"); ("trace_overhead", "x") ]

(* A run repeats the workload at least this often (the report-digest
   check needs two), then for as long as [--seconds] allows. *)
let min_iterations = 2

(* Set-up is milliseconds: time it [setup_min] to [setup_max] times,
   for up to [setup_budget_s], and take the median. *)
let setup_min = 15
let setup_max = 200
let setup_budget_s = 1.0

let setup_seconds w ~seed text =
  let t0 = now_ns () in
  let rec go acc k =
    if k >= setup_max || (k >= setup_min && seconds_since t0 > setup_budget_s)
    then acc
    else begin
      let inst, s = time (fun () -> w.setup ~seed text) in
      inst.release ();
      go (s :: acc) (k + 1)
    end
  in
  median (go [] 0)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let record tally fails =
  if fails <> [] then begin
    tally.failed <- tally.failed + 1;
    tally.failures <- tally.failures @ fails
  end

(* One iteration: set-up, then the timed main call chain, then its
   checks.  With [traced], spans and probes record, and the GC counters
   of the main call chain come back with the layers. *)
let iteration ?(traced = false) tally w ~seed text =
  Gc.full_major ();
  Spans.recording := traced;
  let inst = w.setup ~seed text in
  let g0 = Gc.quick_stat () in
  let r, wall = time inst.main in
  let g1 = Gc.quick_stat () in
  Spans.recording := false;
  inst.release ();
  tally.attempted <- tally.attempted + 1;
  record tally (r.check () @ if r.degraded then [ "degraded outcome" ] else []);
  let gc =
    [ ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
      ("gc.major_mwords", (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6);
      ("gc.major_collections",
       float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("gc.top_heap_mb",
       float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) ]
  in
  (r, wall, gc)

let repeat ~seconds f =
  let t0 = now_ns () in
  let last = ref 0.0 and n = ref 0 in
  while !n < min_iterations || seconds_since t0 +. !last <= seconds do
    let t = now_ns () in
    f ();
    incr n;
    last := seconds_since t
  done

let measure w ~seed ~seconds tally =
  let text = w.input seed in
  record tally (w.once ~seed text);
  let setup_s = setup_seconds w ~seed text in
  let walls = ref [] and firings = ref [] and states = ref [] in
  repeat ~seconds (fun () ->
      let r, wall, _ = iteration tally w ~seed text in
      walls := wall :: !walls;
      firings := (float_of_int r.firings /. wall) :: !firings;
      states := (float_of_int r.states /. wall) :: !states);
  Printf.printf "%s: %d iterations, wall_s %s\n" w.name (List.length !walls)
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !walls));
  [ ("setup_s", setup_s); ("wall_s", median !walls); ("peak_rss_mb", peak_rss_mb ());
    ("firings_per_s", median !firings); ("states_per_s", median !states) ]

let traced w ~seed ~seconds tally =
  Spans.calibrate ();
  let text = w.input seed in
  record tally (w.once ~seed text);
  let untraced = ref [] and traced = ref [] in
  repeat ~seconds (fun () ->
      let _, wall, _ = iteration tally w ~seed text in
      untraced := wall :: !untraced;
      Spans.run_id := List.length !traced + 1;
      let r, wall, gc = iteration ~traced:true tally w ~seed text in
      traced := (wall, r.layers ~run:!Spans.run_id @ gc) :: !traced);
  Spans.run_id := 0;
  Spans.recording := true;
  let extras, fails = w.extras ~seed text in
  Spans.recording := false;
  record tally fails;
  let wall_s = median !untraced in
  let samples =
    List.map
      (fun (wall, layers) ->
        let known = (("wall_s", wall_s) :: layers) @ extras in
        let get k = try List.assoc k known with Not_found -> 0.0 in
        let derived = w.derive get in
        let get k = try List.assoc k (derived @ known) with Not_found -> 0.0 in
        let parts = List.fold_left (fun acc k -> acc +. get k) 0.0 w.parts in
        (("unattributed_s", wall -. parts) :: derived) @ layers @ extras)
      !traced
  in
  let metric k =
    median (List.filter_map (fun s -> List.assoc_opt k s) samples)
    |> fun v -> if Float.is_nan v then 0.0 else v
  in
  let traced_wall = median (List.map fst !traced) in
  let metrics =
    List.map
      (fun (k, _) ->
        if k = "trace_overhead" then (k, traced_wall /. wall_s) else (k, metric k))
      per_layer
  in
  (* The table: the parts of the main call chain, then the rest. *)
  let get k = List.assoc k metrics in
  let unit_of k = List.assoc k per_layer in
  Printf.printf "per-layer table: %s, seed %d, jobs %d, %d traced iteration(s)\n"
    w.name seed jobs (List.length !traced);
  Printf.printf "  set-up (in setup_s, not in wall_s)\n";
  List.iter
    (fun k -> Printf.printf "    %-28s %12.6f s\n" k (get k))
    [ "lang.parse_s"; "core.bounds_s" ];
  Printf.printf "  main call chain (adds up to the traced wall time)\n";
  let rows = w.parts @ [ "unattributed_s" ] in
  let sum = List.fold_left (fun acc k -> acc +. get k) 0.0 rows in
  List.iter
    (fun k ->
      Printf.printf "    %-28s %12.6f s %6.1f%%\n" k (get k)
        (100.0 *. get k /. traced_wall))
    rows;
  Printf.printf "    %-28s %12.6f s\n" "sum of parts" sum;
  Printf.printf "    %-28s %12.6f s  (parts / wall_s = %.3f)\n" "untraced wall_s"
    wall_s (sum /. wall_s);
  Printf.printf "  other per-layer metrics\n";
  List.iter
    (fun (k, v) ->
      if not (List.mem k rows || k = "lang.parse_s" || k = "core.bounds_s") then
        Printf.printf "    %-28s %16.6g %s\n" k v (unit_of k))
    metrics;
  metrics

(* -- entry point -- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_result tally metrics units =
  let metric (k, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string k)
      (json_number v)
      (Spans.json_string (List.assoc k units))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failures = [] && tally.failed = 0)
    tally.attempted tally.failed
    (String.concat ", " (List.map metric metrics))

let usage =
  "driver --workload NAME --seed N --seconds S --trace 0|1 --out DIR\n\
   workloads: sim-stat, reach-untimed, reach-timed, replicate-isa"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0.0
  and trace = ref (-1) and out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--out", Arg.Set_string out, "DIR directory for spans and temp files") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die msg =
    prerr_endline ("driver: " ^ msg);
    exit 2
  in
  let seed = match !seed with Some s -> s | None -> die "missing --seed" in
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !out = "" || not (Sys.file_exists !out) then die "--out must be an existing directory";
  let tmp = Filename.concat !out (Printf.sprintf "sim-stat-%d.bin" seed) in
  let w =
    match !workload with
    | "sim-stat" -> sim_stat ~tmp
    | "reach-untimed" -> reach_untimed
    | "reach-timed" -> reach_timed
    | "replicate-isa" -> replicate_isa
    | other -> die ("unknown workload " ^ other)
  in
  let tally = { attempted = 0; failed = 0; failures = [] } in
  let metrics, units =
    if !trace = 1 then begin
      let m = traced w ~seed ~seconds:!seconds tally in
      Spans.write
        (Filename.concat !out (Printf.sprintf "spans-%s-%d.jsonl" w.name seed));
      (m, per_layer)
    end
    else (measure w ~seed ~seconds:!seconds tally, end_to_end)
  in
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) tally.failures;
  print_endline (json_result tally metrics units)
