(* Spans and sink probes for the traced benchmark run.

   A span is one call from the benchmark driver into a layer of the
   program: name, start, end, the enclosing span and the iteration
   ("run") it belongs to.  Spans are kept in memory and written out as
   JSON lines when the driver ends.  With recording off, [span] is a
   plain call.

   Trace sinks are called once per trace delta, millions of times per
   iteration, so they are not spans: a probe wraps a sink and keeps an
   exact call count plus the time of every [sample_every]-th call, from
   which the layer's total time is estimated (timer cost subtracted). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  run : int;
  name : string;
  start_ns : int;
  stop_ns : int;
}

let recording = ref false
let run_id = ref 0
let next_id = ref 0
let stack = ref []
let finished = ref []

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      stack := List.tl !stack;
      finished :=
        { id; parent; run = !run_id; name; start_ns; stop_ns } :: !finished
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* The innermost open span, to parent spans timed on worker domains:
   those are timed by the task itself and added with [add] after the
   join, since the span stack belongs to the calling domain. *)
let current () = match !stack with p :: _ -> p | [] -> -1

let add ~name ~parent ~start_ns ~stop_ns =
  if !recording then begin
    let id = !next_id in
    incr next_id;
    finished := { id; parent; run = !run_id; name; start_ns; stop_ns } :: !finished
  end

(* Total seconds of the spans called [name] in iteration [run]. *)
let seconds ~run name =
  List.fold_left
    (fun acc s ->
      if s.run = run && s.name = name then
        acc +. (float_of_int (s.stop_ns - s.start_ns) *. 1e-9)
      else acc)
    0.0 !finished

(* -- sink probes -- *)

let sample_every = 8

type probe = {
  p_name : string;
  p_run : int;
  mutable calls : int;
  mutable sampled : int;
  mutable sampled_ns : int;
  mutable finish_ns : int;  (** [on_finish] is timed on every call *)
}

let probes = ref []

let probe name =
  let p =
    { p_name = name; p_run = !run_id; calls = 0; sampled = 0; sampled_ns = 0;
      finish_ns = 0 }
  in
  if !recording then probes := p :: !probes;
  p

(* Cost of one back-to-back pair of clock reads, the bias of a timed
   window; measured once by [calibrate]. *)
let timer_ns = ref 0.0

let calibrate () =
  let n = 200_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (now_ns ()))
  done;
  timer_ns := float_of_int (now_ns () - t0) /. float_of_int n

let wrap p (s : Pnut_trace.Trace.sink) : Pnut_trace.Trace.sink =
  if not !recording then s
  else
    {
      s with
      on_delta =
        (fun d ->
          let c = p.calls in
          p.calls <- c + 1;
          if c mod sample_every <> 0 then s.on_delta d
          else begin
            let t0 = now_ns () in
            s.on_delta d;
            p.sampled_ns <- p.sampled_ns + (now_ns () - t0);
            p.sampled <- p.sampled + 1
          end);
      on_finish =
        (fun clock ->
          let t0 = now_ns () in
          s.on_finish clock;
          p.finish_ns <- p.finish_ns + (now_ns () - t0));
    }

(* Estimated seconds spent inside the wrapped sink. *)
let probe_seconds p =
  let deltas =
    if p.sampled = 0 then 0.0
    else
      Float.max 0.0
        (float_of_int p.sampled_ns -. (float_of_int p.sampled *. !timer_ns))
      *. float_of_int p.calls /. float_of_int p.sampled
  in
  (deltas +. float_of_int p.finish_ns) *. 1e-9

(* -- output -- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"kind\":\"span\",\"id\":%d,\"parent\":%d,\"run\":%d,\
             \"name\":%s,\"start_ns\":%d,\"end_ns\":%d}\n"
            s.id s.parent s.run (json_string s.name) s.start_ns s.stop_ns)
        (List.rev !finished);
      List.iter
        (fun p ->
          Printf.fprintf oc
            "{\"kind\":\"probe\",\"run\":%d,\"name\":%s,\"calls\":%d,\
             \"sampled\":%d,\"sampled_ns\":%d,\"finish_ns\":%d,\
             \"timer_ns\":%.3f,\"estimate_s\":%.9f}\n"
            p.p_run (json_string p.p_name) p.calls p.sampled p.sampled_ns
            p.finish_ns !timer_ns (probe_seconds p))
        (List.rev !probes))
