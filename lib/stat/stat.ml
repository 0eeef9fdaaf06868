module Trace = Pnut_trace.Trace

type place_stats = {
  ps_name : string;
  ps_min : int;
  ps_max : int;
  ps_avg : float;
  ps_stddev : float;
  ps_final : int;
}

type transition_stats = {
  ts_name : string;
  ts_min : int;
  ts_max : int;
  ts_avg : float;
  ts_stddev : float;
  ts_starts : int;
  ts_ends : int;
  ts_throughput : float;
}

type report = {
  run_number : int;
  initial_clock : float;
  length : float;
  events_started : int;
  events_finished : int;
  places : place_stats array;
  transitions : transition_stats array;
}

(* An integer-valued step signal.  Its time integrals live apart, in
   the accumulator's [integrals] float array: a mutable float field in
   this mixed record would box a fresh float on every update. *)
type signal = {
  mutable current : int;
  mutable min : int;
  mutable max : int;
}

let signal_make v = { current = v; min = v; max = v }

(* Add [v dt] and [v^2 dt] of a signal holding [v] to its two integral
   slots [k] and [k+1]. *)
let accumulate integrals k v dt =
  let v = float_of_int v in
  integrals.(k) <- integrals.(k) +. (v *. dt);
  integrals.(k + 1) <- integrals.(k + 1) +. (v *. v *. dt)

let signal_set s v =
  s.current <- v;
  if v < s.min then s.min <- v;
  if v > s.max then s.max <- v

(* Mean and standard deviation from the integrals of [v] and [v^2]. *)
let signal_stats sum sq_sum total =
  if total <= 0.0 then (0.0, 0.0)
  else begin
    let mean = sum /. total in
    let var = Float.max 0.0 ((sq_sum /. total) -. (mean *. mean)) in
    (mean, sqrt var)
  end

type error = Time_regression of { at : float; prev : float }

exception Stat_error of error

let error_message = function
  | Time_regression { at; prev } ->
    Printf.sprintf
      "stat: trace time went backwards (delta at %g after clock %g); traces \
       must be time-ordered"
      at prev

let () =
  Printexc.register_printer (function
    | Stat_error e -> Some (error_message e)
    | _ -> None)

type acc = {
  run : int;
  mutable header : Trace.header option;
  mutable t0 : float;
  mutable prev : float;
  mutable place_signals : signal array;
  mutable trans_signals : signal array;
  (* integral of v dt at [2i], of v^2 dt at [2i+1], for signal i:
     places first, then transitions *)
  mutable integrals : float array;
  mutable starts : int array;
  mutable ends : int array;
  mutable final : float option;
}

let advance acc time =
  let dt = time -. acc.prev in
  if dt < 0.0 then
    raise (Stat_error (Time_regression { at = time; prev = acc.prev }))
  else if dt > 0.0 then begin
    let integrals = acc.integrals in
    let np = Array.length acc.place_signals in
    for i = 0 to np - 1 do
      accumulate integrals (2 * i) acc.place_signals.(i).current dt
    done;
    for j = 0 to Array.length acc.trans_signals - 1 do
      accumulate integrals (2 * (np + j)) acc.trans_signals.(j).current dt
    done;
    acc.prev <- time
  end

let on_header acc (h : Trace.header) =
  acc.header <- Some h;
  acc.place_signals <- Array.map signal_make h.Trace.h_initial;
  acc.trans_signals <-
    Array.map (fun _ -> signal_make 0) h.Trace.h_transitions;
  acc.integrals <-
    Array.make
      (2 * (Array.length h.Trace.h_places + Array.length h.Trace.h_transitions))
      0.0;
  acc.starts <- Array.make (Array.length h.Trace.h_transitions) 0;
  acc.ends <- Array.make (Array.length h.Trace.h_transitions) 0

let rec apply_marking place_signals = function
  | [] -> ()
  | (p, dm) :: rest ->
    let s = place_signals.(p) in
    signal_set s (s.current + dm);
    apply_marking place_signals rest

let on_delta acc (d : Trace.delta) =
  advance acc d.Trace.d_time;
  apply_marking acc.place_signals d.Trace.d_marking;
  let ts = acc.trans_signals.(d.Trace.d_transition) in
  (match d.Trace.d_kind with
  | Trace.Fire_start ->
    acc.starts.(d.Trace.d_transition) <- acc.starts.(d.Trace.d_transition) + 1;
    signal_set ts (ts.current + 1)
  | Trace.Fire_end ->
    acc.ends.(d.Trace.d_transition) <- acc.ends.(d.Trace.d_transition) + 1;
    signal_set ts (ts.current - 1))

let on_finish acc time =
  advance acc time;
  acc.final <- Some time

let build acc =
  match acc.header, acc.final with
  | None, _ -> invalid_arg "Stat: no header received"
  | _, None -> invalid_arg "Stat: trace not finished"
  | Some h, Some final ->
    let length = final -. acc.t0 in
    let places =
      Array.mapi
        (fun i name ->
          let s = acc.place_signals.(i) in
          let avg, dev =
            signal_stats acc.integrals.(2 * i) acc.integrals.((2 * i) + 1) length
          in
          {
            ps_name = name;
            ps_min = s.min;
            ps_max = s.max;
            ps_avg = avg;
            ps_stddev = dev;
            ps_final = s.current;
          })
        h.Trace.h_places
    in
    let transitions =
      Array.mapi
        (fun i name ->
          let s = acc.trans_signals.(i) in
          let k = 2 * (Array.length acc.place_signals + i) in
          let avg, dev =
            signal_stats acc.integrals.(k) acc.integrals.(k + 1) length
          in
          {
            ts_name = name;
            ts_min = s.min;
            ts_max = s.max;
            ts_avg = avg;
            ts_stddev = dev;
            ts_starts = acc.starts.(i);
            ts_ends = acc.ends.(i);
            ts_throughput = (if length > 0.0 then float_of_int acc.ends.(i) /. length else 0.0);
          })
        h.Trace.h_transitions
    in
    {
      run_number = acc.run;
      initial_clock = acc.t0;
      length;
      events_started = Array.fold_left ( + ) 0 acc.starts;
      events_finished = Array.fold_left ( + ) 0 acc.ends;
      places;
      transitions;
    }

let sink ?(run = 1) () =
  let acc =
    {
      run;
      header = None;
      t0 = 0.0;
      prev = 0.0;
      place_signals = [||];
      trans_signals = [||];
      integrals = [||];
      starts = [||];
      ends = [||];
      final = None;
    }
  in
  let s =
    {
      Trace.on_header = on_header acc;
      on_delta = on_delta acc;
      on_finish = on_finish acc;
    }
  in
  (s, fun () -> build acc)

let of_trace ?run tr =
  let s, get = sink ?run () in
  Trace.replay tr s;
  get ()

let place r name =
  match Array.find_opt (fun p -> p.ps_name = name) r.places with
  | Some p -> p
  | None -> raise Not_found

let transition r name =
  match Array.find_opt (fun t -> t.ts_name = name) r.transitions with
  | Some t -> t
  | None -> raise Not_found

let utilization r name = (place r name).ps_avg
let throughput r name = (transition r name).ts_throughput

(* -- rendering -- *)

let pad width s =
  if String.length s >= width then s
  else s ^ String.make (width - String.length s) ' '

let pad_left width s =
  if String.length s >= width then s
  else String.make (width - String.length s) ' ' ^ s

let table buf headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let emit is_header row =
    List.iteri
      (fun i cell ->
        let padded =
          if i = 0 || is_header then pad widths.(i) cell
          else pad_left widths.(i) cell
        in
        Buffer.add_string buf padded;
        if i < columns - 1 then Buffer.add_string buf "  ")
      row;
    Buffer.add_char buf '\n'
  in
  emit true headers;
  List.iter (emit false) rows

let fmt_g f = Printf.sprintf "%g" f

let fmt_avg f =
  if Float.equal f 0.0 then "0" else Printf.sprintf "%.4f" f

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "RUN STATISTICS\n";
  Buffer.add_string buf (Printf.sprintf "Run number           %d\n" r.run_number);
  Buffer.add_string buf
    (Printf.sprintf "Initial clock value  %s\n" (fmt_g r.initial_clock));
  Buffer.add_string buf
    (Printf.sprintf "Length of Simulation %s\n" (fmt_g r.length));
  Buffer.add_string buf
    (Printf.sprintf "Events started       %d\n" r.events_started);
  Buffer.add_string buf
    (Printf.sprintf "Events finished      %d\n" r.events_finished);
  Buffer.add_string buf "\nEVENT STATISTICS\n";
  Buffer.add_string buf (Printf.sprintf "Run number %d\n" r.run_number);
  table buf
    [ "Transition"; "Min/Max"; "Avg"; "Standard"; "Starts"; "Throughput" ]
    (Array.to_list r.transitions
    |> List.map (fun t ->
           [
             t.ts_name;
             Printf.sprintf "%d/%d" t.ts_min t.ts_max;
             fmt_avg t.ts_avg;
             fmt_avg t.ts_stddev;
             Printf.sprintf "%d/%d" t.ts_starts t.ts_ends;
             Printf.sprintf "%.4f" t.ts_throughput;
           ]));
  Buffer.add_string buf "\nPLACE STATISTICS\n";
  Buffer.add_string buf (Printf.sprintf "Run number %d\n" r.run_number);
  table buf
    [ "Place"; "Min/Max"; "Avg"; "Standard" ]
    (Array.to_list r.places
    |> List.map (fun p ->
           [
             p.ps_name;
             Printf.sprintf "%d/%d" p.ps_min p.ps_max;
             fmt_avg p.ps_avg;
             fmt_avg p.ps_stddev;
           ]));
  Buffer.contents buf

let render_tsv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "run\t%d\tlength\t%g\tstarted\t%d\tfinished\t%d\n"
       r.run_number r.length r.events_started r.events_finished);
  Array.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "transition\t%s\t%d\t%d\t%.6f\t%.6f\t%d\t%d\t%.6f\n"
           t.ts_name t.ts_min t.ts_max t.ts_avg t.ts_stddev t.ts_starts
           t.ts_ends t.ts_throughput))
    r.transitions;
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "place\t%s\t%d\t%d\t%.6f\t%.6f\t%d\n" p.ps_name p.ps_min
           p.ps_max p.ps_avg p.ps_stddev p.ps_final))
    r.places;
  Buffer.contents buf

let pp ppf r = Format.pp_print_string ppf (render r)
