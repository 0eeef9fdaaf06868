exception Parse_error of int * string

let magic = "\x00pnut-bin"
let version = '\x01'

(* zigzag maps signed to unsigned so that small-magnitude values stay
   small: 0 -1 1 -2 2 ... -> 0 1 2 3 4 ... *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* Time deltas scaled by 8 cover every multiple of 1/8 cycle with a
   varint; anything else falls back to the raw double (escape varint 1,
   which zigzag·shift can never produce: it would need x = 0 with the
   low bit set). *)
let time_scale = 8.0

let max_scaled = float_of_int (1 lsl 59)

(* -- writing -- *)

let add_varint buf n =
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

(* A pure companion reader over a string for other compact encoders
   (the reachability frontier spill); the trace reader below streams
   from a channel instead. *)
let get_varint s ~pos =
  let rec go shift acc =
    if shift > 62 then raise (Parse_error (!pos, "varint overflow"));
    if !pos >= String.length s then
      raise (Parse_error (!pos, "truncated varint"));
    let b = Char.code (String.unsafe_get s !pos) in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_value buf v =
  match v with
  | Pnut_core.Value.Int i ->
    Buffer.add_char buf '\x00';
    add_varint buf (zigzag i)
  | Pnut_core.Value.Float f ->
    Buffer.add_char buf '\x01';
    add_f64 buf f
  | Pnut_core.Value.Bool false -> Buffer.add_char buf '\x02'
  | Pnut_core.Value.Bool true -> Buffer.add_char buf '\x03'

(* The marking dictionary of both ends: the last explicit marking list
   per key tid*2+kind.  Keys of the header's transitions index an array,
   so a lookup is one load; a key outside it (a trace naming a
   transition its header lacks) goes to a table. *)
type marks = {
  dense : (int * int) list option array;
  sparse : (int, (int * int) list) Hashtbl.t;
}

let marks_create ntrans =
  { dense = Array.make (2 * ntrans) None; sparse = Hashtbl.create 1 }

let marks_find d k =
  if k >= 0 && k < Array.length d.dense then d.dense.(k)
  else Hashtbl.find_opt d.sparse k

let marks_set d k m =
  if k >= 0 && k < Array.length d.dense then d.dense.(k) <- Some m
  else Hashtbl.replace d.sparse k m

type wstate = {
  buf : Buffer.t;
  flush : unit -> unit;  (* drains [buf] when it grows past the cap *)
  names : (string, int) Hashtbl.t;     (* interned env-variable names *)
  mutable n_names : int;
  mutable last_marking : marks;
  mutable prev_time : float;
  mutable prev_start_fid : int;
}

let intern w name =
  match Hashtbl.find_opt w.names name with
  | Some i -> add_varint w.buf (i + 1)
  | None ->
    add_varint w.buf 0;
    add_string w.buf name;
    Hashtbl.replace w.names name w.n_names;
    w.n_names <- w.n_names + 1

let emit_header w (h : Trace.header) =
  let buf = w.buf in
  w.last_marking <- marks_create (Array.length h.Trace.h_transitions);
  Buffer.add_string buf magic;
  Buffer.add_char buf version;
  add_string buf h.Trace.h_net;
  add_varint buf (Array.length h.Trace.h_places);
  Array.iteri
    (fun i name ->
      add_string buf name;
      add_varint buf (zigzag h.Trace.h_initial.(i)))
    h.Trace.h_places;
  add_varint buf (Array.length h.Trace.h_transitions);
  Array.iter (fun name -> add_string buf name) h.Trace.h_transitions;
  add_varint buf (List.length h.Trace.h_variables);
  List.iter
    (fun (name, v) ->
      add_string buf name;
      add_value buf v;
      if not (Hashtbl.mem w.names name) then begin
        Hashtbl.replace w.names name w.n_names;
        w.n_names <- w.n_names + 1
      end)
    h.Trace.h_variables;
  w.flush ()

let add_time w time =
  let dt = time -. w.prev_time in
  let scaled = dt *. time_scale in
  if Float.is_integer scaled && Float.abs scaled < max_scaled then
    add_varint w.buf (zigzag (int_of_float scaled) lsl 1)
  else begin
    add_varint w.buf 1;
    add_f64 w.buf time
  end;
  w.prev_time <- time

let emit_delta w (d : Trace.delta) =
  let buf = w.buf in
  let kind = match d.Trace.d_kind with Trace.Fire_start -> 0 | Trace.Fire_end -> 1 in
  let mkey = (d.Trace.d_transition * 2) + kind in
  let m = d.Trace.d_marking in
  let mark_mode =
    match m, marks_find w.last_marking mkey with
    | [], _ -> 0
    (* the simulator hands over the same precomputed list every time *)
    | _, Some last when last == m || last = m -> 1
    | _ ->
      marks_set w.last_marking mkey m;
      2
  in
  let has_env = d.Trace.d_env <> [] in
  Buffer.add_char buf
    (Char.chr (kind lor (mark_mode lsl 1) lor (if has_env then 8 else 0)));
  add_time w d.Trace.d_time;
  add_varint buf d.Trace.d_transition;
  (match d.Trace.d_kind with
  | Trace.Fire_start ->
    add_varint buf (zigzag (d.Trace.d_firing - w.prev_start_fid - 1));
    w.prev_start_fid <- d.Trace.d_firing
  | Trace.Fire_end ->
    add_varint buf (zigzag (w.prev_start_fid - d.Trace.d_firing)));
  if mark_mode = 2 then begin
    add_varint buf (List.length d.Trace.d_marking);
    List.iter
      (fun (p, dm) ->
        add_varint buf p;
        add_varint buf (zigzag dm))
      d.Trace.d_marking
  end;
  if has_env then begin
    add_varint buf (List.length d.Trace.d_env);
    List.iter
      (fun (name, v) ->
        intern w name;
        add_value buf v)
      d.Trace.d_env
  end;
  w.flush ()

let emit_finish w time =
  Buffer.add_char w.buf '\xff';
  add_f64 w.buf time;
  w.flush ()

let make_sink ~flush buf =
  let w =
    {
      buf;
      flush;
      names = Hashtbl.create 16;
      n_names = 0;
      last_marking = marks_create 0;
      prev_time = 0.0;
      prev_start_fid = -1;
    }
  in
  {
    Trace.on_header = emit_header w;
    on_delta = emit_delta w;
    on_finish = emit_finish w;
  }

let buffer_sink buf = make_sink ~flush:(fun () -> ()) buf

let channel_sink oc =
  let buf = Buffer.create 65536 in
  let drain () =
    if Buffer.length buf >= 65536 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  let sink = make_sink ~flush:drain buf in
  {
    sink with
    Trace.on_finish =
      (fun t ->
        sink.Trace.on_finish t;
        Buffer.output_buffer oc buf;
        Buffer.clear buf;
        Stdlib.flush oc);
  }

let write_channel oc tr =
  Trace.replay tr (channel_sink oc)

let to_string tr =
  let buf = Buffer.create 65536 in
  Trace.replay tr (buffer_sink buf);
  Buffer.contents buf

(* -- reading -- *)

(* A byte window over a channel or a string.  [cur] is the next unread
   byte of [buf.[0 .. len-1]], and [base] counts the bytes consumed
   before the window, so [base + cur] — the offset in error messages —
   is the number of bytes read, whatever the window size.  A channel
   window is refilled with one [input] when it runs dry: the reader
   never asks for more input than the record it is decoding needs, so
   it stops at the end record even on a pipe that stays open, although
   bytes after that record may already sit in the window. *)
type src = {
  buf : Bytes.t;
  mutable len : int;
  mutable cur : int;
  mutable base : int;
  ic : in_channel option;  (* [None]: the whole input is in [buf] *)
}

let window = 65536

let src_of_channel ic =
  { buf = Bytes.create window; len = 0; cur = 0; base = 0; ic = Some ic }

let src_of_string s =
  (* never written: a string source has no refill *)
  { buf = Bytes.unsafe_of_string s; len = String.length s; cur = 0; base = 0;
    ic = None }

let pos src = src.base + src.cur

let fail src msg = raise (Parse_error (pos src, msg))

(* Refill an exhausted window; false at the end of the input. *)
let refill src =
  match src.ic with
  | None -> false
  | Some ic ->
    let n = input ic src.buf 0 (Bytes.length src.buf) in
    src.base <- src.base + src.len;
    src.len <- n;
    src.cur <- 0;
    n > 0

let read_byte_slow src =
  if refill src then begin
    src.cur <- 1;
    Char.code (Bytes.unsafe_get src.buf 0)
  end
  else fail src "unexpected end of binary trace"

let[@inline] read_byte src =
  let i = src.cur in
  if i < src.len then begin
    src.cur <- i + 1;
    Char.code (Bytes.unsafe_get src.buf i)
  end
  else read_byte_slow src

let read_varint src =
  let b = read_byte src in
  if b land 0x80 = 0 then b
  else begin
    let acc = ref (b land 0x7f) in
    let shift = ref 7 in
    let more = ref true in
    while !more do
      if !shift > 62 then fail src "varint overflow";
      let b = read_byte src in
      acc := !acc lor ((b land 0x7f) lsl !shift);
      if b land 0x80 <> 0 then shift := !shift + 7 else more := false
    done;
    !acc
  end

let read_string src =
  let len = read_varint src in
  (* a 9-byte varint can set the sign bit *)
  if len < 0 || len > 0x10000000 then fail src "string length out of range";
  if src.cur + len <= src.len then begin
    let s = Bytes.sub_string src.buf src.cur len in
    src.cur <- src.cur + len;
    s
  end
  else begin
    let b = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set b i (Char.chr (read_byte src))
    done;
    Bytes.unsafe_to_string b
  end

let read_f64 src =
  if src.cur + 8 <= src.len then begin
    let bits = Bytes.get_int64_le src.buf src.cur in
    src.cur <- src.cur + 8;
    Int64.float_of_bits bits
  end
  else begin
    let bits = ref 0L in
    for i = 0 to 7 do
      bits :=
        Int64.logor !bits (Int64.shift_left (Int64.of_int (read_byte src)) (i * 8))
    done;
    Int64.float_of_bits !bits
  end

let read_value src =
  match read_byte src with
  | 0 -> Pnut_core.Value.Int (unzigzag (read_varint src))
  | 1 -> Pnut_core.Value.Float (read_f64 src)
  | 2 -> Pnut_core.Value.Bool false
  | 3 -> Pnut_core.Value.Bool true
  | t -> fail src (Printf.sprintf "bad value tag %d" t)

type rstate = {
  src : src;
  mutable r_names : string array;   (* growable interned name table *)
  mutable r_n_names : int;
  mutable r_last_marking : marks;
  mutable r_prev_time : float;
  mutable r_prev_start_fid : int;
}

let table_add r name =
  if r.r_n_names >= Array.length r.r_names then begin
    let bigger = Array.make (max 16 (2 * Array.length r.r_names)) "" in
    Array.blit r.r_names 0 bigger 0 r.r_n_names;
    r.r_names <- bigger
  end;
  r.r_names.(r.r_n_names) <- name;
  r.r_n_names <- r.r_n_names + 1

let read_name r =
  match read_varint r.src with
  | 0 ->
    let name = read_string r.src in
    table_add r name;
    name
  | k ->
    if k - 1 >= r.r_n_names then fail r.src "name-table reference out of range";
    r.r_names.(k - 1)

let read_header r =
  let src = r.src in
  let net = read_string src in
  let nplaces = read_varint src in
  let places = Array.make nplaces "" in
  let initial = Array.make nplaces 0 in
  for i = 0 to nplaces - 1 do
    places.(i) <- read_string src;
    initial.(i) <- unzigzag (read_varint src)
  done;
  let ntrans = read_varint src in
  let transitions = Array.init ntrans (fun _ -> read_string src) in
  let nvars = read_varint src in
  let vars =
    List.init nvars (fun _ ->
        let name = read_string src in
        let v = read_value src in
        table_add r name;
        (name, v))
  in
  {
    Trace.h_net = net;
    h_places = places;
    h_transitions = transitions;
    h_initial = initial;
    h_variables = vars;
  }

let read_time r =
  match read_varint r.src with
  | 1 ->
    let t = read_f64 r.src in
    r.r_prev_time <- t;
    t
  | u when u land 1 = 1 -> fail r.src "bad time encoding"
  | u ->
    let t = r.r_prev_time +. (float_of_int (unzigzag (u lsr 1)) /. time_scale) in
    r.r_prev_time <- t;
    t

let read_delta r head =
  let src = r.src in
  let kind_bit = head land 1 in
  let kind = if kind_bit = 0 then Trace.Fire_start else Trace.Fire_end in
  let mark_mode = (head lsr 1) land 3 in
  let has_env = head land 8 <> 0 in
  if head land 0xf0 <> 0 || mark_mode = 3 then
    fail src (Printf.sprintf "bad record head byte %#x" head);
  let time = read_time r in
  let tid = read_varint src in
  let fid =
    let e = unzigzag (read_varint src) in
    match kind with
    | Trace.Fire_start ->
      let fid = r.r_prev_start_fid + 1 + e in
      r.r_prev_start_fid <- fid;
      fid
    | Trace.Fire_end -> r.r_prev_start_fid - e
  in
  let mkey = (tid * 2) + kind_bit in
  let marking =
    match mark_mode with
    | 0 -> []
    | 1 -> (
      match marks_find r.r_last_marking mkey with
      | Some m -> m
      | None -> fail src "marking back-reference before any explicit marking")
    | _ ->
      let n = read_varint src in
      let m =
        List.init n (fun _ ->
            let p = read_varint src in
            let dm = unzigzag (read_varint src) in
            (p, dm))
      in
      marks_set r.r_last_marking mkey m;
      m
  in
  let env =
    if not has_env then []
    else
      let n = read_varint src in
      List.init n (fun _ ->
          let name = read_name r in
          let v = read_value src in
          (name, v))
  in
  {
    Trace.d_time = time;
    d_kind = kind;
    d_transition = tid;
    d_firing = fid;
    d_marking = marking;
    d_env = env;
  }

let stream ?(skip_first_byte = false) src (sink : Trace.sink) =
  let from = if skip_first_byte then 1 else 0 in
  String.iteri
    (fun i expected ->
      if i >= from then
        if read_byte src <> Char.code expected then
          fail src "bad magic: not a binary pnut trace")
    magic;
  (match read_byte src with
  | 1 -> ()
  | v -> fail src (Printf.sprintf "unsupported binary trace version %d" v));
  let r =
    {
      src;
      r_names = [||];
      r_n_names = 0;
      r_last_marking = marks_create 0;
      r_prev_time = 0.0;
      r_prev_start_fid = -1;
    }
  in
  let h = read_header r in
  r.r_last_marking <- marks_create (Array.length h.Trace.h_transitions);
  sink.Trace.on_header h;
  let rec loop () =
    match read_byte src with
    | 0xff -> sink.Trace.on_finish (read_f64 src)
    | head ->
      sink.Trace.on_delta (read_delta r head);
      loop ()
  in
  loop ()

let stream_channel ?skip_first_byte ic sink =
  stream ?skip_first_byte (src_of_channel ic) sink

let read_channel ic =
  let sink, get = Trace.collector () in
  stream_channel ic sink;
  get ()

let parse s =
  let sink, get = Trace.collector () in
  stream (src_of_string s) sink;
  get ()
