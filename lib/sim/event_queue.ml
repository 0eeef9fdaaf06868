type 'a entry = {
  time : float;
  seq : int;
  payload : 'a;
}

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for unused slots so they never retain a popped payload.  The
   value is an immediate int masquerading as an entry; it is only ever
   stored, never read: every heap access is bounds-checked against
   [size]. *)
let blank : unit -> 'a entry = fun () -> Obj.magic 0

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let before a b = a.time < b.time || (Float.equal a.time b.time && a.seq < b.seq)

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = ref i in
  if l < q.size && before q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.size && before q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q time payload =
  let entry = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let capacity = max 16 (2 * q.size) in
    let bigger = Array.make capacity (blank ()) in
    Array.blit q.heap 0 bigger 0 q.size;
    q.heap <- bigger
  end;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let peek_time q = if q.size = 0 then None else Some q.heap.(0).time

let top_time q = if q.size = 0 then infinity else q.heap.(0).time

let pop_top q =
  if q.size = 0 then invalid_arg "Event_queue.pop_top: empty queue";
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    (* blank the vacated slot: a long-lived queue must not pin the
       moved entry (or, on the last pop, the popped payload) *)
    q.heap.(q.size) <- blank ();
    sift_down q 0
  end
  else q.heap.(0) <- blank ();
  top.payload

let pop q =
  if q.size = 0 then None
  else
    let time = q.heap.(0).time in
    Some (time, pop_top q)

let to_sorted_list q =
  let entries = Array.sub q.heap 0 q.size in
  Array.sort (fun a b -> if before a b then -1 else 1) entries;
  Array.to_list (Array.map (fun e -> (e.time, e.payload)) entries)

let clear q =
  q.heap <- [||];
  q.size <- 0;
  q.next_seq <- 0
