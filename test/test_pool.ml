(* Tests for the deterministic worker pool. *)

module Pool = Pnut_exec.Pool

let test_resolve () =
  Alcotest.(check int) "explicit count" 3 (Pool.resolve ~jobs:3 ());
  Alcotest.(check bool) "auto is at least 1" true (Pool.resolve ~jobs:0 () >= 1);
  Alcotest.(check int) "capped at 64" 64 (Pool.resolve ~jobs:1000 ());
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool: jobs must be >= 0, got -2") (fun () ->
      ignore (Pool.resolve ~jobs:(-2) ()))

let test_init_matches_serial () =
  let f i = (i * i) + 1 in
  let expected = Array.init 100 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.init ~jobs 100 f))
    [ 1; 2; 4; 7 ]

let test_init_edges () =
  Alcotest.(check (array int)) "empty" [||] (Pool.init ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "single" [| 0 |]
    (Pool.init ~jobs:4 1 (fun i -> i));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Pool.init: negative size") (fun () ->
      ignore (Pool.init ~jobs:1 (-1) (fun i -> i)))

let test_map_list () =
  let l = List.init 37 (fun i -> i) in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun x -> x * 2) l)
    (Pool.map_list ~jobs:3 (fun x -> x * 2) l)

let test_lowest_index_error () =
  (* several tasks fail; the exception of the lowest-numbered one must
     surface, whatever worker hit it first *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d" jobs)
        (Failure "task 5")
        (fun () ->
          ignore
            (Pool.init ~jobs 32 (fun i ->
                 if i >= 5 && i mod 3 = 2 then
                   failwith (Printf.sprintf "task %d" i);
                 i))))
    [ 1; 2; 4 ]

let test_workers_really_cover_all_tasks () =
  (* a non-trivial fold over the results catches any dropped stripe *)
  let n = 1000 in
  let sum =
    Array.fold_left ( + ) 0 (Pool.init ~jobs:4 n (fun i -> i))
  in
  Alcotest.(check int) "sum 0..999" (n * (n - 1) / 2) sum

let cores () = max 1 (Domain.recommended_domain_count ())

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () ->
      (* the empty string parses as unset on the PNUT_JOBS path *)
      Unix.putenv name (Option.value old ~default:""))
    f

let test_env_jobs_clamped () =
  (* PNUT_JOBS is auto-detection on both resolution paths, so a value
     above the core count must be clamped on both — only an explicit
     ?jobs override may oversubscribe *)
  with_env "PNUT_JOBS" "64" (fun () ->
      let c = cores () in
      Alcotest.(check int) "default (None) clamps the env value"
        (min 64 c) (Pool.resolve ());
      Alcotest.(check int) "auto (Some 0) clamps the env value"
        (min 64 c) (Pool.resolve ~jobs:0 ());
      Alcotest.(check int) "explicit override is honoured" 64
        (Pool.resolve ~jobs:64 ()))

let test_oversubscription_latch () =
  let c = cores () in
  if c + 5 > 64 then
    (* the 64-worker cap would mask oversubscription on this machine *)
    Alcotest.(check bool) "skipped: too many cores to oversubscribe" true true
  else begin
    let warnings = ref [] in
    Pool.set_warning_printer (fun m -> warnings := m :: !warnings);
    Fun.protect
      ~finally:(fun () ->
        Pool.set_warning_printer (fun m -> Printf.eprintf "%s\n%!" m);
        Pool.reset_oversubscription_latch ())
      (fun () ->
        Pool.reset_oversubscription_latch ();
        ignore (Pool.resolve ~jobs:(c + 2) () : int);
        Alcotest.(check int) "first oversubscribed resolve warns" 1
          (List.length !warnings);
        ignore (Pool.resolve ~jobs:(c + 2) () : int);
        ignore (Pool.resolve ~jobs:(c + 1) () : int);
        Alcotest.(check int) "repeating or shrinking stays quiet" 1
          (List.length !warnings);
        ignore (Pool.resolve ~jobs:(c + 5) () : int);
        Alcotest.(check int) "a larger request warns again" 2
          (List.length !warnings))
  end

(* The domain that ran task 1 of a two-task batch while task 0 waited
   for it to start, or [None] when no worker joined (task 0 gives up
   after 5 s and the caller runs task 1 itself). *)
let worker_domain () =
  let started = Atomic.make false in
  let ids =
    Pool.init ~jobs:2 2 (fun i ->
        if i = 1 then Atomic.set started true
        else begin
          let t0 = Unix.gettimeofday () in
          while
            (not (Atomic.get started)) && Unix.gettimeofday () -. t0 < 5.0
          do
            Domain.cpu_relax ()
          done
        end;
        (Domain.self () :> int))
  in
  if ids.(0) <> ids.(1) then Some ids.(1) else None

let test_quiesce_respawns () =
  match worker_domain () with
  | None -> Alcotest.(check bool) "skipped: could not spawn a worker" true true
  | Some id1 ->
    Pool.quiesce ();
    (* the next parallel call respawns the pool transparently; domain ids
       are never reused within a process, so a retired worker's
       replacement is observably a fresh domain *)
    (match worker_domain () with
    | None -> Alcotest.fail "no worker joined after quiesce"
    | Some id2 ->
      Alcotest.(check bool) "fresh worker domain after quiesce" true
        (id1 <> id2));
    Pool.quiesce ();
    (* quiescing an already-empty pool is a no-op *)
    Pool.quiesce ()

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "init matches serial" `Quick
            test_init_matches_serial;
          Alcotest.test_case "edge cases" `Quick test_init_edges;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "lowest-index error wins" `Quick
            test_lowest_index_error;
          Alcotest.test_case "full coverage" `Quick
            test_workers_really_cover_all_tasks;
          Alcotest.test_case "PNUT_JOBS clamped to cores" `Quick
            test_env_jobs_clamped;
          Alcotest.test_case "oversubscription latch per count" `Quick
            test_oversubscription_latch;
          Alcotest.test_case "quiesce retires and respawns" `Quick
            test_quiesce_respawns;
        ] );
    ]
