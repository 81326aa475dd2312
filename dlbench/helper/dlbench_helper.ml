(* The benchmark's in-process half.

   dlbench_helper gen WORKLOAD SEED DIR
     Make the seeded inputs of a serve workload: DIR/input.trace (the
     platform the daemon is started on, plus the requests the stream was
     made from), DIR/stream.txt (one protocol command per line, in send
     order) and DIR/workload.json (daemon flags).

   dlbench_helper replay WORKLOAD DIR [TRACE]
     Replay DIR/stream.txt through Serve.Server.handle_line on a
     virtual-clock engine armed with Snapshot.arm, configured exactly like
     the daemon.  Writes every reply line to DIR/replay_replies.txt and a
     JSON summary (final metrics, invariant verdict, in-process counters)
     to DIR/replay.json.  With TRACE, each command runs inside a
     "server.command" span and the spans go to TRACE as JSON lines.

   dlbench_helper offline SEED SECONDS MIN_PASSES WIDTH DIR [TRACE]
     The offline workload: parse a seeded instance set, solve it once at
     pool width 1 for the deterministic counters, then in timed passes at
     pool width WIDTH (0: the default width; Max_flow for flow and
     stretch, Makespan, Preemptive on the small instances), at least
     MIN_PASSES and until SECONDS have passed, validating every result.
     With TRACE, the timed passes are traced.  Writes DIR/offline.json. *)

module Rat = Numeric.Rat
module W = Gripps.Workload
module T = Serve.Trace
module R = Obs.Registry
module I = Sched_core.Instance
module S = Sched_core.Schedule
module Inv = Check.Invariants

(* --- JSON output ------------------------------------------------------ *)

let jstr s = "\"" ^ Obs.Encode.escape s ^ "\""
let jfloat f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let jint = string_of_int
let jobj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"
let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let write_file path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
           | _ -> None)
    |> Option.value ~default:0
  | exception Sys_error _ -> 0

(* --- serve workloads -------------------------------------------------- *)

type serve_workload = {
  policy : (module Online.Sim.POLICY);
  snapshot_every : int;
  make : int -> T.t * string list;  (** seed -> inputs, stream *)
}

(* Every serve workload runs on one GriPPS platform: 4 machines, 3 banks,
   replication 2, the platform [Trace.diurnal] draws for seed 1.  The seed
   varies the traffic, not the hardware, so that runs on different seeds
   load the cluster alike. *)
let platform = lazy (T.diurnal ~seed:1 ~peak_rate:0.2 ~count:1 ()).T.platform

let centis r = int_of_string (Rat.to_string (Rat.mul r (Rat.of_int 100)))
let tick_cmd d = let c = centis d in Printf.sprintf "tick %d.%02d" (c / 100) (c mod 100)

(* Walk the trace in time order: [tick] up to each arrival date, then the
   submit; [drain] at the end. *)
let walk (trace : T.t) =
  let now = ref Rat.zero in
  List.concat_map
    (fun (e : T.entry) ->
      let t = e.T.request.W.arrival in
      let tick = if Rat.compare t !now > 0 then [ tick_cmd (Rat.sub t !now) ] else [] in
      now := Rat.max t !now;
      tick @ [ Printf.sprintf "submit %s %d %d" e.T.id e.T.request.W.bank e.T.request.W.num_motifs ])
    (List.stable_sort
       (fun (a : T.entry) b -> Rat.compare a.T.request.W.arrival b.T.request.W.arrival)
       trace.T.entries)
  @ [ "drain" ]

let with_platform (t : T.t) = { t with T.platform = Lazy.force platform }

(* A diurnal GriPPS day (peak 0.2 requests/s, so the queue stays short)
   of 3200 requests. *)
let steady seed =
  let trace = with_platform (T.diurnal ~seed ~peak_rate:0.2 ~count:3200 ()) in
  (trace, walk trace)

(* online-opt cost varies by orders of magnitude across traces (big-limb
   blowups in a few cold LPs), so this workload pins its trace: the
   200-request diurnal trace of seed 1.  The seed only names the requests
   (ids are opaque to every scheduler). *)
let lp seed =
  let trace = T.diurnal ~seed:1 ~peak_rate:0.2 ~count:200 () in
  let entries =
    List.map (fun e -> { e with T.id = Printf.sprintf "s%d-%s" seed e.T.id }) trace.T.entries
  in
  let trace = with_platform { trace with T.entries } in
  (trace, walk trace)

let serve_workload = function
  | "serve_steady" ->
    { policy = (module Online.Policies.Mct); snapshot_every = 1000; make = steady }
  | "serve_lp" ->
    { policy = (module Online.Online_opt.Divisible); snapshot_every = 100; make = lp }
  | w -> invalid_arg ("unknown serve workload " ^ w)

(* Serving runs with a pool width of 1: the numeric tower's operation
   counters are best-effort under parallel domains (concurrent probes lose
   increments), and the engine's metrics carry them, so only a sequential
   pool makes the daemon's metrics repeat exactly and match the replay.
   The offline workload's traced run measures the pool. *)
let serve_jobs = 1

(* The daemon flags that configure [wl] like [replay] does. *)
let daemon_args wl =
  let module P = (val wl.policy : Online.Sim.POLICY) in
  [ "--policy"; P.name; "--snapshot-every"; string_of_int wl.snapshot_every;
    "--jobs"; string_of_int serve_jobs ]

let gen name seed dir =
  let wl = serve_workload name in
  let trace, stream = wl.make seed in
  T.save (Filename.concat dir "input.trace") trace;
  write_file (Filename.concat dir "stream.txt")
    (String.concat "" (List.map (fun s -> s ^ "\n") stream));
  write_file (Filename.concat dir "workload.json")
    (jobj [ ("daemon_args", jlist jstr (daemon_args wl)) ])

let read_stream dir =
  In_channel.with_open_text (Filename.concat dir "stream.txt") In_channel.input_lines

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let lp_totals (t : Lp.Instrument.totals) =
  jobj
    [ ("solves", jint t.solves); ("warm_solves", jint t.warm_solves);
      ("pivots", jint (Lp.Instrument.total_pivots t)); ("seconds", jfloat t.seconds) ]

let rat_counters () =
  let module NC = Numeric.Counters in
  jobj
    [ ("small_ops", jint (NC.small_ops ())); ("big_ops", jint (NC.big_ops ()));
      ("promotions", jint (NC.promotions ())); ("demotions", jint (NC.demotions ())) ]

let global_count name = R.count (R.counter R.global name)

let command_attrs line =
  match String.split_on_char ' ' line with
  | ("submit" as cmd) :: id :: _ -> [ ("cmd", Obs.Sink.Str cmd); ("req", Obs.Sink.Str id) ]
  | cmd :: _ -> [ ("cmd", Obs.Sink.Str cmd) ]
  | [] -> []

let replay name dir trace_path =
  let wl = serve_workload name in
  Par.Pool.set_jobs serve_jobs;
  let trace = T.load (Filename.concat dir "input.trace") in
  let stream = read_stream dir in
  let wal_dir = Filename.concat dir "replay_wal" in
  rm_rf wal_dir;
  let engine =
    Serve.Engine.create ~clock:(Serve.Clock.virtual_ ()) ~policy:wl.policy trace.T.platform
  in
  let handle = Serve.Snapshot.arm ~snapshot_every:wl.snapshot_every ~dir:wal_dir engine in
  let admission = Serve.Admission.create engine in
  let server = Serve.Server.create ~admission engine in
  let wal_names = [ "wal.appends"; "wal.fsyncs"; "wal.append_bytes"; "wal.snapshots" ] in
  let wal0 = List.map global_count wal_names in
  Numeric.Counters.reset ();
  let exact0 = Lp.Instrument.exact_totals () and approx0 = Lp.Instrument.approx_totals () in
  Option.iter (fun p -> Obs.Sink.install (Obs.Sink.file p)) trace_path;
  let t0 = Unix.gettimeofday () in
  let replies =
    List.concat_map
      (fun line ->
        Obs.Span.with_span "server.command" ~attrs:(command_attrs line) (fun () ->
            fst (Serve.Server.handle_line server ~client:"client-1" line)))
      stream
  in
  let wall = Unix.gettimeofday () -. t0 in
  Obs.Sink.uninstall ();
  let lp_exact = Lp.Instrument.(diff ~before:exact0 (exact_totals ()))
  and lp_approx = Lp.Instrument.(diff ~before:approx0 (approx_totals ())) in
  let metrics =
    match Serve.Server.handle_line server "metrics json" with
    | [ json; "ok" ], _ -> json
    | _ -> failwith "metrics json: unexpected reply"
  in
  let invariants =
    if Serve.Engine.completed engine <> Serve.Engine.submitted engine then
      Error
        (Printf.sprintf "%d of %d admitted requests incomplete after drain"
           (Serve.Engine.submitted engine - Serve.Engine.completed engine)
           (Serve.Engine.submitted engine))
    else if Serve.Engine.submitted engine = 0 then Ok ()
    else
      let sched = Serve.Engine.schedule engine in
      Result.bind (Inv.divisible sched) (fun () -> S.validate_divisible sched)
  in
  Serve.Snapshot.close handle;
  rm_rf wal_dir;
  write_file (Filename.concat dir "replay_replies.txt")
    (String.concat "" (List.map (fun r -> r ^ "\n") replies));
  write_file (Filename.concat dir "replay.json")
    (jobj
       [ ("metrics", metrics);
         ("invariants", match invariants with Ok () -> jstr "ok" | Error m -> jstr m);
         ("wall_s", jfloat wall);
         ("rat", rat_counters ());
         ("lp_exact", lp_totals lp_exact);
         ("lp_approx", lp_totals lp_approx);
         ( "wal",
           jobj (List.map2 (fun n c0 -> (n, jint (global_count n - c0))) wal_names wal0) );
         ("jobs", jint (Par.Pool.jobs ()));
         ("recommended_domains", jint (Domain.recommended_domain_count ()));
         ("ocaml", jstr Sys.ocaml_version) ])

(* --- offline workload ------------------------------------------------- *)

(* The instance set is fixed: 54 unrelated-machine GriPPS instances
   (random 4- or 5-machine platforms, Poisson requests at 0.1/s) drawn from
   generator seed 2005 — forty small ones (6-12 jobs, also solved by
   Preemptive) and one of each even size from 14 to 40 jobs.  Solve cost varies several-fold between instances
   of one size, so a seeded set would make runs on different seeds
   incomparable; the benchmark seed only shuffles the solve order. *)
let offline_sizes =
  List.concat (List.init 10 (fun _ -> [ 6; 8; 10; 12 ])) @ List.init 14 (fun k -> 14 + (2 * k))

let preemptive_max = 12

let offline_set seed =
  let rng = Gripps.Prng.create 2005 in
  let set =
    Array.of_list
      (List.map
         (fun n ->
           let machines = 4 + Gripps.Prng.int rng 2 in
           let p = W.random_platform rng ~machines ~banks:3 ~replication:2 in
           W.to_instance p
             (W.poisson_requests rng ~rate:0.1 ~count:n ~max_motifs:60 ~banks:3))
         offline_sizes)
  in
  Gripps.Prng.shuffle (Gripps.Prng.create seed) set;
  Array.to_list set

(* Set-up samples taken before each pass. *)
let setup_per_pass = 10

let check what = function Ok () -> None | Error m -> Some (what ^ ": " ^ m)

let rat_eq what a b =
  if Rat.equal a b then None
  else Some (Printf.sprintf "%s: %s <> %s" what (Rat.to_string a) (Rat.to_string b))

let offline seed seconds min_passes width dir trace_path =
  let set_dir = Filename.concat dir "instances" in
  rm_rf set_dir;
  Sys.mkdir set_dir 0o755;
  let files =
    List.mapi
      (fun k inst ->
        let f = Filename.concat set_dir (Printf.sprintf "%02d.inst" k) in
        Sched_core.Instance_io.save f inst;
        f)
      (offline_set seed)
  in
  (* Set-up: parse the instance set from its files.  A batch of set-up
     samples precedes every timed pass, so that they spread over the run. *)
  let parse () = List.map Sched_core.Instance_io.load files in
  let setup = ref [] in
  let setup_batch () =
    for _ = 1 to setup_per_pass do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (parse ()));
      setup := (Unix.gettimeofday () -. t0) :: !setup
    done
  in
  let insts = parse () in
  let calls = ref [] and instances = ref [] and failures = ref [] and checked = ref 0 in
  let stretches = ref [] and flows = ref [] in
  let fail k msg = failures := Printf.sprintf "instance %d: %s" k msg :: !failures in
  (* [pass] is -1 for the counting pass and -2 for the warm-up pass,
     neither timed nor traced; timed passes count from 0. *)
  let solve_one pass k inst =
    let timed kind f =
      incr checked;
      if pass < 0 then f ()
      else begin
        let t0 = Unix.gettimeofday () in
        let r = Obs.Span.with_span ("offline." ^ kind) ~attrs:[ ("instance", Obs.Sink.Int k) ] f in
        calls := (kind, Unix.gettimeofday () -. t0) :: !calls;
        r
      end
    in
    let t0 = Unix.gettimeofday () in
    let mf = timed "maxflow" (fun () -> Sched_core.Max_flow.solve inst) in
    let ms = timed "stretch" (fun () -> Sched_core.Max_flow.solve_max_stretch inst) in
    let mk = timed "makespan" (fun () -> Sched_core.Makespan.solve inst) in
    let pre =
      if I.num_jobs inst <= preemptive_max then
        Some (timed "preemptive" (fun () -> Sched_core.Preemptive.solve inst))
      else None
    in
    if pass >= 0 then instances := (pass, Unix.gettimeofday () -. t0, I.num_jobs inst) :: !instances;
    List.iter
      (Option.iter (fail k))
      ([ check "max-flow" (Inv.solution ~objective:mf.objective mf.schedule);
         check "max-stretch" (Inv.solution ~objective:ms.objective ms.schedule);
         check "makespan" (Inv.divisible mk.Sched_core.Makespan.schedule);
         rat_eq "makespan objective" mk.makespan (S.makespan mk.schedule);
         check "makespan bound"
           (if Rat.compare mk.makespan (Sched_core.Makespan.lower_bound inst) >= 0 then Ok ()
            else Error "below the lower bound") ]
      @
      match pre with
      | None -> []
      | Some p ->
        [ check "preemptive" (Inv.preemptive p.Sched_core.Preemptive.schedule);
          check "preemptive objective"
            (Inv.objective_consistent ~objective:p.objective p.schedule);
          check "preemptive dominance"
            (if Rat.compare p.objective mf.objective >= 0 then Ok ()
             else Error "preemptive optimum below the divisible one") ]);
    if pass = -1 then
      for j = 0 to I.num_jobs inst - 1 do
        stretches := Rat.to_float (S.weighted_flow ms.schedule j) :: !stretches;
        flows := Rat.to_float (S.flow mf.schedule j) :: !flows
      done
  in
  (* The counting pass runs first in the process and at width 1: which
     probes run, and so the pivot and big-limb counts, depend on timing
     once the pool is wider, and concurrent domains lose increments of
     the numeric counters. *)
  let counters =
    Par.Pool.with_jobs 1 (fun () ->
        Numeric.Counters.reset ();
        let exact0 = Lp.Instrument.exact_totals () and approx0 = Lp.Instrument.approx_totals () in
        List.iteri (solve_one (-1)) insts;
        jobj
          [ ("rat", rat_counters ());
            ("lp_exact", lp_totals Lp.Instrument.(diff ~before:exact0 (exact_totals ())));
            ("lp_approx", lp_totals Lp.Instrument.(diff ~before:approx0 (approx_totals ()))) ])
  in
  if width > 0 then Par.Pool.set_jobs width;
  (* The first pass at a width above 1 starts the pool's domains and ran
     15-25% slower than the passes after it: it is a warm-up, checked but
     not timed.  At width 1 the counting pass warms up. *)
  if Par.Pool.jobs () > 1 then List.iteri (solve_one (-2)) insts;
  Option.iter (fun p -> Obs.Sink.install (Obs.Sink.file p)) trace_path;
  let t_start = Unix.gettimeofday () in
  let pass = ref 0 in
  while !pass < min_passes || Unix.gettimeofday () -. t_start < seconds do
    if trace_path = None then setup_batch ();
    List.iteri (solve_one !pass) insts;
    incr pass
  done;
  Obs.Sink.uninstall ();
  let rev_floats xs = jlist jfloat (List.rev xs) in
  write_file (Filename.concat dir "offline.json")
    (jobj
       [ ("setup_s", rev_floats !setup);
         ("passes", jint !pass);
         ("instances_per_pass", jint (List.length insts));
         ("checked_calls", jint !checked);
         ( "calls",
           jlist (fun (k, s) -> jobj [ ("kind", jstr k); ("s", jfloat s) ]) (List.rev !calls) );
         ( "instances",
           jlist
             (fun (p, s, n) -> jobj [ ("pass", jint p); ("s", jfloat s); ("jobs", jint n) ])
             (List.rev !instances) );
         ("failures", jlist jstr (List.rev !failures));
         ("stretch", rev_floats !stretches);
         ("flow", rev_floats !flows);
         ("counters", counters);
         ("peak_rss_kb", jint (peak_rss_kb ()));
         ("jobs", jint (Par.Pool.jobs ()));
         ("recommended_domains", jint (Domain.recommended_domain_count ()));
         ("ocaml", jstr Sys.ocaml_version) ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; dir ] -> gen w (int_of_string seed) dir
  | [ "replay"; w; dir ] -> replay w dir None
  | [ "replay"; w; dir; trace ] -> replay w dir (Some trace)
  | "offline" :: seed :: secs :: passes :: width :: dir :: trace ->
    offline (int_of_string seed) (float_of_string secs) (int_of_string passes)
      (int_of_string width) dir
      (match trace with [ t ] -> Some t | _ -> None)
  | _ ->
    prerr_endline
      "usage: dlbench_helper gen WORKLOAD SEED DIR | replay WORKLOAD DIR [TRACE] | \
       offline SEED SECONDS MIN_PASSES WIDTH DIR [TRACE]";
    exit 2
