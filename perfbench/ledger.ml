(* The benchmark's in-process half.

   One executable, one subcommand per job; run.py decides which to run
   for a workload and turns the JSON each prints into metrics.

     sim        sim-scale, untraced: Multi_sa.run repeated for --seconds
     verify     verify, untraced: one pass over the E11 model set plus
                two chaos batches
     simtrace   the simulator ledger: the Multi_sa host rebuilt from
                Endpoint.create + Host.create and driven one Engine.step
                at a time, each step a parent span
     wiretrace  the wire ledger: the daemon worker's layers composed in
                one process over UDP loopback (Sender over a wrapped
                Transport_udp transport; slice handler -> Slice.to_string
                -> Packet.fresh -> Receiver.on_packet; File_store behind
                a wrapped Store.t)
     codec      per-call cost of the ipsec and crypto layers on
                daemon-sized frames
     setup-sim, setup-verify
                set-up probes: exit at the first delivered message, or
                at the first model verdict and first chaos schedule run

   Spans are timed only from here, around calls into each layer's
   public functions: nothing inside the library is instrumented. *)

open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec
open Resets_core

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let wall_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9
let num f = Json.Float f
let int n = Json.Int n

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Spans: per-layer totals plus a bounded in-memory log of raw spans
   (layer, start, duration, parent), written out when the job ends.
   A layer's self time is its span minus the spans opened inside it. *)

module Span = struct
  type layer = {
    name : string;
    mutable n : int;
    mutable total_ns : int;
    mutable self_ns : int;
    mutable sample : Stats.Sample.s;
  }

  let layers : layer list ref = ref []

  let layer name =
    let l =
      { name; n = 0; total_ns = 0; self_ns = 0; sample = Stats.Sample.create () }
    in
    layers := l :: !layers;
    l

  let max_depth = 16
  let child = Array.make (max_depth + 1) 0
  let open_idx = Array.make (max_depth + 1) (-1)
  let depth = ref 0
  let log_cap = 1 lsl 16
  let log_layer = Array.make log_cap ""
  let log_start = Array.make log_cap 0
  let log_dur = Array.make log_cap 0
  let log_parent = Array.make log_cap (-1)
  let logged = ref 0

  let reset () =
    List.iter
      (fun l ->
        l.n <- 0;
        l.total_ns <- 0;
        l.self_ns <- 0;
        l.sample <- Stats.Sample.create ())
      !layers;
    logged := 0

  let run l f =
    let d = !depth in
    let idx = !logged in
    if idx < log_cap then begin
      logged := idx + 1;
      log_layer.(idx) <- l.name;
      log_parent.(idx) <- (if d > 0 then open_idx.(d - 1) else -1)
    end;
    open_idx.(d) <- (if idx < log_cap then idx else -1);
    child.(d + 1) <- 0;
    depth := d + 1;
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    depth := d;
    let dur = t1 - t0 in
    l.n <- l.n + 1;
    l.total_ns <- l.total_ns + dur;
    l.self_ns <- l.self_ns + dur - child.(d + 1);
    Stats.Sample.add l.sample (float_of_int dur);
    if d > 0 then child.(d) <- child.(d) + dur;
    if idx < log_cap then begin
      log_start.(idx) <- t0;
      log_dur.(idx) <- dur
    end;
    r

  let write path =
    let oc = open_out path in
    output_string oc "layer,start_ns,dur_ns,parent\n";
    for i = 0 to min !logged log_cap - 1 do
      Printf.fprintf oc "%s,%d,%d,%d\n" log_layer.(i) log_start.(i) log_dur.(i)
        log_parent.(i)
    done;
    close_out oc

  let json l =
    let pct p =
      if Stats.Sample.count l.sample = 0 then 0.
      else Stats.Sample.percentile l.sample p
    in
    ( l.name,
      Json.Obj
        [
          ("n", int l.n);
          ("total_ns", int l.total_ns);
          ("self_ns", int l.self_ns);
          ("p50_ns", num (pct 50.));
          ("p90_ns", num (pct 90.));
          ("p99_ns", num (pct 99.));
        ] )

  let all_json () = Json.Obj (List.rev_map json !layers)
end

(* A store whose save and fetch calls are spans. *)
let traced_store ~save ~fetch (st : Store.t) =
  {
    st with
    Store.save =
      (fun ~key ~value ~on_error ~on_complete ->
        Span.run save (fun () -> st.Store.save ~key ~value ~on_error ~on_complete));
    fetch = (fun ~key -> Span.run fetch (fun () -> st.Store.fetch ~key));
    fetch_checked =
      (fun ~key -> Span.run fetch (fun () -> st.Store.fetch_checked ~key));
  }

(* ------------------------------------------------------------------ *)
(* sim-scale *)

(* A host of [sas] SAs (run.py: 256, ~37 KB of live heap each, so
   ~9.5 MB: past a 2 MiB L2, inside a shared L3); a short horizon with
   one host reset a quarter of the way in. The 2 us disk keeps the per-SA
   wakeup chain (one SAVE per SA, serialized) inside the horizon, and
   K = 4 keeps the 2K leap's rejections to 8 ms of traffic. *)
let sim_config ~sas =
  {
    Multi_sa.default_config with
    sa_count = sas;
    k = 4;
    save_latency = Time.of_us 2;
    message_gap = Time.of_ms 1;
    link_latency = Time.of_us 10;
    reset_at = Time.of_ms 10;
    downtime = Time.of_ms 1;
    horizon = Time.of_ms 40;
  }

let sim_discipline = `Save_fetch_per_sa

let outcome_json (o : Multi_sa.outcome) =
  [
    ("delivered", int o.delivered);
    ("messages_lost", int o.messages_lost);
    ("replay_accepted", int o.replay_accepted);
    ("duplicate_deliveries", int o.duplicate_deliveries);
    ("events_fired", int o.events_fired);
    ("recovered_fully", Json.Bool o.recovered_fully);
  ]

let outcome_key (o : Multi_sa.outcome) =
  (o.delivered, o.messages_lost, o.replay_accepted, o.duplicate_deliveries)

let cmd_sim ~seed ~seconds ~sas =
  let cfg = sim_config ~sas in
  let t0 = now_ns () in
  let first = ref None and calls = ref 0 and mismatches = ref 0 in
  let call_ms = ref [] and call_cpu_ms = ref [] in
  while !calls = 0 || secs_since t0 < seconds do
    let c0 = now_ns () and u0 = cpu_s () in
    let o = Multi_sa.run ~seed sim_discipline cfg in
    call_ms := (float_of_int (now_ns () - c0) /. 1e6) :: !call_ms;
    call_cpu_ms := ((cpu_s () -. u0) *. 1e3) :: !call_cpu_ms;
    (match !first with
    | None -> first := Some o
    | Some f -> if outcome_key f <> outcome_key o then incr mismatches);
    incr calls
  done;
  let o = Option.get !first in
  Json.Obj
    ([
       ("sas", int sas);
       ("calls", int !calls);
       ("call_ms", Json.List (List.rev_map num !call_ms));
       ("call_cpu_ms", Json.List (List.rev_map num !call_cpu_ms));
       ("mismatches", int !mismatches);
     ]
    @ outcome_json o)

(* The Multi_sa host rebuilt from its public parts — the same
   construction Shard.run_range performs for one shard — so the
   benchmark can drive Engine.step itself and make each event a span.
   [store] wraps every receiver's persistence record. *)
let build_host ~seed ~store_wrap (config : Multi_sa.config) engine =
  let n = config.sa_count in
  let disk = Sim_disk.create ~name:"disk.q" ~latency:config.save_latency engine in
  let ike_prngs = Array.make n (Prng.create 0) in
  let offsets = Array.make n Time.zero in
  let window = 64 in
  let hot = Sadb_flat.create ~capacity:(2 * n) ~w:window () in
  let window_impl = Replay_window.Flat_impl hot in
  let store = store_wrap (Sim_disk.store disk) in
  let endpoint_of g =
    let sa_prng = Prng.keyed ~seed ~stream:g in
    let link_prng = Prng.split sa_prng in
    offsets.(g) <-
      Time.of_ns
        (Int64.of_int
           (Prng.int sa_prng (Int64.to_int (Time.to_ns config.message_gap) + 1)));
    ike_prngs.(g) <- sa_prng;
    Endpoint.create
      ~sender_name:(Printf.sprintf "p%d" g)
      ~receiver_name:(Printf.sprintf "q%d" g)
      ~link_name:(Printf.sprintf "link%d" g)
      ~window ~window_impl ~link_prng ~tap:Endpoint.No_tap
      ~spi:(Int32.of_int (0x4000 + g))
      ~secret:(Printf.sprintf "multi-sa-%d" g)
      ~link_latency:config.link_latency
      ~traffic:(Resets_workload.Traffic.constant ~gap:config.message_gap)
      ~metrics:(Metrics.create ()) ~sender_persistence:None
      ~receiver_persistence:
        (Some
           {
             Receiver.store;
             key = Host.sa_key g;
             policy = K_policy.make (K_policy.static config.k);
             robust = false;
             wakeup_buffer = false;
             retries = 3;
           })
      engine
  in
  let endpoints = Array.init n endpoint_of in
  let host =
    Host.create ~k:config.k ~leap:(2 * config.k) ~ike_prngs ~first_sa:0 ~window
      ~window_impl ~spi_base:0x6000l
      ~flush_period:(Time.mul config.message_gap config.k)
      ~disk ~discipline:Host.Per_sa endpoints engine
  in
  Array.iteri
    (fun i ep ->
      ignore
        (Engine.schedule_after engine ~after:offsets.(i) (fun () ->
             Endpoint.start ep)))
    endpoints;
  ignore
    (Engine.schedule_at engine ~at:config.reset_at (fun () -> Host.reset host));
  ignore
    (Engine.schedule_at engine
       ~at:(Time.add config.reset_at config.downtime)
       (fun () -> Host.recover host ()));
  endpoints

let host_totals endpoints =
  let totals = Metrics.create () in
  Array.iter (fun ep -> Metrics.absorb ~into:totals (Endpoint.metrics ep)) endpoints;
  totals

(* Engine alone: [pending] self-rescheduling no-op timers spread over
   one message gap — the simulator's queue shape with no protocol. *)
let engine_alone ~pending ~gap_ns ~events =
  let e = Engine.create ~hint:(4 * pending) () in
  let gap = Time.of_ns (Int64.of_int gap_ns) in
  let rec arm at = ignore (Engine.schedule_at e ~at (fun () -> arm (Time.add (Engine.now e) gap))) in
  for i = 0 to pending - 1 do
    arm (Time.of_ns (Int64.of_int (i * gap_ns / max 1 pending)))
  done;
  for _ = 1 to events / 10 do
    ignore (Engine.step e)
  done;
  let w0 = Gc.minor_words () and t0 = now_ns () in
  for _ = 1 to events do
    ignore (Engine.step e)
  done;
  let dt = now_ns () - t0 in
  ( float_of_int dt /. float_of_int events,
    (Gc.minor_words () -. w0) /. float_of_int events )

let cmd_simtrace ~seed ~seconds ~sas ~spans_path =
  let cfg = sim_config ~sas in
  let share = seconds /. 3. in
  (* untraced: the public entry point, with GC counters around it *)
  let t0 = now_ns () in
  let calls = ref 0 and untraced_ns = ref 0 and words = ref 0. in
  let majors = ref 0 and events = ref 0 in
  let reference = ref None in
  while !calls = 0 || secs_since t0 < share do
    let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let c0 = now_ns () in
    let o = Multi_sa.run ~seed sim_discipline cfg in
    untraced_ns := !untraced_ns + (now_ns () - c0);
    words := !words +. (Gc.minor_words () -. w0);
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - m0;
    events := !events + o.events_fired;
    reference := Some o;
    incr calls
  done;
  let o = Option.get !reference in
  let per_call_untraced = float_of_int !untraced_ns /. float_of_int !calls in
  (* traced: the same host, one span per Engine.step *)
  let step = Span.layer "sim.step" in
  let save = Span.layer "persist.save" and fetch = Span.layer "persist.fetch" in
  Span.reset ();
  let t1 = now_ns () in
  let tcalls = ref 0 and traced_ns = ref 0 and pending_sum = ref 0 in
  let pending_n = ref 0 and composition_ok = ref true in
  let traced_delivered = ref 0 and traced_events = ref 0 in
  while !tcalls = 0 || secs_since t1 < share do
    let c0 = now_ns () in
    let engine = Engine.create ~hint:(4 * sas) () in
    let endpoints =
      build_host ~seed ~store_wrap:(traced_store ~save ~fetch) cfg engine
    in
    let k = ref 0 in
    let continue = ref true in
    while !continue do
      match Engine.next_due engine with
      | Some d when Time.compare d cfg.horizon <= 0 ->
        ignore (Span.run step (fun () -> Engine.step engine));
        incr k;
        if !k land 1023 = 0 then begin
          pending_sum := !pending_sum + Engine.pending_count engine;
          incr pending_n
        end
      | _ -> continue := false
    done;
    traced_ns := !traced_ns + (now_ns () - c0);
    let m = host_totals endpoints in
    traced_delivered := !traced_delivered + m.Metrics.delivered;
    traced_events := !traced_events + Engine.fired_count engine;
    (* composition check: the rebuilt host reaches Multi_sa's outcome *)
    if
      m.Metrics.delivered <> o.delivered
      || m.Metrics.replay_accepted <> o.replay_accepted
      || m.Metrics.duplicate_deliveries <> o.duplicate_deliveries
      || Engine.fired_count engine <> o.events_fired
    then composition_ok := false;
    incr tcalls
  done;
  let per_call_traced = float_of_int !traced_ns /. float_of_int !tcalls in
  let pending = if !pending_n = 0 then sas else !pending_sum / !pending_n in
  let alone_ns, alone_words =
    engine_alone ~pending
      ~gap_ns:(Int64.to_int (Time.to_ns cfg.message_gap))
      ~events:(min 2_000_000 (max 100_000 (o.events_fired)))
  in
  Option.iter Span.write spans_path;
  Json.Obj
    ([
       ("sas", int sas);
       ("untraced_calls", int !calls);
       ("untraced_ns_per_call", num per_call_untraced);
       ("words_per_event", num (!words /. float_of_int !events));
       ("major_gcs_per_call", num (float_of_int !majors /. float_of_int !calls));
       ("traced_calls", int !tcalls);
       ("traced_ns_per_call", num per_call_traced);
       ("traced_delivered", int !traced_delivered);
       ("traced_events", int !traced_events);
       ("composition_ok", Json.Bool !composition_ok);
       ("pending_timers", int pending);
       ("engine_alone_ns_per_event", num alone_ns);
       ("engine_alone_words_per_event", num alone_words);
       ("spans", Span.all_json ());
     ]
    @ outcome_json o)

(* ------------------------------------------------------------------ *)
(* verify *)

let pinned_e11 =
  (* model, violated?, states — BENCH_E11's verdicts and counts *)
  let open Resets_apn in
  let b ~p ~q = Models.{ s_max = 3; p_resets = p; q_resets = q } in
  let leap_bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 0 } in
  let leap name leap violated states =
    ( name,
      violated,
      states,
      (fun () ->
        Models.augmented_system ~bounds:leap_bounds ~capacity:2 ?leap_p:leap ~kp:2
          ~kq:2 ~w:2 ()),
      Models.sender_freshness_holds )
  in
  [
    ( "original, q resets, adversary",
      true,
      49,
      (fun () ->
        Models.original_system ~bounds:(b ~p:0 ~q:1) ~capacity:2 ~adversary:true
          ~w:2 ()),
      Models.discrimination_holds );
    ( "augmented, p resets, adversary",
      false,
      1120,
      (fun () ->
        Models.augmented_system ~bounds:(b ~p:1 ~q:0) ~capacity:2 ~adversary:true
          ~kp:1 ~kq:1 ~w:2 ()),
      Models.all_section5_invariants );
    ( "augmented, q resets, no adversary",
      false,
      474,
      (fun () ->
        Models.augmented_system ~bounds:(b ~p:0 ~q:2) ~capacity:6 ~kp:1 ~kq:1
          ~w:2 ()),
      Models.all_section5_invariants );
    ( "augmented, both reset, adversary",
      true,
      1318,
      (fun () ->
        Models.augmented_system ~bounds:(b ~p:1 ~q:1) ~capacity:2 ~adversary:true
          ~kp:1 ~kq:1 ~w:2 ()),
      Models.all_section5_invariants );
    ( "robust receiver, both reset, adversary",
      false,
      5694,
      (fun () ->
        Models.augmented_system ~bounds:(b ~p:1 ~q:1) ~capacity:2 ~adversary:true
          ~robust:true ~kp:1 ~kq:1 ~w:2 ()),
      Models.all_section5_invariants );
    leap "sender leap = 2K (the paper's)" None false 647;
    leap "sender leap = K (ablation)" (Some 2) true 65;
    leap "sender leap = 0 (ablation)" (Some 0) true 25;
  ]

(* Stock batch: seeds drawn from --seed, which run.py sets per pass
   (every schedule must come back clean). Weak-leap batch: fixed, around seed 11, the one
   violating seed of E15's 40 — found, shrunk and replayed each pass. *)
let stock_seeds = 12
let weak_base = 9
let weak_seeds = 4

let stock_config ~seed ~n =
  {
    Resets_chaos.Explorer.default_config with
    seeds = n;
    seed_base = 1000 + (abs seed mod 100_000 * stock_seeds);
    weak_leap = false;
  }

let verify_pass ~seed ~smoke =
  let open Resets_apn in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let models = if smoke then [ List.hd pinned_e11 ] else pinned_e11 in
  let states = ref 0 and apn_ns = ref 0 and apn_words = ref 0. in
  List.iter
    (fun (name, violated, expect_states, make, invariant) ->
      let sys = make () in
      let w0 = Gc.minor_words () and t0 = now_ns () in
      let outcome = Explorer.explore ~max_states:600_000 ~invariant sys in
      apn_ns := !apn_ns + (now_ns () - t0);
      apn_words := !apn_words +. (Gc.minor_words () -. w0);
      let got_violated, n =
        match outcome with
        | Explorer.Violation { states; _ } -> (true, states)
        | Explorer.Exhausted { states } -> (false, states)
        | Explorer.Limit_reached { states } -> (false, states)
      in
      states := !states + n;
      if got_violated <> violated || n <> expect_states then
        fail "%s: %s with %d states, expected %s with %d" name
          (if got_violated then "violated" else "holds")
          n
          (if violated then "violated" else "holds")
          expect_states)
    models;
  let chaos = Resets_chaos.Explorer.default_config in
  let batch cfg =
    let stamps = ref [] in
    let w0 = Gc.minor_words () and t0 = now_ns () in
    let r =
      Resets_chaos.Explorer.explore
        ~progress:(fun _ -> stamps := now_ns () :: !stamps)
        cfg
    in
    let t1 = now_ns () in
    let last = match !stamps with s :: _ -> s | [] -> t0 in
    (r, last - t0, t1 - last, Gc.minor_words () -. w0)
  in
  let n_stock = if smoke then 2 else stock_seeds in
  let stock, stock_ns, _, stock_words = batch (stock_config ~seed ~n:n_stock) in
  if stock.violating_seeds <> [] then
    fail "stock chaos batch violated on seeds %s"
      (String.concat "," (List.map string_of_int stock.violating_seeds));
  let weak, weak_ns, shrink_ns, _ =
    batch { chaos with seeds = weak_seeds; seed_base = weak_base; weak_leap = true }
  in
  if weak.violating_seeds = [] then fail "weak-leap batch found no violation";
  (match weak.shrunk with
  | None -> fail "weak-leap counterexample was not shrunk"
  | Some _ ->
    if not weak.replay_identical then
      fail "shrunk weak-leap counterexample did not replay identically");
  let schedules = n_stock + weak_seeds in
  ( !failures,
    [
      ("models", int (List.length models));
      ("states", int !states);
      ("apn_ns", int !apn_ns);
      ("apn_words", num !apn_words);
      ("schedules", int schedules);
      ("stock_schedules", int n_stock);
      ("chaos_runs", int (stock.total_runs + weak.total_runs));
      ("stock_ns", int stock_ns);
      ("stock_words", num stock_words);
      ("weak_ns", int weak_ns);
      ("shrink_ns", int shrink_ns);
    ] )

(* One pass per process: run.py starts a fresh ledger for every pass, so
   each process's peak memory is one pass's peak. In one long-lived
   process the heap kept the high-water mark of earlier passes and grew
   in steps whose timing decided the figure. *)
let cmd_verify ~seed ~smoke =
  let p0 = now_ns () and u0 = cpu_s () in
  let failures, p = verify_pass ~seed ~smoke in
  let wall = [ ("wall_s", num (secs_since p0)); ("pass_cpu_s", num (cpu_s () -. u0)) ] in
  Json.Obj
    [
      ("pass", Json.Obj (wall @ p));
      ("failures", Json.List (List.map (fun s -> Json.String s) failures));
    ]

(* Set-up probes: launch to the first delivered message (sim-scale: the
   rebuilt host, stepped until any SA delivers) or to the first results
   (verify: one model verdict and one chaos schedule). run.py times them
   from the exec. *)
let cmd_setup_sim ~seed ~sas =
  let engine = Engine.create ~hint:(4 * sas) () in
  let endpoints = build_host ~seed ~store_wrap:Fun.id (sim_config ~sas) engine in
  let delivered () =
    Array.exists (fun ep -> (Endpoint.metrics ep).Metrics.delivered > 0) endpoints
  in
  let k = ref 0 in
  while (!k land 63 <> 0 || not (delivered ())) && Engine.step engine do
    incr k
  done;
  Json.Obj [ ("ready_wall_ns", Json.Int (Int64.to_int (wall_ns ()))) ]

let cmd_setup_verify () =
  let _, _, _, make, invariant = List.hd pinned_e11 in
  ignore (Resets_apn.Explorer.explore ~max_states:600_000 ~invariant (make ()));
  (* a fixed schedule, so the probe does the same work for every seed *)
  let chaos = stock_config ~seed:0 ~n:1 in
  ignore (Resets_chaos.Explorer.run_schedule chaos (Resets_chaos.Explorer.generate chaos 0));
  Json.Obj [ ("ready_wall_ns", Json.Int (Int64.to_int (wall_ns ()))) ]

(* ------------------------------------------------------------------ *)
(* codec: ipsec and crypto on the daemon's frames *)

let daemon_sa ~secret ~spi =
  Sa.create (Sa.derive_params ~window_width:64 ~spi:(Int32.of_int spi) ~secret ())

(* Median ns per call over [reps] batches of [n], and minor words per
   call. [f i] performs call number [i]. *)
let per_call ?(reps = 7) ~n f =
  for i = 1 to n / 4 do
    f i
  done;
  let times = ref [] and words = ref 0. in
  let next = ref 1 in
  for _ = 1 to reps do
    let w0 = Gc.minor_words () and t0 = now_ns () in
    for _ = 1 to n do
      f !next;
      incr next
    done;
    times := (float_of_int (now_ns () - t0) /. float_of_int n) :: !times;
    words := !words +. ((Gc.minor_words () -. w0) /. float_of_int n)
  done;
  (median !times, !words /. float_of_int reps)

let cmd_codec ~seed ~smoke =
  let n = if smoke then 2_000 else 40_000 in
  let sa = daemon_sa ~secret:(Printf.sprintf "perfbench-%d" seed) ~spi:0x5000 in
  let p = sa.Sa.params in
  let payload = Printf.sprintf "message-%d" 12345 in
  let frame = Esp.encap ~sa:p ~seq:12345 ~payload in
  let frame_slice = Slice.of_string frame in
  let buf = Bytes.create 256 in
  let icv_len = Sa.icv_length p.Sa.algo.Sa.integ in
  let plen = String.length payload in
  let sink = ref 0 in
  let encap =
    per_call ~n (fun i -> sink := !sink + String.length (Esp.encap ~sa:p ~seq:i ~payload))
  in
  let decap =
    per_call ~n (fun _ ->
        match Esp.decap ~sa:p frame with Ok (s, _) -> sink := !sink + s | Error _ -> ())
  in
  let window = Replay_window.create Replay_window.Bitmap_impl ~w:64 in
  let admit =
    per_call ~n (fun i ->
        if Replay_window.verdict_accepts (Replay_window.admit window i) then incr sink)
  in
  let encap_into =
    per_call ~n (fun i -> sink := !sink + Esp.encap_into ~sa:p ~seq:i ~payload buf ~off:0)
  in
  let decap_slice =
    per_call ~n (fun _ ->
        match Esp.decap_of_slice ~sa:p frame_slice with
        | Ok (s, _) -> sink := !sink + s
        | Error _ -> ())
  in
  Bytes.blit_string frame 0 buf 0 (String.length frame);
  let icv =
    per_call ~n (fun _ ->
        let st = p.Sa.crypto.Sa.hmac in
        Resets_crypto.Hmac.start st;
        Resets_crypto.Hmac.add_bytes st buf ~off:0 ~len:(String.length frame - icv_len);
        Resets_crypto.Hmac.finish_into st ~bytes:icv_len ~dst:buf
          ~dst_off:(String.length frame - icv_len))
  in
  let nonce = Bytes.make 12 '\000' in
  let cipher =
    per_call ~n (fun _ ->
        Resets_crypto.Chacha20.crypt_into p.Sa.crypto.Sa.cipher ~nonce buf ~off:12
          ~len:plen)
  in
  let pair name (ns, words) = [ (name ^ "_ns", num ns); (name ^ "_words", num words) ] in
  Json.Obj
    (List.concat
       [
         [ ("frame_bytes", int (String.length frame)); ("sink", int (!sink land 1)) ];
         pair "encap" encap;
         pair "decap" decap;
         pair "admit" admit;
         pair "encap_into" encap_into;
         pair "decap_slice" decap_slice;
         pair "icv" icv;
         pair "cipher" cipher;
         [
           ("accel_in_use", Json.Bool (Resets_crypto.Accel.in_use ()));
           ("using_mmsg", Json.Bool (Resets_net_stubs.Batch_io.using_mmsg ()));
         ];
       ])

(* ------------------------------------------------------------------ *)
(* wire ledger: the daemon worker's layers in one process *)

(* A transport whose send faces are spans around the real ones. *)
let traced_transport ~tx inner =
  let refused f =
    let st = Transport.stats inner in
    let before = st.Transport.tx_errors in
    Span.run tx f;
    st.Transport.tx_errors = before
  in
  Transport.make ~label:(Transport.label inner)
    ~send:(fun pkt -> refused (fun () -> Transport.send inner pkt))
    ~send_slice:(fun s -> refused (fun () -> Transport.send_slice inner s))
    ~set_recv:(Transport.set_recv inner)
    ~set_recv_slice:(Transport.set_recv_slice inner)
    ()

let cmd_wiretrace ~seed ~seconds ~port ~sas ~rate ~k ~store_dir ~traced ~wakeups
    ~spans_path =
  let secret = Printf.sprintf "perfbench-%d" seed in
  let spi_base = 0x5000 in
  let tx = Span.layer "net.tx" and rx = Span.layer "net.rx" in
  let copy = Span.layer "net.copy" and recv = Span.layer "core.receiver" in
  let step = Span.layer "sim.step" and wake = Span.layer "core.wakeup" in
  let rtimer = Span.layer "core.receiver_timer" in
  let save = Span.layer "persist.save" and fetch = Span.layer "persist.fetch" in
  let dir sub =
    let d = Filename.concat store_dir sub in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d
  in
  let wrap st = if traced then traced_store ~save ~fetch st else st in
  let store_r = wrap (File_store.store (File_store.create ~dir:(dir "recv"))) in
  let store_s = wrap (File_store.store (File_store.create ~dir:(dir "send"))) in
  let addr = Resets_net.Transport_udp.Udp ("127.0.0.1", port) in
  let rsock =
    Resets_net.Transport_udp.create ~bind:addr ~batch:32 ~rcvbuf:4194304 ()
  in
  let ssock =
    Resets_net.Transport_udp.create ~peer:addr ~batch:32 ~sndbuf:4194304 ()
  in
  let eng_s = Engine.create () and eng_r = Engine.create () in
  let policy () = K_policy.make (K_policy.static k) in
  let by_spi = Hashtbl.create 16 in
  let receivers =
    Array.init sas (fun i ->
        let spi = spi_base + i in
        let metrics = Metrics.create () in
        let r =
          Receiver.create ~name:(Printf.sprintf "q%d" spi)
            ~sa:(daemon_sa ~secret ~spi) ~metrics
            ~persistence:
              (Some
                 {
                   Receiver.store = store_r;
                   key = Printf.sprintf "spi-%d-edge" spi;
                   policy = policy ();
                   robust = false;
                   wakeup_buffer = true;
                   retries = 3;
                 })
            eng_r
        in
        Hashtbl.replace by_spi spi r;
        (r, metrics))
  in
  (* the daemon's receive hop, frame by frame *)
  Resets_net.Transport_udp.set_slice_handler rsock (fun slice ->
      match Esp.spi_of_slice slice with
      | None -> ()
      | Some spi -> (
        match Hashtbl.find_opt by_spi (Int32.to_int spi) with
        | None -> ()
        | Some r ->
          if traced then begin
            let pkt = Span.run copy (fun () -> Packet.fresh (Slice.to_string slice)) in
            Span.run recv (fun () -> Receiver.on_packet r pkt)
          end
          else Receiver.on_packet r (Packet.fresh (Slice.to_string slice))));
  let inner = Resets_net.Transport_udp.transport ssock in
  let transport = if traced then traced_transport ~tx inner else inner in
  let gap = Time.of_ns (Int64.of_float (1e9 *. float_of_int sas /. rate)) in
  let senders =
    Array.init sas (fun i ->
        let spi = spi_base + i in
        let metrics = Metrics.create () in
        let s =
          Sender.create ~name:(Printf.sprintf "p%d" spi)
            ~sa:(daemon_sa ~secret ~spi) ~transport
            ~traffic:(Resets_workload.Traffic.constant ~gap)
            ~metrics
            ~persistence:
              (Some
                 {
                   Sender.store = store_s;
                   key = Printf.sprintf "spi-%d-seq" spi;
                   policy = policy ();
                   trigger = Sender.On_count;
                   retries = 3;
                 })
            eng_s
        in
        Sender.start s;
        (s, metrics))
  in
  let flush () = ignore (Resets_net.Transport_udp.flush ssock : int) in
  let t0 = now_ns () and cpu0 = cpu_s () and w0 = Gc.minor_words () in
  let dur_ns = int_of_float (seconds *. 1e9) in
  let next_wakeup = ref 1 in
  (* each engine's events are spans of their own: sender events are
     [sim.step], receiver timers [core.receiver_timer] *)
  let rec fire_due eng span el =
    match Engine.next_due eng with
    | Some d when Int64.to_int (Time.to_ns d) <= el ->
      if traced then ignore (Span.run span (fun () -> Engine.step eng))
      else ignore (Engine.step eng);
      ignore (fire_due eng span el);
      true
    | _ -> false
  in
  let running = ref true in
  while !running do
    let el = now_ns () - t0 in
    if el >= dur_ns then running := false
    else begin
      if fire_due eng_s step el then
        if traced then Span.run tx flush else flush ();
      ignore (fire_due eng_r rtimer el);
      ignore
        (if traced then Span.run rx (fun () -> Resets_net.Transport_udp.drain rsock)
         else Resets_net.Transport_udp.drain rsock);
      (* in-process receiver resets: the paper's wakeup on the real
         file store, spread evenly over the run *)
      if !next_wakeup <= wakeups && el * (wakeups + 1) >= !next_wakeup * dur_ns
      then begin
        incr next_wakeup;
        Array.iter
          (fun (r, _) ->
            Receiver.reset r;
            Span.run wake (fun () -> Receiver.wakeup r ()))
          receivers
      end;
      let wait =
        match Engine.next_due eng_s with
        | Some d -> float_of_int (Int64.to_int (Time.to_ns d) - (now_ns () - t0)) /. 1e9
        | None -> 0.002
      in
      if wait > 0. then
        ignore
          (Resets_net.Transport_udp.wait_readable rsock ~timeout:(Float.min wait 0.002))
    end
  done;
  (* let the last frames land *)
  flush ();
  let settle = now_ns () in
  while now_ns () - settle < 50_000_000 do
    ignore (Resets_net.Transport_udp.drain rsock);
    ignore (Resets_net.Transport_udp.wait_readable rsock ~timeout:0.005)
  done;
  let cpu = cpu_s () -. cpu0 and words = Gc.minor_words () -. w0 in
  let sum f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr in
  let sent = sum (fun (_, (m : Metrics.t)) -> m.sent) senders in
  let delivered = sum (fun (_, (m : Metrics.t)) -> m.delivered) receivers in
  let dups = sum (fun (_, (m : Metrics.t)) -> m.duplicate_deliveries) receivers in
  let bad_icv = sum (fun (_, (m : Metrics.t)) -> m.bad_icv) receivers in
  let lost =
    sum (fun (_, (m : Metrics.t)) -> m.fresh_rejected_undelivered) receivers
  in
  let module U = Resets_net.Transport_udp in
  let result =
    Json.Obj
      [
        ("traced", Json.Bool traced);
        ("sas", int sas);
        ("k", int k);
        ("wakeups", int wakeups);
        ("wall_s", num (secs_since t0));
        ("cpu_s", num cpu);
        ("minor_words", num words);
        ("sent", int sent);
        ("delivered", int delivered);
        ("dups", int dups);
        ("bad_icv", int bad_icv);
        ("lost", int lost);
        ("tx_errors", int (U.tx_errors ssock));
        ("tx_flushes", int (U.tx_flushes ssock));
        ("rx_batches", int (U.rx_batches rsock));
        ("rx_batch_p50", int (U.rx_batch_percentile rsock 0.5));
        ("spans", Span.all_json ());
      ]
  in
  U.close ssock;
  U.close rsock;
  if traced then Option.iter Span.write spans_path;
  result

(* ------------------------------------------------------------------ *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let seed = ref 1 and seconds = ref 5. and sas = ref 16 and port = ref 0 in
  let rate = ref 32000. and k = ref 1_000_000 and store = ref "" in
  let traced = ref false and wakeups = ref 0 and smoke = ref false in
  let spans = ref "" in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--sas", Arg.Set_int sas, "N");
      ("--port", Arg.Set_int port, "P");
      ("--rate", Arg.Set_float rate, "PPS aggregate");
      ("-k", Arg.Set_int k, "K");
      ("--store", Arg.Set_string store, "DIR");
      ("--traced", Arg.Set traced, "");
      ("--wakeups", Arg.Set_int wakeups, "N");
      ("--smoke", Arg.Set smoke, "");
      ("--spans", Arg.Set_string spans, "FILE");
    ]
  in
  let argv = Array.append [| Sys.argv.(0) |] (Array.sub Sys.argv 2 (max 0 (Array.length Sys.argv - 2))) in
  (try Arg.parse_argv argv specs (fun a -> raise (Arg.Bad a)) "ledger CMD [options]"
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  let spans_path = if !spans = "" then None else Some !spans in
  let out =
    match cmd with
    | "sim" -> cmd_sim ~seed:!seed ~seconds:!seconds ~sas:!sas
    | "simtrace" -> cmd_simtrace ~seed:!seed ~seconds:!seconds ~sas:!sas ~spans_path
    | "verify" -> cmd_verify ~seed:!seed ~smoke:!smoke
    | "setup-sim" -> cmd_setup_sim ~seed:!seed ~sas:!sas
    | "setup-verify" -> cmd_setup_verify ()
    | "codec" -> cmd_codec ~seed:!seed ~smoke:!smoke
    | "wiretrace" ->
      cmd_wiretrace ~seed:!seed ~seconds:!seconds ~port:!port ~sas:!sas ~rate:!rate
        ~k:!k ~store_dir:!store ~traced:!traced ~wakeups:!wakeups ~spans_path
    | other ->
      Printf.eprintf "ledger: unknown command %S\n" other;
      exit 2
  in
  print_endline (Json.to_string out)
