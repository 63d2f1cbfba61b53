open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec
open Resets_core

module Batch_io = Resets_net_stubs.Batch_io

type role = Send | Recv

(* How this process treats persisted sequence state across a restart —
   the recovery-discipline axis of the E17 matrix. *)
type discipline =
  | Per_sa  (** one store key per SA, recover each independently *)
  | Coalesced  (** one snapshot file per worker, all SAs together *)
  | Reestablish  (** ignore stored state; establish a fresh space *)

(* Background traffic shape during the run — the churn axis. The wire
   daemon has no IKE, so "rekey storm" is modelled at the wire level:
   the bursty on/off source that motivates message-counted SAVE
   intervals in the paper. *)
type churn = Steady | Storm | Mixed

type config = {
  role : role;
  bind : Transport_udp.addr option;
  peer : Transport_udp.addr option;
  secret : string;
  spi_base : int;
  sas : int;
  k : int;
  adaptive : bool;
  window : int;
  rate_pps : float;
  duration : float;
  store_dir : string;
  stats_path : string option;
  json_path : string option;
  workers : int;
  expect_recovery : bool;
  heartbeat : float;
  batch : int;
  rcvbuf : int option;
  sndbuf : int option;
  discipline : discipline;
  churn : churn;
  impair : Impair.spec;  (** send-path wire impairment plan *)
  impair_seed : int;
  store_faults : Faults.spec;  (** file-store fault plan *)
  fault_seed : int;
  handle_signals : bool;
      (** install a SIGTERM handler: stop early, final blocking SAVE
          per SA, terminal heartbeat *)
}

let default =
  {
    role = Recv;
    bind = Some (Transport_udp.Unix_dgram "/tmp/resets.sock");
    peer = None;
    secret = "wire-shared-secret";
    spi_base = 0x5000;
    sas = 1;
    k = 8;
    adaptive = false;
    window = 64;
    rate_pps = 200.;
    duration = 3.;
    store_dir = "/tmp/resets-store";
    stats_path = None;
    json_path = None;
    workers = 1;
    expect_recovery = false;
    heartbeat = 0.25;
    batch = Batch_io.default_batch;
    rcvbuf = None;
    sndbuf = None;
    discipline = Per_sa;
    churn = Steady;
    impair = Impair.none;
    impair_seed = 1;
    store_faults = Faults.none;
    fault_seed = 1;
    handle_signals = false;
  }

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* A SIGTERM arriving mid-syscall surfaces as EINTR; the interrupted
   wait is treated as "nothing happened" so the loop re-checks its stop
   flag instead of dying. *)
let no_eintr ~default f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> default

(* The SAVE-interval policy every SA of this daemon runs under.
   [--k auto] (adaptive) re-derives K online from the wall-clock SAVE
   latency the file store actually exhibits. *)
let policy_mode cfg =
  if cfg.adaptive then K_policy.adaptive ~initial_k:cfg.k ()
  else K_policy.static cfg.k

(* Wrap a store so every completed save reports its wall-clock latency:
   into the per-worker sample (heartbeat percentiles) and, when
   adaptive, into the SA's policy. File-store saves are synchronous, so
   the callback runs before [save] returns and the measured latency is
   the real fsync+rename cost. *)
let timed_store ~sample ~policy store =
  {
    store with
    Store.save =
      (fun ~key ~value ~on_error ~on_complete ->
        let t0 = now_ns () in
        store.Store.save ~key ~value ~on_error ~on_complete:(fun () ->
            let dt = Int64.sub (now_ns ()) t0 in
            let dt = if Int64.compare dt 0L < 0 then 0L else dt in
            Stats.Sample.add sample (Int64.to_float dt);
            (match policy with
            | Some p -> K_policy.observe_save_latency p (Time.of_ns dt)
            | None -> ());
            on_complete ()));
  }

(* ------------------------------------------------------------------ *)
(* Per-SA statistics, snapshotted by workers and aggregated by the
   main domain for heartbeats, the final report and the gate.          *)

type sa_stat = {
  spi : int;
  recovered : bool;
  recovered_from : int;  (** stored value found at startup (0 if none) *)
  sent : int;
  next_seq : int;
  delivered : int;
  min_seq : int;  (** lowest delivered seq this incarnation; 0 if none *)
  max_seq : int;
  fresh_rejected : int;
  lost : int;
      (** fresh messages rejected with no copy ever delivered — the
          paper's convergence cost. [fresh_rejected] also counts
          window rejections of wire-duplicated frames whose original
          got through, so only [lost] is bounded by 2k. *)
  dups : int;
  bad_icv : int;
  edge : int;
  k_now : int;  (** currently effective K (static: the configured K) *)
}

let zero_stat spi =
  {
    spi;
    recovered = false;
    recovered_from = 0;
    sent = 0;
    next_seq = 0;
    delivered = 0;
    min_seq = 0;
    max_seq = 0;
    fresh_rejected = 0;
    lost = 0;
    dups = 0;
    bad_icv = 0;
    edge = 0;
    k_now = 0;
  }

let json_of_stat s =
  Json.Obj
    [
      ("spi", Json.Int s.spi);
      ("recovered", Json.Bool s.recovered);
      ("recovered_from", Json.Int s.recovered_from);
      ("sent", Json.Int s.sent);
      ("next_seq", Json.Int s.next_seq);
      ("delivered", Json.Int s.delivered);
      ("min_seq", Json.Int s.min_seq);
      ("max_seq", Json.Int s.max_seq);
      ("fresh_rejected", Json.Int s.fresh_rejected);
      ("lost", Json.Int s.lost);
      ("dups", Json.Int s.dups);
      ("bad_icv", Json.Int s.bad_icv);
      ("edge", Json.Int s.edge);
      ("k_now", Json.Int s.k_now);
    ]

(* The previous incarnation's last heartbeat: spi -> (max_seq,
   delivered). Read before this incarnation appends anything. *)
let read_prev_stats path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let last = ref None in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then last := Some line
       done
     with End_of_file -> ());
    close_in ic;
    match !last with
    | None -> []
    | Some line -> (
      match Json.parse line with
      | Error _ -> []
      | Ok j -> (
        match Option.bind (Json.member "sas" j) Json.as_list with
        | None -> []
        | Some sas ->
          List.filter_map
            (fun sa ->
              match
                ( Option.bind (Json.member "spi" sa) Json.as_int,
                  Option.bind (Json.member "max_seq" sa) Json.as_int,
                  Option.bind (Json.member "delivered" sa) Json.as_int )
              with
              | Some spi, Some max_seq, Some delivered ->
                Some (spi, (max_seq, delivered))
              | _ -> None)
            sas))
  end

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* Every heartbeat carries the writer's pid and an absolute wall-clock
   stamp: a supervisor reading the JSONL can tell incarnations apart by
   pid alone and measure restart-to-convergence times without sharing a
   clock with the daemon. [event] marks the terminal line a cleanly
   exiting daemon appends (["shutdown"], with the stop reason); its
   absence at exit is how a crash looks. *)
let append_heartbeat ?event path ~role ~elapsed_ns ~shards ~wire stats =
  append_line path
    (Json.to_string
       (Json.Obj
          ((match event with
           | Some (name, reason) ->
             [
               ("event", Json.String name); ("reason", Json.String reason);
             ]
           | None -> [])
          @ [
              ("pid", Json.Int (Unix.getpid ()));
              ("ts_ns", Json.Int (Int64.to_int (now_ns ())));
              ("elapsed_ns", Json.Int elapsed_ns);
              ( "role",
                Json.String (match role with Send -> "send" | Recv -> "recv")
              );
              ("sas", Json.List (List.map json_of_stat (Array.to_list stats)));
              (* per-shard (worker) wall-clock SAVE-latency percentiles *)
              ("save_latency_ns", Json.List shards);
              (* wire pressure: batch-fill percentiles, flush counts,
                 tx-pool high-water mark (DESIGN.md §2f) *)
              ("wire", wire);
            ])))

(* The startup heartbeat carries what a post-mortem needs to interpret
   the run's wire numbers: the configured batch, the socket-buffer
   sizes the kernel actually granted (it clamps and rounds requests),
   and the SHA-256 kernel every ICV ran on. *)
let append_startup path ~role ~batch ~rcvbuf_effective ~sndbuf_effective =
  append_line path
    (Json.to_string
       (Json.Obj
          [
            ("event", Json.String "startup");
            ("pid", Json.Int (Unix.getpid ()));
            ("ts_ns", Json.Int (Int64.to_int (now_ns ())));
            ( "role",
              Json.String (match role with Send -> "send" | Recv -> "recv") );
            ("batch", Json.Int batch);
            ("rcvbuf_effective", Json.Int rcvbuf_effective);
            ("sndbuf_effective", Json.Int sndbuf_effective);
            ("sha256_kernel", Json.String (Resets_crypto.Accel.sha256_kernel ()));
          ]))

(* ------------------------------------------------------------------ *)
(* Worker mailbox: the main domain pushes raw frames in (receive role)
   and reads stat snapshots out; the worker does the reverse. The
   mutex covers exactly these three fields.                            *)

type save_lat_snapshot = {
  lat_count : int;
  lat_p50_ns : float;
  lat_p99_ns : float;
  lat_max_ns : float;
}

let no_latencies = { lat_count = 0; lat_p50_ns = 0.; lat_p99_ns = 0.; lat_max_ns = 0. }

let snapshot_latencies sample =
  let n = Stats.Sample.count sample in
  if n = 0 then no_latencies
  else
    {
      lat_count = n;
      lat_p50_ns = Stats.Sample.percentile sample 50.;
      lat_p99_ns = Stats.Sample.percentile sample 99.;
      lat_max_ns = Stats.Sample.percentile sample 100.;
    }

let json_of_latencies ~worker l =
  Json.Obj
    [
      ("worker", Json.Int worker);
      ("count", Json.Int l.lat_count);
      ("p50", Json.Float l.lat_p50_ns);
      ("p99", Json.Float l.lat_p99_ns);
      ("max", Json.Float l.lat_max_ns);
    ]

(* A send worker's view of its private socket, snapshotted under the
   mailbox mutex alongside the SA stats. *)
type wire_snapshot = {
  w_tx : int;
  w_tx_errors : int;
  w_tx_flushes : int;
  w_tx_queue_hwm : int;
  w_rcvbuf : int;
  w_sndbuf : int;
}

let no_wire =
  {
    w_tx = 0;
    w_tx_errors = 0;
    w_tx_flushes = 0;
    w_tx_queue_hwm = 0;
    w_rcvbuf = 0;
    w_sndbuf = 0;
  }

let snapshot_wire sock =
  {
    w_tx = Transport_udp.tx_frames sock;
    w_tx_errors = Transport_udp.tx_errors sock;
    w_tx_flushes = Transport_udp.tx_flushes sock;
    w_tx_queue_hwm = Transport_udp.tx_queue_hwm sock;
    w_rcvbuf = Transport_udp.rcvbuf_effective sock;
    w_sndbuf = Transport_udp.sndbuf_effective sock;
  }

type mailbox = {
  m : Mutex.t;
  mutable frames : string list; (* newest first *)
  mutable stop : bool;
  mutable graceful : bool; (* stop came from SIGTERM: flush state *)
  mutable snapshot : sa_stat array;
  mutable save_latencies : save_lat_snapshot;
  mutable wire : wire_snapshot;
}

let make_mailbox n =
  {
    m = Mutex.create ();
    frames = [];
    stop = false;
    graceful = false;
    snapshot = Array.init n (fun _ -> zero_stat 0);
    save_latencies = no_latencies;
    wire = no_wire;
  }

let shard_indices cfg w =
  List.filter (fun i -> i mod cfg.workers = w) (List.init cfg.sas Fun.id)

let derive_sa cfg i =
  let spi = Int32.of_int (cfg.spi_base + i) in
  Sa.create (Sa.derive_params ~window_width:cfg.window ~spi ~secret:cfg.secret ())

let key_of cfg role i =
  Printf.sprintf "spi-%d-%s" (cfg.spi_base + i)
    (match role with Send -> "seq" | Recv -> "edge")

(* The worker's persistence backend, shaped by the recovery
   discipline: per-SA file-per-key ([Per_sa], [Reestablish]) or one
   snapshot file per worker holding every SA together ([Coalesced]).
   [Reestablish] additionally blinds the startup fetch — stored state
   is ignored, the SA establishes a fresh sequence space. A store-fault
   plan (keyed by worker index, so the pattern is independent of how
   the sharding interleaves) makes the backend misbehave
   deterministically. *)
let worker_store cfg ~role w =
  let faults =
    if Faults.is_none cfg.store_faults then None
    else
      Some
        (Faults.create ~spec:cfg.store_faults
           ~prng:(Prng.keyed ~seed:cfg.fault_seed ~stream:w))
  in
  match cfg.discipline with
  | Coalesced ->
    let name =
      Printf.sprintf "%s-w%d" (match role with Send -> "send" | Recv -> "recv") w
    in
    let snap = File_store.Snapshot.load ?faults ~dir:cfg.store_dir ~name () in
    ( File_store.Snapshot.store snap,
      fun ~key -> File_store.Snapshot.fetch snap ~key )
  | Per_sa | Reestablish ->
    let fs = File_store.create ~dir:cfg.store_dir in
    Option.iter (File_store.set_faults fs) faults;
    let fetch ~key =
      match cfg.discipline with
      | Reestablish -> None
      | _ -> File_store.fetch fs ~key
    in
    (File_store.store fs, fetch)

(* Final blocking SAVE on graceful shutdown: the freshest counter must
   be durable before the process exits. Saves are synchronous on the
   file store; under an injected fault plan a save may fail, so retry a
   few times and finally fall back to [preload] (which bypasses the
   plan — flushing state at shutdown is establishment-grade). *)
let final_save (st : Store.t) ~key ~value =
  let ok = ref false in
  let attempts = ref 0 in
  while (not !ok) && !attempts < 3 do
    incr attempts;
    st.Store.save ~key ~value ~on_error:ignore ~on_complete:(fun () ->
        ok := true)
  done;
  if not !ok then st.Store.preload ~key ~value

(* The churn axis as a wire traffic shape, per SA: [Storm] is the
   on/off bursty source (4x the steady rate inside bursts, idle
   between, same long-run average), [Mixed] alternates shapes by SA
   index. PRNGs are keyed by global SA index so the shape an SA sees
   is independent of the sharding. *)
let traffic_of cfg i ~gap =
  let bursty () =
    let on_gap =
      Time.of_ns (Int64.of_float (Int64.to_float (Time.to_ns gap) /. 4.))
    in
    let burst = 32 in
    let off_ns =
      Int64.of_float
        (float_of_int burst
        *. (Int64.to_float (Time.to_ns gap) -. Int64.to_float (Time.to_ns on_gap))
        )
    in
    Resets_workload.Traffic.bursty ~on_gap ~off_duration:(Time.of_ns off_ns)
      ~burst_length:burst
      ~prng:(Prng.keyed ~seed:(cfg.impair_seed lxor 0x5747) ~stream:i)
  in
  match cfg.churn with
  | Steady -> Resets_workload.Traffic.constant ~gap
  | Storm -> bursty ()
  | Mixed ->
    if i mod 2 = 0 then Resets_workload.Traffic.constant ~gap else bursty ()

(* ------------------------------------------------------------------ *)
(* Receive worker: a shard of receivers on its own engine, fed frames
   through the mailbox by the main domain's socket loop.               *)

let recv_worker cfg (mb : mailbox) w =
  let indices = shard_indices cfg w in
  let engine = Engine.create () in
  let clock = Clock.of_ns_source now_ns in
  let base_store, fetch_prior = worker_store cfg ~role:Recv w in
  let save_lat = Stats.Sample.create () in
  let by_spi = Hashtbl.create 16 in
  let states =
    List.map
      (fun i ->
        let key = key_of cfg Recv i in
        let prior = fetch_prior ~key in
        let recovered = prior <> None in
        let metrics = Metrics.create () in
        let sa = derive_sa cfg i in
        let policy = K_policy.make (policy_mode cfg) in
        let store =
          timed_store ~sample:save_lat
            ~policy:(if cfg.adaptive then Some policy else None)
            base_store
        in
        let receiver =
          Receiver.create
            ~name:(Printf.sprintf "q%d" (cfg.spi_base + i))
            ~preload_store:(not recovered) ~sa ~metrics
            ~persistence:
              (Some
                 {
                   Receiver.store;
                   key;
                   policy;
                   robust = false;
                   wakeup_buffer = true;
                   retries = 3;
                 })
            engine
        in
        let min_seq = ref 0 in
        Receiver.on_deliver receiver (fun ~seq ~payload:_ ->
            if !min_seq = 0 || seq < !min_seq then min_seq := seq);
        if recovered then begin
          (* The paper's wakeup: FETCH, leap 2k, blocking SAVE — all
             synchronous against the file store, so the receiver is up
             before the first frame is read off the wire. *)
          Receiver.reset receiver;
          Receiver.wakeup receiver ()
        end;
        Hashtbl.replace by_spi (cfg.spi_base + i)
          (fun frame -> Receiver.on_packet receiver (Packet.fresh frame));
        ( i,
          receiver,
          metrics,
          min_seq,
          recovered,
          Option.value prior ~default:0,
          policy ))
      indices
  in
  let stat_of (i, receiver, (metrics : Metrics.t), min_seq, recovered, prior, policy)
      =
    {
      spi = cfg.spi_base + i;
      recovered;
      recovered_from = prior;
      sent = 0;
      next_seq = 0;
      delivered = metrics.Metrics.delivered;
      min_seq = !min_seq;
      max_seq = Metrics.max_delivered_seq metrics;
      fresh_rejected = metrics.Metrics.fresh_rejected;
      lost = metrics.Metrics.fresh_rejected_undelivered;
      dups = metrics.Metrics.duplicate_deliveries;
      bad_icv = metrics.Metrics.bad_icv;
      edge = Receiver.right_edge receiver;
      k_now = K_policy.current policy;
    }
  in
  let publish () =
    let snap = Array.of_list (List.map stat_of states) in
    Mutex.lock mb.m;
    mb.snapshot <- snap;
    mb.save_latencies <- snapshot_latencies save_lat;
    Mutex.unlock mb.m
  in
  publish ();
  let hb = Time.of_ns (Int64.of_float (cfg.heartbeat *. 1e9)) in
  let rec tick () =
    publish ();
    ignore (Engine.schedule_after engine ~after:hb tick)
  in
  ignore (Engine.schedule_after engine ~after:hb tick);
  let process frame =
    match Esp.spi_of_packet frame with
    | None -> ()
    | Some spi -> (
      match Hashtbl.find_opt by_spi (Int32.to_int spi) with
      | Some deliver -> deliver frame
      | None -> ())
  in
  let idle ~due:_ =
    Mutex.lock mb.m;
    let frames = mb.frames in
    mb.frames <- [];
    let stop = mb.stop in
    Mutex.unlock mb.m;
    List.iter process (List.rev frames);
    if stop then Engine.stop engine
    else if frames = [] then no_eintr ~default:() (fun () -> Unix.sleepf 0.002)
  in
  ignore
    (Engine.run_clocked ~clock ~idle ~until:(Time.of_sec cfg.duration) engine);
  (* Drain what the main domain pushed between our last pop and its
     own shutdown, so late frames still count. *)
  Mutex.lock mb.m;
  let rest = mb.frames in
  mb.frames <- [];
  let graceful = mb.graceful in
  Mutex.unlock mb.m;
  List.iter process (List.rev rest);
  (* Graceful (SIGTERM) stop: make every SA's freshest edge durable
     before exiting, so the next incarnation recovers from the true
     edge instead of the last periodic SAVE. *)
  if graceful then
    List.iter
      (fun (i, receiver, _, _, _, _, _) ->
        final_save base_store ~key:(key_of cfg Recv i)
          ~value:(Receiver.right_edge receiver))
      states;
  publish ()

(* ------------------------------------------------------------------ *)
(* Send worker: a shard of senders, each worker with a socket of its
   own (sockets are single-owner).                                     *)

let send_worker cfg (mb : mailbox) w =
  let indices = shard_indices cfg w in
  let engine = Engine.create () in
  let clock = Clock.of_ns_source now_ns in
  let base_store, fetch_prior = worker_store cfg ~role:Send w in
  let save_lat = Stats.Sample.create () in
  let sock =
    Transport_udp.create ?peer:cfg.peer ~batch:cfg.batch ?rcvbuf:cfg.rcvbuf
      ?sndbuf:cfg.sndbuf ()
  in
  let transport = Transport_udp.transport sock in
  let gap = Time.of_ns (Int64.of_float (1e9 /. cfg.rate_pps)) in
  let states =
    List.map
      (fun i ->
        let key = key_of cfg Send i in
        let prior = fetch_prior ~key in
        let recovered = prior <> None in
        let metrics = Metrics.create () in
        let sa = derive_sa cfg i in
        let policy = K_policy.make (policy_mode cfg) in
        let store =
          timed_store ~sample:save_lat
            ~policy:(if cfg.adaptive then Some policy else None)
            base_store
        in
        (* The impairment plan sits on the sender's view of the wire,
           one instance per SA keyed by global index: deterministic
           per stream, independent of the sharding. *)
        let sa_transport =
          if Impair.is_none cfg.impair then transport
          else
            Impair.wrap
              (Impair.create ~spec:cfg.impair
                 ~prng:(Prng.keyed ~seed:cfg.impair_seed ~stream:i))
              transport
        in
        let sender =
          Sender.create
            ~name:(Printf.sprintf "p%d" (cfg.spi_base + i))
            ~preload_store:(not recovered) ~sa ~transport:sa_transport
            ~traffic:(traffic_of cfg i ~gap)
            ~metrics
            ~persistence:
              (Some
                 {
                   Sender.store;
                   key;
                   policy;
                   trigger = Sender.On_count;
                   retries = 3;
                 })
            engine
        in
        if recovered then begin
          Sender.reset sender;
          Sender.wakeup sender ()
        end;
        Sender.start sender;
        (i, sender, metrics, recovered, Option.value prior ~default:0, policy))
      indices
  in
  let stat_of (i, sender, (metrics : Metrics.t), recovered, prior, policy) =
    {
      (zero_stat (cfg.spi_base + i)) with
      recovered;
      recovered_from = prior;
      sent = metrics.Metrics.sent;
      next_seq = Sender.next_seq sender;
      k_now = K_policy.current policy;
    }
  in
  let publish () =
    let snap = Array.of_list (List.map stat_of states) in
    Mutex.lock mb.m;
    mb.snapshot <- snap;
    mb.save_latencies <- snapshot_latencies save_lat;
    mb.wire <- snapshot_wire sock;
    Mutex.unlock mb.m
  in
  publish ();
  let hb = Time.of_ns (Int64.of_float (cfg.heartbeat *. 1e9)) in
  let rec tick () =
    publish ();
    ignore (Engine.schedule_after engine ~after:hb tick)
  in
  ignore (Engine.schedule_after engine ~after:hb tick);
  let idle ~due =
    (* About to wait: push whatever the burst staged so a batch never
       sits in the tx pool across an idle period. *)
    ignore (Transport_udp.flush sock : int);
    Mutex.lock mb.m;
    let stop = mb.stop in
    Mutex.unlock mb.m;
    if stop then Engine.stop engine
    else
      no_eintr ~default:() (fun () ->
          match due with
          | None -> Unix.sleepf 0.002
          | Some d ->
            let ahead = Time.to_sec d -. Time.to_sec (Clock.elapsed clock) in
            if ahead > 0. then Unix.sleepf (Float.min ahead 0.01))
  in
  ignore
    (Engine.run_clocked ~clock ~idle
       ~tick:(fun () -> ignore (Transport_udp.flush sock : int))
       ~until:(Time.of_sec cfg.duration) engine);
  ignore (Transport_udp.flush sock : int);
  Mutex.lock mb.m;
  let graceful = mb.graceful in
  Mutex.unlock mb.m;
  (* Graceful (SIGTERM) stop: the sender's next_seq must be durable so
     the next incarnation never reuses a sequence number. *)
  if graceful then
    List.iter
      (fun (i, sender, _, _, _, _) ->
        final_save base_store ~key:(key_of cfg Send i)
          ~value:(Sender.next_seq sender))
      states;
  publish ();
  Transport_udp.close sock

(* ------------------------------------------------------------------ *)

let aggregate mailboxes =
  let stats =
    Array.concat
      (Array.to_list
         (Array.map
            (fun mb ->
              Mutex.lock mb.m;
              let s = Array.copy mb.snapshot in
              Mutex.unlock mb.m;
              s)
            mailboxes))
  in
  Array.sort (fun a b -> compare a.spi b.spi) stats;
  stats

(* Gate: did every SA converge after the restart, within the paper's
   bound, with no cross-incarnation replay? Returns violation strings
   (empty = pass). *)
let check_gate cfg ~prev stats =
  (* Adaptive daemons may legitimately run a larger K than configured;
     the convergence budget scales with the policy's worst case. *)
  let leap = 2 * K_policy.bound_of_mode (policy_mode cfg) in
  List.concat_map
    (fun s ->
      let fail fmt = Printf.ksprintf (fun m -> [ m ]) fmt in
      let v1 =
        (* Re-establishment ignores stored state by design: the SA is
           expected to come up fresh, not to recover. *)
        if cfg.discipline = Reestablish then []
        else if not s.recovered then
          fail "spi %d: no stored edge found — previous incarnation left no state"
            s.spi
        else []
      and v2 =
        if s.delivered = 0 then
          fail "spi %d: no deliveries after recovery (did not converge)" s.spi
        else []
      and v3 =
        (* The bound covers fresh messages lost outright; rejections of
           wire-duplicated frames whose original was delivered are not
           losses (the wire may duplicate freely). *)
        if s.lost > leap then
          fail "spi %d: %d fresh messages lost > 2k = %d (convergence bound \
                broken)"
            s.spi s.lost leap
        else []
      and v4 =
        if s.dups > 0 then fail "spi %d: %d duplicate deliveries" s.spi s.dups
        else []
      and v5 =
        if s.bad_icv > 0 then
          fail "spi %d: %d integrity failures on a clean wire" s.spi s.bad_icv
        else []
      and v6 =
        match List.assoc_opt s.spi prev with
        | Some (prev_max, _) when s.min_seq > 0 && s.min_seq <= prev_max ->
          fail
            "spi %d: delivered seq %d <= previous incarnation's max %d \
             (cross-incarnation replay)"
            s.spi s.min_seq prev_max
        | _ -> []
      in
      List.concat [ v1; v2; v3; v4; v5; v6 ])
    (Array.to_list stats)

let report cfg ~elapsed_s ~wire_rx ~wire_tx ~wire_tx_errors ~wire_stats ~gate
    stats =
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  let delivered = total (fun s -> s.delivered)
  and sent = total (fun s -> s.sent) in
  let pps =
    match cfg.role with
    | Recv -> float_of_int delivered /. elapsed_s
    | Send -> float_of_int sent /. elapsed_s
  in
  Json.Obj
    [
      ("role", Json.String (match cfg.role with Send -> "send" | Recv -> "recv"));
      ("sha256_kernel", Json.String (Resets_crypto.Accel.sha256_kernel ()));
      ("sas", Json.Int cfg.sas);
      ("k", Json.Int cfg.k);
      ("k_policy", Json.String (K_policy.describe (policy_mode cfg)));
      ( "discipline",
        Json.String
          (match cfg.discipline with
          | Per_sa -> "per-sa"
          | Coalesced -> "coalesced"
          | Reestablish -> "reestablish") );
      ( "churn",
        Json.String
          (match cfg.churn with
          | Steady -> "steady"
          | Storm -> "storm"
          | Mixed -> "mixed") );
      ("impair", Json.String (Impair.spec_to_string cfg.impair));
      ("store_faults", Json.String (Faults.spec_to_string cfg.store_faults));
      ("workers", Json.Int cfg.workers);
      ("elapsed_s", Json.Float elapsed_s);
      ("wire_rx", Json.Int wire_rx);
      ("wire_tx", Json.Int wire_tx);
      ("wire_tx_errors", Json.Int wire_tx_errors);
      ("batch", Json.Int cfg.batch);
      ("wire", wire_stats);
      ("sent", Json.Int sent);
      ("delivered", Json.Int delivered);
      ("pps", Json.Float pps);
      ("pps_per_core", Json.Float (pps /. float_of_int cfg.workers));
      ("per_sa", Json.List (List.map json_of_stat (Array.to_list stats)));
      ( "gate",
        Json.Obj
          [
            ("checked", Json.Bool cfg.expect_recovery);
            ("passed", Json.Bool (gate = []));
            ("violations", Json.List (List.map (fun v -> Json.String v) gate));
          ] );
    ]

let run cfg =
  if cfg.sas < 1 then invalid_arg "Daemon.run: sas must be >= 1";
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  if cfg.batch < 1 || cfg.batch > Batch_io.max_batch then
    invalid_arg
      (Printf.sprintf "Daemon.run: batch must be in [1, %d]" Batch_io.max_batch);
  if cfg.workers > cfg.sas then invalid_arg "Daemon.run: more workers than SAs";
  (match (cfg.role, cfg.bind, cfg.peer) with
  | Recv, None, _ -> invalid_arg "Daemon.run: Recv needs a bind address"
  | Send, _, None -> invalid_arg "Daemon.run: Send needs a peer address"
  | _ -> ());
  if not (Sys.file_exists cfg.store_dir) then Sys.mkdir cfg.store_dir 0o755;
  (* Graceful shutdown: a SIGTERM only raises this flag; the main loop
     notices it, stops the workers with [graceful] set (final blocking
     SAVE per SA), and appends the terminal heartbeat. The handler is
     opt-in — embedded runs (tests, the fleet supervisor's own process)
     must not have their signal dispositions stolen. *)
  let stop_requested = Atomic.make false in
  let prev_sigterm =
    if cfg.handle_signals then
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)))
    else None
  in
  (* Read the previous incarnation's last heartbeat BEFORE appending
     this incarnation's first one. *)
  let prev =
    match cfg.stats_path with
    | Some path when cfg.expect_recovery -> read_prev_stats path
    | Some _ | None -> []
  in
  let clock = Clock.of_ns_source now_ns in
  let mailboxes = Array.init cfg.workers (fun _ -> make_mailbox cfg.sas) in
  let sock =
    match cfg.role with
    | Recv ->
      Some
        (Transport_udp.create ?bind:cfg.bind ~batch:cfg.batch
           ?rcvbuf:cfg.rcvbuf ?sndbuf:cfg.sndbuf ())
    | Send -> None
  in
  (* Frames are partitioned by SPI shard straight out of the rx arena
     (no string until the shard is known to want the frame); each
     worker's chunk is then pushed under ONE lock acquisition per
     drained burst, not one per frame. *)
  let chunks = Array.make cfg.workers [] in
  Option.iter
    (fun s ->
      Transport_udp.set_slice_handler s (fun slice ->
          match Esp.spi_of_slice slice with
          | None -> ()
          | Some spi ->
            let i = Int32.to_int spi - cfg.spi_base in
            if i >= 0 && i < cfg.sas then
              (* the arena slot is reused by the next receive batch, so
                 a frame crossing domains must be materialized *)
              chunks.(i mod cfg.workers) <-
                Slice.to_string slice :: chunks.(i mod cfg.workers)))
    sock;
  let dispatch () =
    for w = 0 to cfg.workers - 1 do
      match chunks.(w) with
      | [] -> ()
      | chunk ->
        chunks.(w) <- [];
        let mb = mailboxes.(w) in
        Mutex.lock mb.m;
        (* both lists are newest-first and [chunk] is strictly newer *)
        mb.frames <- chunk @ mb.frames;
        Mutex.unlock mb.m
    done
  in
  let pool = Domain_pool.create ~domains:cfg.workers ~init:(fun _ -> ()) () in
  let futures =
    Array.init cfg.workers (fun w ->
        Domain_pool.submit pool (fun () ->
            match cfg.role with
            | Recv -> recv_worker cfg mailboxes.(w) w
            | Send -> send_worker cfg mailboxes.(w) w))
  in
  (* A send daemon's sockets live in its workers; its wire stats reach
     the main domain through the mailbox snapshots. *)
  let wire_of_workers () =
    Array.fold_left
      (fun acc (mb : mailbox) ->
        Mutex.lock mb.m;
        let w = mb.wire in
        Mutex.unlock mb.m;
        {
          w_tx = acc.w_tx + w.w_tx;
          w_tx_errors = acc.w_tx_errors + w.w_tx_errors;
          w_tx_flushes = acc.w_tx_flushes + w.w_tx_flushes;
          w_tx_queue_hwm = max acc.w_tx_queue_hwm w.w_tx_queue_hwm;
          w_rcvbuf = max acc.w_rcvbuf w.w_rcvbuf;
          w_sndbuf = max acc.w_sndbuf w.w_sndbuf;
        })
      no_wire mailboxes
  in
  let wire_json () =
    match sock with
    | Some s ->
      Json.Obj
        [
          ("rx_frames", Json.Int (Transport_udp.rx_frames s));
          ("rx_dropped", Json.Int (Transport_udp.rx_dropped s));
          ("rx_batches", Json.Int (Transport_udp.rx_batches s));
          ("rx_batch_p50", Json.Int (Transport_udp.rx_batch_percentile s 0.5));
          ("rx_batch_p99", Json.Int (Transport_udp.rx_batch_percentile s 0.99));
          ("rx_batch_max", Json.Int (Transport_udp.rx_batch_max s));
          ("rcvbuf_effective", Json.Int (Transport_udp.rcvbuf_effective s));
        ]
    | None ->
      let w = wire_of_workers () in
      Json.Obj
        [
          ("tx_frames", Json.Int w.w_tx);
          ("tx_errors", Json.Int w.w_tx_errors);
          ("tx_flushes", Json.Int w.w_tx_flushes);
          ("tx_queue_hwm", Json.Int w.w_tx_queue_hwm);
          ("sndbuf_effective", Json.Int w.w_sndbuf);
        ]
  in
  (* Startup heartbeat: the effective socket-buffer sizes. The send
     role's sockets are worker-owned, so give the workers a moment to
     publish their first snapshot. *)
  (match cfg.stats_path with
  | None -> ()
  | Some path ->
    let rcv, snd =
      match sock with
      | Some s ->
        (Transport_udp.rcvbuf_effective s, Transport_udp.sndbuf_effective s)
      | None ->
        let deadline = Unix.gettimeofday () +. 1.0 in
        let rec wait () =
          let w = wire_of_workers () in
          if w.w_sndbuf > 0 || Unix.gettimeofday () > deadline then
            (w.w_rcvbuf, w.w_sndbuf)
          else begin
            Unix.sleepf 0.005;
            wait ()
          end
        in
        wait ()
    in
    append_startup path ~role:cfg.role ~batch:cfg.batch ~rcvbuf_effective:rcv
      ~sndbuf_effective:snd);
  (* Main loop: drain the socket (receive role) and emit heartbeats
     until the wall-clock duration elapses. *)
  let next_hb = ref cfg.heartbeat in
  let heartbeat ?event () =
    match cfg.stats_path with
    | None -> ()
    | Some path ->
      let shards =
        List.mapi
          (fun w (mb : mailbox) ->
            Mutex.lock mb.m;
            let l = mb.save_latencies in
            Mutex.unlock mb.m;
            json_of_latencies ~worker:w l)
          (Array.to_list mailboxes)
      in
      append_heartbeat ?event path ~role:cfg.role
        ~elapsed_ns:(Int64.to_int (Time.to_ns (Clock.elapsed clock)))
        ~shards ~wire:(wire_json ()) (aggregate mailboxes)
  in
  let rec main_loop () =
    let elapsed = Time.to_sec (Clock.elapsed clock) in
    if elapsed < cfg.duration && not (Atomic.get stop_requested) then begin
      if elapsed >= !next_hb then begin
        heartbeat ();
        next_hb := !next_hb +. cfg.heartbeat
      end;
      (match sock with
      | Some s ->
        if
          no_eintr ~default:false (fun () ->
              Transport_udp.wait_readable s ~timeout:0.02)
        then begin
          ignore (Transport_udp.drain s);
          dispatch ()
        end
      | None -> no_eintr ~default:() (fun () -> Unix.sleepf 0.02));
      main_loop ()
    end
  in
  main_loop ();
  (* One last sweep of the socket so frames that raced shutdown still
     reach their shard before the workers' final drain. *)
  (match sock with
  | Some s ->
    ignore (Transport_udp.drain s);
    dispatch ()
  | None -> ());
  let graceful = Atomic.get stop_requested in
  Array.iter
    (fun mb ->
      Mutex.lock mb.m;
      mb.stop <- true;
      mb.graceful <- graceful;
      Mutex.unlock mb.m)
    mailboxes;
  Array.iter Domain_pool.await futures;
  Domain_pool.shutdown pool;
  Option.iter (Sys.set_signal Sys.sigterm) prev_sigterm;
  let elapsed_s = Time.to_sec (Clock.elapsed clock) in
  let stats = aggregate mailboxes in
  (* Terminal heartbeat: a cleanly exiting daemon always leaves one,
     stamped with why it stopped. Its absence marks a crash. *)
  heartbeat
    ~event:("shutdown", if graceful then "sigterm" else "duration")
    ();
  let wire_rx =
    match sock with Some s -> Transport_udp.rx_frames s | None -> 0
  in
  let wire_stats = wire_json () in
  let ww = wire_of_workers () in
  Option.iter Transport_udp.close sock;
  let gate =
    if cfg.expect_recovery && cfg.role = Recv then check_gate cfg ~prev stats
    else []
  in
  let rep =
    report cfg ~elapsed_s ~wire_rx ~wire_tx:ww.w_tx
      ~wire_tx_errors:ww.w_tx_errors ~wire_stats ~gate stats
  in
  Option.iter (fun path -> Json.write_file path rep) cfg.json_path;
  ((if gate = [] then 0 else 2), rep)
