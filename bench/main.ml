(* Benchmark / experiment harness.

   Regenerates every quantitative artifact in the paper (see
   EXPERIMENTS.md for the paper <-> experiment map):

     E1  Figure 1 + Theorem (i): sender reset, loss bounded by 2Kp
     E2  Figure 2 + Theorem (ii): receiver reset, discards bounded by 2Kq
     E3  Section 3 ¶1: unbounded replay acceptance without SAVE/FETCH
     E4  Section 3 ¶2: unbounded fresh discards without SAVE/FETCH
     E5  Section 3 ¶3: the wedge attack after a double reset
     E6  Section 4: the SAVE-interval rule K >= ceil(T/g) (paper: 25)
     E7  Section 3/6: recovery cost, SAVE/FETCH vs SA re-establishment
     E8  Section 4: SAVE overhead and the robustness/throughput trade
     E9  Section 2: w-Delivery under reordering
     E10 Section 6: prolonged resets over a bidirectional pair
     E11 Section 5: bounded model checking of the APN models
     E14 multi-SA scale: >= 1024 SAs through the unified Endpoint/Host path
     E15 chaos batch: fault schedules under the invariant monitor + shrinker
     E16 adaptive-K vs static-K: stealth degradation, goodput-vs-oracle frontier
     E17 reboot-convergence matrix: supervised daemon pairs, scripted kills
     MICRO bechamel microbenchmarks of the hot paths

   Run all:        dune exec bench/main.exe
   Run a subset:   dune exec bench/main.exe -- E1 E6 MICRO

   Every experiment also writes a machine-readable BENCH_<id>.json
   artifact (schema in EXPERIMENTS.md) unless --no-json is given;
   --json=DIR redirects them. *)

open Resets_sim
open Resets_core
open Resets_workload
open Resets_util

let ms = Time.of_ms
let us = Time.of_us

(* --json[=DIR] (default: on, current directory) / --no-json, plus the
   experiment picks. --domains=LIST and --sweep-sizes=LIST shape E14's
   domain sweep (defaults 1,2,4,8 and 256,1024,4096); --scale-sizes=LIST
   shapes E14's large-scale sweep (default 100000,1000000); check.sh
   uses them to keep the smoke run short. *)
let json_dir, selected, e14_domains, e14_sizes, e14_scale_sizes =
  let json_dir = ref (Some ".") in
  let picks = ref [] in
  let domains = ref [ 1; 2; 4; 8 ] in
  let sizes = ref [ 256; 1024; 4096 ] in
  let scale_sizes = ref [ 100_000; 1_000_000 ] in
  let prefixed ~prefix arg =
    let n = String.length prefix in
    if String.length arg > n && String.sub arg 0 n = prefix then
      Some (String.sub arg n (String.length arg - n))
    else None
  in
  let int_list ~flag s =
    let parse part =
      match int_of_string_opt part with
      | Some v when v > 0 -> v
      | _ ->
        Printf.eprintf "%s expects positive integers, got %s\n" flag s;
        exit 1
    in
    match List.map parse (String.split_on_char ',' s) with
    | [] ->
      Printf.eprintf "%s expects a non-empty list\n" flag;
      exit 1
    | l -> List.sort_uniq Int.compare l
  in
  List.iter
    (fun arg ->
      if arg = "--json" then json_dir := Some "."
      else if arg = "--no-json" then json_dir := None
      else
        match prefixed ~prefix:"--json=" arg with
        | Some dir -> json_dir := Some dir
        | None -> (
          match prefixed ~prefix:"--domains=" arg with
          | Some l -> domains := int_list ~flag:"--domains" l
          | None -> (
            match prefixed ~prefix:"--sweep-sizes=" arg with
            | Some l -> sizes := int_list ~flag:"--sweep-sizes" l
            | None -> (
              match prefixed ~prefix:"--scale-sizes=" arg with
              | Some l -> scale_sizes := int_list ~flag:"--scale-sizes" l
              | None ->
                if String.length arg >= 2 && String.sub arg 0 2 = "--" then begin
                  Printf.eprintf
                    "unknown flag %s (expected --json[=DIR], --no-json, \
                     --domains=LIST, --sweep-sizes=LIST, --scale-sizes=LIST \
                     or experiment ids)\n"
                    arg;
                  exit 1
                end
                else picks := String.uppercase_ascii arg :: !picks))))
    (List.tl (Array.to_list Sys.argv));
  let known =
    "E1" :: "E2" :: "E3" :: "E4" :: "E5" :: "E6" :: "E7" :: "E8" :: "E9"
    :: "E10" :: "E11" :: "E12" :: "E13" :: "E14" :: "E15" :: "E16" :: "E17"
    :: [ "MICRO" ]
  in
  List.iter
    (fun p ->
      if not (List.mem p known) then begin
        Printf.eprintf "unknown experiment %s (expected E1..E17 or MICRO)\n" p;
        exit 1
      end)
    !picks;
  (* fail before running anything if the artifact dir is unusable *)
  (match !json_dir with
  | Some dir when not (Sys.file_exists dir && Sys.is_directory dir) ->
    Printf.eprintf "--json directory %s does not exist\n" dir;
    exit 1
  | _ -> ());
  ( !json_dir,
    (match !picks with [] -> None | picks -> Some (List.rev picks)),
    !domains,
    !sizes,
    !scale_sizes )

let section id title ~claim f =
  let run =
    match selected with
    | None -> true
    | Some picks -> List.mem id picks
  in
  if run then begin
    Format.printf "@.=== %s — %s ===@." id title;
    let report = Report.create ~id ~title ~claim in
    let t0 = Unix.gettimeofday () in
    f report;
    let wall_clock_s = Unix.gettimeofday () -. t0 in
    match json_dir with
    | None -> ()
    | Some dir ->
      let path = Report.write ~dir ~wall_clock_s report in
      Format.printf "[json] %s (pass=%b)@." path (Report.pass report)
  end

let hr () = Format.printf "%s@." (String.make 78 '-')

(* Base operating point: the paper's 4 us per message and 100 us per
   SAVE (Pentium III example), clean 10 us link. *)
let operating_point ?(kp = 25) ?(kq = 25) ?(horizon = ms 40) () =
  {
    Harness.default with
    horizon;
    message_gap = us 4;
    protocol = Protocol.save_fetch ~kp ~kq ();
  }

(* ------------------------------------------------------------------ *)
(* E1 *)

let e1 report =
  Format.printf
    "Sender reset swept across the SAVE cycle. Paper: gap <= 2Kp, lost@.\
     sequence numbers <= 2Kp, no fresh message discarded (Figure 1, Thm i).@.@.";
  Report.param report "kp_sweep"
    (Json.List (List.map (fun k -> Json.Int k) [ 25; 50; 100; 200 ]));
  Report.param report "message_gap_us" (Json.Int 4);
  Report.param report "save_latency_us" (Json.Int 100);
  Format.printf "%6s %8s %12s %10s %8s %10s %6s@." "Kp" "phase" "save-state"
    "skipped" "bound" "discards" "ok";
  hr ();
  let worst = ref 0 in
  List.iter
    (fun kp ->
      List.iter
        (fun (phase, label) ->
          (* Reset lands [phase] messages after a SAVE trigger; with
             T = 100 us and 4 us messages the triggered SAVE is in
             flight for the first 25 messages of each cycle. *)
          let trigger_msg = kp * 40 in
          let reset_at = Time.add (us ((trigger_msg + phase) * 4)) (us 2) in
          let scenario =
            {
              (operating_point ~kp ()) with
              resets = Reset_schedule.single ~at:reset_at ~downtime:(ms 1) Sender;
            }
          in
          let r = Harness.run scenario in
          let m = r.Harness.metrics in
          let bound = Analysis.max_lost_seqnos ~kp in
          let ok =
            m.Metrics.skipped_seqnos > 0
            && m.Metrics.skipped_seqnos <= bound
            && m.Metrics.fresh_rejected = 0
            && m.Metrics.reused_seqnos = 0
          in
          worst := max !worst m.Metrics.skipped_seqnos;
          Report.row report ~table:"sweep"
            [
              ("kp", Json.Int kp);
              ("phase", Json.Int phase);
              ("save_state", Json.String label);
              ("skipped_seqnos", Json.Int m.Metrics.skipped_seqnos);
              ("bound_2kp", Json.Int bound);
              ("fresh_rejected", Json.Int m.Metrics.fresh_rejected);
              ("reused_seqnos", Json.Int m.Metrics.reused_seqnos);
            ];
          Report.check report
            ~name:
              (Printf.sprintf "Kp=%d phase=%d: loss <= 2Kp, no discard, no reuse" kp
                 phase)
            ~bound:(float_of_int bound)
            ~value:(float_of_int m.Metrics.skipped_seqnos)
            ok;
          Format.printf "%6d %8d %12s %10d %8d %10d %6s@." kp phase label
            m.Metrics.skipped_seqnos bound m.Metrics.fresh_rejected
            (if ok then "yes" else "NO"))
        [ (0, "in-flight"); (kp / 4, "in-flight"); (kp / 2, "done"); (kp - 1, "done") ])
    [ 25; 50; 100; 200 ];
  Report.measure report "worst_skipped" (Json.Int !worst);
  Format.printf "@.worst skipped observed: %d (every row within its 2Kp bound)@." !worst;
  (* leap ablation mid-cycle (12 messages after a SAVE trigger, while
     that SAVE is still in flight — the case the 2K leap exists for) *)
  Format.printf "@.leap ablation (Kp=25, reset mid-SAVE, 12 messages into the cycle):@.";
  Format.printf "%12s %10s %10s@." "leap" "skipped" "reused";
  List.iter
    (fun (leap, label) ->
      let scenario =
        {
          (operating_point ()) with
          protocol = Protocol.save_fetch ~leap_p:leap ~leap_q:50 ~kp:25 ~kq:25 ();
          resets =
            Reset_schedule.single
              ~at:(Time.add (us ((1000 + 12) * 4)) (us 2))
              ~downtime:(ms 1) Sender;
        }
      in
      let m = (Harness.run scenario).Harness.metrics in
      Report.row report ~table:"leap_ablation"
        [
          ("leap", Json.Int leap);
          ("label", Json.String label);
          ("skipped_seqnos", Json.Int m.Metrics.skipped_seqnos);
          ("reused_seqnos", Json.Int m.Metrics.reused_seqnos);
        ];
      (* only the paper's 2K leap must be sound; K and 0 are shown to
         reuse numbers, which E11 refutes exhaustively *)
      if leap = 50 then
        Report.check report ~name:"leap 2K reuses no sequence number" ~bound:0.
          ~value:(float_of_int m.Metrics.reused_seqnos)
          (m.Metrics.reused_seqnos = 0);
      Format.printf "%12s %10d %10d%s@." label m.Metrics.skipped_seqnos
        m.Metrics.reused_seqnos
        (if m.Metrics.reused_seqnos > 0 then "  <- UNSOUND (numbers reused)" else ""))
    [ (50, "2K (paper)"); (25, "K"); (0, "0") ]

(* ------------------------------------------------------------------ *)
(* E2 *)

let e2 report =
  Format.printf
    "Receiver reset (instant reboot) + replay-all attack after recovery.@.\
     Paper: fresh discards <= 2Kq, zero replayed messages accepted@.\
     (Figure 2, Thm ii).@.@.";
  Report.param report "kq_sweep"
    (Json.List (List.map (fun k -> Json.Int k) [ 25; 50; 100; 200 ]));
  Report.param report "attack" (Json.String "replay-all after recovery");
  Format.printf "%6s %8s %12s %10s %12s %6s@." "Kq" "discard" "bound 2Kq" "replay-in"
    "replay-rej" "ok";
  hr ();
  List.iter
    (fun kq ->
      let reset_at = Time.add (us (kq * 40 * 4)) (us 2) in
      let scenario =
        {
          (operating_point ~kq
             ~horizon:(Time.add reset_at (Time.add (ms 5) (us (kq * 40 * 5))))
             ()) with
          resets = Reset_schedule.single ~at:reset_at ~downtime:(us 1) Receiver;
          attack = Harness.Replay_all_at (Time.add (us (kq * 40 * 4)) (ms 1));
        }
      in
      let r = Harness.run scenario in
      let m = r.Harness.metrics in
      let bound = Analysis.max_fresh_discards ~kq in
      let ok =
        m.Metrics.fresh_rejected_undelivered <= bound && m.Metrics.replay_accepted = 0
      in
      Report.row report ~table:"sweep"
        [
          ("kq", Json.Int kq);
          ("fresh_discards", Json.Int m.Metrics.fresh_rejected_undelivered);
          ("bound_2kq", Json.Int bound);
          ("replay_accepted", Json.Int m.Metrics.replay_accepted);
          ("replay_rejected", Json.Int m.Metrics.replay_rejected);
        ];
      Report.check report
        ~name:(Printf.sprintf "Kq=%d: discards <= 2Kq and zero replays accepted" kq)
        ~bound:(float_of_int bound)
        ~value:(float_of_int m.Metrics.fresh_rejected_undelivered)
        ok;
      Format.printf "%6d %8d %12d %10d %12d %6s@." kq
        m.Metrics.fresh_rejected_undelivered bound m.Metrics.replay_accepted
        m.Metrics.replay_rejected
        (if ok then "yes" else "NO"))
    [ 25; 50; 100; 200 ]

(* ------------------------------------------------------------------ *)
(* E3 *)

let e3 report =
  Format.printf
    "Receiver reset while the sender is idle; the adversary replays the@.\
     entire recorded stream. Paper (Sec. 3 ¶1): without SAVE/FETCH the@.\
     number of accepted replays is unbounded (= all of history).@.@.";
  Report.param report "history_sweep"
    (Json.List (List.map (fun x -> Json.Int x) [ 1250; 2500; 5000; 10000 ]));
  Format.printf "%12s %14s %14s@." "history x" "volatile" "save/fetch";
  hr ();
  List.iter
    (fun x ->
      let stop = us (x * 4) in
      let accepted protocol =
        let scenario =
          {
            (* horizon long enough for the whole history to be
               re-injected at one replay per 4 us *)
            (operating_point ~horizon:(Time.add (Time.mul stop 2) (ms 10)) ()) with
            protocol;
            sender_stop_at = Some stop;
            resets =
              Reset_schedule.single ~at:(Time.add stop (ms 1)) ~downtime:(ms 1)
                Receiver;
            attack = Harness.Replay_all_at (Time.add stop (ms 3));
          }
        in
        (Harness.run scenario).Harness.metrics.Metrics.replay_accepted
      in
      let vol = accepted Protocol.Volatile in
      let sf = accepted (Protocol.save_fetch ~kp:25 ~kq:25 ()) in
      Report.row report ~table:"sweep"
        [
          ("history", Json.Int x);
          ("volatile_accepted", Json.Int vol);
          ("save_fetch_accepted", Json.Int sf);
        ];
      Report.check report
        ~name:(Printf.sprintf "x=%d: volatile accepts all of history" x)
        ~bound:(float_of_int (x - 1))
        ~value:(float_of_int vol)
        (vol >= x - 1);
      Report.check report
        ~name:(Printf.sprintf "x=%d: SAVE/FETCH accepts zero replays" x) ~bound:0.
        ~value:(float_of_int sf) (sf = 0);
      Format.printf "%12d %14d %14d@." x vol sf)
    [ 1250; 2500; 5000; 10000 ];
  Format.printf "@.volatile acceptance tracks history (unbounded); SAVE/FETCH is 0.@."

(* ------------------------------------------------------------------ *)
(* E4 *)

let e4 report =
  Format.printf
    "Sender reset mid-stream. Paper (Sec. 3 ¶2): without SAVE/FETCH every@.\
     fresh message up to the old window edge is discarded (unbounded);@.\
     with SAVE/FETCH, none (no reorder).@.@.";
  Report.param report "pre_reset_sweep"
    (Json.List (List.map (fun x -> Json.Int x) [ 1250; 2500; 5000; 10000 ]));
  Format.printf "%16s %14s %14s@." "pre-reset msgs" "volatile" "save/fetch";
  hr ();
  List.iter
    (fun x ->
      let reset_at = Time.add (us (x * 4)) (us 2) in
      let discards protocol =
        let scenario =
          {
            (operating_point ~horizon:(Time.add reset_at (ms 50)) ()) with
            protocol;
            resets = Reset_schedule.single ~at:reset_at ~downtime:(ms 1) Sender;
          }
        in
        (Harness.run scenario).Harness.metrics.Metrics.fresh_rejected
      in
      let vol = discards Protocol.Volatile in
      let sf = discards (Protocol.save_fetch ~kp:25 ~kq:25 ()) in
      Report.row report ~table:"sweep"
        [
          ("pre_reset_msgs", Json.Int x);
          ("volatile_discards", Json.Int vol);
          ("save_fetch_discards", Json.Int sf);
        ];
      Report.check report
        ~name:(Printf.sprintf "x=%d: volatile discards the whole restart ramp" x)
        ~bound:(float_of_int x) ~value:(float_of_int vol) (vol >= x);
      Report.check report
        ~name:(Printf.sprintf "x=%d: SAVE/FETCH discards no fresh message" x)
        ~bound:0. ~value:(float_of_int sf) (sf = 0);
      Format.printf "%16d %14d %14d@." x vol sf)
    [ 1250; 2500; 5000; 10000 ]

(* ------------------------------------------------------------------ *)
(* E5 *)

let e5 report =
  Format.printf
    "Both hosts reset; the adversary replays the newest captured message@.\
     to wedge q's window ahead of p (Sec. 3 ¶3).@.@.";
  Report.param report "resets" (Json.String "both hosts at 10 ms");
  Report.param report "attack" (Json.String "wedge at 11 ms");
  Format.printf "%-22s %12s %14s %14s@." "protocol" "wedge-in" "fresh-killed"
    "discard-bound";
  hr ();
  List.iter
    (fun (name, protocol, bound) ->
      let scenario =
        {
          (operating_point ~horizon:(ms 60) ()) with
          protocol;
          resets = Reset_schedule.both ~at:(ms 10) ~downtime:(ms 1) ();
          attack = Harness.Wedge_at (ms 11);
        }
      in
      let m = (Harness.run scenario).Harness.metrics in
      Report.row report ~table:"protocols"
        [
          ("protocol", Json.String name);
          ("wedge_accepted", Json.Int m.Metrics.replay_accepted);
          ("fresh_killed", Json.Int m.Metrics.fresh_rejected);
          ("discard_bound", Json.String bound);
        ];
      (match name with
      | "volatile" ->
        Report.check report ~name:"volatile: the wedge gets in"
          ~value:(float_of_int m.Metrics.replay_accepted)
          (m.Metrics.replay_accepted >= 1)
      | _ ->
        Report.check report
          ~name:(name ^ ": wedge rejected and fresh kills <= 2K")
          ~bound:50.
          ~value:(float_of_int m.Metrics.fresh_rejected)
          (m.Metrics.replay_accepted = 0 && m.Metrics.fresh_rejected <= 50));
      Format.printf "%-22s %12d %14d %14s@." name m.Metrics.replay_accepted
        m.Metrics.fresh_rejected bound)
    [
      ("volatile", Protocol.Volatile, "unbounded");
      ("save/fetch", Protocol.save_fetch ~kp:25 ~kq:25 (), "<= 2K = 50");
      ( "save/fetch+robust",
        Protocol.save_fetch ~robust_receiver:true ~kp:25 ~kq:25 (),
        "<= 2K = 50" );
    ]

(* ------------------------------------------------------------------ *)
(* E6 *)

let e6 report =
  Format.printf
    "Section 4's rule: K must be at least the number of messages that can@.\
     be sent during one SAVE — K >= ceil(T/g). Below the threshold, SAVEs@.\
     are superseded before completing, durable state starves, and a reset@.\
     resumes at stale numbers (reuse).@.@.";
  Format.printf "k_min table (rows: SAVE latency; columns: message gap):@.";
  Format.printf "%10s" "";
  let gaps = [ 1; 2; 4; 8; 16; 40 ] in
  List.iter (fun g -> Format.printf "%8dus" g) gaps;
  Format.printf "@.";
  List.iter
    (fun t_us ->
      Format.printf "%8dus" t_us;
      List.iter
        (fun g ->
          Format.printf "%10d" (Analysis.k_min ~save_latency:(us t_us) ~message_gap:(us g)))
        gaps;
      Format.printf "@.")
    [ 25; 50; 100; 200; 500 ];
  let k_min_paper = Analysis.k_min ~save_latency:(us 100) ~message_gap:(us 4) in
  Report.param report "save_latency_us" (Json.Int 100);
  Report.param report "message_gap_us" (Json.Int 4);
  Report.measure report "k_min_at_operating_point" (Json.Int k_min_paper);
  Report.check report ~name:"k_min(100us, 4us) = 25 (the paper's worked example)"
    ~bound:25. ~value:(float_of_int k_min_paper) (k_min_paper = 25);
  Format.printf "@.paper's operating point: T=100us, g=4us -> k_min = %d@."
    k_min_paper;
  Format.printf
    "@.simulation at that point, K swept across the threshold (sender reset@.\
     every 10 ms; reuse of a sequence number marks an unsound K):@.@.";
  Format.printf "%6s %12s %12s %10s %10s@." "K" "saves-done" "saves-lost" "skipped"
    "reused";
  hr ();
  List.iter
    (fun k ->
      let scenario =
        {
          (operating_point ~horizon:(ms 60) ()) with
          protocol = Protocol.save_fetch ~kp:k ~kq:25 ();
          resets = Reset_schedule.periodic ~every:(ms 10) ~downtime:(ms 1) ~count:4 Sender;
        }
      in
      let r = Harness.run scenario in
      let m = r.Harness.metrics in
      Report.row report ~table:"k_sweep"
        [
          ("k", Json.Int k);
          ("saves_completed", Json.Int r.Harness.saves_completed_p);
          ("saves_lost", Json.Int r.Harness.saves_lost_p);
          ("skipped_seqnos", Json.Int m.Metrics.skipped_seqnos);
          ("reused_seqnos", Json.Int m.Metrics.reused_seqnos);
          ("sound", Json.Bool (m.Metrics.reused_seqnos = 0));
        ];
      (* the threshold is sharp: K >= ceil(T/g) is sound, below is not *)
      Report.check report
        ~name:
          (Printf.sprintf "K=%d %s k_min: %s" k
             (if k >= 25 then ">=" else "<")
             (if k >= 25 then "no sequence number reused"
              else "reuse observed (rule is tight)"))
        ~value:(float_of_int m.Metrics.reused_seqnos)
        (if k >= 25 then m.Metrics.reused_seqnos = 0 else m.Metrics.reused_seqnos > 0);
      Format.printf "%6d %12d %12d %10d %10d%s@." k r.Harness.saves_completed_p
        r.Harness.saves_lost_p m.Metrics.skipped_seqnos m.Metrics.reused_seqnos
        (if m.Metrics.reused_seqnos > 0 then "  <- UNSOUND" else ""))
    [ 5; 10; 15; 20; 24; 25; 50; 100 ]

(* ------------------------------------------------------------------ *)
(* E7 *)

let e7 report =
  Format.printf
    "Recovery cost after a reset: FETCH + one blocking SAVE per SA, vs the@.\
     IETF alternative of renegotiating every SA (4 messages + 4 asymmetric@.\
     ops each). Closed-form model (IKE-lite: 2ms/op compute, 10ms RTT):@.@.";
  Format.printf "%8s %18s %14s %18s %14s@." "SAs" "reestablish" "msgs" "save/fetch"
    "msgs";
  hr ();
  let cost = Resets_ipsec.Ike.default_cost in
  List.iter
    (fun n ->
      let re = Analysis.reestablish_recovery_time ~cost ~sa_count:n in
      let sf = Analysis.save_fetch_recovery_time ~save_latency:(us 100) ~sa_count:n in
      Report.row report ~table:"closed_form"
        [
          ("sa_count", Json.Int n);
          ("reestablish_s", Json.Float (Time.to_sec re));
          ("reestablish_msgs", Json.Int (Analysis.reestablish_message_count ~sa_count:n));
          ("save_fetch_s", Json.Float (Time.to_sec sf));
          ("save_fetch_msgs", Json.Int (Analysis.save_fetch_message_count ~sa_count:n));
        ];
      Report.check report
        ~name:(Printf.sprintf "%d SAs: SAVE/FETCH recovery cheaper than re-establishment" n)
        ~bound:(Time.to_sec re) ~value:(Time.to_sec sf)
        Time.(sf < re);
      Format.printf "%8d %18s %14d %18s %14d@." n
        (Format.asprintf "%a" Time.pp re)
        (Analysis.reestablish_message_count ~sa_count:n)
        (Format.asprintf "%a" Time.pp sf)
        (Analysis.save_fetch_message_count ~sa_count:n))
    [ 1; 4; 16; 64; 256 ];
  Format.printf
    "@.measured end-to-end (single SA, receiver reboots for 1 ms, traffic at@.\
     4 us/message):@.@.";
  Format.printf "%-22s %16s %16s %14s@." "protocol" "disruption" "msgs-lost"
    "replays-in";
  hr ();
  let end_to_end = Hashtbl.create 4 in
  List.iter
    (fun (name, protocol) ->
      let scenario =
        {
          (operating_point ~horizon:(ms 80) ()) with
          protocol;
          resets = Reset_schedule.single ~at:(ms 10) ~downtime:(ms 1) Receiver;
        }
      in
      let r = Harness.run scenario in
      let m = r.Harness.metrics in
      let mean_disruption =
        if Stats.Sample.count m.Metrics.disruption_times = 0 then None
        else Some (Stats.Sample.mean m.Metrics.disruption_times)
      in
      Hashtbl.replace end_to_end name mean_disruption;
      Report.row report ~table:"end_to_end"
        [
          ("protocol", Json.String name);
          ( "mean_disruption_s",
            match mean_disruption with Some s -> Json.Float s | None -> Json.Null );
          ("msgs_lost", Json.Int m.Metrics.dropped_host_down);
          ("replay_accepted", Json.Int m.Metrics.replay_accepted);
        ];
      let disruption =
        match mean_disruption with
        | None -> "n/a"
        | Some s -> Format.asprintf "%.3f ms" (1e3 *. s)
      in
      Format.printf "%-22s %16s %16d %14d@." name disruption
        m.Metrics.dropped_host_down m.Metrics.replay_accepted)
    [
      ("save/fetch", Protocol.save_fetch ~kp:25 ~kq:25 ());
      ("reestablish (IETF)", Protocol.Reestablish { cost });
      ("volatile (unsafe)", Protocol.Volatile);
    ];
  (match
     (Hashtbl.find_opt end_to_end "save/fetch", Hashtbl.find_opt end_to_end "reestablish (IETF)")
   with
  | Some (Some sf), Some (Some re) ->
    Report.check report ~name:"end-to-end: SAVE/FETCH disruption below re-establishment"
      ~bound:re ~value:sf (sf < re)
  | _ -> Report.check report ~name:"end-to-end disruption measured for both disciplines" false);
  (* ground the IKE compute model in real work *)
  let t0 = Unix.gettimeofday () in
  let iterations = 20 in
  for _ = 1 to iterations do
    ignore (Resets_crypto.Kdf.stretch ~iterations:cost.Resets_ipsec.Ike.kdf_iterations "x")
  done;
  let per = (Unix.gettimeofday () -. t0) /. float_of_int iterations *. 1e3 in
  Report.measure report "ike_op_measured_ms" (Json.Float per);
  Report.measure report "ike_op_kdf_iterations"
    (Json.Int cost.Resets_ipsec.Ike.kdf_iterations);
  Format.printf
    "@.(one IKE-lite asymmetric op really executes %d hash iterations:@.\
     measured %.2f ms wall-clock on this machine)@."
    cost.Resets_ipsec.Ike.kdf_iterations per;
  Format.printf
    "@.multi-SA host, simulated end-to-end (shared disk; host reboot resets@.\
     every SA at once; 'coalesced' is our extension — one write persists all@.\
     edges):@.@.";
  Format.printf "%6s %-14s %14s %14s %12s %12s@." "SAs" "discipline" "ready"
    "delivering" "msgs-lost" "disk-writes";
  hr ();
  let coalesced_ready = Hashtbl.create 4 in
  List.iter
    (fun n ->
      let cfg = { Multi_sa.default_config with Multi_sa.sa_count = n } in
      List.iter
        (fun (name, d) ->
          let o = Multi_sa.run d cfg in
          if name = "coalesced" then
            Hashtbl.replace coalesced_ready n (Time.to_sec o.Multi_sa.ready_time);
          Report.row report ~table:"multi_sa"
            [
              ("sa_count", Json.Int n);
              ("discipline", Json.String name);
              ("ready_s", Json.Float (Time.to_sec o.Multi_sa.ready_time));
              ("recovery_s", Json.Float (Time.to_sec o.Multi_sa.recovery_time));
              ("recovered_fully", Json.Bool o.Multi_sa.recovered_fully);
              ("messages_lost", Json.Int o.Multi_sa.messages_lost);
              ("disk_writes", Json.Int o.Multi_sa.disk_writes);
            ];
          Format.printf "%6d %-14s %14s %13s%s %12d %12d@." n name
            (Format.asprintf "%a" Time.pp o.Multi_sa.ready_time)
            (Format.asprintf "%a" Time.pp o.Multi_sa.recovery_time)
            (if o.Multi_sa.recovered_fully then " " else ">")
            o.Multi_sa.messages_lost o.Multi_sa.disk_writes)
        [
          ("per-sa", `Save_fetch_per_sa);
          ("coalesced", `Save_fetch_coalesced);
          ("reestablish", `Reestablish);
        ])
    [ 1; 16; 64 ];
  (match (Hashtbl.find_opt coalesced_ready 1, Hashtbl.find_opt coalesced_ready 64) with
  | Some one, Some many ->
    Report.check report ~name:"coalesced recovery is O(1) in the SA count" ~bound:one
      ~value:many
      (many <= one *. 1.01)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* E14 *)

let e14 report =
  Format.printf
    "Multi-SA scale: every SA below is a full Endpoint stack (real ESP@.\
     encap/decap + HMAC per packet) sharing one engine and one receiver-@.\
     host disk — the exact datapath of E1/E2, multiplied. One host reset@.\
     wipes every SA; recovery runs the configured discipline.@.@.";
  (* A lighter operating point than E7's so 1024 SAs fit a smoke-test
     budget: 400 us per message per SA, reset at 10 ms for 1 ms, 40 ms
     horizon. *)
  let cfg ?(attack = Endpoint.No_attack) n =
    {
      Multi_sa.default_config with
      Multi_sa.sa_count = n;
      message_gap = us 400;
      reset_at = ms 10;
      downtime = ms 1;
      horizon = ms 40;
      attack;
    }
  in
  let timed_run ?attack d n =
    let t0 = Unix.gettimeofday () in
    let o = Multi_sa.run d (cfg ?attack n) in
    (o, Unix.gettimeofday () -. t0)
  in
  Format.printf "%6s %-11s %12s %13s %10s %12s %14s@." "SAs" "discipline"
    "ready" "delivering" "delivered" "events" "events/s";
  hr ();
  let ready = Hashtbl.create 8 in
  let duplicates = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun (name, d) ->
          let o, wall = timed_run d n in
          let events_per_sec =
            if wall > 0. then float_of_int o.Multi_sa.events_fired /. wall
            else 0.
          in
          Hashtbl.replace ready (name, n) o;
          duplicates := !duplicates + o.Multi_sa.duplicate_deliveries;
          Report.row report ~table:"scale"
            [
              ("sa_count", Json.Int n);
              ("discipline", Json.String name);
              ("ready_s", Json.Float (Time.to_sec o.Multi_sa.ready_time));
              ("recovery_s", Json.Float (Time.to_sec o.Multi_sa.recovery_time));
              ("recovered_fully", Json.Bool o.Multi_sa.recovered_fully);
              ("delivered", Json.Int o.Multi_sa.delivered);
              ("messages_lost", Json.Int o.Multi_sa.messages_lost);
              ("disk_writes", Json.Int o.Multi_sa.disk_writes);
              ("disk_saves_lost", Json.Int o.Multi_sa.disk_saves_lost);
              ("disk_saves_failed", Json.Int o.Multi_sa.disk_saves_failed);
              ("disk_fetches_corrupt", Json.Int o.Multi_sa.disk_fetches_corrupt);
              ("link_dropped", Json.Int o.Multi_sa.link_dropped);
              ("link_duplicated", Json.Int o.Multi_sa.link_duplicated);
              ("link_reordered", Json.Int o.Multi_sa.link_reordered);
              ("events_fired", Json.Int o.Multi_sa.events_fired);
              ("events_per_sec", Json.Float events_per_sec);
              ("wall_clock_s", Json.Float wall);
            ];
          Format.printf "%6d %-11s %12s %12s%s %10d %12d %14.0f@." n name
            (Format.asprintf "%a" Time.pp o.Multi_sa.ready_time)
            (Format.asprintf "%a" Time.pp o.Multi_sa.recovery_time)
            (if o.Multi_sa.recovered_fully then " " else ">")
            o.Multi_sa.delivered o.Multi_sa.events_fired events_per_sec)
        [ ("per-sa", `Save_fetch_per_sa); ("coalesced", `Save_fetch_coalesced) ])
    [ 64; 256; 1024 ];
  (match
     ( Hashtbl.find_opt ready ("coalesced", 64),
       Hashtbl.find_opt ready ("coalesced", 1024),
       Hashtbl.find_opt ready ("per-sa", 1024) )
   with
  | Some c64, Some c1024, Some p1024 ->
    Report.check report ~name:"1024 SAs recover fully under coalesced SAVE/FETCH"
      c1024.Multi_sa.recovered_fully;
    let c64s = Time.to_sec c64.Multi_sa.ready_time in
    let c1024s = Time.to_sec c1024.Multi_sa.ready_time in
    Report.check report
      ~name:"coalesced recovery time is flat from 64 to 1024 SAs"
      ~bound:(c64s *. 1.01) ~value:c1024s
      (c1024s <= c64s *. 1.01);
    Report.check report
      ~name:"per-SA recovery pays the disk once per SA (>= 10x coalesced at 1024)"
      ~bound:(10. *. Time.to_sec c1024.Multi_sa.ready_time)
      ~value:(Time.to_sec p1024.Multi_sa.ready_time)
      (Time.to_sec p1024.Multi_sa.ready_time
      >= 10. *. Time.to_sec c1024.Multi_sa.ready_time)
  | _ -> Report.check report ~name:"scale table complete" false);
  Report.check report ~name:"no duplicate deliveries across any scale run"
    ~bound:0. ~value:(float_of_int !duplicates) (!duplicates = 0);
  (* ---------------------------------------------------------------- *)
  (* Domain sweep: the same coalesced workload sharded over D domains.
     Protocol-level outcomes must be identical for every D (gated
     unconditionally); throughput should scale when the machine has
     the cores (gated only then — determinism is a property of the
     code, speedup a property of the hardware). *)
  let cores = Domain.recommended_domain_count () in
  Report.param report "cores" (Json.Int cores);
  Report.param report "domain_sweep"
    (Json.List (List.map (fun d -> Json.Int d) e14_domains));
  Report.param report "sweep_sizes"
    (Json.List (List.map (fun n -> Json.Int n) e14_sizes));
  Format.printf
    "@.domain sweep (coalesced): one logical host sharded over D domains@.\
     (machine reports %d core(s)):@.@."
    cores;
  Format.printf "%6s %8s %12s %9s %22s %10s %6s@." "SAs" "domains" "events/s"
    "speedup" "shard events/s" "delivered" "lost";
  hr ();
  (* protocol-level signature: every field here must be independent of
     the domain count *)
  let signature (o : Multi_sa.outcome) =
    ( o.Multi_sa.delivered,
      o.Multi_sa.messages_lost,
      o.Multi_sa.replay_accepted,
      o.Multi_sa.duplicate_deliveries,
      o.Multi_sa.adversary_injected,
      o.Multi_sa.handshake_messages,
      o.Multi_sa.recovered_fully,
      Time.to_ns o.Multi_sa.ready_time,
      Time.to_ns o.Multi_sa.recovery_time )
  in
  let baseline = Hashtbl.create 8 in
  let mismatches = ref 0 in
  let speedups = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let pool = if d > 1 then Some (Multi_sa.create_pool ~domains:d) else None in
      Fun.protect
        ~finally:(fun () -> Option.iter Domain_pool.shutdown pool)
        (fun () ->
          List.iter
            (fun n ->
              if d <= n then begin
                let t0 = Unix.gettimeofday () in
                let o = Multi_sa.run ?pool ~domains:d `Save_fetch_coalesced (cfg n) in
                let wall = Unix.gettimeofday () -. t0 in
                let events_per_sec =
                  if wall > 0. then float_of_int o.Multi_sa.events_fired /. wall
                  else 0.
                in
                (match Hashtbl.find_opt baseline n with
                | None -> Hashtbl.replace baseline n (signature o, wall)
                | Some (sig1, _) ->
                  if sig1 <> signature o then begin
                    incr mismatches;
                    Format.printf
                      "  !! %d SAs at %d domains diverges from 1 domain@." n d
                  end);
                let speedup =
                  match Hashtbl.find_opt baseline n with
                  | Some (_, wall1) when wall > 0. -> wall1 /. wall
                  | _ -> 1.
                in
                Hashtbl.replace speedups (n, d) speedup;
                let shard_eps =
                  Array.map
                    (fun (s : Multi_sa.shard_stat) ->
                      if s.Multi_sa.stat_wall_s > 0. then
                        float_of_int s.Multi_sa.stat_events_fired
                        /. s.Multi_sa.stat_wall_s
                      else 0.)
                    o.Multi_sa.shard_stats
                in
                let shard_min = Array.fold_left Float.min infinity shard_eps in
                let shard_max = Array.fold_left Float.max 0. shard_eps in
                Report.row report ~table:"domain_sweep"
                  [
                    ("sa_count", Json.Int n);
                    ("domains", Json.Int d);
                    ("events_fired", Json.Int o.Multi_sa.events_fired);
                    ("events_per_sec", Json.Float events_per_sec);
                    ("speedup_vs_1_domain", Json.Float speedup);
                    ("shard_events_per_sec_min", Json.Float shard_min);
                    ("shard_events_per_sec_max", Json.Float shard_max);
                    ("wall_clock_s", Json.Float wall);
                    ("delivered", Json.Int o.Multi_sa.delivered);
                    ("messages_lost", Json.Int o.Multi_sa.messages_lost);
                    ("replay_accepted", Json.Int o.Multi_sa.replay_accepted);
                    ( "duplicate_deliveries",
                      Json.Int o.Multi_sa.duplicate_deliveries );
                    ("recovered_fully", Json.Bool o.Multi_sa.recovered_fully);
                    ("ready_s", Json.Float (Time.to_sec o.Multi_sa.ready_time));
                    ( "recovery_s",
                      Json.Float (Time.to_sec o.Multi_sa.recovery_time) );
                  ];
                Format.printf "%6d %8d %12.0f %8.2fx %10.0f..%-10.0f %10d %6d@."
                  n d events_per_sec speedup shard_min shard_max
                  o.Multi_sa.delivered o.Multi_sa.messages_lost
              end)
            e14_sizes))
    e14_domains;
  Report.check report
    ~name:"protocol-level outcomes identical across all domain counts"
    ~bound:0. ~value:(float_of_int !mismatches) (!mismatches = 0);
  (match Hashtbl.find_opt speedups (1024, 4) with
  | Some s when cores >= 4 ->
    Report.check report ~name:"1024 SAs: >= 2.5x events/s at 4 domains"
      ~bound:2.5 ~value:s (s >= 2.5)
  | Some s ->
    Format.printf
      "@.[skip] speedup gate needs >= 4 cores (machine has %d); measured %.2fx@."
      cores s
  | None -> ());
  (* The adversary at scale: replay everything captured on all 1024
     links right after recovery. The paper's guarantee must hold on
     every SA simultaneously — and identically however many domains
     carry the simulation. *)
  Format.printf
    "@.replay-all staged against every link of 1024 SAs (coalesced),@.\
     injected at t=14 ms, after recovery:@.@.";
  let o, wall =
    timed_run ~attack:(Endpoint.Replay_all_at (ms 14)) `Save_fetch_coalesced 1024
  in
  Format.printf
    "  injected %d replays across 1024 links; accepted %d; delivered %d@."
    o.Multi_sa.adversary_injected o.Multi_sa.replay_accepted
    o.Multi_sa.delivered;
  Report.measure report "attacked_adversary_injected"
    (Json.Int o.Multi_sa.adversary_injected);
  Report.measure report "attacked_replay_accepted"
    (Json.Int o.Multi_sa.replay_accepted);
  Report.measure report "attacked_wall_clock_s" (Json.Float wall);
  Report.check report ~name:"adversary really injected at scale"
    ~bound:1024. ~value:(float_of_int o.Multi_sa.adversary_injected)
    (o.Multi_sa.adversary_injected >= 1024);
  Report.check report
    ~name:"zero replays accepted across 1024 attacked SAs (Thm ii at scale)"
    ~bound:0. ~value:(float_of_int o.Multi_sa.replay_accepted)
    (o.Multi_sa.replay_accepted = 0);
  (* the attacked run, sharded: same verdicts to the byte *)
  let o2 =
    Multi_sa.run ~domains:2 `Save_fetch_coalesced
      (cfg ~attack:(Endpoint.Replay_all_at (ms 14)) 1024)
  in
  Report.check report
    ~name:"attacked 1024-SA run identical at 1 and 2 domains"
    (signature o = signature o2);
  (* ---------------------------------------------------------------- *)
  (* Scale sweep: the timer-wheel engine + flat SADB carrying 10^5 and
     10^6 SAs through the full datapath. A leaner operating point than
     the smoke table above — a few messages per SA, one reset, one
     coalesced recovery — so a million real ESP+HMAC endpoints fit a
     bench run; the point is the engine and the hot-state layout, which
     see every timer and every per-SA word regardless of traffic
     density. Determinism is gated exactly as in the domain sweep:
     protocol outcomes must be bit-identical at every domain count. *)
  Report.param report "scale_sizes"
    (Json.List (List.map (fun n -> Json.Int n) e14_scale_sizes));
  (* K = 1 so the post-reset discard bound (2K = 2 messages) is
     outrun within a ~9-message/SA horizon; with the smoke table's
     K = 25 a lean run would end while every fresh message is still
     inside the 2K leap and no SA would ever re-deliver. *)
  let scale_cfg n =
    {
      Multi_sa.default_config with
      Multi_sa.sa_count = n;
      Multi_sa.k = 1;
      message_gap = ms 2;
      reset_at = ms 5;
      downtime = ms 1;
      horizon = ms 20;
    }
  in
  Format.printf
    "@.scale sweep (coalesced, K=1, lean traffic: ~9 messages/SA, one reset):@.@.";
  Format.printf "%8s %8s %12s %12s %11s %10s %6s@." "SAs" "domains" "events"
    "events/s" "words/event" "delivered" "lost";
  hr ();
  let scale_mismatches = ref 0 in
  let scale_all_recovered = ref true in
  List.iter
    (fun n ->
      let base_sig = ref None in
      List.iter
        (fun d ->
          if d <= n then begin
            let g0 = Gc.minor_words () in
            let t0 = Unix.gettimeofday () in
            let o = Multi_sa.run ~domains:d `Save_fetch_coalesced (scale_cfg n) in
            let wall = Unix.gettimeofday () -. t0 in
            (* allocation is only observable on the parent domain, so
               the words/event figure is reported for the inline d=1
               run and null when shards run on spawned domains *)
            let words_per_event =
              if d = 1 && o.Multi_sa.events_fired > 0 then
                Some
                  ((Gc.minor_words () -. g0)
                  /. float_of_int o.Multi_sa.events_fired)
              else None
            in
            let events_per_sec =
              if wall > 0. then float_of_int o.Multi_sa.events_fired /. wall
              else 0.
            in
            (match !base_sig with
            | None -> base_sig := Some (signature o)
            | Some s ->
              if s <> signature o then begin
                incr scale_mismatches;
                Format.printf "  !! %d SAs at %d domains diverges from 1 domain@."
                  n d
              end);
            if not o.Multi_sa.recovered_fully then scale_all_recovered := false;
            Report.row report ~table:"scale_sweep"
              [
                ("sa_count", Json.Int n);
                ("domains", Json.Int d);
                ("events_fired", Json.Int o.Multi_sa.events_fired);
                ("events_per_sec", Json.Float events_per_sec);
                ( "minor_words_per_event",
                  match words_per_event with
                  | Some w -> Json.Float w
                  | None -> Json.Null );
                ("wall_clock_s", Json.Float wall);
                ("delivered", Json.Int o.Multi_sa.delivered);
                ("messages_lost", Json.Int o.Multi_sa.messages_lost);
                ("replay_accepted", Json.Int o.Multi_sa.replay_accepted);
                ("duplicate_deliveries", Json.Int o.Multi_sa.duplicate_deliveries);
                ("recovered_fully", Json.Bool o.Multi_sa.recovered_fully);
                ("ready_s", Json.Float (Time.to_sec o.Multi_sa.ready_time));
                ("recovery_s", Json.Float (Time.to_sec o.Multi_sa.recovery_time));
              ];
            Format.printf "%8d %8d %12d %12.0f %11s %10d %6d@." n d
              o.Multi_sa.events_fired events_per_sec
              (match words_per_event with
              | Some w -> Format.asprintf "%.1f" w
              | None -> "-")
              o.Multi_sa.delivered o.Multi_sa.messages_lost
          end)
        [ 1; 2 ])
    e14_scale_sizes;
  Report.check report
    ~name:"scale sweep: protocol outcomes identical across domain counts"
    ~bound:0.
    ~value:(float_of_int !scale_mismatches)
    (!scale_mismatches = 0);
  Report.check report ~name:"scale sweep: every size recovers fully"
    !scale_all_recovered;
  (* ---------------------------------------------------------------- *)
  (* The scheduler alone at the largest pending count: the wheel's O(1)
     schedule/fire against the legacy heap's O(log n), both carrying
     [pending] concurrent periodic timers. This is the isolated form of
     the win the scale sweep rides on. *)
  let pending = List.fold_left max 1 e14_scale_sizes in
  let events = min 4_000_000 (max 500_000 (2 * pending)) in
  let wheel_eps () =
    let eng = Engine.create () in
    let gap = us 100 in
    let rec tick () = ignore (Engine.schedule_after eng ~after:gap tick) in
    for i = 1 to pending do
      ignore (Engine.schedule_at eng ~at:(Time.of_ns (Int64.of_int i)) tick)
    done;
    let g0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (Engine.run ~max_events:events eng);
    let dt = Unix.gettimeofday () -. t0 in
    ( (if dt > 0. then float_of_int events /. dt else 0.),
      (Gc.minor_words () -. g0) /. float_of_int events )
  in
  let heap_eps () =
    let eng = Engine_heap.create ~hint:(2 * pending) () in
    let gap = us 100 in
    let rec tick () = ignore (Engine_heap.schedule_after eng ~after:gap tick) in
    for i = 1 to pending do
      ignore (Engine_heap.schedule_at eng ~at:(Time.of_ns (Int64.of_int i)) tick)
    done;
    let g0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (Engine_heap.run ~max_events:events eng);
    let dt = Unix.gettimeofday () -. t0 in
    ( (if dt > 0. then float_of_int events /. dt else 0.),
      (Gc.minor_words () -. g0) /. float_of_int events )
  in
  let w_eps, w_words = wheel_eps () in
  let h_eps, h_words = heap_eps () in
  let ratio = if h_eps > 0. then w_eps /. h_eps else 0. in
  Format.printf
    "@.engine alone at %d resident timers (%d events):@.\
    \  wheel %10.0f events/s (%.1f words/event)@.\
    \  heap  %10.0f events/s (%.1f words/event)  ->  %.2fx@."
    pending events w_eps w_words h_eps h_words ratio;
  List.iter
    (fun (engine, eps, words) ->
      Report.row report ~table:"engine_scale"
        [
          ("engine", Json.String engine);
          ("pending_timers", Json.Int pending);
          ("events", Json.Int events);
          ("events_per_sec", Json.Float eps);
          ("minor_words_per_event", Json.Float words);
        ])
    [ ("wheel", w_eps, w_words); ("heap", h_eps, h_words) ];
  (* the acceptance gate: >= 4x at true scale; smaller smoke sizes get
     a looser sanity ratio (the heap's log n advantage shrinks) *)
  let floor_ratio = if pending >= 100_000 then 4.0 else 2.0 in
  Report.check report
    ~name:
      (Format.asprintf "timer wheel >= %.0fx heap events/s at %d pending timers"
         floor_ratio pending)
    ~bound:floor_ratio ~value:ratio (ratio >= floor_ratio)

(* ------------------------------------------------------------------ *)
(* E8 *)

let e8 report =
  Format.printf
    "The K trade-off: persistent-write amplification (1/K per message)@.\
     versus worst-case loss on reset (2K numbers). Background SAVEs never@.\
     block traffic, so throughput is flat; the robust receiver's blocking@.\
     catch-up is the exception, shown in the second table.@.@.";
  Format.printf "%6s %10s %14s %16s %12s@." "K" "sent" "writes-begun" "writes/msg"
    "loss-bound";
  hr ();
  List.iter
    (fun k ->
      let scenario = operating_point ~kp:k ~kq:k ~horizon:(ms 40) () in
      let r = Harness.run scenario in
      let m = r.Harness.metrics in
      let begun = r.Harness.saves_completed_p + r.Harness.saves_lost_p in
      let writes_per_msg = float_of_int begun /. float_of_int (max 1 m.Metrics.sent) in
      Report.row report ~table:"write_amplification"
        [
          ("k", Json.Int k);
          ("sent", Json.Int m.Metrics.sent);
          ("writes_begun", Json.Int begun);
          ("writes_per_msg", Json.Float writes_per_msg);
          ("loss_bound_2k", Json.Int (2 * k));
        ];
      Report.check report
        ~name:(Printf.sprintf "K=%d: write amplification tracks 1/K" k)
        ~bound:(1.05 /. float_of_int k)
        ~value:writes_per_msg
        (writes_per_msg <= 1.05 /. float_of_int k);
      Format.printf "%6d %10d %14d %16.5f %12d@." k m.Metrics.sent begun
        writes_per_msg (2 * k))
    [ 25; 50; 100; 200; 400 ];
  Format.printf
    "@.what robustness costs: the bounded-slide receiver refuses to let the@.\
     window edge outrun durable state by more than its leap, so a Kq below@.\
     k_min (whose periodic SAVEs starve) throttles delivery to disk speed.@.\
     The paper's receiver keeps full throughput there — by giving up the@.\
     guarantee (cf. E11):@.@.";
  Format.printf "%6s %14s %14s@." "Kq" "paper recv" "robust recv";
  hr ();
  List.iter
    (fun kq ->
      let run robust =
        let scenario =
          {
            (operating_point ~horizon:(ms 40) ()) with
            protocol = Protocol.save_fetch ~robust_receiver:robust ~kp:25 ~kq ();
            resets =
              Reset_schedule.periodic ~every:(ms 10) ~downtime:(ms 1) ~count:3 Sender;
          }
        in
        (Harness.run scenario).Harness.metrics.Metrics.delivered
      in
      let paper = run false and robust = run true in
      Report.row report ~table:"robust_cost"
        [
          ("kq", Json.Int kq);
          ("paper_delivered", Json.Int paper);
          ("robust_delivered", Json.Int robust);
          ("below_k_min", Json.Bool (kq < 25));
        ];
      if kq >= 25 then
        Report.check report
          ~name:(Printf.sprintf "Kq=%d >= k_min: robustness is free" kq)
          ~bound:(float_of_int paper) ~value:(float_of_int robust)
          (robust = paper);
      Format.printf "%6d %14d %14d%s@." kq paper robust
        (if kq < 25 then "   (Kq < k_min)" else ""))
    [ 2; 5; 12; 25; 100 ]

(* ------------------------------------------------------------------ *)
(* E9 *)

let e9 report =
  Format.printf
    "w-Delivery (Sec. 2): the window forgives reordering below degree w@.\
     and discards above it. 20%% of packets take a slow path that delays@.\
     them by the given number of message slots.@.@.";
  Format.printf "%8s %12s %14s %14s %14s@." "w" "delay(msgs)" "max-displace"
    "fresh-killed" "expected";
  hr ();
  List.iter
    (fun w ->
      List.iter
        (fun factor ->
          let delay_msgs = max 1 (int_of_float (float_of_int w *. factor)) in
          let scenario =
            {
              (operating_point ~horizon:(ms 40) ()) with
              window = w;
              faults =
                {
                  Link.no_faults with
                  reorder_prob = 0.2;
                  reorder_delay = us (delay_msgs * 4);
                };
            }
          in
          let m = (Harness.run scenario).Harness.metrics in
          let below_cliff = float_of_int delay_msgs < float_of_int w *. 0.8 in
          Report.row report ~table:"reorder_sweep"
            [
              ("w", Json.Int w);
              ("delay_msgs", Json.Int delay_msgs);
              ("max_displacement", Json.Int m.Metrics.max_displacement);
              ("fresh_killed", Json.Int m.Metrics.fresh_rejected_undelivered);
            ];
          if below_cliff then
            Report.check report
              ~name:
                (Printf.sprintf "w=%d delay=%d: reordering below w is forgiven" w
                   delay_msgs)
              ~bound:0.
              ~value:(float_of_int m.Metrics.fresh_rejected_undelivered)
              (m.Metrics.fresh_rejected_undelivered = 0);
          Format.printf "%8d %12d %14d %14d %14s@." w delay_msgs
            m.Metrics.max_displacement m.Metrics.fresh_rejected_undelivered
            (if below_cliff then "0 (deg < w)" else "> 0 (deg >= w)"))
        [ 0.25; 0.5; 1.5; 3.0 ])
    [ 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* E10 *)

let e10 report =
  Format.printf
    "Prolonged resets over a bidirectional pair (Sec. 6): the survivor@.\
     detects death, keeps the SA for a bounded period, and validates the@.\
     returning peer's announcement against the window's right edge.@.\
     (keep-alive = 50 ms)@.@.";
  Format.printf "%10s %14s %8s %10s %12s %14s@." "outage" "detected" "SA" "announce"
    "replay-rej" "convergence";
  hr ();
  List.iter
    (fun outage_ms ->
      let o =
        Bidirectional.run ~replay_announce:true ~reset_at:(ms 10)
          ~downtime:(ms outage_ms)
          ~horizon:(ms (120 + outage_ms))
          Bidirectional.default_config
      in
      let within_keepalive = outage_ms <= 50 in
      Report.row report ~table:"outages"
        [
          ("outage_ms", Json.Int outage_ms);
          ( "death_detected_s",
            match o.Bidirectional.death_detected_at with
            | Some t -> Json.Float (Time.to_sec t)
            | None -> Json.Null );
          ("sa_survived", Json.Bool o.Bidirectional.sa_survived);
          ("announce_accepted", Json.Bool o.Bidirectional.announce_accepted);
          ( "replayed_announce_rejected",
            Json.Bool o.Bidirectional.replayed_announce_rejected );
          ( "convergence_s",
            match o.Bidirectional.convergence_time with
            | Some t -> Json.Float (Time.to_sec t)
            | None -> Json.Null );
        ];
      Report.check report
        ~name:
          (Printf.sprintf "outage %d ms: %s" outage_ms
             (if within_keepalive then "SA kept, announce in, replay out, converges"
              else "outage beyond keep-alive tears the SA down"))
        (o.Bidirectional.replayed_announce_rejected
        &&
        if within_keepalive then
          o.Bidirectional.sa_survived && o.Bidirectional.announce_accepted
          && o.Bidirectional.convergence_time <> None
        else
          (not o.Bidirectional.sa_survived)
          && o.Bidirectional.convergence_time = None);
      Format.printf "%8dms %14s %8s %10s %12s %14s@." outage_ms
        (match o.Bidirectional.death_detected_at with
        | Some t -> Format.asprintf "%a" Time.pp t
        | None -> "never")
        (if o.Bidirectional.sa_survived then "kept" else "torn")
        (if o.Bidirectional.announce_accepted then "accepted" else "no")
        (if o.Bidirectional.replayed_announce_rejected then "yes" else "NO")
        (match o.Bidirectional.convergence_time with
        | Some t -> Format.asprintf "%a" Time.pp t
        | None -> "never"))
    [ 5; 20; 40; 60; 80 ]

(* ------------------------------------------------------------------ *)
(* E11 *)

let e11 report =
  Format.printf
    "Bounded model checking of the APN models (Sec. 5 claims as@.\
     invariants; adversary = record/replay; small bounds).@.@.";
  Format.printf "%-44s %-12s %10s@." "model / fault budget" "outcome" "states";
  hr ();
  let open Resets_apn in
  (* ~expect is the paper-derived expectation: the augmented protocol's
     theorems hold, the original protocol and the under-leap ablations
     are refuted, and the combined-reset corner (our finding) violates
     until the robust receiver closes it. *)
  let row name ~expect sys invariant =
    let t0 = Unix.gettimeofday () in
    let outcome = Explorer.explore ~max_states:600_000 ~invariant sys in
    let dt = Unix.gettimeofday () -. t0 in
    let verdict, states =
      match outcome with
      | Explorer.Exhausted { states } -> ("holds", states)
      | Explorer.Limit_reached { states } -> ("holds*", states)
      | Explorer.Violation { states; _ } -> ("VIOLATED", states)
    in
    let violated = match outcome with Explorer.Violation _ -> true | _ -> false in
    Report.row report ~table:"models"
      [
        ("model", Json.String name);
        ("outcome", Json.String verdict);
        ("states", Json.Int states);
        ("explore_s", Json.Float dt);
      ];
    Report.check report
      ~name:
        (Printf.sprintf "%s: expected %s" name
           (if expect = `Violated then "VIOLATED" else "holds"))
      ~value:(float_of_int states)
      (violated = (expect = `Violated));
    Format.printf "%-44s %-12s %10d   (%.1fs)@." name verdict states dt;
    outcome
  in
  let b ~p ~q = Models.{ s_max = 3; p_resets = p; q_resets = q } in
  ignore
    (row "original, q resets, adversary" ~expect:`Violated
       (Models.original_system ~bounds:(b ~p:0 ~q:1) ~capacity:2 ~adversary:true ~w:2 ())
       Models.discrimination_holds);
  ignore
    (row "augmented, p resets, adversary" ~expect:`Holds
       (Models.augmented_system ~bounds:(b ~p:1 ~q:0) ~capacity:2 ~adversary:true ~kp:1
          ~kq:1 ~w:2 ())
       Models.all_section5_invariants);
  ignore
    (row "augmented, q resets, no adversary" ~expect:`Holds
       (Models.augmented_system ~bounds:(b ~p:0 ~q:2) ~capacity:6 ~kp:1 ~kq:1 ~w:2 ())
       Models.all_section5_invariants);
  (match
     row "augmented, both reset, adversary" ~expect:`Violated
       (Models.augmented_system ~bounds:(b ~p:1 ~q:1) ~capacity:2 ~adversary:true ~kp:1
          ~kq:1 ~w:2 ())
       Models.all_section5_invariants
   with
  | Explorer.Violation { trace; _ } ->
    Report.measure report "combined_reset_counterexample"
      (Json.List (List.map (fun step -> Json.String step) trace));
    Format.printf "  counterexample: %s@." (String.concat " ; " trace)
  | Explorer.Exhausted _ | Explorer.Limit_reached _ -> ());
  ignore
    (row "robust receiver, both reset, adversary" ~expect:`Holds
       (Models.augmented_system ~bounds:(b ~p:1 ~q:1) ~capacity:2 ~adversary:true
          ~robust:true ~kp:1 ~kq:1 ~w:2 ())
       Models.all_section5_invariants);
  (* the leap itself, machine-checked to be tight *)
  let leap_bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 0 } in
  List.iter
    (fun (name, leap, expect) ->
      ignore
        (row name ~expect
           (Models.augmented_system ~bounds:leap_bounds ~capacity:2 ?leap_p:leap ~kp:2
              ~kq:2 ~w:2 ())
           Models.sender_freshness_holds))
    [
      ("sender leap = 2K (the paper's)", None, `Holds);
      ("sender leap = K (ablation)", Some 2, `Violated);
      ("sender leap = 0 (ablation)", Some 0, `Violated);
    ];
  Format.printf
    "@.the 'both reset' violation is the jump corner the paper's Section 5@.\
     leaves to the reader; the robust (bounded-slide) receiver closes it.@.\
     The leap rows confirm 2K is tight: K and 0 are refuted.@."

(* ------------------------------------------------------------------ *)
(* E12 *)

let e12 report =
  Format.printf
    "Planned SA rollover (the paper's 'lifetimes of the keys' attribute):@.\
     make-before-break renegotiates a margin before expiry and keeps both@.\
     epochs installed until in-flight traffic drains; hard expiry stops and@.\
     renegotiates. Old epochs' persisted counters are retired either way.@.@.";
  Format.printf "%-20s %8s %10s %8s %14s %10s@." "strategy" "rekeys" "delivered"
    "lost" "max-gap" "keys-live";
  hr ();
  List.iter
    (fun (name, strategy) ->
      let o = Rekey.run strategy Rekey.default_config in
      Report.row report ~table:"strategies"
        [
          ("strategy", Json.String name);
          ("rekeys_completed", Json.Int o.Rekey.rekeys_completed);
          ("delivered", Json.Int o.Rekey.delivered);
          ("messages_lost", Json.Int o.Rekey.messages_lost);
          ("max_delivery_gap_s", Json.Float (Time.to_sec o.Rekey.max_delivery_gap));
          ("persisted_keys_live", Json.Int o.Rekey.persisted_keys_live);
          ("duplicate_deliveries", Json.Int o.Rekey.duplicate_deliveries);
        ];
      Report.check report
        ~name:(name ^ ": no duplicates, stale persisted counters retired")
        ~bound:1.
        ~value:(float_of_int o.Rekey.persisted_keys_live)
        (o.Rekey.duplicate_deliveries = 0 && o.Rekey.persisted_keys_live <= 1);
      (if strategy = Rekey.Make_before_break then
         (* messages_lost counts sent − delivered, so a packet still in
            flight when the horizon cuts the run shows up here; allow
            that one but nothing attributable to the rollovers. *)
         Report.check report
           ~name:"make-before-break: no messages lost to rollover"
           ~bound:1.
           ~value:(float_of_int o.Rekey.messages_lost)
           (o.Rekey.messages_lost <= 1));
      Format.printf "%-20s %8d %10d %8d %14s %10d@." name o.Rekey.rekeys_completed
        o.Rekey.delivered o.Rekey.messages_lost
        (Format.asprintf "%a" Time.pp o.Rekey.max_delivery_gap)
        o.Rekey.persisted_keys_live)
    [
      ("make-before-break", Rekey.Make_before_break);
      ("hard-expiry", Rekey.Hard_expiry);
    ];
  Format.printf
    "@.make-before-break's worst gap is one message slot; hard expiry pays@.\
     the full handshake per epoch.@."

(* ------------------------------------------------------------------ *)
(* E13 *)

let e13 report =
  Format.printf
    "Why the SAVE interval is counted in messages, not time (Sec. 4):@.\
     \"the rate of message generation may change over time. ... measuring@.\
     the interval in terms of time leads to wasteful SAVEs\". Bursty@.\
     traffic (bursts of 1000 messages at 4 us, then 20 ms idle), sender@.\
     reset mid-burst at 50 ms:@.@.";
  Format.printf "%-22s %12s %14s %10s %10s@." "trigger" "writes" "writes/msg"
    "skipped" "reused";
  hr ();
  let run save_timer_p =
    let scenario =
      {
        (operating_point ~horizon:(ms 100) ()) with
        protocol = Protocol.save_fetch ?save_timer_p ~kp:25 ~kq:25 ();
        traffic = Harness.Bursty { burst_length = 1000; off_duration = ms 20 };
        resets = Reset_schedule.single ~at:(ms 50) ~downtime:(ms 1) Sender;
      }
    in
    Harness.run scenario
  in
  List.iter
    (fun (name, timer, expect_sound) ->
      let r = run timer in
      let m = r.Harness.metrics in
      let writes = r.Harness.saves_completed_p + r.Harness.saves_lost_p in
      Report.row report ~table:"bursty"
        [
          ("trigger", Json.String name);
          ("writes", Json.Int writes);
          ( "writes_per_msg",
            Json.Float (float_of_int writes /. float_of_int (max 1 m.Metrics.sent)) );
          ("skipped_seqnos", Json.Int m.Metrics.skipped_seqnos);
          ("reused_seqnos", Json.Int m.Metrics.reused_seqnos);
        ];
      Report.check report
        ~name:
          (Printf.sprintf "%s: %s under bursts" name
             (if expect_sound then "sound" else "unsound (reuses numbers)"))
        ~value:(float_of_int m.Metrics.reused_seqnos)
        (expect_sound = (m.Metrics.reused_seqnos = 0));
      Format.printf "%-22s %12d %14.5f %10d %10d%s@." name writes
        (float_of_int writes /. float_of_int (max 1 m.Metrics.sent))
        m.Metrics.skipped_seqnos m.Metrics.reused_seqnos
        (if m.Metrics.reused_seqnos > 0 then "  <- UNSOUND" else ""))
    [
      ("count, K=25 (paper)", None, true);
      ("timer, 100us", Some (us 100), true);
      ("timer, 1ms", Some (ms 1), false);
      ("timer, 10ms", Some (ms 10), false);
    ];
  Format.printf
    "@.a timer long enough to be cheap falls more than 2K behind during a@.\
     burst, and the reset resumes on used numbers (reuse). And on slow,@.\
     steady traffic (one message per 2 ms) the short timer that was safe@.\
     above wastes writes — one per message — where the count rule amortizes:@.@.";
  Format.printf "%-22s %12s %14s@." "trigger" "writes" "writes/msg";
  hr ();
  let run_slow save_timer_p =
    let scenario =
      {
        (operating_point ~horizon:(ms 400) ()) with
        protocol = Protocol.save_fetch ?save_timer_p ~kp:25 ~kq:25 ();
        message_gap = ms 2;
      }
    in
    Harness.run scenario
  in
  let slow_rates = Hashtbl.create 2 in
  List.iter
    (fun (name, timer) ->
      let r = run_slow timer in
      let m = r.Harness.metrics in
      let writes = r.Harness.saves_completed_p + r.Harness.saves_lost_p in
      let rate = float_of_int writes /. float_of_int (max 1 m.Metrics.sent) in
      Hashtbl.replace slow_rates name rate;
      Report.row report ~table:"slow_steady"
        [
          ("trigger", Json.String name);
          ("writes", Json.Int writes);
          ("writes_per_msg", Json.Float rate);
        ];
      Format.printf "%-22s %12d %14.5f@." name writes rate)
    [ ("count, K=25 (paper)", None); ("timer, 100us", Some (us 100)) ];
  (match
     ( Hashtbl.find_opt slow_rates "count, K=25 (paper)",
       Hashtbl.find_opt slow_rates "timer, 100us" )
   with
  | Some count_rate, Some timer_rate ->
    Report.check report
      ~name:"slow traffic: the count rule amortizes where the safe timer cannot"
      ~bound:timer_rate ~value:count_rate
      (count_rate < timer_rate /. 4.)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* E15 *)

let e15 report =
  Format.printf
    "Chaos batch: seed-generated fault schedules — resets on both hosts,@.\
     iid and Gilbert-Elliott burst loss, duplication, reordering, disk@.\
     write failures / torn snapshots / corrupt FETCHes, and a replay@.\
     adversary — run under the online invariant monitor. The stock@.\
     protocol (robust receiver, 2K leap) must hold on every seed; the@.\
     weakened leap (K, no bounded slide) must yield a violation that@.\
     the shrinker reduces to a minimal, identically-replaying schedule.@.@.";
  let seeds = 40 in
  let cfg weak_leap =
    { Resets_chaos.Explorer.default_config with seeds; weak_leap }
  in
  Report.param report "seeds" (Json.Int seeds);
  Report.param report "seed_base" (Json.Int 1);
  Report.param report "horizon_ms" (Json.Int 50);
  Report.param report "save_retries"
    (Json.Int Resets_chaos.Explorer.default_config.save_retries);
  let batch ~table weak =
    let r = Resets_chaos.Explorer.explore (cfg weak) in
    List.iter
      (fun (o : Resets_chaos.Explorer.outcome) ->
        Report.row report ~table
          [
            ("seed", Json.Int o.schedule.seed);
            ("violations", Json.Int o.violation_count);
            ( "first_invariant",
              match o.first_violation with
              | None -> Json.Null
              | Some v -> Json.String v.Invariant.invariant );
          ])
      r.outcomes;
    Format.printf "%-9s %4d seed(s): %d violating, %d harness run(s)@."
      table seeds
      (List.length r.violating_seeds)
      r.total_runs;
    r
  in
  let stock = batch ~table:"stock" false in
  let weak = batch ~table:"weak_leap" true in
  Report.check report
    ~name:"stock protocol: zero violations across the whole batch"
    ~bound:0.
    ~value:(float_of_int (List.length stock.violating_seeds))
    (stock.violating_seeds = []);
  Report.check report ~name:"weak leap: the explorer finds a violating seed"
    ~value:(float_of_int (List.length weak.violating_seeds))
    (weak.violating_seeds <> []);
  (match weak.shrunk with
  | None -> Report.check report ~name:"weak leap: shrinker ran" false
  | Some s ->
    let original =
      Resets_chaos.Explorer.generate (cfg true) (s.minimal.seed - 1)
    in
    Report.param report "minimal_counterexample"
      (Resets_chaos.Explorer.schedule_to_json s.minimal);
    Report.param report "shrink_runs" (Json.Int s.shrink_runs);
    Report.row report ~table:"shrink"
      [
        ("seed", Json.Int s.minimal.seed);
        ("original_resets", Json.Int (List.length original.resets));
        ("minimal_resets", Json.Int (List.length s.minimal.resets));
        ( "minimal_horizon_us",
          Json.Float (Time.to_sec s.minimal.horizon *. 1e6) );
        ("minimal_violations", Json.Int (List.length s.violations));
      ];
    Format.printf
      "@.minimal counterexample (seed %d, %d shrink run(s)): %d reset(s)@.\
       (from %d), horizon %a, %d violation(s):@."
      s.minimal.seed s.shrink_runs
      (List.length s.minimal.resets)
      (List.length original.resets)
      Time.pp s.minimal.horizon
      (List.length s.violations);
    List.iter
      (fun v -> Format.printf "  %a@." Invariant.pp_violation v)
      s.violations;
    Report.check report
      ~name:"shrinker: minimal schedule still violates"
      (s.violations <> []);
    Report.check report
      ~name:"shrinker: no more resets than the original schedule"
      ~bound:(float_of_int (List.length original.resets))
      ~value:(float_of_int (List.length s.minimal.resets))
      (List.length s.minimal.resets <= List.length original.resets));
  Report.check report
    ~name:"minimal counterexample replays identically (weak) / batch \
           deterministic (stock)"
    (stock.replay_identical && weak.replay_identical)

(* ------------------------------------------------------------------ *)
(* E16 *)

let e16 report =
  Format.printf
    "Adaptive-K vs static-K under stealth degradation: every cell below@.\
     is a paired run — the same seed replayed attack-free is the oracle,@.\
     and goodput is reported as a fraction of it, so the disk's own@.\
     slowness cancels out and the ratio isolates the adversary's damage.@.\
     The stealth family jams the link inside predicted SAVE windows and@.\
     forces sender resets phase-locked to the persistence cadence; it@.\
     injects nothing, so the invariant monitor must stay silent on@.\
     every cell.@.@.";
  let gap = us 40 and save_latency = us 100 and horizon = ms 60 in
  let k = 25 in
  Report.param report "message_gap_us" (Json.Int 40);
  Report.param report "save_latency_us" (Json.Int 100);
  Report.param report "horizon_ms" (Json.Int 60);
  Report.param report "k" (Json.Int k);
  (* The adaptive policy is floored at the configured K: the operator's
     static setting stays the safety baseline and the controller only
     ever raises the cadence when measured SAVE latency demands it —
     which also makes the SAVE-overhead comparison against static
     meaningful (adaptive can only write less often). *)
  let policies =
    [
      ("static", None);
      ("adaptive", Some (K_policy.adaptive ~floor:k ~initial_k:k ()));
    ]
  in
  let from = ms 5 and downtime = us 500 in
  let attacks =
    [
      ("none", Harness.No_attack);
      ("save-drop", Harness.Stealth_save_drop { from; resets = 3; downtime });
      ("reset-storm", Harness.Stealth_reset_storm { from; resets = 4; downtime });
      ( "recovery-jam",
        Harness.Stealth_recovery_jam { from; resets = 3; downtime } );
    ]
  in
  let open Resets_persist in
  let disks =
    [
      ("clean", Sim_disk.Faults.none);
      (* 40x the nominal write latency: one SAVE takes 4 ms against a
         1 ms static cadence, so the static discipline's writes keep
         superseding each other and its durable edge freezes — the
         regime the adaptive policy exists for. *)
      ("slow", { Sim_disk.Faults.none with Sim_disk.Faults.latency_factor = 40. });
      ( "flaky",
        {
          Sim_disk.Faults.none with
          Sim_disk.Faults.write_fail_prob = 0.2;
          latency_factor = 20.;
        } );
    ]
  in
  let scenario policy attack disk =
    {
      Harness.default with
      Harness.seed = 11;
      horizon;
      message_gap = gap;
      protocol =
        Protocol.save_fetch ?policy_p:policy ?policy_q:policy ~kp:k ~kq:k
          ~save_latency ();
      disk_faults = disk;
      attack;
      monitor = true;
    }
  in
  Format.printf "%-9s %-13s %-6s %9s %9s %8s %6s %6s %6s@." "policy" "attack"
    "disk" "delivered" "oracle" "goodput" "eff_k" "adj" "saves";
  hr ();
  let cells = Hashtbl.create 32 in
  let clean_disk_violations = ref 0 in
  let adaptive_violations = ref 0 in
  let static_reuse_cells = ref 0 in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (aname, attack) ->
          List.iter
            (fun (dname, disk) ->
              let deg = Harness.run_paired (scenario policy attack disk) in
              let p = deg.Harness.primary in
              let distinct r =
                r.Harness.metrics.Metrics.delivered
                - r.Harness.metrics.Metrics.duplicate_deliveries
              in
              let nviol = List.length p.Harness.violations in
              if dname = "clean" then
                clean_disk_violations := !clean_disk_violations + nviol;
              if pname = "adaptive" then
                adaptive_violations := !adaptive_violations + nviol;
              if
                pname = "static" && dname <> "clean"
                && List.exists
                     (fun v -> v.Invariant.invariant = "seqno-reuse")
                     p.Harness.violations
              then incr static_reuse_cells;
              Hashtbl.replace cells (pname, aname, dname) deg;
              Format.printf "%-9s %-13s %-6s %9d %9d %8.3f %6d %6d %6d@."
                pname aname dname (distinct p)
                (distinct deg.Harness.oracle)
                deg.Harness.goodput_ratio p.Harness.effective_k_p
                p.Harness.k_adjustments_p p.Harness.saves_completed_p;
              Report.row report ~table:"frontier"
                [
                  ("policy", Json.String pname);
                  ("attack", Json.String aname);
                  ("disk", Json.String dname);
                  ("delivered", Json.Int (distinct p));
                  ("oracle_delivered", Json.Int (distinct deg.Harness.oracle));
                  ("goodput_ratio", Json.Float deg.Harness.goodput_ratio);
                  ( "disruption_delta_s",
                    Json.Float deg.Harness.disruption_delta_s );
                  ("recovery_delta_s", Json.Float deg.Harness.recovery_delta_s);
                  ("effective_k_p", Json.Int p.Harness.effective_k_p);
                  ("effective_k_q", Json.Int p.Harness.effective_k_q);
                  ("k_adjustments_p", Json.Int p.Harness.k_adjustments_p);
                  ("saves_completed_p", Json.Int p.Harness.saves_completed_p);
                  ( "oracle_saves_completed_p",
                    Json.Int deg.Harness.oracle.Harness.saves_completed_p );
                  ( "violations",
                    Json.Int (List.length p.Harness.violations) );
                  ( "first_invariant",
                    match p.Harness.violations with
                    | [] -> Json.Null
                    | v :: _ -> Json.String v.Invariant.invariant );
                ])
            disks)
        attacks)
    policies;
  let ratio pname aname dname =
    (Hashtbl.find cells (pname, aname, dname)).Harness.goodput_ratio
  in
  (* Safety: the stealth family injects nothing, so on a correctly
     provisioned cadence (K >= the effective floor) the monitor must
     find nothing. On the degraded disks the static cadence IS
     under-provisioned — the effective floor is ceil(40*100us/40us) =
     100 > 25 — and there the attack's forced resets wake the sender
     from a frozen durable edge and make it reuse sequence numbers:
     the monitor is expected to certify exactly that. *)
  Report.check report
    ~name:"stealth attacks are safety-clean where K covers the effective \
           floor: zero violations on every clean-disk cell"
    ~bound:0.
    ~value:(float_of_int !clean_disk_violations)
    (!clean_disk_violations = 0);
  Report.check report
    ~name:"adaptive-K restores safety on every cell: zero violations under \
           any stealth attack on any disk"
    ~bound:0.
    ~value:(float_of_int !adaptive_violations)
    (!adaptive_violations = 0);
  Report.check report
    ~name:"static-K below the effective floor is unsafe, not just slow: \
           forced resets expose seqno reuse on the degraded disks"
    ~value:(float_of_int !static_reuse_cells)
    (!static_reuse_cells >= 2);
  (* The frontier: on the slow disk the adaptive policy must recover
     measurably more of the oracle's goodput than static-K under at
     least two of the three stealth attacks. *)
  let stealth_names = [ "save-drop"; "reset-storm"; "recovery-jam" ] in
  let adaptive_wins =
    List.filter
      (fun a -> ratio "adaptive" a "slow" > ratio "static" a "slow" +. 0.05)
      stealth_names
  in
  List.iter
    (fun a ->
      Format.printf "@.%s on slow disk: static %.3f vs adaptive %.3f%s@." a
        (ratio "static" a "slow")
        (ratio "adaptive" a "slow")
        (if List.mem a adaptive_wins then "  <- adaptive wins" else ""))
    stealth_names;
  Report.check report
    ~name:"adaptive-K beats static-K on goodput under >= 2 stealth attacks \
           (slow disk)"
    ~bound:2.
    ~value:(float_of_int (List.length adaptive_wins))
    (List.length adaptive_wins >= 2);
  Report.check report
    ~name:"static-K measurably degrades under save-window drop on the slow \
           disk"
    ~bound:0.75
    ~value:(ratio "static" "save-drop" "slow")
    (ratio "static" "save-drop" "slow" < 0.75);
  Report.check report
    ~name:"adaptive-K under save-window drop recovers >= 0.6 of oracle \
           goodput (slow disk)"
    ~bound:0.6
    ~value:(ratio "adaptive" "save-drop" "slow")
    (ratio "adaptive" "save-drop" "slow" >= 0.6);
  (* Overhead: adapting must not buy goodput with a SAVE storm. The
     policy is floored at the static K, so the honest budget is the
     nominal static write rate (the clean cell; degraded static cells
     complete almost no writes — their saves keep superseding each
     other, which is the pathology, not a budget). *)
  let nominal_budget =
    (Hashtbl.find cells ("static", "none", "clean")).Harness.primary
      .Harness.saves_completed_p
  in
  let overhead_ok =
    List.for_all
      (fun (aname, _) ->
        List.for_all
          (fun (dname, _) ->
            (Hashtbl.find cells ("adaptive", aname, dname)).Harness.primary
              .Harness.saves_completed_p
            <= 2 * nominal_budget)
          disks)
      attacks
  in
  Report.check report
    ~name:"bounded SAVE overhead: adaptive completes <= 2x the nominal \
           static write budget on every cell"
    ~bound:(float_of_int (2 * nominal_budget))
    overhead_ok;
  (* Sanity of the pairing itself: attack-free cells are their own
     oracle, ratio exactly 1. *)
  let paired_identity =
    List.for_all
      (fun (dname, _) ->
        List.for_all
          (fun (pname, _) -> ratio pname "none" dname = 1.0)
          policies)
      disks
  in
  Report.check report
    ~name:"attack-free paired runs are bit-identical to their oracle \
           (ratio 1.0)"
    paired_identity

(* ------------------------------------------------------------------ *)
(* E17 *)

let e17 report =
  Format.printf
    "The reboot-convergence matrix on real processes: a fault-injecting@.\
     supervisor runs daemon pairs over a loopback wire, SIGKILLs the@.\
     receiver in every cell of reset scope x recovery discipline x@.\
     background churn (wiping the store for the disk-lost scope), and@.\
     measures — from the heartbeat JSONL alone — fresh discards against@.\
     the 2k bound and time from respawn to full delivery. Kill-mode@.\
     probes check the SIGTERM graceful flush and the SIGSTOP watchdog;@.\
     faulty cells rerun the crash under a misbehaving file store and an@.\
     impaired wire.@.@.";
  (* The daemons are the CLI's serve verb: find the binary next to this
     bench executable (or take RESETS_DAEMON_BIN). *)
  let bin =
    match Sys.getenv_opt "RESETS_DAEMON_BIN" with
    | Some b -> b
    | None ->
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/ipsec_resets.exe"
  in
  if not (Sys.file_exists bin) then
    Report.check report
      ~name:
        "E17 needs the ipsec_resets binary (dune build, or set \
         RESETS_DAEMON_BIN)"
      false
  else begin
    let open Resets_fleet in
    let params = Matrix.full_params in
    let workdir =
      Filename.concat (Filename.get_temp_dir_name ()) "resets-e17"
    in
    Report.param report "k" (Json.Int params.Matrix.k);
    Report.param report "rate_pps" (Json.Float params.Matrix.rate_pps);
    Report.param report "warmup_s" (Json.Float params.Matrix.warmup_s);
    Report.param report "downtime_s" (Json.Float params.Matrix.downtime_s);
    Report.param report "post_s" (Json.Float params.Matrix.post_s);
    Report.param report "repeats" (Json.Int params.Matrix.repeats);
    Report.param report "seed" (Json.Int params.Matrix.seed);
    let result, _ok =
      Matrix.run ~bin ~workdir
        ~log:(fun m -> Format.printf "  [fleet] %s@." m)
        ()
    in
    let rows table key =
      match Json.member key result with
      | Some (Json.List items) ->
        List.iter
          (fun item ->
            match item with
            | Json.Obj kv -> Report.row report ~table kv
            | _ -> ())
          items;
        List.filter_map (function Json.Obj kv -> Some kv | _ -> None) items
      | _ -> []
    in
    let cells = rows "cells" "cells" in
    let kill_modes = rows "kill_modes" "kill_modes" in
    let faulty = rows "faulty" "faulty" in
    let bool_of kv key =
      match List.assoc_opt key kv with Some (Json.Bool b) -> b | _ -> false
    in
    let float_of kv key =
      match List.assoc_opt key kv with
      | Some j -> Option.value (Json.as_float j) ~default:nan
      | None -> nan
    in
    let bound = float_of_int (2 * params.Matrix.k) in
    (* The printed table, one line per cell. *)
    Format.printf
      "  %-34s %9s %9s %9s %6s@." "cell (scope-discipline-churn)" "lost_max"
      "ttc_p50" "ttc_max" "ok";
    List.iter
      (fun kv ->
        let s k =
          match List.assoc_opt k kv with
          | Some (Json.String v) -> v
          | _ -> "?"
        in
        Format.printf "  %-34s %9.0f %8.3fs %8.3fs %6b@."
          (Printf.sprintf "%s-%s-%s" (s "scope") (s "discipline") (s "churn"))
          (float_of kv "lost_max") (float_of kv "ttc_p50_s")
          (float_of kv "ttc_max_s") (bool_of kv "ok"))
      cells;
    let lost_worst =
      List.fold_left (fun a kv -> Float.max a (float_of kv "lost_max")) 0. cells
    in
    let ttc_worst =
      List.fold_left (fun a kv -> Float.max a (float_of kv "ttc_max_s")) 0.
        cells
    in
    Report.measure report "cells_run" (Json.Int (List.length cells));
    Report.measure report "lost_worst" (Json.Float lost_worst);
    Report.measure report "ttc_worst_s" (Json.Float ttc_worst);
    Report.check report
      ~name:
        "every crash-restart cell: fresh discards <= 2k and convergence \
         detected from heartbeats alone"
      ~bound ~value:lost_worst
      (List.length cells = 27 && List.for_all (fun kv -> bool_of kv "ok") cells);
    (match
       List.find_opt
         (fun kv -> List.assoc_opt "mode" kv = Some (Json.String "sigterm"))
         kill_modes
     with
    | Some kv ->
      Report.check report
        ~name:
          "SIGTERM graceful stop: terminal heartbeat written and the \
           restart recovers the final edge"
        (bool_of kv "ok")
    | None ->
      Report.check report ~name:"SIGTERM kill-mode probe ran" false);
    (match
       List.find_opt
         (fun kv -> List.assoc_opt "mode" kv = Some (Json.String "sigstop"))
         kill_modes
     with
    | Some kv ->
      Report.check report
        ~name:
          "SIGSTOP stall: the heartbeat watchdog forces the restart and \
           the pair reconverges"
        (bool_of kv "ok")
    | None ->
      Report.check report ~name:"SIGSTOP kill-mode probe ran" false);
    List.iter
      (fun kv ->
        let s =
          match List.assoc_opt "fault" kv with
          | Some (Json.String v) -> v
          | _ -> "?"
        in
        Report.check report
          ~name:
            (Printf.sprintf
               "faulty %s cell: discards still <= 2k through injected faults"
               s)
          ~bound
          ~value:(float_of kv "lost_max")
          (bool_of kv "ok"))
      faulty;
    if List.length faulty <> 2 then
      Report.check report ~name:"both faulty cells ran" false
  end

(* ------------------------------------------------------------------ *)
(* MICRO *)

let micro report =
  let kernel = Resets_crypto.Accel.sha256_kernel () in
  Format.printf
    "Microbenchmarks of the per-packet hot paths (bechamel, OLS ns/run; \
     SHA-256 kernel %s).@.@."
    kernel;
  (* Which accelerated paths were live: every number below depends on
     them. *)
  Report.param report "sha256_kernel" (Json.String kernel);
  Report.param report "using_mmsg"
    (Json.Bool (Resets_net_stubs.Batch_io.using_mmsg ()));
  let open Bechamel in
  let open Resets_ipsec in
  let sa = Sa.derive_params ~spi:0x9l ~secret:"bench" () in
  let payload = String.make 256 'x' in
  let packet = Esp.encap ~sa ~seq:1 ~payload in
  let make_window impl =
    let w = Replay_window.create impl ~w:64 in
    let counter = ref 0 in
    fun () ->
      incr counter;
      ignore (Replay_window.admit w !counter)
  in
  (* One (name, thunk) list drives both measurements: bechamel's OLS
     ns/run and a Gc.minor_words delta for allocation per run. *)
  let ops =
    [
      ("window-admit-paper", make_window Replay_window.Paper_impl);
      ("window-admit-bitmap", make_window Replay_window.Bitmap_impl);
      ("window-admit-block", make_window Replay_window.Block_impl);
      ( "window-admit-flat",
        make_window (Replay_window.Flat_impl (Sadb_flat.create ~w:64 ())) );
      ( "engine-wheel-event",
        let eng = Engine.create () in
        let gap = us 100 in
        let rec tick () = ignore (Engine.schedule_after eng ~after:gap tick) in
        for i = 1 to 4096 do
          ignore
            (Engine.schedule_at eng
               ~at:(Resets_sim.Time.of_ns (Int64.of_int i))
               tick)
        done;
        (* each fired tick reschedules itself, so the engine never goes
           idle and every step fires exactly one event *)
        fun () -> ignore (Engine.step eng) );
      ( "engine-heap-event",
        let eng = Engine_heap.create ~hint:8192 () in
        let gap = us 100 in
        let rec tick () =
          ignore (Engine_heap.schedule_after eng ~after:gap tick)
        in
        for i = 1 to 4096 do
          ignore
            (Engine_heap.schedule_at eng
               ~at:(Resets_sim.Time.of_ns (Int64.of_int i))
               tick)
        done;
        fun () -> ignore (Engine_heap.step eng) );
      ("esp-encap-256B", fun () -> ignore (Esp.encap ~sa ~seq:7 ~payload));
      ("esp-decap-256B", fun () -> ignore (Esp.decap ~sa packet));
      (* The wire datapath's per-frame codec work, syscalls excluded:
         encap straight into a tx-pool slot, decap straight out of an
         rx-arena slot. check.sh gates these at a small constant — a
         string or boxed intermediate creeping back into the batched
         wire path shows up here before it shows up as lost pps. *)
      ( "esp-encap-into-256B",
        let slot = Bytes.create 4096 in
        fun () -> ignore (Esp.encap_into ~sa ~seq:7 ~payload slot ~off:0) );
      ( "esp-decap-slice-256B",
        let arena = Bytes.of_string packet in
        let frame = Slice.make arena ~off:0 ~len:(Bytes.length arena) in
        fun () -> ignore (Esp.decap_of_slice ~sa frame) );
      ( "hmac-sha256-256B",
        fun () -> ignore (Resets_crypto.Hmac.mac ~key:"k" payload) );
      ( "sha256-1KiB",
        let block = String.make 1024 'y' in
        fun () -> ignore (Resets_crypto.Sha256.digest block) );
      ( "chacha20-256B",
        let nonce = String.make 12 '\x01' in
        let key = String.make 32 '\x02' in
        fun () -> ignore (Resets_crypto.Chacha20.crypt ~key ~nonce payload) );
    ]
  in
  let tests =
    Test.make_grouped ~name:"micro"
      (List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) ops)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  (* Minor-heap words allocated per run, averaged over a fixed batch
     after a warmup (so scratch buffers reach steady state). Keyed by
     the same "micro/<op>" names bechamel reports under. *)
  let allocs = Hashtbl.create 8 in
  List.iter
    (fun (name, fn) ->
      for _ = 1 to 100 do
        fn ()
      done;
      let iters = 1000 in
      let before = Gc.minor_words () in
      for _ = 1 to iters do
        fn ()
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int iters in
      Hashtbl.replace allocs ("micro/" ^ name) words)
    ops;
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Format.printf "%-28s %14s %18s@." "operation" "ns/run" "minor words/run";
  hr ();
  List.iter
    (fun (name, ols) ->
      let ns = match Analyze.OLS.estimates ols with Some (x :: _) -> Some x | _ -> None in
      let words = Hashtbl.find_opt allocs name in
      Report.row report ~table:"hot_paths"
        [
          ("operation", Json.String name);
          ("ns_per_run", match ns with Some x -> Json.Float x | None -> Json.Null);
          ( "minor_words_per_packet",
            match words with Some w -> Json.Float w | None -> Json.Null );
        ];
      (match ns with
      | Some x ->
        Report.check report ~name:(name ^ ": OLS estimate is a sane ns/run") ~value:x
          (Float.is_finite x && x > 0.)
      | None -> Report.check report ~name:(name ^ ": OLS estimate available") false);
      let estimate =
        match ns with Some x -> Format.asprintf "%10.1f" x | None -> "?"
      in
      let alloc =
        match words with Some w -> Format.asprintf "%14.1f" w | None -> "?"
      in
      Format.printf "%-28s %14s %18s@." name estimate alloc)
    (List.sort compare rows);
  (* Determinism smoke: a fixed-seed schedule of one-shot and
     self-rescheduling timers — with deliberate equal-deadline ties and
     some cancellations — must fire in the identical order on the
     hierarchical wheel and the legacy binary heap. This is the
     observable contract the wheel was built to preserve; check.sh
     greps for this check by name. *)
  let fire_trace schedule_at cancel step =
    let rng = ref 0x5DEECE66D in
    let next_rand bound =
      (* 48-bit LCG (same constants as java.util.Random): fixed seed,
         identical stream on every run and both engines *)
      rng := ((!rng * 25214903917) + 11) land 0xFFFFFFFFFFFF;
      (!rng lsr 16) mod bound
    in
    let trace = Buffer.create 4096 in
    let cancellable = ref [] in
    for i = 0 to 999 do
      (* clustered deadlines: every 8th timer shares a tick with its
         neighbours, exercising insertion-order tie-breaking *)
      let at = Resets_sim.Time.of_ns (Int64.of_int (1 + (next_rand 500 * 8))) in
      let h =
        schedule_at ~at (fun () ->
            Buffer.add_string trace (string_of_int i);
            Buffer.add_char trace ';')
      in
      if i mod 7 = 0 then cancellable := h :: !cancellable
    done;
    List.iteri (fun j h -> if j mod 2 = 0 then cancel h) !cancellable;
    for _ = 1 to 2000 do
      ignore (step ())
    done;
    Buffer.contents trace
  in
  let wheel_trace =
    let eng = Engine.create () in
    fire_trace
      (fun ~at fn -> Engine.schedule_at eng ~at fn)
      Engine.cancel
      (fun () -> Engine.step eng)
  in
  let heap_trace =
    let eng = Engine_heap.create () in
    fire_trace
      (fun ~at fn -> Engine_heap.schedule_at eng ~at fn)
      Engine_heap.cancel
      (fun () -> Engine_heap.step eng)
  in
  Report.check report
    ~name:"wheel and heap fire an identical fixed-seed schedule in the same order"
    (String.length wheel_trace > 0 && wheel_trace = heap_trace);
  Format.printf
    "@.determinism smoke: wheel and heap fire order on a fixed-seed schedule %s@."
    (if wheel_trace = heap_trace then "IDENTICAL" else "DIVERGED");
  (* Wire throughput: the full datapath over a real socket. One core
     plays both sides of a UNIX-datagram pair — encap into the tx pool,
     batched send, batched recv, decap straight out of the rx arena,
     replay-window admit per packet — so pps_per_core is the honest
     single-core number for the daemon's datapath (a deployment scales
     it by sharding SAs across workers; see the serve verb). The sweep
     varies the recvmmsg/sendmmsg batch depth.

     One kernel limit binds the deepest row: unix(7) caps a datagram
     socket's receive queue at net.unix.max_dgram_qlen datagrams
     (commonly ~10), so flushing a batch deeper than the queue into a
     receiver that cannot drain concurrently sheds the tail as
     backpressure — counted in tx_errors, never retried, exactly the
     channel-loss semantics the protocol is built for. The sweep
     reports it rather than hiding it: every row must deliver every
     kernel-accepted frame (no silent loss), and rows whose flush depth
     fits the queue must deliver every frame, full stop. *)
  let wire_pps ~batch =
    let open Resets_net in
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "resets-bench-wire-%d-%d.sock" (Unix.getpid ()) batch)
    in
    let rx =
      Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) ~batch ()
    in
    let tx =
      Transport_udp.create ~peer:(Transport_udp.Unix_dgram path) ~batch ()
    in
    let window = Replay_window.create Replay_window.Bitmap_impl ~w:64 in
    let delivered = ref 0 in
    Transport_udp.set_slice_handler rx (fun frame ->
        match Esp.decap_of_slice ~sa frame with
        | Ok (seq, _) ->
          if Replay_window.verdict_accepts (Replay_window.admit window seq)
          then incr delivered
        | Error _ -> ());
    let slot = Bytes.create 4096 in
    let send_one seq =
      let len = Esp.encap_into ~sa ~seq ~payload slot ~off:0 in
      ignore (Transport_udp.send_slice tx (Slice.make slot ~off:0 ~len) : bool)
    in
    (* one flush + one drain per [batch] packets *)
    let rec bursts seq last =
      if seq <= last then begin
        let count = min batch (last - seq + 1) in
        for s = seq to seq + count - 1 do
          send_one s
        done;
        ignore (Transport_udp.flush tx : int);
        ignore (Transport_udp.drain rx : int);
        bursts (seq + count) last
      end
    in
    let n = 20_000 in
    bursts 1 100 (* warmup outside the timed window *);
    let warm_delivered = !delivered in
    let warm_accepted = Transport_udp.tx_frames tx in
    let warm_errors = Transport_udp.tx_errors tx in
    let t0 = Unix.gettimeofday () in
    bursts 101 (100 + n);
    (* anything still queued in the kernel *)
    while Transport_udp.wait_readable rx ~timeout:0.01 do
      ignore (Transport_udp.drain rx)
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    let accepted = Transport_udp.tx_frames tx - warm_accepted in
    let tx_errors = Transport_udp.tx_errors tx - warm_errors in
    let mmsg = Resets_net_stubs.Batch_io.using_mmsg () in
    Transport_udp.close tx;
    Transport_udp.close rx;
    (n, accepted, !delivered - warm_delivered, elapsed, tx_errors, mmsg)
  in
  let best_pps = ref 0. in
  List.iter
    (fun batch ->
      let n, accepted, delivered, elapsed, tx_errors, mmsg = wire_pps ~batch in
      let pps = float_of_int delivered /. elapsed in
      if pps > !best_pps then best_pps := pps;
      let ns_pkt = elapsed *. 1e9 /. float_of_int (max delivered 1) in
      Report.row report ~table:"wire"
        [
          ("transport", Json.String "unix-dgram");
          ("batch", Json.Int batch);
          ("mmsg", Json.Bool mmsg);
          ("payload_bytes", Json.Int 256);
          ("packets", Json.Int n);
          ("accepted", Json.Int accepted);
          ("delivered", Json.Int delivered);
          ("tx_errors", Json.Int tx_errors);
          ("ns_per_packet", Json.Float ns_pkt);
          ("pps", Json.Float pps);
          ("pps_per_core", Json.Float pps);
        ];
      (* every frame the kernel accepted came out the other end *)
      Report.check report
        ~name:
          (Printf.sprintf "wire batch %d: no silent loss (delivered = accepted)"
             batch)
        ~value:(float_of_int delivered)
        (delivered = accepted && accepted + tx_errors = n);
      (* a flush depth within the unix-dgram queue loses nothing at all *)
      if batch <= 8 then
        Report.check report
          ~name:(Printf.sprintf "wire batch %d: delivers every packet" batch)
          ~value:(float_of_int delivered)
          (delivered = n && tx_errors = 0);
      Format.printf
        "@.wire loopback (unix-dgram, batch %2d%s, 256 B, \
         encap+send+recv+decap+admit): %.0f pps/core (%.0f ns/packet, \
         %d/%d delivered, %d shed)@."
        batch
        (if mmsg then ", mmsg" else ", fallback")
        pps ns_pkt delivered n tx_errors)
    [ 1; 8; 32 ]

let () =
  Format.printf "Convergence of IPsec in Presence of Resets — experiment harness@.";
  section "E1" "sender reset: loss bounded by 2Kp (Fig. 1, Thm i)"
    ~claim:
      "A reset at phase t of the SAVE cycle loses 2Kp - t numbers if the SAVE \
       was in flight, Kp - t if complete; always <= 2Kp, and no fresh message \
       is discarded absent reordering."
    e1;
  section "E2" "receiver reset: discards bounded by 2Kq (Fig. 2, Thm ii)"
    ~claim:
      "Fresh discards after a receiver reset are at most 2Kq; no replayed \
       message is accepted."
    e2;
  section "E3" "unbounded replay acceptance without SAVE/FETCH (Sec. 3.1)"
    ~claim:
      "Without SAVE/FETCH an adversary can replay all recorded messages 1..x \
       and every one is unsuspectedly accepted."
    e3;
  section "E4" "unbounded fresh discards without SAVE/FETCH (Sec. 3.2)"
    ~claim:
      "After a volatile sender reset, every fresh message below the old window \
       edge is discarded — unbounded in the pre-reset traffic."
    e4;
  section "E5" "the wedge attack after a double reset (Sec. 3.3)"
    ~claim:
      "With both hosts reset, one replayed high-numbered message wedges q's \
       window ahead of p and everything in between is discarded."
    e5;
  section "E6" "the SAVE-interval rule K >= ceil(T/g) (Sec. 4)"
    ~claim:
      "K must cover the messages sendable during one SAVE: with a 100 us write \
       and 4 us messages the interval must be at least 25."
    e6;
  section "E7" "recovery cost: SAVE/FETCH vs re-establishment"
    ~claim:
      "Re-establishing an SA recomputes keys and renegotiates attributes; a \
       host with many SAs pays it per SA, while SAVE/FETCH recovers locally."
    e7;
  section "E8" "SAVE overhead and the robustness trade-off"
    ~claim:
      "SAVE costs one persistent write per K messages (amplification 1/K) and \
       never blocks traffic; the robust receiver's blocking catch-up is the \
       exception below k_min."
    e8;
  section "E9" "w-Delivery under reordering (Sec. 2)"
    ~claim:
      "Every message neither lost nor reordered by degree >= w is delivered."
    e9;
  section "E10" "prolonged resets, bidirectional recovery (Sec. 6)"
    ~claim:
      "The survivor detects death, keeps the SA for a bounded period, and \
       accepts the returning peer's announcement iff it clears the window \
       edge — a replayed announcement is harmless."
    e10;
  section "E11" "bounded model checking of the APN models (Sec. 5)"
    ~claim:
      "The Section 5 theorems hold for the augmented protocol; the original \
       protocol and the under-2K leaps are refuted; the combined-reset corner \
       (our finding) needs the robust receiver."
    e11;
  section "E12" "planned SA rollover (lifetimes)"
    ~claim:
      "SA key lifetimes force rollover; each epoch's persisted counter must \
       be retired with its SA, and make-before-break leaves no service gap."
    e12;
  section "E13" "message-counted vs timer-based SAVE intervals (Sec. 4)"
    ~claim:
      "The SAVE interval is measured in messages, not time: timers are either \
       unsound under bursts or wasteful on slow traffic."
    e13;
  section "E14" "multi-SA scale: the unified datapath at >= 1024 SAs"
    ~claim:
      "The component-based Endpoint/Host layer pushes 1024 SAs through the \
       same datapath as the single-SA harness: coalesced recovery stays flat \
       while per-SA recovery grows linearly, and an adversary replaying \
       against every link still gets zero packets accepted."
    e14;
  section "E15" "chaos batch: fault schedules under the invariant monitor"
    ~claim:
      "Under randomized resets, burst loss, disk faults and a replay \
       adversary the stock protocol violates no invariant on any seed; \
       weakening the receiver leap to K re-creates the paper's unsoundness \
       and the explorer shrinks it to a minimal replayable counterexample."
    e15;
  section "E16" "adaptive-K vs static-K: the goodput-vs-oracle frontier"
    ~claim:
      "Stealth adversaries that jam predicted SAVE windows and force resets \
       phase-locked to the persistence cadence inject nothing, yet collapse \
       static-K goodput on a degraded disk — and expose seqno reuse where K \
       sits below the effective floor; the adaptive K policy re-derives its \
       cadence online, restores safety on every cell and recovers most of \
       the attack-free oracle's goodput at bounded SAVE overhead."
    e16;
  section "E17" "reboot-convergence matrix: supervised daemon pairs"
    ~claim:
      "On real processes over a real wire, every combination of reset \
       scope (one SA, the whole SADB, a lost disk), recovery discipline \
       (per-SA files, coalesced snapshot, re-establishment) and background \
       churn converges after a SIGKILL-and-restart with at most 2k fresh \
       discards, detected from the heartbeat file alone; a SIGTERM flush \
       survives to the next incarnation, a SIGSTOP stall is caught only \
       by the heartbeat watchdog, and the bound holds through injected \
       store faults and wire impairment."
    e17;
  section "MICRO" "hot-path microbenchmarks"
    ~claim:
      "Per-packet hot paths (window admit, ESP, HMAC, SHA-256, ChaCha20) \
       measured in ns/run — the regression baseline for future perf PRs."
    micro;
  Format.printf "@.done.@."
