(* Chaos layer: the online invariant monitor and the fault-schedule
   explorer/shrinker.

   The expensive end-to-end claims (stock protocol clean over a big
   seed batch, weak leap caught and shrunk) live in bench E15; these
   tests pin the load-bearing mechanics on a handful of fixed seeds so
   a regression fails in seconds, not minutes. *)

open Resets_sim
open Resets_core
open Resets_workload
open Resets_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let us = Time.of_us
let ms x = Time.of_us (x * 1000)

(* ------------------------------------------------------------------ *)
(* Invariant monitor through the harness *)

let monitored
    ?(protocol = Protocol.save_fetch ~robust_receiver:true ~kp:25 ~kq:25 ())
    ?(resets = Reset_schedule.none) ?(attack = Harness.No_attack) () =
  {
    Harness.default with
    horizon = ms 20;
    resets;
    attack;
    protocol;
    monitor = true;
  }

let test_monitor_clean_run () =
  let r = Harness.run (monitored ()) in
  check_int "no violations" 0 (List.length r.Harness.violations);
  check_bool "traffic flowed" true (r.Harness.metrics.Metrics.delivered > 0)

let test_monitor_clean_under_resets () =
  let resets =
    Reset_schedule.merge
      (Reset_schedule.single ~at:(ms 5) ~downtime:(ms 1) Sender)
      (Reset_schedule.single ~at:(ms 11) ~downtime:(ms 1) Receiver)
  in
  let r = Harness.run (monitored ~resets ()) in
  check_int "no violations" 0 (List.length r.Harness.violations)

let test_monitor_flags_volatile_replay () =
  (* Section 3.1: without SAVE/FETCH a post-reset replay of everything
     recorded is accepted wholesale — the monitor must say so. The
     sender idles before the reset (the paper's staging), so the fresh
     window has not advanced past the replayed numbers. *)
  let resets = Reset_schedule.single ~at:(ms 5) ~downtime:(ms 1) Receiver in
  let r =
    Harness.run
      {
        (monitored ~protocol:Protocol.Volatile ~resets
           ~attack:(Harness.Replay_all_at (ms 8)) ())
        with
        sender_stop_at = Some (ms 4);
      }
  in
  check_bool "violations found" true (r.Harness.violations <> []);
  check_bool "replay-accepted among them" true
    (List.exists
       (fun v -> v.Invariant.invariant = "replay-accepted")
       r.Harness.violations)

let test_monitor_off_by_default () =
  let r = Harness.run { (monitored ()) with monitor = false } in
  check_int "no monitor, no records" 0 (List.length r.Harness.violations)

let test_violation_json_shape () =
  let v =
    { Invariant.invariant = "replay-accepted"; at = us 7; detail = "d" }
  in
  Alcotest.(check string)
    "json"
    {|{"invariant": "replay-accepted", "at_us": 7.0, "detail": "d"}|}
    (Resets_util.Json.to_string (Invariant.violation_to_json v))

(* ------------------------------------------------------------------ *)
(* Explorer *)

let cfg ?(weak_leap = false) ?(seeds = 5) () =
  { Explorer.default_config with seeds; weak_leap }

(* The fixed seed bench E15 shrinks; the weak receiver accepts replays
   under it. Keep in sync with BENCH_E15.json's minimal counterexample. *)
let violating_seed = 11

let schedule_of_seed config seed =
  Explorer.generate config (seed - config.Explorer.seed_base)

let test_generate_is_pure () =
  let c = cfg () in
  for i = 0 to 4 do
    check_bool "same seed, same schedule" true
      (Explorer.generate c i = Explorer.generate c i)
  done;
  check_bool "different seeds differ" true
    (Explorer.generate c 0 <> Explorer.generate c 1)

let test_generate_within_bounds () =
  let c = cfg () in
  for i = 0 to 9 do
    let s = Explorer.generate c i in
    check_int "seed stamped" (c.Explorer.seed_base + i) s.Explorer.seed;
    List.iter
      (fun ev ->
        check_bool "reset inside horizon" true
          Time.(ev.Reset_schedule.at < s.Explorer.horizon))
      s.Explorer.resets;
    let f = s.Explorer.link_faults in
    check_bool "probabilities sane" true
      (f.Link.loss_prob >= 0. && f.Link.loss_prob <= 0.05
      && f.Link.dup_prob <= 0.03 && f.Link.reorder_prob <= 0.05)
  done

let test_run_schedule_deterministic () =
  let c = cfg () in
  let s = schedule_of_seed c violating_seed in
  let r1 = Explorer.run_schedule c s in
  let r2 = Explorer.run_schedule c s in
  check_int "same deliveries"
    r1.Harness.metrics.Metrics.delivered r2.Harness.metrics.Metrics.delivered;
  check_int "same violations"
    (List.length r1.Harness.violations)
    (List.length r2.Harness.violations)

let test_weak_leap_caught_and_stock_clean () =
  (* The same schedule, sound vs weakened receiver: the whole point of
     the chaos flag. *)
  let weak = cfg ~weak_leap:true () in
  let stock = cfg () in
  let s = schedule_of_seed weak violating_seed in
  let rw = Explorer.run_schedule weak s in
  check_bool "weak leap violates" true (rw.Harness.violations <> []);
  let rs = Explorer.run_schedule stock s in
  check_int "stock protocol holds on the same schedule" 0
    (List.length rs.Harness.violations)

let test_shrink_minimizes () =
  let c = { (cfg ~weak_leap:true ()) with max_shrink_runs = 80 } in
  let original = schedule_of_seed c violating_seed in
  let o = Explorer.shrink c original in
  check_bool "minimal still violates" true (o.Explorer.violations <> []);
  check_bool "spent runs" true (o.Explorer.shrink_runs > 0);
  check_bool "no more resets than the original" true
    (List.length o.Explorer.minimal.Explorer.resets
    <= List.length original.Explorer.resets);
  check_bool "horizon not extended" true
    Time.(o.Explorer.minimal.Explorer.horizon <= original.Explorer.horizon);
  (* determinism: the shrunk schedule replays to the same violations *)
  let replay = Explorer.run_schedule c o.Explorer.minimal in
  check_int "replay identical" (List.length o.Explorer.violations)
    (List.length replay.Harness.violations)

(* Seeds whose shrunk schedules once tripped "replay-accepted" on the
   stock protocol: the adversary re-sent numbers the receiver had lost
   to its own reset (dropped while down, or buffered in RAM when it
   crashed) and the receiver accepted them as their first delivery.
   7123 is the wedge case (q woke at FETCH 4350 + leap 50 and later
   accepted an injected #4474 it had dropped while down); the others
   are replay-all and wedge variants of the same pattern. *)
let test_reset_lost_replays_are_first_deliveries () =
  List.iter
    (fun seed ->
      let c = { (cfg ~seeds:1 ()) with Explorer.seed_base = seed } in
      let r = Explorer.run_schedule c (Explorer.generate c 0) in
      let m = r.Harness.metrics in
      check_int (Printf.sprintf "seed %d: no violations" seed) 0
        (List.length r.Harness.violations);
      check_int (Printf.sprintf "seed %d: no duplicate deliveries" seed) 0
        m.Metrics.duplicate_deliveries)
    [ 7123; 2184; 2774; 3370; 4114; 4226; 4951; 5209 ]

let test_explore_small_stock_batch () =
  let c = cfg ~seeds:5 () in
  let r = Explorer.explore c in
  check_int "all seeds ran" 5 (List.length r.Explorer.outcomes);
  check_bool "stock batch clean" true (r.Explorer.violating_seeds = []);
  check_bool "vacuously replay-identical" true r.Explorer.replay_identical

let () =
  Alcotest.run "chaos"
    [
      ( "invariant monitor",
        [
          Alcotest.test_case "clean run" `Quick test_monitor_clean_run;
          Alcotest.test_case "clean under resets" `Quick
            test_monitor_clean_under_resets;
          Alcotest.test_case "volatile replay flagged" `Quick
            test_monitor_flags_volatile_replay;
          Alcotest.test_case "off by default" `Quick test_monitor_off_by_default;
          Alcotest.test_case "violation json" `Quick test_violation_json_shape;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "generate pure" `Quick test_generate_is_pure;
          Alcotest.test_case "generate bounds" `Quick test_generate_within_bounds;
          Alcotest.test_case "run deterministic" `Quick
            test_run_schedule_deterministic;
          Alcotest.test_case "weak caught, stock clean" `Quick
            test_weak_leap_caught_and_stock_clean;
          Alcotest.test_case "reset-lost replays not flagged" `Quick
            test_reset_lost_replays_are_first_deliveries;
          Alcotest.test_case "shrink minimizes" `Slow test_shrink_minimizes;
          Alcotest.test_case "small stock batch" `Slow
            test_explore_small_stock_batch;
        ] );
    ]
