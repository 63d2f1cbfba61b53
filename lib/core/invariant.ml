(* Online invariant monitor: the paper's theorems as runtime
   predicates over a live endpoint. See the .mli for the catalogue. *)

open Resets_sim

type violation = {
  invariant : string;
  at : Time.t;
  detail : string;
}

let violation_to_json v =
  Resets_util.Json.Obj
    [
      ("invariant", Resets_util.Json.String v.invariant);
      ("at_us", Resets_util.Json.Float (Time.to_sec v.at *. 1e6));
      ("detail", Resets_util.Json.String v.detail);
    ]

let pp_violation ppf v =
  Format.fprintf ppf "[%a] %s: %s" Time.pp v.at v.invariant v.detail

type t = {
  engine : Engine.t;
  sender : Sender.t;
  receiver : Receiver.t;
  metrics : Metrics.t;
  max_skip_per_reset : int option;
  check_replay : bool;
  mutable last_epoch : int;
  mutable last_edge : int;
  mutable seen_replay_accepted : int;
  down_dropped : (int * int, unit) Hashtbl.t;
      (* (epoch, seq) of fresh copies the receiver lost to a reset *)
  mutable seen_duplicates : int;
  mutable seen_reused : int;
  mutable violations_rev : violation list;
  mutable count : int;
  mutable finished : bool;
}

(* A broken configuration violates on nearly every packet; keep the
   record bounded so pathological runs stay cheap. *)
let max_recorded = 1_000

let record t invariant detail =
  if t.count < max_recorded then begin
    t.violations_rev <-
      { invariant; at = Engine.now t.engine; detail } :: t.violations_rev;
    t.count <- t.count + 1
  end

(* A replayed copy accepted for a number the receiver never delivered,
   whose fresh copy it lost to a reset, is that number's first
   delivery — the adversary merely re-sent what the dead host missed,
   just as with a link drop. Count it as seen so it is not reported;
   every other replayed acceptance still is. *)
let excuse_missed_replay t ~seq =
  let m = t.metrics in
  if
    m.Metrics.replay_accepted = t.seen_replay_accepted + 1
    && Metrics.delivery_count m ~seq = 1
    && Hashtbl.mem t.down_dropped (m.Metrics.epoch, seq)
  then t.seen_replay_accepted <- m.Metrics.replay_accepted

let check_now t =
  let m = t.metrics in
  (* An epoch bump means a fresh SA: its sequence space is new, so the
     edge baseline restarts rather than count as a regression. *)
  if m.Metrics.epoch <> t.last_epoch then begin
    t.last_epoch <- m.Metrics.epoch;
    t.last_edge <- 0
  end;
  let edge = Receiver.right_edge t.receiver in
  if edge < t.last_edge then
    record t "edge-regression"
      (Printf.sprintf "window right edge moved %d -> %d within epoch %d"
         t.last_edge edge t.last_epoch)
  else t.last_edge <- edge;
  if t.check_replay && m.Metrics.replay_accepted > t.seen_replay_accepted
  then begin
    record t "replay-accepted"
      (Printf.sprintf "%d replayed packet(s) delivered (total %d)"
         (m.Metrics.replay_accepted - t.seen_replay_accepted)
         m.Metrics.replay_accepted);
    t.seen_replay_accepted <- m.Metrics.replay_accepted
  end;
  if m.Metrics.duplicate_deliveries > t.seen_duplicates then begin
    record t "duplicate-delivery"
      (Printf.sprintf "%d sequence number(s) delivered twice (total %d)"
         (m.Metrics.duplicate_deliveries - t.seen_duplicates)
         m.Metrics.duplicate_deliveries);
    t.seen_duplicates <- m.Metrics.duplicate_deliveries
  end;
  if m.Metrics.reused_seqnos > t.seen_reused then begin
    record t "seqno-reuse"
      (Printf.sprintf "sender re-issued %d sequence number(s) (total %d)"
         (m.Metrics.reused_seqnos - t.seen_reused)
         m.Metrics.reused_seqnos);
    t.seen_reused <- m.Metrics.reused_seqnos
  end

let attach ?max_skip_per_reset ?(check_replay = true) ~sender ~receiver
    ~metrics engine =
  let t =
    {
      engine;
      sender;
      receiver;
      metrics;
      max_skip_per_reset;
      check_replay;
      last_epoch = metrics.Metrics.epoch;
      last_edge = Receiver.right_edge receiver;
      seen_replay_accepted = metrics.Metrics.replay_accepted;
      down_dropped = Hashtbl.create 64;
      seen_duplicates = metrics.Metrics.duplicate_deliveries;
      seen_reused = metrics.Metrics.reused_seqnos;
      violations_rev = [];
      count = 0;
      finished = false;
    }
  in
  Receiver.on_deliver receiver (fun ~seq ~payload:_ ->
      excuse_missed_replay t ~seq;
      check_now t);
  Receiver.on_down_drop receiver (fun ~seq ~replayed ->
      if not replayed then
        Hashtbl.replace t.down_dropped (metrics.Metrics.epoch, seq) ());
  t

let violations t = List.rev t.violations_rev

let finish ?(expect_up = false) t =
  if not t.finished then begin
    t.finished <- true;
    check_now t;
    let m = t.metrics in
    (match t.max_skip_per_reset with
    | Some bound when m.Metrics.p_resets > 0 ->
      let limit = bound * m.Metrics.p_resets in
      if m.Metrics.skipped_seqnos > limit then
        record t "skip-bound"
          (Printf.sprintf
             "%d sequence numbers skipped over %d sender reset(s), bound %d"
             m.Metrics.skipped_seqnos m.Metrics.p_resets limit)
    | Some _ | None -> ());
    if expect_up then begin
      (* Wedged = down with no recovery in progress after every
         scheduled wakeup has fired: the endpoint will never come back.
         Mid-recovery at the horizon (retries, backoff, a degraded IKE
         handshake in flight) is convergence in progress, not a
         violation. *)
      if Sender.is_down t.sender && not (Sender.is_recovering t.sender) then
        record t "wedged" "sender down with no recovery in progress";
      if
        Receiver.is_down t.receiver
        && not (Receiver.is_recovering t.receiver)
      then record t "wedged" "receiver down with no recovery in progress"
    end
  end;
  violations t
