(** Online invariant monitor: the paper's theorems as runtime
    predicates.

    Attached to a live endpoint, the monitor re-checks the paper's
    guarantees on every delivery and once at the end of the run, and
    reports breaches as structured {!violation} records — the oracle
    the chaos explorer ({!Resets_chaos.Explorer}) shrinks against.

    Invariant catalogue (the [invariant] field of each record):

    - ["replay-accepted"] — safety, Section 3: an adversary-injected
      ciphertext was delivered. SAVE/FETCH with K ≥ k{_min} keeps this
      impossible; a weakened leap (K instead of 2K) makes it
      observable. Only meaningful on a loss-free link — a replay of a
      packet the link {e dropped} is a legitimate first delivery — so
      it is gated by [check_replay]; on lossy links true Discrimination
      violations still surface as ["duplicate-delivery"]. For the same
      reason a replayed copy of a number the receiver never delivered,
      whose fresh copy it lost to a reset (dropped while down, or
      buffered in RAM when it crashed), is not reported: that is the
      number's first delivery.
    - ["duplicate-delivery"] — Discrimination: some (epoch, sequence
      number) pair was delivered twice.
    - ["seqno-reuse"] — the sender re-issued sequence numbers after a
      reset (volatile baseline; never under correct SAVE/FETCH).
    - ["edge-regression"] — the receiver's window right edge moved
      backwards within one SA epoch. A fresh SA (epoch bump) restarts
      the baseline; a weak-leap wakeup that resumes below the old edge
      trips it.
    - ["skip-bound"] — convergence, Theorem (i): total skipped
      sequence numbers exceeded [max_skip_per_reset] × (sender
      resets).
    - ["wedged"] — convergence: an endpoint is down with {e no}
      recovery in progress even though every scheduled wakeup has
      fired — it will never come back. Only checked when {!finish} is
      called with [~expect_up:true]; an endpoint mid-retry or
      mid-degraded-handshake at the horizon is converging, not wedged.

    The monitor is an observer: it reads counters and window state and
    never perturbs the run, so a monitored run is byte-identical to an
    unmonitored one. *)

type violation = {
  invariant : string;  (** catalogue slug above *)
  at : Resets_sim.Time.t;  (** simulated detection time *)
  detail : string;  (** human-readable context *)
}

val violation_to_json : violation -> Resets_util.Json.t
(** [{"invariant", "at_us", "detail"}] — the record format of the
    chaos CLI's JSON report. *)

val pp_violation : Format.formatter -> violation -> unit

type t

val attach :
  ?max_skip_per_reset:int ->
  ?check_replay:bool ->
  sender:Sender.t ->
  receiver:Receiver.t ->
  metrics:Metrics.t ->
  Resets_sim.Engine.t ->
  t
(** Register the per-delivery checks on [receiver]'s deliver hook and
    return the monitor. [max_skip_per_reset] enables the ["skip-bound"]
    end-of-run check (pass the sender's leap, 2·Kp under the paper's
    rule); [check_replay] (default [true]) should be [false] on lossy
    links — see the catalogue. Counter baselines are snapshotted at
    attach time, so attach before the run starts. At most 1000
    violations are recorded. *)

val check_now : t -> unit
(** Run the per-delivery checks on demand (the deliver hook calls this
    automatically). *)

val finish : ?expect_up:bool -> t -> violation list
(** Run the end-of-run checks (["skip-bound"], and ["wedged"] iff
    [expect_up]) and return all recorded violations in detection
    order. Pass [~expect_up:true] only when every scheduled wakeup
    fired before the horizon. Idempotent. *)

val violations : t -> violation list
(** Violations recorded so far, oldest first. *)
