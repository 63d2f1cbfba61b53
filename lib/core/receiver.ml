open Resets_sim
open Resets_persist
open Resets_ipsec

type persistence = {
  store : Store.t;
  key : string;
  policy : K_policy.t;
  robust : bool;
  wakeup_buffer : bool;
  retries : int;
}

type status = Up | Down | Waking

type t = {
  engine : Engine.t;
  name : string;
  trace : Trace.t option;
  framing : Packet.framing;
  mutable sa : Sa.t;
  metrics : Metrics.t;
  persistence : persistence option;
  mutable status : status;
  mutable lst : int; (* last stored (or begun) right edge *)
  mutable durable : int; (* mirror of the disk's content *)
  mutable wakeup_buffer_q : Packet.t list; (* newest first *)
  mutable catchup_buffer : Packet.t list; (* newest first *)
  mutable catchup_saving : bool;
  mutable save_failing : bool; (* a periodic SAVE failed; none has
                                  succeeded since *)
  mutable pending_ready : (unit -> unit) option;
      (* wakeup's on_ready, fired by whichever path brings us up *)
  mutable degrade : (unit -> unit) option;
  mutable deliver_hooks : (seq:int -> payload:Resets_util.Slice.t -> unit) list;
  mutable down_drop_hooks : (seq:int -> replayed:bool -> unit) list;
  mutable last_fresh_at : Time.t option;
      (* previous fresh delivery instant, feeding the policy's gap
         estimate (the receiver's view of t_msg) *)
}


let create ?(name = "q") ?trace ?(framing = Packet.Seq64)
    ?(preload_store = true) ~sa ~metrics ~persistence engine =
  let initial_edge = Resets_ipsec.Replay_window.right_edge sa.Sa.window in
  if preload_store then
    Option.iter
      (fun p -> Store.preload p.store ~key:p.key ~value:initial_edge)
      persistence;
  {
    engine;
    name;
    trace;
    framing;
    sa;
    metrics;
    persistence;
    status = Up;
    lst = initial_edge;
    durable = initial_edge;
    wakeup_buffer_q = [];
    catchup_buffer = [];
    catchup_saving = false;
    save_failing = false;
    pending_ready = None;
    degrade = None;
    deliver_hooks = [];
    down_drop_hooks = [];
    last_fresh_at = None;
  }

let tell t event detail =
  match t.trace with
  | None -> ()
  | Some trace ->
    Trace.record trace ~time:(Engine.now t.engine) ~source:t.name ~event detail

let on_deliver t hook = t.deliver_hooks <- t.deliver_hooks @ [ hook ]
let on_down_drop t hook = t.down_drop_hooks <- t.down_drop_hooks @ [ hook ]

let set_degrade_handler t f = t.degrade <- Some f

let window t = t.sa.Sa.window

(* Capped exponential backoff for recovery retries: the n-th retry
   waits 2^n disk latencies, capped at 8. *)
let backoff_delay base n = Time.mul base (min (1 lsl n) 8)

let maybe_begin_periodic_save t =
  match t.persistence with
  | None -> ()
  | Some p ->
    let r = Replay_window.right_edge (window t) in
    if r >= K_policy.current p.policy + t.lst then begin
      let prev_lst = t.lst in
      t.lst <- r;
      Store.save p.store ~key:p.key ~value:r
        ~on_error:(fun () ->
          (* Nothing became durable: roll the save threshold back so the
             next accepted packet re-triggers the write, and engage the
             bounded-slide guard until a SAVE succeeds again. *)
          t.metrics.Metrics.save_failures <- t.metrics.Metrics.save_failures + 1;
          t.save_failing <- true;
          if t.lst = r then t.lst <- prev_lst;
          tell t "save.fail" (string_of_int r))
        ~on_complete:(fun () ->
          t.save_failing <- false;
          if r > t.durable then t.durable <- r;
          K_policy.note_durable p.policy)
    end

let deliver t ~seq ~payload ~replayed =
  Sa.note_received t.sa;
  Metrics.record_delivery t.metrics ~seq ~replayed;
  (* Fresh arrivals measure the receiver's view of the inter-send gap
     (a no-op for static policies). *)
  (if not replayed then
     match t.persistence with
     | None -> ()
     | Some p ->
       let now = Engine.now t.engine in
       (match t.last_fresh_at with
       | Some prev when Time.(prev <= now) ->
         K_policy.observe_send_gap p.policy (Time.diff now prev)
       | Some _ | None -> ());
       t.last_fresh_at <- Some now);
  List.iter (fun hook -> hook ~seq ~payload) t.deliver_hooks

(* Process one packet through decap + window. Returns [`Deferred pkt]
   in robust mode when the packet must wait for an urgent SAVE. *)
let rec process t (pkt : Packet.t) =
  let decapped =
    match t.framing with
    | Packet.Seq64 -> Esp.decap_slice ~sa:t.sa.Sa.params pkt.Packet.wire
    | Packet.Esn32 ->
      Esp.decap_esn_slice ~sa:t.sa.Sa.params
        ~edge:(Replay_window.right_edge t.sa.Sa.window)
        ~w:(Replay_window.w t.sa.Sa.window)
        pkt.Packet.wire
  in
  match decapped with
  | Error _ -> t.metrics.Metrics.bad_icv <- t.metrics.Metrics.bad_icv + 1
  | Ok (seq, payload) ->
    if pkt.Packet.replayed then
      t.metrics.Metrics.arrived_replayed <- t.metrics.Metrics.arrived_replayed + 1
    else t.metrics.Metrics.arrived_fresh <- t.metrics.Metrics.arrived_fresh + 1;
    let prospective = max seq (Replay_window.right_edge (window t)) in
    (* [robust] opts into the bounded-slide rule permanently; a failing
       SAVE engages it for everyone — while durability lags, letting the
       edge run past [durable + leap] would make a post-crash resume
       edge fall below the old edge, re-opening the replay hole. *)
    let needs_catchup =
      match t.persistence with
      | Some p ->
        (p.robust || t.save_failing)
        && prospective > t.durable + K_policy.leap p.policy
      | None -> false
    in
    if needs_catchup then defer t pkt ~edge:prospective
    else begin
      let verdict = Replay_window.admit (window t) seq in
      tell t "rcv"
        (Printf.sprintf "#%d %s" seq (Replay_window.verdict_to_string verdict));
      if Replay_window.verdict_accepts verdict then begin
        let displacement = Replay_window.right_edge (window t) - seq in
        if displacement > t.metrics.Metrics.max_displacement then
          t.metrics.Metrics.max_displacement <- displacement;
        deliver t ~seq ~payload ~replayed:pkt.Packet.replayed;
        maybe_begin_periodic_save t
      end
      else Metrics.record_rejection t.metrics ~seq ~replayed:pkt.Packet.replayed
    end

(* Robust mode: hold the packet and make the prospective edge durable
   before letting the window slide to it. *)
and defer t pkt ~edge =
  t.catchup_buffer <- pkt :: t.catchup_buffer;
  match t.persistence with
  | None -> assert false
  | Some p ->
    if not t.catchup_saving then begin
      t.catchup_saving <- true;
      tell t "catchup.begin" (string_of_int edge);
      catchup_save t p ~edge ~attempt:0
    end

and catchup_save t p ~edge ~attempt =
  Store.save p.store ~key:p.key ~value:edge
    ~on_error:(fun () ->
      t.metrics.Metrics.save_failures <- t.metrics.Metrics.save_failures + 1;
      if attempt + 1 >= p.retries then begin
        (* Retry budget exhausted. The held packets stay buffered and
           the next arrival re-arms the save with a fresh budget — or,
           when a degrade handler is wired, the association abandons the
           store and re-establishes. *)
        t.catchup_saving <- false;
        tell t "catchup.give_up" (string_of_int edge);
        degrade_now t
      end
      else begin
        t.metrics.Metrics.save_retries <- t.metrics.Metrics.save_retries + 1;
        tell t "catchup.retry" (string_of_int edge);
        catchup_save t p ~edge ~attempt:(attempt + 1)
      end)
    ~on_complete:(fun () ->
      if edge > t.durable then t.durable <- edge;
      if edge > t.lst then t.lst <- edge;
      t.save_failing <- false;
      t.catchup_saving <- false;
      tell t "catchup.done" (string_of_int edge);
      let held = List.rev t.catchup_buffer in
      t.catchup_buffer <- [];
      if t.status = Up then List.iter (process t) held)

(* The store has exhausted its trust: record the degradation and hand
   the association to the re-establishment fallback (fresh SA, fresh
   window, fresh keys) when one is wired. Without a handler the
   endpoint keeps retrying at the protocol's own pace — never silently
   unsafe, only slower. *)
and degrade_now t =
  t.metrics.Metrics.degraded_reestablish <-
    t.metrics.Metrics.degraded_reestablish + 1;
  tell t "degrade" "falling back to re-establishment";
  match t.degrade with
  | None -> ()
  | Some f ->
    t.catchup_buffer <- [];
    t.catchup_saving <- false;
    f ()

(* Arrivals the host lost to a reset — dropped while down, or held in
   a RAM buffer the crash wiped. The hooks get the sequence number an
   on-path observer would peek (measurement only: the monitor uses it
   to tell a replay of a number never delivered from a true replay). *)
let notify_lost t (pkt : Packet.t) =
  if t.down_drop_hooks <> [] then begin
    let seq =
      match t.framing with
      | Packet.Seq64 -> Esp.seq_of_packet pkt.Packet.wire
      | Packet.Esn32 ->
        Esp.seq_of_packet_esn
          ~edge:(Replay_window.right_edge (window t))
          ~w:(Replay_window.w (window t))
          pkt.Packet.wire
    in
    Option.iter
      (fun seq ->
        List.iter
          (fun hook -> hook ~seq ~replayed:pkt.Packet.replayed)
          t.down_drop_hooks)
      seq
  end

let drop_while_down t pkt =
  t.metrics.Metrics.dropped_host_down <- t.metrics.Metrics.dropped_host_down + 1;
  notify_lost t pkt

let on_packet t pkt =
  match t.status with
  | Up -> process t pkt
  | Down ->
    (* The host is off: arrivals are lost, like any packet sent to a
       dead machine. *)
    drop_while_down t pkt
  | Waking -> (
    match t.persistence with
    | Some { wakeup_buffer = true; _ } ->
      t.metrics.Metrics.buffered_during_wakeup <-
        t.metrics.Metrics.buffered_during_wakeup + 1;
      t.wakeup_buffer_q <- pkt :: t.wakeup_buffer_q
    | Some { wakeup_buffer = false; _ } | None -> drop_while_down t pkt)

let reset t =
  if t.status <> Down then begin
    t.status <- Down;
    List.iter (notify_lost t) t.wakeup_buffer_q;
    List.iter (notify_lost t) t.catchup_buffer;
    t.wakeup_buffer_q <- [];
    t.catchup_buffer <- [];
    t.catchup_saving <- false;
    t.save_failing <- false; (* RAM state: a crash forgets it *)
    t.pending_ready <- None;
    t.last_fresh_at <- None; (* downtime is not an inter-send gap *)
    Option.iter (fun p -> Store.crash p.store) t.persistence;
    t.metrics.Metrics.q_resets <- t.metrics.Metrics.q_resets + 1;
    tell t "reset" ""
  end

let drain_wakeup_buffer t =
  let held = List.rev t.wakeup_buffer_q in
  t.wakeup_buffer_q <- [];
  List.iter (process t) held

let fire_ready t =
  match t.pending_ready with
  | None -> ()
  | Some f ->
    t.pending_ready <- None;
    f ()

let wakeup t ?(on_ready = fun () -> ()) () =
  if t.status = Up then invalid_arg "Receiver.wakeup: not down";
  if t.status = Waking then () (* recovery already in progress *)
  else
  match t.persistence with
  | None ->
    (* Volatile baseline: Section 3's process q restarts with r = 0. *)
    Replay_window.volatile_reset (window t);
    t.lst <- 0;
    t.status <- Up;
    tell t "wakeup" "volatile, r=0";
    on_ready ()
  | Some p ->
    t.status <- Waking;
    (* [on_ready] is held aside so that whichever path finally brings
       the receiver up — this wakeup or a degraded re-establishment's
       [resume_at] — fires it exactly once. *)
    t.pending_ready <- Some on_ready;
    let base = Store.base_latency p.store in
    (* FETCH with verification. A corrupt or stale record is retried
       with capped exponential backoff — transient-fault semantics: a
       re-read may serve the good copy — and after the budget the SA
       stops trusting the store and degrades. *)
    let rec attempt_fetch n =
      match Store.fetch_checked p.store ~key:p.key with
      | Store.Fetched v -> begin_leap_save v
      | Store.Missing -> begin_leap_save 0
      | Store.Corrupt | Store.Stale _ ->
        t.metrics.Metrics.fetch_failures <- t.metrics.Metrics.fetch_failures + 1;
        if n + 1 >= p.retries then degrade_now t
        else begin
          t.metrics.Metrics.save_retries <- t.metrics.Metrics.save_retries + 1;
          tell t "fetch.retry" (string_of_int (n + 1));
          ignore
            (Engine.schedule_after t.engine ~after:(backoff_delay base n)
               (fun () -> if t.status = Waking then attempt_fetch (n + 1)))
        end
    and begin_leap_save fetched =
      let new_edge = fetched + K_policy.leap p.policy in
      tell t "fetch" (Printf.sprintf "fetched %d, leaping to %d" fetched new_edge);
      attempt_save new_edge 0
    and attempt_save new_edge n =
      Store.save p.store ~key:p.key ~value:new_edge
        ~on_error:(fun () ->
          t.metrics.Metrics.save_failures <- t.metrics.Metrics.save_failures + 1;
          if n + 1 >= p.retries then degrade_now t
          else begin
            t.metrics.Metrics.save_retries <- t.metrics.Metrics.save_retries + 1;
            tell t "wakeup.save_retry" (string_of_int (n + 1));
            ignore
              (Engine.schedule_after t.engine ~after:(backoff_delay base n)
                 (fun () -> if t.status = Waking then attempt_save new_edge (n + 1)))
          end)
        ~on_complete:(fun () ->
          Replay_window.resume_at (window t) new_edge;
          t.lst <- new_edge;
          t.durable <- new_edge;
          t.status <- Up;
          tell t "wakeup" (Printf.sprintf "resume at edge %d" new_edge);
          drain_wakeup_buffer t;
          fire_ready t)
    in
    attempt_fetch 0

(* A fresh SA's edge becomes the store's durable truth for this key
   (establishment state is durable by assumption), or a later reset
   would FETCH the dead sequence space's edge and resume the new window
   far ahead of the sender. *)
let resync_store t =
  let edge = Replay_window.right_edge (window t) in
  (match t.persistence with
  | None -> ()
  | Some p -> Store.preload p.store ~key:p.key ~value:edge);
  t.lst <- edge;
  t.durable <- edge;
  t.save_failing <- false

(* Host-managed recovery: the edge was determined (and made durable)
   externally — e.g. by a coalesced snapshot write or a fresh handshake —
   so skip the per-receiver FETCH + blocking SAVE and come up at once. *)
let resume_at t ~edge =
  if t.status = Up then invalid_arg "Receiver.resume_at: not down";
  Replay_window.resume_at (window t) edge;
  resync_store t;
  t.status <- Up;
  tell t "wakeup" (Printf.sprintf "resume at edge %d (host-managed)" edge);
  drain_wakeup_buffer t;
  fire_ready t

let is_down t = t.status <> Up
let is_recovering t = t.status = Waking

let right_edge t = Replay_window.right_edge (window t)

let last_stored t =
  match t.persistence with
  | None -> None
  | Some p -> Store.fetch p.store ~key:p.key

let install_sa t sa =
  t.sa <- sa;
  Metrics.bump_epoch t.metrics

let sa t = t.sa
