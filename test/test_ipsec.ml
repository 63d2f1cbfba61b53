(* IPsec substrate tests: SAs, ESP/AH codecs, the SADB, IKE-lite and
   dead-peer detection. *)

open Resets_sim
open Resets_ipsec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let params ?algo ?(spi = 0x42l) () =
  Sa.derive_params ?algo ~spi ~secret:"test-secret" ()

(* ------------------------------------------------------------------ *)
(* Sa *)

let test_derive_deterministic () =
  let a = params () and b = params () in
  check_bool "same inputs -> same keys" true (a.Sa.keys = b.Sa.keys);
  let c = Sa.derive_params ~spi:0x42l ~secret:"other" () in
  check_bool "different secret -> different keys" true (a.Sa.keys <> c.Sa.keys);
  let d = Sa.derive_params ~spi:0x43l ~secret:"test-secret" () in
  check_bool "different spi -> different keys" true (a.Sa.keys <> d.Sa.keys)

let test_key_material_sizes () =
  let p = params () in
  check_int "auth key" 32 (String.length p.Sa.keys.Sa.auth_key);
  check_int "enc key" 32 (String.length p.Sa.keys.Sa.enc_key);
  check_int "salt" 4 (String.length p.Sa.keys.Sa.salt);
  check_bool "keys differ" true (p.Sa.keys.Sa.auth_key <> p.Sa.keys.Sa.enc_key)

let test_next_send_seq_post_increments () =
  let sa = Sa.create (params ()) in
  check_int "first" 1 (Sa.next_send_seq sa);
  check_int "second" 2 (Sa.next_send_seq sa);
  check_int "next pending" 3 (Sa.send_seq sa);
  check_int "sent counter" 2 (Sa.packets_sent sa)

let test_lifetime () =
  let p = Sa.derive_params ~lifetime_packets:2 ~spi:1l ~secret:"s" () in
  let sa = Sa.create p in
  check_bool "fresh" false (Sa.lifetime_exceeded sa);
  ignore (Sa.next_send_seq sa);
  ignore (Sa.next_send_seq sa);
  check_bool "exceeded" true (Sa.lifetime_exceeded sa);
  let unlimited = Sa.create (params ()) in
  for _ = 1 to 100 do
    ignore (Sa.next_send_seq unlimited)
  done;
  check_bool "no lifetime" false (Sa.lifetime_exceeded unlimited)

let test_sa_volatile_reset () =
  let sa = Sa.create (params ()) in
  for _ = 1 to 10 do
    ignore (Sa.next_send_seq sa)
  done;
  ignore (Replay_window.admit sa.Sa.window 5);
  Sa.volatile_reset sa;
  check_int "seq forgotten" 1 (Sa.send_seq sa);
  check_int "window forgotten" 0 (Replay_window.right_edge sa.Sa.window)

let test_icv_lengths () =
  check_int "truncated" 16 (Sa.icv_length Sa.Hmac_sha256_128);
  check_int "full" 32 (Sa.icv_length Sa.Hmac_sha256_full)

(* ------------------------------------------------------------------ *)
(* Esp *)

let test_esp_roundtrip () =
  let sa = params () in
  let wire = Esp.encap ~sa ~seq:7 ~payload:"the payload" in
  match Esp.decap ~sa wire with
  | Ok (seq, payload) ->
    check_int "seq" 7 seq;
    check_str "payload" "the payload" payload
  | Error e -> Alcotest.failf "decap failed: %s" (Esp.error_to_string e)

let test_esp_payload_encrypted () =
  let sa = params () in
  let payload = "very secret payload content" in
  let wire = Esp.encap ~sa ~seq:1 ~payload in
  (* the plaintext must not appear in the wire bytes *)
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "ciphertext opaque" false (contains wire payload)

let test_esp_null_encr_exposes_payload () =
  let sa = params ~algo:{ Sa.integ = Sa.Hmac_sha256_128; encr = Sa.Null_encr } () in
  let wire = Esp.encap ~sa ~seq:1 ~payload:"clear" in
  check_str "payload in clear" "clear" (String.sub wire 12 5);
  match Esp.decap ~sa wire with
  | Ok (_, payload) -> check_str "roundtrip" "clear" payload
  | Error _ -> Alcotest.fail "null-encr decap failed"

let test_esp_tamper_detected () =
  let sa = params () in
  let wire = Esp.encap ~sa ~seq:3 ~payload:"data" in
  (* flip one bit in every position; decap must never succeed *)
  for i = 0 to String.length wire - 1 do
    let tampered =
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) wire
    in
    match Esp.decap ~sa tampered with
    | Ok _ -> Alcotest.failf "bit flip at %d accepted" i
    | Error _ -> ()
  done

let test_esp_wrong_sa_rejected () =
  let sa = params () in
  let other = Sa.derive_params ~spi:0x42l ~secret:"different" () in
  let wire = Esp.encap ~sa ~seq:1 ~payload:"x" in
  check_bool "wrong keys rejected" true (Result.is_error (Esp.decap ~sa:other wire))

let test_esp_malformed () =
  let sa = params () in
  check_bool "empty" true (Esp.decap ~sa "" = Error Esp.Malformed);
  check_bool "short" true (Esp.decap ~sa "short" = Error Esp.Malformed)

let test_esp_peek () =
  let sa = params () in
  let wire = Esp.encap ~sa ~seq:12345 ~payload:"x" in
  Alcotest.(check (option int)) "seq peek" (Some 12345) (Esp.seq_of_packet wire);
  Alcotest.(check (option int32)) "spi peek" (Some 0x42l) (Esp.spi_of_packet wire);
  Alcotest.(check (option int)) "peek short" None (Esp.seq_of_packet "xx")

let test_esp_overhead () =
  let sa = params () in
  let wire = Esp.encap ~sa ~seq:1 ~payload:"12345" in
  check_int "overhead formula" (String.length wire - 5) (Esp.overhead ~sa);
  let full = params ~algo:{ Sa.integ = Sa.Hmac_sha256_full; encr = Sa.Chacha20 } () in
  check_int "full tag overhead" (12 + 32) (Esp.overhead ~sa:full)

let test_esp_rejects_negative_seq () =
  let sa = params () in
  Alcotest.check_raises "negative" (Invalid_argument "Esp.encap: negative sequence number")
    (fun () -> ignore (Esp.encap ~sa ~seq:(-1) ~payload:""))

let test_esp_peek_esn () =
  let sa = params () in
  let seq = (1 lsl 32) + 7 in
  let wire = Esp.encap_esn ~sa ~seq ~payload:"x" in
  (* the wire carries only the 32 low bits *)
  Alcotest.(check (option int)) "low bits" (Some 7) (Esp.seq_low_of_packet_esn wire);
  (* a framing-aware peek recovers the full value from the window position *)
  Alcotest.(check (option int)) "full seq inferred" (Some seq)
    (Esp.seq_of_packet_esn ~edge:(seq - 3) ~w:64 wire);
  (* the Seq64 peek reads 8 bytes where only 4 are sequence — wrong answer *)
  check_bool "seq64 peek misreads esn wire" true (Esp.seq_of_packet wire <> Some seq);
  (* a low value whose inferred epoch is pre-history yields None *)
  let early = Esp.encap_esn ~sa ~seq:((1 lsl 32) - 1) ~payload:"x" in
  Alcotest.(check (option int)) "pre-history" None
    (Esp.seq_of_packet_esn ~edge:0 ~w:64 early);
  Alcotest.(check (option int)) "short wire" None
    (Esp.seq_of_packet_esn ~edge:0 ~w:64 "xx");
  Alcotest.(check (option int)) "short wire low" None (Esp.seq_low_of_packet_esn "xx")

let esp_esn_peek_matches_decap =
  QCheck.Test.make ~name:"esn peek agrees with what decap verifies" ~count:200
    QCheck.(pair (int_range 64 1_000_000) small_nat)
    (fun (edge, delta) ->
      let sa = params () in
      let seq = edge + 1 + (delta mod 64) in
      let wire = Esp.encap_esn ~sa ~seq ~payload:"p" in
      match
        (Esp.seq_of_packet_esn ~edge ~w:64 wire, Esp.decap_esn ~sa ~edge ~w:64 wire)
      with
      | Some peeked, Ok (verified, _) -> peeked = seq && verified = seq
      | _ -> false)

let esp_decap_never_crashes =
  (* fuzz: arbitrary bytes produce Error (or, vanishingly unlikely, a
     valid packet) but never an exception *)
  QCheck.Test.make ~name:"esp decap is total on arbitrary bytes" ~count:500
    QCheck.string
    (fun junk ->
      let sa = params () in
      (match Esp.decap ~sa junk with
      | Ok _ | Error _ -> true)
      &&
      match Esp.decap_esn ~sa ~edge:1000 ~w:64 junk with
      | Ok _ | Error _ -> true)

let esp_bitflip_never_accepted =
  QCheck.Test.make ~name:"random bit flips never verify" ~count:300
    QCheck.(pair small_nat (pair (int_range 0 10_000) small_nat))
    (fun (flip_seed, (seq, payload_len)) ->
      let sa = params () in
      let payload = String.make (payload_len mod 64) 'p' in
      let wire = Esp.encap ~sa ~seq ~payload in
      let pos = flip_seed mod String.length wire in
      let bit = 1 lsl (flip_seed mod 8) in
      let tampered =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor bit) else c)
          wire
      in
      Result.is_error (Esp.decap ~sa tampered))

let esp_roundtrip_property =
  QCheck.Test.make ~name:"esp roundtrip for any payload and seq" ~count:200
    QCheck.(pair string (int_range 0 1_000_000_000))
    (fun (payload, seq) ->
      let sa = params () in
      match Esp.decap ~sa (Esp.encap ~sa ~seq ~payload) with
      | Ok (seq', payload') -> seq' = seq && payload' = payload
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Ah *)

let test_ah_roundtrip () =
  let sa = params () in
  let wire = Ah.encap ~sa ~seq:9 ~payload:"clear but authenticated" in
  match Ah.decap ~sa wire with
  | Ok (seq, payload) ->
    check_int "seq" 9 seq;
    check_str "payload" "clear but authenticated" payload
  | Error _ -> Alcotest.fail "ah decap failed"

let test_ah_tamper_detected () =
  let sa = params () in
  let wire = Ah.encap ~sa ~seq:1 ~payload:"data" in
  let n = String.length wire in
  let tampered =
    String.mapi (fun j c -> if j = n - 1 then Char.chr (Char.code c lxor 0x80) else c) wire
  in
  check_bool "payload tamper rejected" true (Result.is_error (Ah.decap ~sa tampered))

let test_ah_payload_visible () =
  let sa = params () in
  let wire = Ah.encap ~sa ~seq:1 ~payload:"visible" in
  check_str "payload in clear at tail" "visible"
    (String.sub wire (String.length wire - 7) 7)

(* ------------------------------------------------------------------ *)
(* Sadb *)

let test_sadb_install_lookup () =
  let db = Sadb.create () in
  let sa = Sa.create (params ()) in
  Sadb.install db sa;
  check_int "count" 1 (Sadb.count db);
  check_bool "found" true (Sadb.lookup db ~spi:0x42l = Some sa);
  check_bool "missing" true (Sadb.lookup db ~spi:0x99l = None)

let test_sadb_duplicate_rejected () =
  let db = Sadb.create () in
  Sadb.install db (Sa.create (params ()));
  Alcotest.check_raises "dup" (Invalid_argument "Sadb.install: duplicate SPI")
    (fun () -> Sadb.install db (Sa.create (params ())))

let test_sadb_remove_clear () =
  let db = Sadb.create () in
  Sadb.install db (Sa.create (params ()));
  Sadb.install db (Sa.create (params ~spi:0x43l ()));
  Sadb.remove db ~spi:0x42l;
  check_int "after remove" 1 (Sadb.count db);
  Sadb.remove db ~spi:0x42l (* idempotent *);
  Sadb.clear db;
  check_int "after clear" 0 (Sadb.count db)

let test_sadb_volatile_reset_keeps_keys () =
  let db = Sadb.create () in
  let sa = Sa.create (params ()) in
  ignore (Sa.next_send_seq sa);
  ignore (Sa.next_send_seq sa);
  Sadb.install db sa;
  Sadb.volatile_reset db;
  check_int "seq reset" 1 (Sa.send_seq sa);
  check_bool "keys intact" true
    ((Option.get (Sadb.lookup db ~spi:0x42l)).Sa.params.Sa.keys = sa.Sa.params.Sa.keys)

let test_sadb_fold_spis () =
  let db = Sadb.create () in
  Sadb.install db (Sa.create (params ()));
  Sadb.install db (Sa.create (params ~spi:0x43l ()));
  check_int "fold" 2 (Sadb.fold (fun acc _ -> acc + 1) 0 db);
  Alcotest.(check (list int32)) "spis" [ 0x42l; 0x43l ]
    (List.sort compare (Sadb.spis db))

let test_sadb_iteration_order_pinned () =
  (* Traversal must be ascending SPI regardless of insertion order —
     recovery sweeps iterating the database must not inherit hashtable
     order (which varies with insertion history and would break the
     sharded simulation's sequential oracle). *)
  let db = Sadb.create () in
  let scrambled = [ 0x99l; 0x03l; 0x7fl; 0x42l; 0x01l; 0xe0l; 0x55l ] in
  List.iter (fun spi -> Sadb.install db (Sa.create (params ~spi ()))) scrambled;
  let ascending = List.sort Int32.compare scrambled in
  Alcotest.(check (list int32)) "spis ascending" ascending (Sadb.spis db);
  let seen = ref [] in
  Sadb.iter (fun sa -> seen := sa.Sa.params.Sa.spi :: !seen) db;
  Alcotest.(check (list int32)) "iter ascending" ascending (List.rev !seen);
  Alcotest.(check (list int32)) "fold ascending" ascending
    (List.rev (Sadb.fold (fun acc sa -> sa.Sa.params.Sa.spi :: acc) [] db))

(* ------------------------------------------------------------------ *)
(* Ike *)

let test_ike_duration_formula () =
  let cost = { Ike.compute = Time.of_ms 2; rtt = Time.of_ms 10; kdf_iterations = 8 } in
  Alcotest.(check int64) "4c + 2rtt" 28_000_000L
    (Time.to_ns (Ike.handshake_duration cost))

let test_ike_establish_timing_and_agreement () =
  let engine = Engine.create () in
  let cost = { Ike.compute = Time.of_us 100; rtt = Time.of_us 500; kdf_iterations = 4 } in
  let prng = Resets_util.Prng.create 1 in
  let got = ref None in
  Ike.establish engine ~cost ~prng ~spi:0x7777l ~on_complete:(fun p ->
      got := Some (p, Engine.now engine));
  ignore (Engine.run engine);
  match !got with
  | None -> Alcotest.fail "handshake never completed"
  | Some (p, at) ->
    Alcotest.(check int64) "completes at 4c+2rtt" 1_400_000L (Time.to_ns at);
    check_bool "spi" true (p.Sa.spi = 0x7777l);
    (* both sides derive the same params from the same nonces *)
    let again =
      Ike.derive_shared_params ~spi:0x1l ~nonce_i:"a" ~nonce_r:"b" ~kdf_iterations:4 ()
    in
    let again' =
      Ike.derive_shared_params ~spi:0x1l ~nonce_i:"a" ~nonce_r:"b" ~kdf_iterations:4 ()
    in
    check_bool "agreement" true (again.Sa.keys = again'.Sa.keys)

let test_ike_message_count () = check_int "4 messages" 4 Ike.message_count

(* ------------------------------------------------------------------ *)
(* Dpd *)

let dpd_config =
  { Dpd.interval = Time.of_ms 1; timeout = Time.of_us 400; max_misses = 3 }

let test_dpd_detects_death () =
  let e = Engine.create () in
  let dead_at = ref None in
  let dpd =
    Dpd.create e dpd_config
      ~send_probe:(fun () -> ())
      ~on_dead:(fun () -> dead_at := Some (Engine.now e))
  in
  Dpd.start dpd;
  ignore (Engine.run ~until:(Time.of_ms 20) e);
  check_bool "dead" true (Dpd.is_dead dpd);
  (* 3 consecutive misses: probes at 0, 1ms, 2ms; third timeout at 2.4ms *)
  Alcotest.(check (option int64)) "detection time" (Some 2_400_000L)
    (Option.map Time.to_ns !dead_at)

let test_dpd_alive_peer_never_dead () =
  let e = Engine.create () in
  let dpd =
    Dpd.create e dpd_config
      ~send_probe:(fun () -> ())
      ~on_dead:(fun () -> Alcotest.fail "live peer declared dead")
  in
  Dpd.start dpd;
  (* ack every 300us for 10ms *)
  let rec ack t =
    if Time.(t < Time.of_ms 10) then
      ignore
        (Engine.schedule_at e ~at:t (fun () ->
             Dpd.probe_acked dpd;
             ack (Time.add t (Time.of_us 300))))
  in
  ack Time.zero;
  ignore (Engine.run ~until:(Time.of_ms 10) e);
  check_bool "alive" false (Dpd.is_dead dpd);
  Dpd.stop dpd

let test_dpd_revival () =
  let e = Engine.create () in
  let deaths = ref 0 in
  let dpd =
    Dpd.create e dpd_config ~send_probe:(fun () -> ()) ~on_dead:(fun () -> incr deaths)
  in
  Dpd.start dpd;
  (* peer silent until 5ms, then one ack revives it *)
  ignore (Engine.schedule_at e ~at:(Time.of_ms 5) (fun () -> Dpd.probe_acked dpd));
  ignore (Engine.run ~until:(Time.of_ms 6) e);
  check_int "died once" 1 !deaths;
  check_bool "revived" false (Dpd.is_dead dpd);
  Dpd.stop dpd

let test_dpd_stop_cancels () =
  let e = Engine.create () in
  let dpd =
    Dpd.create e dpd_config
      ~send_probe:(fun () -> ())
      ~on_dead:(fun () -> Alcotest.fail "stopped dpd fired")
  in
  Dpd.start dpd;
  ignore (Engine.schedule_at e ~at:(Time.of_us 100) (fun () -> Dpd.stop dpd));
  ignore (Engine.run ~until:(Time.of_ms 20) e);
  check_bool "not dead" false (Dpd.is_dead dpd)

let test_dpd_double_start_rejected () =
  let e = Engine.create () in
  let dpd = Dpd.create e dpd_config ~send_probe:ignore ~on_dead:ignore in
  Dpd.start dpd;
  Alcotest.check_raises "double start" (Invalid_argument "Dpd.start: already started")
    (fun () -> Dpd.start dpd)

(* ------------------------------------------------------------------ *)
(* Wire: big-endian helpers round-trip; short buffers keep their
   messages *)

let wire_roundtrip =
  QCheck.Test.make ~name:"wire be32/be64 round-trip at any offset" ~count:500
    QCheck.(triple (int_bound 16) int int)
    (fun (off, a, b) ->
      let v32 = Int32.of_int a and v64 = Int64.of_int b in
      let buf = Bytes.make 32 '\xaa' in
      Wire.set_be32 buf off v32;
      Wire.set_be64 buf (off + 4) v64;
      let s = Bytes.to_string buf in
      let streamed = Buffer.create 12 in
      Wire.put_be32 streamed v32;
      Wire.put_be64 streamed v64;
      Wire.get_be32 s off = v32
      && Wire.get_be64 s (off + 4) = v64
      && Wire.get_be32_bytes buf off = v32
      && Wire.get_be64_bytes buf (off + 4) = v64
      && Buffer.contents streamed = String.sub s off 12
      && Bytes.get buf (off + 12) = '\xaa')

let test_wire_layout_and_errors () =
  let buf = Bytes.make 12 '\x00' in
  Wire.set_be32 buf 0 0x01020304l;
  Wire.set_be64 buf 4 0x05060708090a0b0cL;
  check_str "big-endian bytes" "0102030405060708090a0b0c"
    (Resets_util.Hex.encode (Bytes.to_string buf));
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Wire.set_be32: short buffer" (fun () -> Wire.set_be32 buf 9 0l);
  raises "Wire.set_be64: short buffer" (fun () -> Wire.set_be64 buf (-1) 0L);
  raises "Wire.get_be32: short input" (fun () -> ignore (Wire.get_be32 "abc" 0));
  raises "Wire.get_be64: short input" (fun () ->
      ignore (Wire.get_be64 "0123456789" 3));
  raises "Wire.get_be32_bytes: short input" (fun () ->
      ignore (Wire.get_be32_bytes buf (-2)));
  raises "Wire.get_be64_bytes: short input" (fun () ->
      ignore (Wire.get_be64_bytes buf 5))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ipsec"
    [
      ( "sa",
        [
          Alcotest.test_case "derive determinism" `Quick test_derive_deterministic;
          Alcotest.test_case "key sizes" `Quick test_key_material_sizes;
          Alcotest.test_case "seq post-increment" `Quick test_next_send_seq_post_increments;
          Alcotest.test_case "lifetime" `Quick test_lifetime;
          Alcotest.test_case "volatile reset" `Quick test_sa_volatile_reset;
          Alcotest.test_case "icv lengths" `Quick test_icv_lengths;
        ] );
      ( "esp",
        [
          Alcotest.test_case "roundtrip" `Quick test_esp_roundtrip;
          Alcotest.test_case "payload encrypted" `Quick test_esp_payload_encrypted;
          Alcotest.test_case "null encryption" `Quick test_esp_null_encr_exposes_payload;
          Alcotest.test_case "tamper detection (every bit)" `Quick test_esp_tamper_detected;
          Alcotest.test_case "wrong SA" `Quick test_esp_wrong_sa_rejected;
          Alcotest.test_case "malformed" `Quick test_esp_malformed;
          Alcotest.test_case "peek" `Quick test_esp_peek;
          Alcotest.test_case "peek esn" `Quick test_esp_peek_esn;
          Alcotest.test_case "overhead" `Quick test_esp_overhead;
          Alcotest.test_case "negative seq" `Quick test_esp_rejects_negative_seq;
          qt esp_esn_peek_matches_decap;
          qt esp_roundtrip_property;
          qt esp_decap_never_crashes;
          qt esp_bitflip_never_accepted;
        ] );
      ( "wire",
        [
          Alcotest.test_case "layout and errors" `Quick test_wire_layout_and_errors;
          qt wire_roundtrip;
        ] );
      ( "ah",
        [
          Alcotest.test_case "roundtrip" `Quick test_ah_roundtrip;
          Alcotest.test_case "tamper" `Quick test_ah_tamper_detected;
          Alcotest.test_case "payload visible" `Quick test_ah_payload_visible;
        ] );
      ( "sadb",
        [
          Alcotest.test_case "install/lookup" `Quick test_sadb_install_lookup;
          Alcotest.test_case "duplicate" `Quick test_sadb_duplicate_rejected;
          Alcotest.test_case "remove/clear" `Quick test_sadb_remove_clear;
          Alcotest.test_case "volatile reset" `Quick test_sadb_volatile_reset_keeps_keys;
          Alcotest.test_case "fold/spis" `Quick test_sadb_fold_spis;
          Alcotest.test_case "iteration order pinned" `Quick
            test_sadb_iteration_order_pinned;
        ] );
      ( "ike",
        [
          Alcotest.test_case "duration formula" `Quick test_ike_duration_formula;
          Alcotest.test_case "establish" `Quick test_ike_establish_timing_and_agreement;
          Alcotest.test_case "message count" `Quick test_ike_message_count;
        ] );
      ( "dpd",
        [
          Alcotest.test_case "detects death" `Quick test_dpd_detects_death;
          Alcotest.test_case "alive peer" `Quick test_dpd_alive_peer_never_dead;
          Alcotest.test_case "revival" `Quick test_dpd_revival;
          Alcotest.test_case "stop" `Quick test_dpd_stop_cancels;
          Alcotest.test_case "double start" `Quick test_dpd_double_start_rejected;
        ] );
    ]
