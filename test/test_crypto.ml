(* Crypto substrate tests: official test vectors (FIPS 180-4, RFC
   4231, RFC 8439, RFC 5869) plus structural properties. *)

open Resets_util
open Resets_crypto

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let hex = Hex.decode

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-4 / NIST CAVS vectors *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, expect) -> check_str ("sha256 " ^ msg) expect (Sha256.hex_digest msg))
    sha_vectors

let test_sha256_long_input () =
  (* 100,000 'a's — exercises many blocks (vector derived from the
     standard million-'a' family, computed independently). *)
  let s = String.make 100_000 'a' in
  check_str "100k a's"
    (Sha256.hex_digest s)
    (Sha256.hex_digest (String.concat "" [ String.make 50_000 'a'; String.make 50_000 'a' ]))

let test_sha256_incremental_equals_oneshot () =
  let msg = "The quick brown fox jumps over the lazy dog" in
  (* Feed in awkward chunk sizes, including ones straddling the 64-byte
     block boundary. *)
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let rec feed i =
        if i < String.length msg then begin
          let len = min chunk (String.length msg - i) in
          Sha256.feed ctx (String.sub msg i len);
          feed (i + len)
        end
      in
      feed 0;
      check_str
        (Printf.sprintf "chunk %d" chunk)
        (Sha256.digest msg)
        (Sha256.finalize ctx))
    [ 1; 3; 7; 63; 64; 65 ]

let test_sha256_boundary_lengths () =
  (* Padding edge cases: lengths around the 55/56/64 byte boundaries
     must all hash without error and differ from each other. *)
  let digests =
    List.map (fun n -> Sha256.digest (String.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65 ]
  in
  let distinct = List.sort_uniq compare digests in
  Alcotest.(check int) "all distinct" (List.length digests) (List.length distinct)

let test_sha256_finalize_once () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "x";
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "reuse rejected"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let incremental_property =
  QCheck.Test.make ~name:"incremental sha256 = one-shot for any split" ~count:100
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 k);
      Sha256.feed ctx (String.sub s k (String.length s - k));
      Sha256.finalize ctx = Sha256.digest s)

let test_sha256_reset_reuse () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "first message";
  ignore (Sha256.finalize ctx);
  Sha256.reset ctx;
  Sha256.feed ctx "abc";
  check_str "reset context = fresh digest" (Sha256.digest "abc") (Sha256.finalize ctx)

let test_sha256_midstate_resume () =
  (* A 64-byte prefix compressed once, then two different tails resumed
     from the captured midstate, must equal the one-shot digests. *)
  let prefix = String.make 64 'p' in
  let ctx = Sha256.init () in
  Sha256.feed ctx prefix;
  let ms = Sha256.midstate ctx in
  List.iter
    (fun tail ->
      Sha256.restore ctx ms;
      Sha256.feed ctx tail;
      check_str ("tail " ^ tail) (Sha256.digest (prefix ^ tail)) (Sha256.finalize ctx))
    [ ""; "x"; String.make 200 'q' ];
  (* midstate off a block boundary is rejected *)
  Sha256.reset ctx;
  Sha256.feed ctx "partial";
  Alcotest.check_raises "off-boundary midstate"
    (Invalid_argument "Sha256.midstate: context not on a block boundary") (fun () ->
      ignore (Sha256.midstate ctx))

let test_sha256_finalize_into () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "abc";
  let dst = Bytes.make 40 '\xff' in
  Sha256.finalize_into ctx dst ~off:4;
  check_str "digest at offset" (Sha256.digest "abc") (Bytes.sub_string dst 4 32);
  check_str "guard bytes untouched"
    ("\xff\xff\xff\xff" ^ Bytes.sub_string dst 4 32 ^ "\xff\xff\xff\xff")
    (Bytes.to_string dst)

let test_sha256_feed_sub () =
  let s = "xxThe quick brown foxyy" in
  let ctx = Sha256.init () in
  Sha256.feed_sub ctx s ~off:2 ~len:(String.length s - 4);
  check_str "feed_sub = digest of the substring"
    (Sha256.digest "The quick brown fox")
    (Sha256.finalize ctx)

(* ------------------------------------------------------------------ *)
(* HMAC-SHA-256: RFC 4231 *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check_str "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Hmac.mac ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  check_str "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let msg = String.make 50 '\xdd' in
  check_str "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hex.encode (Hmac.mac ~key msg))

let test_hmac_rfc4231_case6_long_key () =
  (* 131-byte key: exercises the hash-the-key path. *)
  let key = String.make 131 '\xaa' in
  check_str "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hex.encode (Hmac.mac ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_truncation () =
  let tag = Hmac.mac ~key:"k" "m" in
  check_str "truncated prefix" (String.sub tag 0 16)
    (Hmac.mac_truncated ~key:"k" ~bytes:16 "m");
  Alcotest.check_raises "bad length"
    (Invalid_argument "Hmac.mac_truncated: tag length out of range") (fun () ->
      ignore (Hmac.mac_truncated ~key:"k" ~bytes:0 "m"))

let test_hmac_verify () =
  let tag = Hmac.mac_truncated ~key:"secret" ~bytes:16 "payload" in
  check_bool "accepts valid" true (Hmac.verify ~key:"secret" ~tag "payload");
  check_bool "rejects wrong msg" false (Hmac.verify ~key:"secret" ~tag "payloaX");
  check_bool "rejects wrong key" false (Hmac.verify ~key:"other" ~tag "payload");
  check_bool "rejects empty tag" false (Hmac.verify ~key:"secret" ~tag:"" "payload")

let test_hmac_state_equals_mac () =
  let st = Hmac.state ~key:"shared-key" in
  (* The same state object serves successive MACs. *)
  List.iter
    (fun msg ->
      Hmac.start st;
      Hmac.add_string st msg;
      check_str ("streaming = one-shot: " ^ msg) (Hmac.mac ~key:"shared-key" msg)
        (Hmac.finish st))
    [ ""; "a"; String.make 63 'b'; String.make 64 'c'; String.make 1000 'd' ]

let test_hmac_state_noncontiguous_cover () =
  (* Feeding header and payload separately — as the ESN/AH codecs do —
     must equal the MAC over their concatenation. *)
  let st = Hmac.state ~key:"k2" in
  let header = Bytes.of_string "HDR-12-BYTES" in
  let payload = "the covered payload" in
  Hmac.start st;
  Hmac.add_bytes st header ~off:0 ~len:(Bytes.length header);
  Hmac.add_sub st ("__" ^ payload ^ "__") ~off:2 ~len:(String.length payload);
  check_str "split cover"
    (Hmac.mac ~key:"k2" (Bytes.to_string header ^ payload))
    (Hmac.finish st)

let test_hmac_finish_into_and_verify () =
  let st = Hmac.state ~key:"k3" in
  let msg = "packet bytes" in
  let full = Hmac.mac ~key:"k3" msg in
  Hmac.start st;
  Hmac.add_string st msg;
  let dst = Bytes.make 20 '\x00' in
  Hmac.finish_into st ~bytes:16 ~dst ~dst_off:4;
  check_str "truncated tag at offset" (String.sub full 0 16) (Bytes.sub_string dst 4 16);
  (* finish_verify against a tag embedded in a larger string *)
  let packet = "prefix" ^ String.sub full 0 16 ^ "suffix" in
  Hmac.start st;
  Hmac.add_string st msg;
  check_bool "embedded tag verifies" true
    (Hmac.finish_verify st ~tag:packet ~tag_off:6 ~tag_len:16);
  let tampered = "prefix" ^ "0123456789abcdef" ^ "suffix" in
  Hmac.start st;
  Hmac.add_string st msg;
  check_bool "tampered tag rejected" false
    (Hmac.finish_verify st ~tag:tampered ~tag_off:6 ~tag_len:16);
  Hmac.start st;
  Hmac.add_string st msg;
  check_bool "out-of-range tag rejected" false
    (Hmac.finish_verify st ~tag:packet ~tag_off:20 ~tag_len:16)

let test_hmac_state_long_key () =
  (* > block-size keys hash first; the state path must agree. *)
  let key = String.make 131 '\xaa' in
  let msg = "Test Using Larger Than Block-Size Key - Hash Key First" in
  let st = Hmac.state ~key in
  Hmac.start st;
  Hmac.add_string st msg;
  check_str "long key" (Hmac.mac ~key msg) (Hmac.finish st)

let hmac_state_matches_mac_property =
  QCheck.Test.make ~name:"Hmac.state streaming = Hmac.mac for any split" ~count:200
    QCheck.(triple string string small_nat)
    (fun (key, msg, k) ->
      let key = if key = "" then "k" else key in
      let k = if String.length msg = 0 then 0 else k mod (String.length msg + 1) in
      let st = Hmac.state ~key in
      Hmac.start st;
      Hmac.add_string st (String.sub msg 0 k);
      Hmac.add_string st (String.sub msg k (String.length msg - k));
      Hmac.finish st = Hmac.mac ~key msg)

(* ------------------------------------------------------------------ *)
(* ChaCha20: RFC 8439 *)

let rfc8439_key =
  hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let test_chacha20_block_vector () =
  (* RFC 8439 section 2.3.2 *)
  let nonce = hex "000000090000004a00000000" in
  let block = Chacha20.block ~key:rfc8439_key ~nonce ~counter:1l in
  check_str "first block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Hex.encode block)

let test_chacha20_encrypt_vector () =
  (* RFC 8439 section 2.4.2 *)
  let nonce = hex "000000000000004a00000000" in
  let plain =
    "Ladies and Gentlemen of the class of '99: If I could offer you \
     only one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.crypt ~key:rfc8439_key ~nonce ~counter:1l plain in
  check_str "ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
     f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
     07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
     5af90bbf74a35be6b40b8eedf2785e42874d"
    (Hex.encode ct)

let test_chacha20_involution () =
  let nonce = hex "000000000000004a00000000" in
  let msg = "round trip" in
  let ct = Chacha20.crypt ~key:rfc8439_key ~nonce msg in
  check_str "decrypt(encrypt(m)) = m" msg (Chacha20.crypt ~key:rfc8439_key ~nonce ct)

let test_chacha20_validates_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:"short" ~nonce:(String.make 12 '\x00') ~counter:0l));
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Chacha20: nonce must be 12 bytes") (fun () ->
      ignore (Chacha20.block ~key:(String.make 32 '\x00') ~nonce:"short" ~counter:0l))

let test_chacha20_nonce_sensitivity () =
  let n1 = hex "000000000000000000000001" and n2 = hex "000000000000000000000002" in
  let msg = String.make 32 'm' in
  check_bool "different nonces differ" true
    (Chacha20.crypt ~key:rfc8439_key ~nonce:n1 msg
    <> Chacha20.crypt ~key:rfc8439_key ~nonce:n2 msg)

let test_chacha20_crypt_into_equals_crypt () =
  let st = Chacha20.state ~key:rfc8439_key in
  let nonce_s = hex "000000000000004a00000000" in
  let nonce = Bytes.of_string nonce_s in
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr (i land 0xff)) in
      let buf = Bytes.of_string msg in
      Chacha20.crypt_into st ~nonce ~counter:1l buf ~off:0 ~len;
      check_str
        (Printf.sprintf "len %d" len)
        (Chacha20.crypt ~key:rfc8439_key ~nonce:nonce_s ~counter:1l msg)
        (Bytes.to_string buf))
    [ 0; 1; 63; 64; 65; 256; 300 ]

let test_chacha20_crypt_into_range () =
  (* Only the given range is touched; bytes around it survive. *)
  let st = Chacha20.state ~key:rfc8439_key in
  let nonce = Bytes.make 12 '\x05' in
  let buf = Bytes.of_string "AAAA-payload-ZZZZ" in
  Chacha20.crypt_into st ~nonce buf ~off:4 ~len:9;
  check_str "prefix intact" "AAAA" (Bytes.sub_string buf 0 4);
  check_str "suffix intact" "ZZZZ" (Bytes.sub_string buf 13 4);
  Chacha20.crypt_into st ~nonce buf ~off:4 ~len:9;
  check_str "involution in place" "AAAA-payload-ZZZZ" (Bytes.to_string buf);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Chacha20.crypt_into: out of bounds") (fun () ->
      Chacha20.crypt_into st ~nonce buf ~off:10 ~len:10)

let chacha_roundtrip_property =
  QCheck.Test.make ~name:"chacha20 involution on any input" ~count:100 QCheck.string
    (fun s ->
      let nonce = String.make 12 '\x07' in
      Chacha20.crypt ~key:rfc8439_key ~nonce (Chacha20.crypt ~key:rfc8439_key ~nonce s)
      = s)

(* ------------------------------------------------------------------ *)
(* HKDF: RFC 5869 *)

let test_hkdf_rfc5869_case1 () =
  let ikm = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let salt = hex "000102030405060708090a0b0c" in
  let info = hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Kdf.extract ~salt ~ikm in
  check_str "prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (Hex.encode prk);
  check_str "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hex.encode (Kdf.expand ~prk ~info ~length:42))

let test_hkdf_lengths () =
  let prk = Kdf.extract ~salt:"s" ~ikm:"k" in
  Alcotest.(check int) "1 byte" 1 (String.length (Kdf.expand ~prk ~info:"" ~length:1));
  Alcotest.(check int) "100 bytes" 100
    (String.length (Kdf.expand ~prk ~info:"" ~length:100));
  Alcotest.check_raises "zero" (Invalid_argument "Kdf.expand: length out of range")
    (fun () -> ignore (Kdf.expand ~prk ~info:"" ~length:0))

let test_hkdf_deterministic_and_info_sensitive () =
  let d1 = Kdf.derive ~salt:"s" ~ikm:"k" ~info:"a" ~length:32 in
  let d2 = Kdf.derive ~salt:"s" ~ikm:"k" ~info:"a" ~length:32 in
  let d3 = Kdf.derive ~salt:"s" ~ikm:"k" ~info:"b" ~length:32 in
  check_bool "deterministic" true (d1 = d2);
  check_bool "info-sensitive" true (d1 <> d3)

let test_stretch () =
  check_str "0 iterations is identity" "x" (Kdf.stretch ~iterations:0 "x");
  check_str "1 iteration is sha256" (Sha256.digest "x") (Kdf.stretch ~iterations:1 "x");
  check_str "composition"
    (Sha256.digest (Sha256.digest "x"))
    (Kdf.stretch ~iterations:2 "x")

(* ------------------------------------------------------------------ *)
(* Constant-time compare *)

let test_ct_equal () =
  check_bool "equal" true (Ct.equal "abc" "abc");
  check_bool "unequal" false (Ct.equal "abc" "abd");
  check_bool "lengths" false (Ct.equal "abc" "ab");
  check_bool "empty" true (Ct.equal "" "")

let ct_matches_structural =
  QCheck.Test.make ~name:"Ct.equal = String.equal" ~count:300
    QCheck.(pair string string)
    (fun (a, b) -> Ct.equal a b = String.equal a b)

let test_ct_equal_sub () =
  let b = Bytes.of_string "needle" in
  check_bool "match at offset" true (Ct.equal_sub "hay needle hay" ~off:4 b ~len:6);
  check_bool "mismatch" false (Ct.equal_sub "hay noodle hay" ~off:4 b ~len:6);
  check_bool "shorter compare window" true (Ct.equal_sub "need" ~off:0 b ~len:4);
  check_bool "range past string" false (Ct.equal_sub "hay" ~off:2 b ~len:6);
  check_bool "len past bytes" false (Ct.equal_sub "needles!" ~off:0 b ~len:7);
  check_bool "negative offset" false (Ct.equal_sub "needle" ~off:(-1) b ~len:6)

let ct_equal_sub_matches_extract =
  QCheck.Test.make ~name:"Ct.equal_sub = extract-and-compare" ~count:300
    QCheck.(triple string small_nat small_nat)
    (fun (s, off, len) ->
      let b = Bytes.of_string (if len = 0 then "" else String.make len 'q') in
      let expected =
        off + len <= String.length s
        && String.sub s off len = Bytes.to_string b
      in
      Ct.equal_sub s ~off b ~len = expected)

(* ------------------------------------------------------------------ *)
(* C fast path vs pure OCaml reference: the accelerated SHA-256
   compress and ChaCha20 keystream must be bit-identical to the
   reference code on every input — which wire bytes a run produces
   must not depend on which path executed. *)

let with_accel on f =
  let prev = Accel.in_use () in
  Accel.set_enabled on;
  Fun.protect ~finally:(fun () -> Accel.set_enabled prev) f

let test_accel_vectors_both_paths () =
  (* The official vectors re-checked under each dispatch path. *)
  List.iter
    (fun on ->
      if (not on) || Accel.available () then
        with_accel on (fun () ->
            let tag = if on then "accel" else "reference" in
            check_bool (tag ^ " path active") on (Accel.in_use ());
            List.iter
              (fun (msg, expect) ->
                check_str (tag ^ " sha256 " ^ msg) expect (Sha256.hex_digest msg))
              sha_vectors;
            let nonce = hex "000000000000004a00000000" in
            let plain =
              "Ladies and Gentlemen of the class of '99: If I could offer you \
               only one tip for the future, sunscreen would be it."
            in
            check_str (tag ^ " chacha20 rfc8439")
              "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
               f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
               07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
               5af90bbf74a35be6b40b8eedf2785e42874d"
              (Hex.encode (Chacha20.crypt ~key:rfc8439_key ~nonce ~counter:1l plain))))
    [ false; true ]

let accel_sha_differential =
  QCheck.Test.make ~name:"sha256: accel = reference (any input)" ~count:300
    QCheck.string (fun s ->
      QCheck.assume (Accel.available ());
      with_accel true (fun () -> Sha256.digest s)
      = with_accel false (fun () -> Sha256.digest s))

let accel_hmac_differential =
  QCheck.Test.make ~name:"hmac: accel = reference (any key/msg)" ~count:200
    QCheck.(pair string string)
    (fun (key, msg) ->
      QCheck.assume (Accel.available ());
      let key = if key = "" then "k" else key in
      with_accel true (fun () -> Hmac.mac ~key msg)
      = with_accel false (fun () -> Hmac.mac ~key msg))

let accel_chacha_differential =
  QCheck.Test.make ~name:"chacha20: accel = reference (any input/counter)"
    ~count:300
    QCheck.(pair string small_nat)
    (fun (s, ctr) ->
      QCheck.assume (Accel.available ());
      let nonce = hex "000000090000004a00000000" in
      let counter = Int32.of_int ctr in
      with_accel true (fun () -> Chacha20.crypt ~key:rfc8439_key ~nonce ~counter s)
      = with_accel false (fun () ->
            Chacha20.crypt ~key:rfc8439_key ~nonce ~counter s))

(* ------------------------------------------------------------------ *)
(* SHA-256 kernels and the one-call ICV.

   The live C kernel (SHA-NI where the CPU has it), the scalar C kernel
   and the OCaml reference compression must agree on every chaining
   state and block run; the one-call HMAC must agree with the
   streaming one at every length, with and without a prefix, under
   both dispatch paths. *)

let blocks_gen =
  QCheck.Gen.(
    pair
      (array_size (return 8) (int_bound 0xffffffff))
      (int_range 1 8 >>= fun n -> string_size (return (64 * n))))

let kernel_differential =
  QCheck.Test.make ~name:"sha256 kernels: live C = portable C = OCaml"
    ~count:300
    (QCheck.make blocks_gen)
    (fun (h0, data) ->
      QCheck.assume (Accel.available ());
      let b = Bytes.of_string data and n = String.length data / 64 in
      let run f =
        let h = Array.copy h0 in
        f h b 0 n;
        h
      in
      let live = run Accel.sha256_blocks in
      live = run Accel.sha256_blocks_portable && live = run Sha256.ocaml_blocks)

let test_kernel_reported () =
  with_accel false (fun () ->
      check_str "accel off" "ocaml" (Accel.sha256_kernel ()));
  if Accel.available () then
    with_accel true (fun () ->
        let k = Accel.sha256_kernel () in
        check_bool ("C kernel named: " ^ k) true
          (k = "sha-ni" || k = "portable-c"))

let esn_prefix = Bytes.of_string "\x00\x00\x50\x00\x00\x00\x00\x01\x00\x00\x30\x39"

(* Tag via the one-call path: [msg] in a buffer at offset 3, followed
   by room for the tag. *)
let icv_tag st ~prefix msg ~tag_len =
  let len = String.length msg in
  let buf = Bytes.make (3 + len + tag_len + 2) '\xee' in
  Bytes.blit_string msg 0 buf 3 len;
  Hmac.icv_into st ~prefix buf ~off:3 ~len ~tag_len;
  (buf, Bytes.sub_string buf (3 + len) tag_len)

let test_icv_matches_streaming () =
  let key = "one-call icv key" in
  let st = Hmac.state ~key in
  List.iter
    (fun on ->
      if (not on) || Accel.available () then
        with_accel on (fun () ->
            for len = 0 to 300 do
              List.iter
                (fun prefix ->
                  let msg = String.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
                  let tag_len = if len land 1 = 0 then 16 else 32 in
                  let expect =
                    String.sub
                      (Hmac.mac ~key (Bytes.to_string prefix ^ msg))
                      0 tag_len
                  in
                  let buf, got = icv_tag st ~prefix msg ~tag_len in
                  let what =
                    Printf.sprintf "accel=%b len=%d prefix=%d" on len
                      (Bytes.length prefix)
                  in
                  check_str (what ^ " tag") (Hex.encode expect) (Hex.encode got);
                  check_bool (what ^ " bytes after tag untouched") true
                    (Bytes.get buf (3 + len + tag_len) = '\xee');
                  let wire = Bytes.to_string buf in
                  check_bool (what ^ " verifies") true
                    (Hmac.icv_verify st ~prefix wire ~off:3 ~len ~tag_len);
                  let flip i =
                    let b = Bytes.of_string wire in
                    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                    Bytes.to_string b
                  in
                  check_bool (what ^ " tag flip rejected") false
                    (Hmac.icv_verify st ~prefix (flip (3 + len)) ~off:3 ~len
                       ~tag_len);
                  if len > 0 then
                    check_bool (what ^ " cover flip rejected") false
                      (Hmac.icv_verify st ~prefix (flip 3) ~off:3 ~len ~tag_len))
                [ Bytes.empty; esn_prefix ]
            done))
    [ false; true ]

let test_icv_bounds () =
  let st = Hmac.state ~key:"k" in
  let buf = Bytes.create 40 in
  Alcotest.check_raises "tag past end"
    (Invalid_argument "Hmac.icv_into: out of range") (fun () ->
      Hmac.icv_into st ~prefix:Bytes.empty buf ~off:10 ~len:20 ~tag_len:16);
  Alcotest.check_raises "tag length 0"
    (Invalid_argument "Hmac.icv_into: out of range") (fun () ->
      Hmac.icv_into st ~prefix:Bytes.empty buf ~off:0 ~len:8 ~tag_len:0);
  check_bool "verify out of range is false" false
    (Hmac.icv_verify st ~prefix:Bytes.empty (Bytes.to_string buf) ~off:(-1)
       ~len:8 ~tag_len:16)

(* RFC 4231 cases 1-4, 6, 7 through the one-call path: whole message
   as the covered range, and split into a prefix plus the rest. *)
let rfc4231_vectors =
  [
    ( String.make 20 '\x0b', "Hi There",
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
    ( "Jefe", "what do ya want for nothing?",
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
    ( String.make 20 '\xaa', String.make 50 '\xdd',
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
    ( String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
      "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
    ( String.make 131 '\xaa',
      "Test Using Larger Than Block-Size Key - Hash Key First",
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
    ( String.make 131 '\xaa',
      "This is a test using a larger than block-size key and a larger than \
       block-size data. The key needs to be hashed before being used by the \
       HMAC algorithm.",
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
  ]

let test_icv_rfc4231 () =
  List.iter
    (fun on ->
      if (not on) || Accel.available () then
        with_accel on (fun () ->
            List.iteri
              (fun i (key, msg, expect) ->
                let st = Hmac.state ~key in
                let what = Printf.sprintf "accel=%b vector %d" on i in
                check_str (what ^ " whole") expect
                  (Hex.encode (snd (icv_tag st ~prefix:Bytes.empty msg ~tag_len:32)));
                let cut = min 12 (String.length msg) in
                let prefix = Bytes.of_string (String.sub msg 0 cut) in
                let rest = String.sub msg cut (String.length msg - cut) in
                check_str (what ^ " split") expect
                  (Hex.encode (snd (icv_tag st ~prefix rest ~tag_len:32))))
              rfc4231_vectors))
    [ false; true ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "long input" `Quick test_sha256_long_input;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental_equals_oneshot;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_boundary_lengths;
          Alcotest.test_case "finalize once" `Quick test_sha256_finalize_once;
          Alcotest.test_case "reset reuse" `Quick test_sha256_reset_reuse;
          Alcotest.test_case "midstate resume" `Quick test_sha256_midstate_resume;
          Alcotest.test_case "finalize_into" `Quick test_sha256_finalize_into;
          Alcotest.test_case "feed_sub" `Quick test_sha256_feed_sub;
          qt incremental_property;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "RFC4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "RFC4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "RFC4231 case 6" `Quick test_hmac_rfc4231_case6_long_key;
          Alcotest.test_case "truncation" `Quick test_hmac_truncation;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "state = mac" `Quick test_hmac_state_equals_mac;
          Alcotest.test_case "split cover" `Quick test_hmac_state_noncontiguous_cover;
          Alcotest.test_case "finish_into/verify" `Quick test_hmac_finish_into_and_verify;
          Alcotest.test_case "state long key" `Quick test_hmac_state_long_key;
          qt hmac_state_matches_mac_property;
        ] );
      ( "icv",
        [
          Alcotest.test_case "kernel reported" `Quick test_kernel_reported;
          qt kernel_differential;
          Alcotest.test_case "= streaming, lengths 0-300" `Quick
            test_icv_matches_streaming;
          Alcotest.test_case "RFC4231 vectors" `Quick test_icv_rfc4231;
          Alcotest.test_case "bounds" `Quick test_icv_bounds;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "RFC8439 block" `Quick test_chacha20_block_vector;
          Alcotest.test_case "RFC8439 encrypt" `Quick test_chacha20_encrypt_vector;
          Alcotest.test_case "involution" `Quick test_chacha20_involution;
          Alcotest.test_case "size validation" `Quick test_chacha20_validates_sizes;
          Alcotest.test_case "nonce sensitivity" `Quick test_chacha20_nonce_sensitivity;
          Alcotest.test_case "crypt_into = crypt" `Quick test_chacha20_crypt_into_equals_crypt;
          Alcotest.test_case "crypt_into range" `Quick test_chacha20_crypt_into_range;
          qt chacha_roundtrip_property;
        ] );
      ( "kdf",
        [
          Alcotest.test_case "RFC5869 case 1" `Quick test_hkdf_rfc5869_case1;
          Alcotest.test_case "lengths" `Quick test_hkdf_lengths;
          Alcotest.test_case "determinism" `Quick test_hkdf_deterministic_and_info_sensitive;
          Alcotest.test_case "stretch" `Quick test_stretch;
        ] );
      ( "ct",
        [
          Alcotest.test_case "equal" `Quick test_ct_equal;
          Alcotest.test_case "equal_sub" `Quick test_ct_equal_sub;
          qt ct_matches_structural;
          qt ct_equal_sub_matches_extract;
        ] );
      ( "accel",
        [
          Alcotest.test_case "vectors both paths" `Quick
            test_accel_vectors_both_paths;
          qt accel_sha_differential;
          qt accel_hmac_differential;
          qt accel_chacha_differential;
        ] );
    ]
