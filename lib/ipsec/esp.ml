open Resets_util

type error = Malformed | Bad_icv

let error_to_string = function
  | Malformed -> "malformed"
  | Bad_icv -> "bad-icv"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let header_length = 12 (* spi + seq *)

(* Sequence numbers cross the wire through the stdlib's unboxed
   [{get,set}_int64_be] directly, not through [Wire]: a cross-module
   call would box the [int64] on every packet. Callers check bounds. *)

(* The per-packet nonce is salt(4) ‖ seq(8 BE); the salt half is
   prefilled at key-derivation time, so arming it is one be64 write. *)
let arm_nonce (sa : Sa.params) ~seq =
  Bytes.set_int64_be sa.crypto.nonce 4 (Int64.of_int seq);
  sa.crypto.nonce

let encrypt_in_place (sa : Sa.params) ~seq buf ~off ~len =
  match sa.algo.encr with
  | Sa.Null_encr -> ()
  | Sa.Chacha20 ->
    Resets_crypto.Chacha20.crypt_into sa.crypto.cipher
      ~nonce:(arm_nonce sa ~seq) buf ~off ~len

let encap_into ~(sa : Sa.params) ~seq ~payload dst ~off =
  if seq < 0 then invalid_arg "Esp.encap_into: negative sequence number";
  let icv_len = Sa.icv_length sa.algo.integ in
  let plen = String.length payload in
  let total = header_length + plen + icv_len in
  if off < 0 || off + total > Bytes.length dst then
    invalid_arg "Esp.encap_into: out of bounds";
  Wire.set_be32 dst off sa.spi;
  Bytes.set_int64_be dst (off + 4) (Int64.of_int seq);
  Bytes.blit_string payload 0 dst (off + header_length) plen;
  encrypt_in_place sa ~seq dst ~off:(off + header_length) ~len:plen;
  Resets_crypto.Hmac.icv_into sa.crypto.hmac ~prefix:Bytes.empty dst ~off
    ~len:(header_length + plen) ~tag_len:icv_len;
  total

let encap ~(sa : Sa.params) ~seq ~payload =
  if seq < 0 then invalid_arg "Esp.encap: negative sequence number";
  let icv_len = Sa.icv_length sa.algo.integ in
  let out = Bytes.create (header_length + String.length payload + icv_len) in
  let (_ : int) = encap_into ~sa ~seq ~payload out ~off:0 in
  Bytes.unsafe_to_string out

(* Decrypt [packet]'s ciphertext range into the SA's scratch buffer
   and return a slice of the plaintext (valid until the next codec
   operation on the same SA). Null-encryption payloads are viewed in
   the packet itself — no copy at all. *)
let plaintext_slice (sa : Sa.params) ~seq packet ~off ~len =
  match sa.algo.encr with
  | Sa.Null_encr -> Slice.of_sub_string packet ~off ~len
  | Sa.Chacha20 ->
    let scratch = Sa.scratch_bytes sa len in
    Bytes.blit_string packet off scratch 0 len;
    Resets_crypto.Chacha20.crypt_into sa.crypto.cipher
      ~nonce:(arm_nonce sa ~seq) scratch ~off:0 ~len;
    Slice.make scratch ~off:0 ~len

(* Range-based core: [packet] may be a whole wire string or a window
   into a shared rx arena buffer ([decap_of_slice]); nothing below
   assumes the frame starts at offset 0. *)
let decap_range ~(sa : Sa.params) packet ~off ~len =
  let icv_len = Sa.icv_length sa.algo.integ in
  if len < header_length + icv_len then Error Malformed
  else begin
    let covered_len = len - icv_len in
    if
      not
        (Resets_crypto.Hmac.icv_verify sa.crypto.hmac ~prefix:Bytes.empty
           packet ~off ~len:covered_len ~tag_len:icv_len)
    then Error Bad_icv
    else begin
      let seq = Int64.to_int (String.get_int64_be packet (off + 4)) in
      Ok
        ( seq,
          plaintext_slice sa ~seq packet ~off:(off + header_length)
            ~len:(covered_len - header_length) )
    end
  end

let decap_slice ~sa packet =
  decap_range ~sa packet ~off:0 ~len:(String.length packet)

let decap_of_slice ~sa (s : Slice.t) =
  decap_range ~sa (Bytes.unsafe_to_string s.base) ~off:s.off ~len:s.len

let decap ~sa packet =
  Result.map (fun (seq, s) -> (seq, Slice.to_string s)) (decap_slice ~sa packet)

let seq_of_packet packet =
  if String.length packet < header_length then None
  else Some (Int64.to_int (String.get_int64_be packet 4))

let spi_of_packet packet =
  if String.length packet < 4 then None else Some (Wire.get_be32 packet 0)

let seq_of_slice (s : Slice.t) =
  if s.len < header_length then None
  else Some (Int64.to_int (Bytes.get_int64_be s.base (s.off + 4)))

let spi_of_slice (s : Slice.t) =
  if s.len < 4 then None else Some (Wire.get_be32_bytes s.base s.off)

let overhead ~sa = header_length + Sa.icv_length sa.Sa.algo.integ

(* ---- ESN framing -------------------------------------------------- *)

let esn_header_length = 8 (* spi + seq_low *)

(* The ICV covers the reconstructed long header (full 64-bit sequence
   number), not the wire bytes — RFC 4304's implicit high-order bits.
   The one-call ICV takes that rebuilt 12-byte header as its prefix and
   the wire's ciphertext as the covered range: no concatenation. *)
let esn_prefix (sa : Sa.params) ~seq =
  let hdr = sa.crypto.hdr in
  Wire.set_be32 hdr 0 sa.spi;
  Bytes.set_int64_be hdr 4 (Int64.of_int seq);
  hdr

let encap_esn ~(sa : Sa.params) ~seq ~payload =
  if seq < 0 then invalid_arg "Esp.encap_esn: negative sequence number";
  let icv_len = Sa.icv_length sa.algo.integ in
  let plen = String.length payload in
  let out = Bytes.create (esn_header_length + plen + icv_len) in
  Wire.set_be32 out 0 sa.spi;
  Bytes.set_int32_be out 4 (Int32.of_int (seq land 0xffffffff));
  Bytes.blit_string payload 0 out esn_header_length plen;
  encrypt_in_place sa ~seq out ~off:esn_header_length ~len:plen;
  Resets_crypto.Hmac.icv_into sa.crypto.hmac ~prefix:(esn_prefix sa ~seq) out
    ~off:esn_header_length ~len:plen ~tag_len:icv_len;
  Bytes.unsafe_to_string out

let decap_esn_slice ~(sa : Sa.params) ~edge ~w packet =
  let icv_len = Sa.icv_length sa.algo.integ in
  let n = String.length packet in
  if n < esn_header_length + icv_len then Error Malformed
  else begin
    let seq_low = Int32.to_int (String.get_int32_be packet 4) land 0xffffffff in
    let seq = Esn.infer ~edge ~w ~seq_low in
    if seq < 0 then Error Bad_icv (* pre-history epoch: cannot verify *)
    else begin
      let clen = n - icv_len - esn_header_length in
      if
        not
          (Resets_crypto.Hmac.icv_verify sa.crypto.hmac
             ~prefix:(esn_prefix sa ~seq) packet ~off:esn_header_length
             ~len:clen ~tag_len:icv_len)
      then Error Bad_icv
      else
        Ok (seq, plaintext_slice sa ~seq packet ~off:esn_header_length ~len:clen)
    end
  end

let decap_esn ~sa ~edge ~w packet =
  Result.map
    (fun (seq, s) -> (seq, Slice.to_string s))
    (decap_esn_slice ~sa ~edge ~w packet)

let seq_low_of_packet_esn packet =
  if String.length packet < esn_header_length then None
  else Some (Int32.to_int (String.get_int32_be packet 4) land 0xffffffff)

let seq_of_packet_esn ~edge ~w packet =
  match seq_low_of_packet_esn packet with
  | None -> None
  | Some seq_low ->
    let seq = Esn.infer ~edge ~w ~seq_low in
    if seq < 0 then None else Some seq
