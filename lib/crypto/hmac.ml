let block_size = Sha256.block_size
let tag_size = Sha256.digest_size

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  Bytes.unsafe_to_string padded

let xor_with s byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) s

(* Keyed state: the ipad/opad key blocks are compressed once at key
   setup and resumed per MAC, saving two of the four SHA-256 block
   compressions a short-message HMAC costs — and all key-pad
   allocation. One state serves one MAC computation at a time. *)
type state = {
  inner : Sha256.midstate;
  outer : Sha256.midstate;
  pads : int array; (* inner then outer chaining words, for the C call *)
  ctx : Sha256.ctx;
  tag : Bytes.t; (* 32-byte digest staging *)
}

let state ~key =
  let key = normalize_key key in
  let ctx = Sha256.init () in
  Sha256.feed ctx (xor_with key 0x36);
  let inner = Sha256.midstate ctx in
  Sha256.reset ctx;
  Sha256.feed ctx (xor_with key 0x5c);
  let outer = Sha256.midstate ctx in
  let pads = Array.make 16 0 in
  Sha256.blit_midstate inner pads 0;
  Sha256.blit_midstate outer pads 8;
  { inner; outer; pads; ctx; tag = Bytes.create tag_size }

let start st = Sha256.restore st.ctx st.inner

let add_string st s = Sha256.feed st.ctx s
let add_sub st s ~off ~len = Sha256.feed_sub st.ctx s ~off ~len
let add_bytes st b ~off ~len = Sha256.feed_bytes st.ctx b ~off ~len

(* Close the inner hash and run the outer pass, leaving the full
   32-byte tag in [st.tag]. *)
let finish_tag st =
  Sha256.finalize_into st.ctx st.tag ~off:0;
  Sha256.restore st.ctx st.outer;
  Sha256.feed_bytes st.ctx st.tag ~off:0 ~len:tag_size;
  Sha256.finalize_into st.ctx st.tag ~off:0

let finish_into st ~bytes ~dst ~dst_off =
  if bytes < 1 || bytes > tag_size then
    invalid_arg "Hmac.finish_into: tag length out of range";
  finish_tag st;
  Bytes.blit st.tag 0 dst dst_off bytes

let finish st =
  finish_tag st;
  Bytes.to_string st.tag

let finish_verify st ~tag ~tag_off ~tag_len =
  if tag_len < 1 || tag_len > tag_size || tag_off < 0
     || tag_off + tag_len > String.length tag
  then false
  else begin
    finish_tag st;
    Ct.equal_sub tag ~off:tag_off st.tag ~len:tag_len
  end

(* One-call ICV: with the C paths live, padding, length and the outer
   pass all happen inside a single noalloc call from the precomputed
   pads; otherwise the streaming reference above computes the same
   tag. *)
let icv_in_range n ~off ~len ~tag_len =
  tag_len >= 1 && tag_len <= tag_size && off >= 0 && len >= 0
  && off + len + tag_len <= n

let icv_into st ~prefix buf ~off ~len ~tag_len =
  if not (icv_in_range (Bytes.length buf) ~off ~len ~tag_len) then
    invalid_arg "Hmac.icv_into: out of range";
  if Accel.in_use () then Accel.hmac_icv st.pads prefix buf off len tag_len
  else begin
    start st;
    add_bytes st prefix ~off:0 ~len:(Bytes.length prefix);
    add_bytes st buf ~off ~len;
    finish_into st ~bytes:tag_len ~dst:buf ~dst_off:(off + len)
  end

let icv_verify st ~prefix s ~off ~len ~tag_len =
  icv_in_range (String.length s) ~off ~len ~tag_len
  &&
  if Accel.in_use () then
    Accel.hmac_icv_verify st.pads prefix (Bytes.unsafe_of_string s) off len
      tag_len
  else begin
    start st;
    add_bytes st prefix ~off:0 ~len:(Bytes.length prefix);
    add_sub st s ~off ~len;
    finish_verify st ~tag:s ~tag_off:(off + len) ~tag_len
  end

let mac ~key msg =
  let st = state ~key in
  start st;
  add_string st msg;
  finish st

let mac_truncated ~key ~bytes msg =
  if bytes < 1 || bytes > tag_size then
    invalid_arg "Hmac.mac_truncated: tag length out of range";
  String.sub (mac ~key msg) 0 bytes

let verify ~key ~tag msg =
  let n = String.length tag in
  n >= 1 && n <= tag_size && Ct.equal tag (String.sub (mac ~key msg) 0 n)
