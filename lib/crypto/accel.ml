(* Runtime switch for the C fast paths in crypto_accel.c.

   The pure-OCaml implementations in Sha256/Chacha20/Hmac stay the
   reference and are always compiled; the C primitives compute the
   identical functions over the same [int array] state layout. The
   switch exists so differential tests can force the fallback and so a
   miscompiled platform can be rescued with RESETS_NO_ACCEL=1 without
   rebuilding. Which C SHA-256 kernel runs is not a switch: CPUID
   picks it once when the library loads. *)

external available : unit -> bool = "caml_resets_crypto_accel_available"

external sha256_blocks : int array -> Bytes.t -> int -> int -> unit
  = "caml_resets_sha256_blocks"
[@@noalloc]

external sha256_blocks_portable : int array -> Bytes.t -> int -> int -> unit
  = "caml_resets_sha256_blocks_portable"
[@@noalloc]

external c_kernel : unit -> int = "caml_resets_sha256_kernel" [@@noalloc]

external hmac_icv : int array -> Bytes.t -> Bytes.t -> int -> int -> int -> unit
  = "caml_resets_hmac_icv_byte" "caml_resets_hmac_icv"
[@@noalloc]

external hmac_icv_verify :
  int array -> Bytes.t -> Bytes.t -> int -> int -> int -> bool
  = "caml_resets_hmac_icv_verify_byte" "caml_resets_hmac_icv_verify"
[@@noalloc]

external chacha20_xor : int array -> Bytes.t -> int -> int -> int -> unit
  = "caml_resets_chacha20_xor"
[@@noalloc]

let enabled =
  ref (available () && Sys.getenv_opt "RESETS_NO_ACCEL" = None)

let set_enabled b = enabled := b && available ()
let in_use () = !enabled

let sha256_kernel () =
  if not !enabled then "ocaml"
  else if c_kernel () = 1 then "sha-ni"
  else "portable-c"
