(** Runtime switch for the C crypto fast paths (SHA-256 block compress,
    one-call HMAC, ChaCha20 keystream XOR). The pure-OCaml
    implementations remain the reference; the C primitives are
    bit-for-bit equivalent and are used by default when compiled in.
    Set [RESETS_NO_ACCEL=1] in the environment (checked once at
    startup) or call [set_enabled false] to force the pure paths — the
    differential tests do exactly that.

    The C SHA-256 compression has two kernels, chosen once by CPUID
    when the library loads: the x86 SHA extensions (SHA-NI) where the
    CPU has them, portable scalar C everywhere else. *)

val available : unit -> bool
(** Whether the C primitives were compiled in. *)

val in_use : unit -> bool
(** Whether hot paths currently dispatch to the C primitives. *)

val set_enabled : bool -> unit
(** Toggle dispatch at runtime; [set_enabled true] is a no-op when
    [available ()] is [false]. *)

val sha256_kernel : unit -> string
(** The SHA-256 compression that hot paths run right now: ["sha-ni"],
    ["portable-c"], or ["ocaml"] (the C paths are off). Reported in
    run records so every number says which path produced it. *)

(**/**)

val sha256_blocks : int array -> Bytes.t -> int -> int -> unit
(** [sha256_blocks h data off n] runs the live C SHA-256 kernel over
    [n] 64-byte blocks of [data] starting at [off], updating the 8 u32
    chaining words in [h] in place. Internal: bounds unchecked. *)

val sha256_blocks_portable : int array -> Bytes.t -> int -> int -> unit
(** [sha256_blocks] on the scalar C kernel whatever the CPU offers —
    the differential tests' second opinion on SHA-NI. *)

val hmac_icv : int array -> Bytes.t -> Bytes.t -> int -> int -> int -> unit
(** [hmac_icv pads prefix buf off len tag_len] computes HMAC-SHA-256
    over [prefix ‖ buf.(off .. off+len-1)] from [pads] (inner midstate
    in words 0–7, outer in 8–15) and writes the leading [tag_len] tag
    bytes at [off + len]. Internal: bounds unchecked. *)

val hmac_icv_verify :
  int array -> Bytes.t -> Bytes.t -> int -> int -> int -> bool
(** Like [hmac_icv], but compares the tag in constant time against the
    [tag_len] bytes already at [off + len]. *)

val chacha20_xor : int array -> Bytes.t -> int -> int -> int -> unit
(** [chacha20_xor init buf off len counter0] XORs the ChaCha20
    keystream into [buf.(off .. off+len-1)]. [init] is the 16-word
    state template (constants, key, nonce); word 12 is ignored in
    favour of [counter0]. Internal: bounds unchecked. *)
