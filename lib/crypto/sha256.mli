(** SHA-256 (FIPS 180-4), implemented from scratch.

    Provides the integrity primitive under the IPsec substrate's ICVs;
    validated against the FIPS test vectors in the test suite.

    A [ctx] is reusable: after [finalize]/[finalize_into], call
    [reset] (or [restore]) to absorb a new message without
    reallocating. The [midstate] mechanism captures the chaining state
    on a block boundary so a fixed prefix (e.g. an HMAC key pad) is
    compressed once and resumed per message. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return the context to the freshly-initialised state. *)

val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val feed_sub : ctx -> string -> off:int -> len:int -> unit
(** Absorb a substring without copying it out first. *)

val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit

val finalize : ctx -> string
(** 32-byte digest. The context must not be fed again until [reset] or
    [restore]. @raise Invalid_argument on reuse without reset. *)

val finalize_into : ctx -> bytes -> off:int -> unit
(** Like [finalize], but writes the 32-byte digest at [off] in [dst]
    without allocating. *)

type midstate
(** Chaining state captured on a 64-byte block boundary. *)

val midstate : ctx -> midstate
(** @raise Invalid_argument if the context holds buffered partial-block
    bytes. *)

val restore : ctx -> midstate -> unit
(** Rewind the context to a captured midstate; the context becomes
    feedable again regardless of prior finalization. *)

val digest : string -> string
(** One-shot digest of a full message. *)

val hex_digest : string -> string

val digest_size : int
(** 32. *)

val block_size : int
(** 64. *)

(**/**)

val blit_midstate : midstate -> int array -> int -> unit
(** [blit_midstate ms dst off] copies the 8 u32 chaining words of [ms]
    into [dst] at [off] — the pads the one-call HMAC hands the C
    kernel. *)

val ocaml_blocks : int array -> Bytes.t -> int -> int -> unit
(** [ocaml_blocks h data off n]: the OCaml reference compression over
    [n] 64-byte blocks, same contract as {!Accel.sha256_blocks} — the
    third opinion in the kernel differential tests. *)
