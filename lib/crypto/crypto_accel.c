/* C fast paths for the per-packet crypto inner loops.
 *
 * The OCaml implementations in sha256.ml / chacha20.ml / hmac.ml
 * remain the reference (validated against the RFC/FIPS vectors) and
 * the fallback; these primitives compute the exact same functions on
 * the same state layout.  All of them are leaf calls: they allocate
 * nothing, never release the runtime lock, and touch only the buffers
 * they are handed, so they are safe as [@@noalloc] externals.
 *
 * SHA-256 compression has two kernels, picked once at load time by
 * CPUID: the x86 SHA extensions (SHA-NI, plus SSSE3/SSE4.1 for the
 * shuffles) where the CPU has them, and portable scalar C everywhere
 * else.  Both produce identical chaining values; the scalar kernel is
 * also exported on its own so the tests can diff the two.
 *
 * State crosses the boundary as OCaml [int array]s holding u32 words
 * (tagged immediates: Long_val/Val_long, no boxing, no caml_modify
 * needed).  Message bytes cross as [Bytes.t].
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RESETS_HAVE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

CAMLprim value caml_resets_crypto_accel_available(value unit)
{
  (void)unit;
  return Val_true;
}

/* ---------------- SHA-256 (FIPS 180-4) ---------------- */

static const uint32_t sha_k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static inline uint32_t rotr32(uint32_t x, int n)
{
  return (x >> n) | (x << (32 - n));
}

static inline uint32_t be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
       | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void put_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

#define S0(x) (rotr32(x, 2) ^ rotr32(x, 13) ^ rotr32(x, 22))
#define S1(x) (rotr32(x, 6) ^ rotr32(x, 11) ^ rotr32(x, 25))
#define s0(x) (rotr32(x, 7) ^ rotr32(x, 18) ^ ((x) >> 3))
#define s1(x) (rotr32(x, 17) ^ rotr32(x, 19) ^ ((x) >> 10))
#define CH(x, y, z) (((x) & (y)) ^ (~(x) & (z)))
#define MAJ(x, y, z) (((x) & (y)) ^ ((x) & (z)) ^ ((y) & (z)))

#define RND(a, b, c, d, e, f, g, h, i)                                 \
  do {                                                                 \
    uint32_t t1 = h + S1(e) + CH(e, f, g) + sha_k[i] + w[i];           \
    uint32_t t2 = S0(a) + MAJ(a, b, c);                                \
    d += t1;                                                           \
    h = t1 + t2;                                                       \
  } while (0)

/* Scalar kernel: [n] 64-byte blocks at [p] into the chaining state. */
static void sha256_portable(uint32_t st[8], const unsigned char *p, size_t n)
{
  uint32_t h0 = st[0], h1 = st[1], h2 = st[2], h3 = st[3];
  uint32_t h4 = st[4], h5 = st[5], h6 = st[6], h7 = st[7];
  for (; n > 0; n--, p += 64) {
    uint32_t w[64];
    uint32_t a = h0, bb = h1, c = h2, d = h3, e = h4, f = h5, g = h6,
             hh = h7;
    int i;
    for (i = 0; i < 16; i++) w[i] = be32(p + 4 * i);
    for (i = 16; i < 64; i++)
      w[i] = s1(w[i - 2]) + w[i - 7] + s0(w[i - 15]) + w[i - 16];
    for (i = 0; i < 64; i += 8) {
      RND(a, bb, c, d, e, f, g, hh, i);
      RND(hh, a, bb, c, d, e, f, g, i + 1);
      RND(g, hh, a, bb, c, d, e, f, i + 2);
      RND(f, g, hh, a, bb, c, d, e, i + 3);
      RND(e, f, g, hh, a, bb, c, d, i + 4);
      RND(d, e, f, g, hh, a, bb, c, i + 5);
      RND(c, d, e, f, g, hh, a, bb, i + 6);
      RND(bb, c, d, e, f, g, hh, a, i + 7);
    }
    h0 += a; h1 += bb; h2 += c; h3 += d;
    h4 += e; h5 += f; h6 += g; h7 += hh;
  }
  st[0] = h0; st[1] = h1; st[2] = h2; st[3] = h3;
  st[4] = h4; st[5] = h5; st[6] = h6; st[7] = h7;
}

#ifdef RESETS_HAVE_SHA_NI

/* Four rounds: add the round constants to the message group, then two
   SHA256RNDS2 (each does two rounds on the low 64 bits of [wk]). The
   state lives as ABEF/CDGH register pairs, the layout the instruction
   wants; after two rounds the old ABEF is the new CDGH, hence the
   swap of roles between the two calls. */
#define NI_ROUNDS(g, m)                                                \
  do {                                                                 \
    __m128i wk = _mm_add_epi32(                                        \
        (m), _mm_loadu_si128((const __m128i *)&sha_k[4 * (g)]));       \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                      \
    abef = _mm_sha256rnds2_epu32(abef, cdgh,                           \
                                 _mm_shuffle_epi32(wk, 0x0e));         \
  } while (0)

/* Message schedule for group g >= 4 from the four previous groups
   (m0 = W[g-4], ..., m3 = W[g-1]): W[t-16] + s0(W[t-15]) via MSG1,
   plus W[t-7] (the 4-byte alignr of the last two groups), then the
   s1 terms via MSG2. */
#define NI_SCHEDULE(m0, m1, m2, m3)                                    \
  _mm_sha256msg2_epu32(                                                \
      _mm_add_epi32(_mm_sha256msg1_epu32((m0), (m1)),                  \
                    _mm_alignr_epi8((m3), (m2), 4)),                   \
      (m3))

__attribute__((target("sha,sse4.1")))
static void sha256_ni(uint32_t st[8], const unsigned char *p, size_t n)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)&st[0]);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)&st[4]);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; n > 0; n--, p += 64) {
    const __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0, m1, m2, m3;
    m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    NI_ROUNDS(0, m0);
    NI_ROUNDS(1, m1);
    NI_ROUNDS(2, m2);
    NI_ROUNDS(3, m3);
    for (int g = 4; g < 16; g += 4) {
      m0 = NI_SCHEDULE(m0, m1, m2, m3);
      NI_ROUNDS(g, m0);
      m1 = NI_SCHEDULE(m1, m2, m3, m0);
      NI_ROUNDS(g + 1, m1);
      m2 = NI_SCHEDULE(m2, m3, m0, m1);
      NI_ROUNDS(g + 2, m2);
      m3 = NI_SCHEDULE(m3, m0, m1, m2);
      NI_ROUNDS(g + 3, m3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  /* Back from ABEF/CDGH to the FIPS word order. */
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (__get_cpuid_max(0, NULL) < 7) return 0;
  __cpuid_count(7, 0, a, b, c, d);
  return (b >> 29) & 1;
}

#endif

/* The live kernel, chosen once when the library is loaded (before any
   OCaml code, hence before any domain, can call it). 0 = portable C,
   1 = SHA-NI; the numbering is Accel.sha256_kernel's. */
static void (*sha256_compress)(uint32_t[8], const unsigned char *, size_t) =
    sha256_portable;
static int sha256_kernel_id = 0;

__attribute__((constructor))
static void sha256_select_kernel(void)
{
#ifdef RESETS_HAVE_SHA_NI
  if (cpu_has_sha_ni()) {
    sha256_compress = sha256_ni;
    sha256_kernel_id = 1;
  }
#endif
}

CAMLprim value caml_resets_sha256_kernel(value unit)
{
  (void)unit;
  return Val_int(sha256_kernel_id);
}

static inline void load_words(uint32_t *dst, value v, int first, int n)
{
  for (int i = 0; i < n; i++) dst[i] = (uint32_t)Long_val(Field(v, first + i));
}

static inline void store_words(value v, const uint32_t *src)
{
  for (int i = 0; i < 8; i++) Field(v, i) = Val_long((long)src[i]);
}

/* caml_resets_sha256_blocks h data off nblocks
 *   h: int array of 8 u32 chaining words, updated in place
 *   data: message bytes; [nblocks] 64-byte blocks starting at [off]
 * Runs the live kernel; [_portable] forces the scalar one.          */
CAMLprim value caml_resets_sha256_blocks(value vh, value vdata, value voff,
                                         value vn)
{
  uint32_t st[8];
  load_words(st, vh, 0, 8);
  sha256_compress(st, Bytes_val(vdata) + Long_val(voff), Long_val(vn));
  store_words(vh, st);
  return Val_unit;
}

CAMLprim value caml_resets_sha256_blocks_portable(value vh, value vdata,
                                                  value voff, value vn)
{
  uint32_t st[8];
  load_words(st, vh, 0, 8);
  sha256_portable(st, Bytes_val(vdata) + Long_val(voff), Long_val(vn));
  store_words(vh, st);
  return Val_unit;
}

/* ---------------- HMAC-SHA-256 in one call ---------------- */

/* A SHA-256 computation resumed from a midstate on a block boundary. */
struct sha_run {
  uint32_t h[8];
  unsigned char blk[64];
  size_t fill;
  uint64_t total;
};

static void run_feed(struct sha_run *r, const unsigned char *p, size_t n)
{
  r->total += n;
  if (r->fill > 0) {
    size_t take = 64 - r->fill;
    if (take > n) take = n;
    memcpy(r->blk + r->fill, p, take);
    r->fill += take;
    p += take;
    n -= take;
    if (r->fill < 64) return;
    sha256_compress(r->h, r->blk, 1);
    r->fill = 0;
  }
  if (n >= 64) {
    sha256_compress(r->h, p, n / 64);
    p += n & ~(size_t)63;
    n &= 63;
  }
  memcpy(r->blk, p, n);
  r->fill = n;
}

static void run_final(struct sha_run *r, unsigned char out[32])
{
  uint64_t bits = r->total * 8;
  r->blk[r->fill++] = 0x80;
  if (r->fill > 56) {
    memset(r->blk + r->fill, 0, 64 - r->fill);
    sha256_compress(r->h, r->blk, 1);
    r->fill = 0;
  }
  memset(r->blk + r->fill, 0, 56 - r->fill);
  put_be32(r->blk + 56, (uint32_t)(bits >> 32));
  put_be32(r->blk + 60, (uint32_t)bits);
  sha256_compress(r->h, r->blk, 1);
  for (int i = 0; i < 8; i++) put_be32(out + 4 * i, r->h[i]);
}

/* HMAC over prefix ‖ p[0..n) from the key's precomputed pads: [vpads]
   holds the inner midstate in words 0..7 and the outer in 8..15, each
   after exactly one 64-byte key block. */
static void hmac_tag(value vpads, value vprefix, const unsigned char *p,
                     size_t n, unsigned char tag[32])
{
  struct sha_run r;
  load_words(r.h, vpads, 0, 8);
  r.fill = 0;
  r.total = 64;
  run_feed(&r, Bytes_val(vprefix), caml_string_length(vprefix));
  run_feed(&r, p, n);
  run_final(&r, tag);
  load_words(r.h, vpads, 8, 8);
  r.fill = 0;
  r.total = 64;
  run_feed(&r, tag, 32);
  run_final(&r, tag);
}

/* caml_resets_hmac_icv pads prefix buf off len tag_len
 *   MAC prefix ‖ buf[off, off+len) and write the leading [tag_len]
 *   bytes of the tag right after the covered range, at off+len.     */
CAMLprim value caml_resets_hmac_icv(value vpads, value vprefix, value vbuf,
                                    value voff, value vlen, value vtaglen)
{
  unsigned char tag[32];
  unsigned char *p = Bytes_val(vbuf) + Long_val(voff);
  size_t n = Long_val(vlen);
  hmac_tag(vpads, vprefix, p, n, tag);
  memcpy(p + n, tag, Long_val(vtaglen));
  return Val_unit;
}

CAMLprim value caml_resets_hmac_icv_byte(value *argv, int argn)
{
  (void)argn;
  return caml_resets_hmac_icv(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5]);
}

/* caml_resets_hmac_icv_verify pads prefix buf off len tag_len
 *   Same MAC; compare it in constant time against the [tag_len]
 *   bytes that follow the covered range.                            */
CAMLprim value caml_resets_hmac_icv_verify(value vpads, value vprefix,
                                           value vbuf, value voff, value vlen,
                                           value vtaglen)
{
  unsigned char tag[32];
  const unsigned char *p = Bytes_val(vbuf) + Long_val(voff);
  size_t n = Long_val(vlen);
  long tl = Long_val(vtaglen);
  unsigned char acc = 0;
  hmac_tag(vpads, vprefix, p, n, tag);
  for (long i = 0; i < tl; i++) acc |= (unsigned char)(tag[i] ^ p[n + i]);
  return Val_bool(acc == 0);
}

CAMLprim value caml_resets_hmac_icv_verify_byte(value *argv, int argn)
{
  (void)argn;
  return caml_resets_hmac_icv_verify(argv[0], argv[1], argv[2], argv[3],
                                     argv[4], argv[5]);
}

/* ---------------- ChaCha20 (RFC 8439) ---------------- */

#define QR(a, b, c, d)                                                 \
  do {                                                                 \
    a += b; d ^= a; d = (d << 16) | (d >> 16);                         \
    c += d; b ^= c; b = (b << 12) | (b >> 20);                         \
    a += b; d ^= a; d = (d << 8) | (d >> 24);                          \
    c += d; b ^= c; b = (b << 7) | (b >> 25);                          \
  } while (0)

/* caml_resets_chacha20_xor init buf off len counter0
 *   init: int array of 16 u32 state-template words (constants, key,
 *         nonce); word 12 is ignored — the counter is [counter0],
 *         incremented per 64-byte block.
 *   buf:  XORed with the keystream in place over [off, off+len).     */
CAMLprim value caml_resets_chacha20_xor(value vinit, value vbuf, value voff,
                                        value vlen, value vctr)
{
  uint32_t st[16];
  unsigned char *buf = Bytes_val(vbuf) + Long_val(voff);
  long len = Long_val(vlen);
  uint32_t ctr = (uint32_t)Long_val(vctr);
  int i;
  for (i = 0; i < 16; i++) st[i] = (uint32_t)Long_val(Field(vinit, i));
  while (len > 0) {
    uint32_t x0 = st[0], x1 = st[1], x2 = st[2], x3 = st[3];
    uint32_t x4 = st[4], x5 = st[5], x6 = st[6], x7 = st[7];
    uint32_t x8 = st[8], x9 = st[9], x10 = st[10], x11 = st[11];
    uint32_t x12 = ctr, x13 = st[13], x14 = st[14], x15 = st[15];
    unsigned char ks[64];
    long take = len < 64 ? len : 64;
    for (i = 0; i < 10; i++) {
      QR(x0, x4, x8, x12);
      QR(x1, x5, x9, x13);
      QR(x2, x6, x10, x14);
      QR(x3, x7, x11, x15);
      QR(x0, x5, x10, x15);
      QR(x1, x6, x11, x12);
      QR(x2, x7, x8, x13);
      QR(x3, x4, x9, x14);
    }
    {
      uint32_t out[16];
      out[0] = x0 + st[0];   out[1] = x1 + st[1];
      out[2] = x2 + st[2];   out[3] = x3 + st[3];
      out[4] = x4 + st[4];   out[5] = x5 + st[5];
      out[6] = x6 + st[6];   out[7] = x7 + st[7];
      out[8] = x8 + st[8];   out[9] = x9 + st[9];
      out[10] = x10 + st[10]; out[11] = x11 + st[11];
      out[12] = x12 + ctr;   out[13] = x13 + st[13];
      out[14] = x14 + st[14]; out[15] = x15 + st[15];
      for (i = 0; i < 16; i++) {
        ks[4 * i] = (unsigned char)(out[i] & 0xff);
        ks[4 * i + 1] = (unsigned char)((out[i] >> 8) & 0xff);
        ks[4 * i + 2] = (unsigned char)((out[i] >> 16) & 0xff);
        ks[4 * i + 3] = (unsigned char)((out[i] >> 24) & 0xff);
      }
    }
    for (i = 0; i < take; i++) buf[i] ^= ks[i];
    buf += take;
    len -= take;
    ctr++;
  }
  return Val_unit;
}
