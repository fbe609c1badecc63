/* The compiled SGDCT kernel for the compiled model families: seven entry
   points, each bitwise equal to the Python code it stands for.

     driftfit_batch    engine.run_batch from the integer seeds to the
                       checkpoint rows and each replication's failing step
     driftfit_path     Euler steps of sde.simulate_path (sde.euler_step)
     driftfit_replay   the CSV replay's SGDCT updates (engine.sgdct_step)
     driftfit_csv      sde.write_csv's '%.12g' lines of a block of cells
     driftfit_parse    sde.load_path_csv's np.loadtxt of such lines
     driftfit_screen   sde.diverged's rule on rows of theta and x
     driftfit_normals  Generator.standard_normal's draws from many streams,
                       drawn as the batch draws them

   The Python code is the definition; this file repeats its arithmetic
   operation for operation, so that the results are bitwise equal, and
   driftfit_csv repeats the rounding of Python's % and driftfit_parse
   the correct rounding of np.loadtxt (see there).  Noise
   comes from numpy's PCG64, seeded here from an integer as numpy seeds it
   (driftfit_batch) or stepped from a generator's public state (a stream,
   below), through an inlined copy of numpy's ziggurat
   (random_standard_normal), m draws per step, in the order
   Generator.standard_normal would draw them.  The ziggurat's tables are
   numpy's own, made global in a copy of libnpyrandom.a.  Build with -ffp-contract=off:
   a fused multiply-add rounds once where numpy rounds twice.  driftfit_batch
   screens its replications for divergence by sde.diverged's rule, at the
   steps run_batch screens; driftfit_path and driftfit_replay do not: their
   callers screen the results with sde.diverged.

   The batch runs its replications in blocks of B, as the lanes of vector
   instructions: all of a block's replications one step, then the next
   step, from the seeding to the last step.  Built for AVX-512 (B = 8), a
   block also draws as lanes: its 8 streams step together in vector
   registers, and the first ziggurat box of each draw is formed in vector
   (normals8); elsewhere, and for a lone replication, each stream draws on
   its own (normal).  Each replication does its own arithmetic in numpy's
   order and draws only from its own stream, in numpy's order, so the order
   across replications cannot change a bit.  Vector arithmetic rounds each
   lane as the scalar instruction would, so the CPU level the kernel is
   built for cannot either.

   Families, for a state of dimension m and parameters p:
     LINEAR  f(x, p) = -P x with P = reshape(p, (m, m)) row-major, k = m * m
     AFFINE  f(x, p) = p_0 (p_1 - x), m = 1, k = 2
   The true drift is the same family at the true parameters. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

/* numpy's PCG64, PCG-XSL-RR 128/64 (O'Neill 2014): each draw steps the state
   s = s M + inc mod 2^128, then returns hi ^ lo of the new s rotated right
   by its top 6 bits.  A stream is four words, state_lo, state_hi, inc_lo and
   inc_hi, as _kernel.streams packs the public PCG64.state; driftfit_path
   and driftfit_normals copy it in and write it back when they return. */
typedef struct { u128 state, inc; } pcg64;
static const u128 PCG64_M = (u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;

static inline pcg64 load_stream(const uint64_t *w)
{
    pcg64 g = {(u128)w[1] << 64 | w[0], (u128)w[3] << 64 | w[2]};
    return g;
}

static inline void store_stream(const pcg64 *g, uint64_t *w)
{
    w[0] = (uint64_t)g->state;
    w[1] = (uint64_t)(g->state >> 64);
    w[2] = (uint64_t)g->inc;
    w[3] = (uint64_t)(g->inc >> 64);
}

static inline uint64_t next_uint64(pcg64 *g)
{
    g->state = g->state * PCG64_M + g->inc;
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = g->state >> 122;
    return (v >> rot) | (v << (-rot & 63));
}

/* numpy's next_double: the top 53 bits of a word, times 2^-53 */
static inline double next_double(pcg64 *g)
{
    return (next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* np.random.PCG64(s) for an integer 0 <= s < 2^64, by numpy's public
   algorithm.  SeedSequence reads s as its 32-bit words, least significant
   first (one for s < 2^32, else two), and hashes them into a pool of POOL
   words, a zero for each slot past them (mix_entropy): so s's high word,
   where it is zero, hashes as that zero would.  generate_state(4, uint64)
   hashes the pool into 8 words, read in (low, high) pairs as the 64-bit
   words v0..v3.  PCG64 then seeds with initstate = v0 << 64 | v1 and
   initseq = v2 << 64 | v3: state = 0, inc = initseq << 1 | 1, a step,
   state += initstate, a step. */
enum { POOL = 4 };

static inline uint32_t hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= 0x931e8875u;
    v *= *h;
    return v ^ v >> 16;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ r >> 16;
}

static __attribute__((noinline)) pcg64 seed_stream(uint64_t s)
{
    uint32_t pool[POOL], h = 0x43b0d7e5u;
    uint64_t v[POOL];
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(i < 2 ? (uint32_t)(s >> 32 * i) : 0, &h);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    h = 0x8b51f9ddu;
    for (int j = 0; j < 2 * POOL; j++) {
        uint32_t d = pool[j % POOL] ^ h;
        h *= 0x58f38dedu;
        d *= h;
        d ^= d >> 16;
        v[j / 2] = j % 2 ? v[j / 2] | (uint64_t)d << 32 : d;
    }
    pcg64 g = {0, ((u128)v[2] << 64 | v[3]) << 1 | 1};
    g.state = g.state * PCG64_M + g.inc;
    g.state += (u128)v[0] << 64 | v[1];
    g.state = g.state * PCG64_M + g.inc;
    return g;
}

/* numpy's random_standard_uniform_fill: k next_double draws into u.  Not
   inlined, for the sake of the steps after it (see lanes). */
static __attribute__((noinline)) void uniforms(pcg64 *g, int64_t k, double *u)
{
    for (int64_t q = 0; q < k; q++)
        u[q] = next_double(g);
}

/* numpy's ziggurat tables (file-local in its distributions.c) and its two
   constants, which it compiles in as immediates */
extern const uint64_t ki_double[256];
extern const double wi_double[256], fi_double[256];
static const double ZIGGURAT_NOR_R = 3.6541528853610088;
static const double ZIGGURAT_NOR_INV_R = 0.27366123732975828;

/* One ziggurat box from a word r of next_uint64: idx = r & 0xff, then the
   sign bit, then the 52-bit rabs; x = rabs wi[idx], its sign bit flipped by
   the sign (numpy's x = -x, without the branch). */
static inline int box(uint64_t r, uint64_t *rabs, double *x)
{
    uint64_t bits;
    int idx = r & 0xff;
    r >>= 8;
    *rabs = (r >> 1) & 0x000fffffffffffff;
    *x = *rabs * wi_double[idx];
    memcpy(&bits, x, sizeof bits);
    bits ^= r << 63;
    memcpy(x, &bits, sizeof bits);
    return idx;
}

/* numpy's steps after a box is rejected: the tail beyond r for idx 0, else
   the wedge test, and a new box while they reject. */
static __attribute__((noinline)) double
rejected(pcg64 *g, int idx, uint64_t rabs, double x)
{
    for (;;) {
        if (idx == 0) {
            for (;;) {
                double xx = -ZIGGURAT_NOR_INV_R * log1p(-next_double(g));
                double yy = -log1p(-next_double(g));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ZIGGURAT_NOR_R + xx)
                                               : ZIGGURAT_NOR_R + xx;
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(g)
                + fi_double[idx] < exp(-0.5 * x * x))
            return x;
        idx = box(next_uint64(g), &rabs, &x);
        if (rabs < ki_double[idx])
            return x;
    }
}

/* random_standard_normal: accepts the first box 99 % of the time */
static inline double normal(pcg64 *g)
{
    uint64_t rabs;
    double x;
    int idx = box(next_uint64(g), &rabs, &x);
    if (__builtin_expect(rabs < ki_double[idx], 1))
        return x;
    return rejected(g, idx, rabs, x);
}

#define LANES __attribute__((aligned(64)))

/* The vector draw, where the kernel is built for AVX-512: 8 streams as the
   lanes of four vectors (the states' low and high words, the increments'
   low and high words), stepped together.  s M mod 2^128 is formed from
   32-bit products (vpmuludq): the full product of the low words, and the
   low words of the two cross products, the only parts that reach the high
   word.  Each lane's first box is formed in vector, the tables gathered; a
   lane whose box rejects (1.49 % of boxes) goes on in rejects, by
   rejected() on its own stream.  So each lane draws from its stream what
   normal() would, word for word.  Intrinsics, because GCC turns a product
   of 64-bit lanes, from vector extensions or lane loops alike, into
   vpmullq, with which the vector draw was slower than normal(). */
#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#define VECTOR_DRAW
typedef struct { __m512i lo, hi, inc_lo, inc_hi; } pcg64x8;

/* the 8 streams at w, four words each (state_lo, state_hi, inc_lo, inc_hi,
   as _kernel.streams packs them), as lanes; scatter(w, v) writes their
   states back */
static const __m512i STREAM_WORDS = {0, 4, 8, 12, 16, 20, 24, 28};

static inline pcg64x8 gather(const uint64_t *w)
{
    pcg64x8 v = {_mm512_i64gather_epi64(STREAM_WORDS, w, 8),
                 _mm512_i64gather_epi64(STREAM_WORDS, w + 1, 8),
                 _mm512_i64gather_epi64(STREAM_WORDS, w + 2, 8),
                 _mm512_i64gather_epi64(STREAM_WORDS, w + 3, 8)};
    return v;
}

static inline void scatter(uint64_t *w, const pcg64x8 *v)
{
    _mm512_i64scatter_epi64(w, STREAM_WORDS, v->lo, 8);
    _mm512_i64scatter_epi64(w + 1, STREAM_WORDS, v->hi, 8);
}

/* next_uint64 at each lane */
static inline __attribute__((always_inline)) __m512i next_uint64x8(pcg64x8 *g)
{
    /* _mm512_mul_epu32 multiplies the low 32 bits of each lane */
    const __m512i m0 = _mm512_set1_epi64(0x4385DF649FCCF645ULL),
                  m1 = _mm512_set1_epi64(0x4385DF649FCCF645ULL >> 32),
                  m2 = _mm512_set1_epi64(0x2360ED051FC65DA4ULL),
                  m3 = _mm512_set1_epi64(0x2360ED051FC65DA4ULL >> 32),
                  low = _mm512_set1_epi64(0xffffffff);
    __m512i s0 = g->lo, s1 = _mm512_srli_epi64(s0, 32), s2 = g->hi,
            s3 = _mm512_srli_epi64(s2, 32);
    __m512i p00 = _mm512_mul_epu32(s0, m0), p01 = _mm512_mul_epu32(s0, m1),
            p10 = _mm512_mul_epu32(s1, m0), p11 = _mm512_mul_epu32(s1, m1);
    __m512i mid = _mm512_add_epi64(_mm512_add_epi64(_mm512_srli_epi64(p00, 32),
                                                    _mm512_and_si512(p01, low)),
                                   _mm512_and_si512(p10, low));
    __m512i lo = _mm512_or_si512(_mm512_slli_epi64(mid, 32), _mm512_and_si512(p00, low));
    __m512i hi = _mm512_add_epi64(
        _mm512_add_epi64(p11, _mm512_srli_epi64(p01, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(p10, 32), _mm512_srli_epi64(mid, 32)));
    /* + the low words of s_lo M_hi and s_hi M_lo */
    hi = _mm512_add_epi64(hi, _mm512_add_epi64(_mm512_mul_epu32(s0, m2),
                                               _mm512_mul_epu32(s2, m0)));
    hi = _mm512_add_epi64(hi, _mm512_slli_epi64(_mm512_add_epi64(
        _mm512_add_epi64(_mm512_mul_epu32(s0, m3), _mm512_mul_epu32(s1, m2)),
        _mm512_add_epi64(_mm512_mul_epu32(s2, m1), _mm512_mul_epu32(s3, m0))), 32));
    /* + inc, with the low word's carry */
    lo = _mm512_add_epi64(lo, g->inc_lo);
    hi = _mm512_add_epi64(hi, g->inc_hi);
    hi = _mm512_mask_sub_epi64(hi, _mm512_cmplt_epu64_mask(lo, g->inc_lo), hi,
                               _mm512_set1_epi64(-1));
    g->lo = lo;
    g->hi = hi;
    return _mm512_rorv_epi64(_mm512_xor_si512(hi, lo), _mm512_srli_epi64(hi, 58));
}

/* The lanes of mask whose first box rejected, from w: the vector draw's
   state and inc words, low and high (w[0..3]), then each lane's word r
   (w[4]).  Each lane goes on by rejected() on its own stream, from the box
   box() forms of r, into x[b], and its state goes back into w.  Not
   inlined, so that the draw keeps the streams in registers. */
static __attribute__((noinline, cold)) void
rejects(unsigned mask, uint64_t (*w)[8], double *x)
{
    uint64_t rabs;
    for (; mask; mask &= mask - 1) {
        int b = __builtin_ctz(mask);
        pcg64 g = {(u128)w[1][b] << 64 | w[0][b], (u128)w[3][b] << 64 | w[2][b]};
        int idx = box(w[4][b], &rabs, &x[b]);
        x[b] = rejected(&g, idx, rabs, x[b]);
        w[0][b] = (uint64_t)g.state;
        w[1][b] = (uint64_t)(g.state >> 64);
    }
}

/* normal() at each lane, into x (8, 64-byte aligned) */
static inline __attribute__((always_inline)) void normals8(pcg64x8 *g, double *x)
{
    __m512i r = next_uint64x8(g),
            idx = _mm512_and_si512(r, _mm512_set1_epi64(0xff)),
            rabs = _mm512_and_si512(_mm512_srli_epi64(r, 9),
                                    _mm512_set1_epi64(0x000fffffffffffff)),
            sign = _mm512_slli_epi64(_mm512_srli_epi64(r, 8), 63);
    __m512d v = _mm512_mul_pd(_mm512_cvtepu64_pd(rabs),
                              _mm512_i64gather_pd(idx, wi_double, 8));
    _mm512_store_pd(x, _mm512_xor_pd(v, _mm512_castsi512_pd(sign)));
    __mmask8 reject = _mm512_cmpge_epu64_mask(
        rabs, _mm512_i64gather_epi64(idx, ki_double, 8));
    if (__builtin_expect(reject != 0, 0)) {
        uint64_t w[5][8] LANES;
        _mm512_store_si512(w[0], g->lo);
        _mm512_store_si512(w[1], g->hi);
        _mm512_store_si512(w[2], g->inc_lo);
        _mm512_store_si512(w[3], g->inc_hi);
        _mm512_store_si512(w[4], r);
        rejects(reject, w, x);
        g->lo = _mm512_load_si512(w[0]);
        g->hi = _mm512_load_si512(w[1]);
    }
}
#endif

enum { LINEAR = 0, AFFINE = 1 };
enum { MAX_M = 2, MAX_K = MAX_M * MAX_M };  /* the largest m in DISPATCH, and _kernel.BODIES */

/* The replications a batch steps together, as lanes.  The arithmetic below
   works on lane arrays: component c of lane b of an L-lane array v is
   v[c * L + b].  Each statement is a loop over the L lanes, with L a
   constant at each inlined call, so the compiler turns it into vector
   instructions.  With L = 1 a lane array is a plain vector: path, replay
   and the replications past the batch's last full block use the same
   helpers on one lane.  B is 8 where AVX-512's 32 registers hold each lane
   array in one, else 4: with 16 registers of 4 doubles (x86-64-v3), 8 lanes
   spill.  On linear_system d = 2 at n = 2048 (a 2-vCPU Xeon VM), replication
   by replication took 23 ns a replication-step; 8 lanes took 13 ns at v4
   and 28 at v3, 4 lanes 14 at v3. */
#ifdef __AVX512F__
enum { B = 8 };
#else
enum { B = 4 };
#endif

/* f(x, p) at L lanes of parameters p (k, L) and states x (m, L) */
static inline __attribute__((always_inline)) void
drift(int family, int64_t m, int L, const double *p, const double *x, double *f)
{
    if (family == AFFINE) {
        for (int b = 0; b < L; b++)
            f[b] = p[b] * (p[L + b] - x[b]);
        return;
    }
    for (int64_t i = 0; i < m; i++) {
        double *fi = f + i * L;
        /* einsum's sum: the output starts at zero, one term added at a time */
        for (int b = 0; b < L; b++)
            fi[b] = 0.0;
        for (int64_t j = 0; j < m; j++)
            for (int b = 0; b < L; b++)
                fi[b] += p[(i * m + j) * L + b] * x[j * L + b];
        for (int b = 0; b < L; b++)
            fi[b] = -fi[b];
    }
}

/* d f_c / d p_q at L lanes of parameters p and states x, into g (L) */
static inline __attribute__((always_inline)) void
grad(int family, int64_t m, int L, const double *p, const double *x, int64_t q,
     int64_t c, double *g)
{
    if (family == AFFINE && q == 0)
        for (int b = 0; b < L; b++)
            g[b] = p[L + b] - x[b];
    else if (family == AFFINE)
        for (int b = 0; b < L; b++)
            g[b] = p[b];
    /* p_q = P[i, j] enters f_i only, as -x_j; the zeros are summed too */
    else if (c == q / m)
        for (int b = 0; b < L; b++)
            g[b] = -x[(q % m) * L + b];
    else
        for (int b = 0; b < L; b++)
            g[b] = 0.0;
}

/* engine.sgdct_step: upd = th + alpha grad_th f(x, th) a_inv (dx - f(x, th) dt),
   for k parameters, at L lanes; upd must not be th */
static inline __attribute__((always_inline)) void
sgdct(int family, int64_t m, int64_t k, int L, const double *a_inv, double alpha,
      double dt, const double *x, const double *dx, const double *th,
      double *upd)
{
    double f[MAX_M * B] LANES, r[MAX_M * B] LANES, g[B] LANES;
    drift(family, m, L, th, x, f);
    for (int64_t c = 0; c < m * L; c++)
        r[c] = dx[c] - f[c] * dt;
    for (int64_t q = 0; q < k; q++) {
        double *acc = upd + q * L;
        for (int b = 0; b < L; b++)
            acc[b] = 0.0;
        for (int64_t a = 0; a < m; a++) {
            grad(family, m, L, th, x, q, a, g);
            for (int64_t e = 0; e < m; e++)
                for (int b = 0; b < L; b++)
                    acc[b] += (g[b] * a_inv[a * m + e]) * r[e * L + b];
        }
        for (int b = 0; b < L; b++)
            acc[b] = th[q * L + b] + alpha * acc[b];
    }
}

/* (sqrt(dt) xi) @ sigma^T, component c, at L lanes of xi (m, L), into out (L) */
static inline __attribute__((always_inline)) void
noise(int64_t m, int L, const double *sigma_t, double sqdt, const double *xi,
      int64_t c, double *out)
{
    for (int b = 0; b < L; b++)
        out[b] = (sqdt * xi[b]) * sigma_t[c];
    for (int64_t q = 1; q < m; q++)
        for (int b = 0; b < L; b++)
            out[b] += (sqdt * xi[q * L + b]) * sigma_t[q * m + c];
}

/* sde.diverged's rule at lane b of an L-lane array v of c components: an
   entry whose absolute value is not within bound (a NaN is not) */
static inline __attribute__((always_inline)) int
past(int64_t c, int L, int b, const double *v, double bound)
{
    int out = 0;
    for (int64_t q = 0; q < c; q++)
        out |= !(fabs(v[q * L + b]) <= bound);
    return out;
}

/* What driftfit_batch reads and writes, as it documents */
typedef struct {
    const double *true_p, *sigma_t, *a_inv, *lo, *hi, *x0;
    double dt, c_alpha, c0, theta_bound, x_bound;
    int64_t burn_in, total, every, n, nrec;
    const uint64_t *seeds;
    const int64_t *rec_step;
    double *rec_theta, *rec_x;
    int64_t *fail;
} batch_t;

/* Runs L replications together, as L lanes, with L a constant at each call
   (B or 1), from replication i0: each lane's stream is seeded, theta0 is
   drawn from it (engine.draw_theta0: lo + (hi - lo) u, u its first k
   draws) and x starts at x0; then the lanes go through all the steps in
   engine.numpy_batch's order, stopping at each recorded step and each
   screening.  Each step first draws the L lanes' normals, then runs the
   arithmetic on all lanes.  A full block of B = 8 draws on the vector draw,
   its streams held in four vector registers from the seeding to the last
   step; otherwise lane by lane, by normal().  Each lane does numpy's
   operations in numpy's order and draws only from its own stream, so
   neither the grouping nor the lanes can change a bit.

   The start and each stop go through a copy of the lane arrays th and xs,
   at, and theta0's draws through uniforms, not inlined: writing th and xs
   there, or reading them, with the draws inlined, made the compiler keep
   them in memory through the steps (mean_reversion at n = 1 took 8.7 ns a
   replication-step against 7.1, scalar_ou at n = 2048 3.3 against 3.1). */
static inline __attribute__((always_inline)) void
lanes(int family, int64_t m, int L, const batch_t *r, int64_t i0)
{
    int64_t k = family == LINEAR ? m * m : 2, n = r->n, every = r->every,
            burn_in = r->burn_in;
    double dt = r->dt, sqdt = sqrt(dt),  /* correctly rounded, as np.sqrt is */
           c_alpha = r->c_alpha, c0 = r->c0;
    const double *sigma_t = r->sigma_t, *a_inv = r->a_inv;
    double tp[MAX_K * B] LANES, th[MAX_K * B] LANES, upd[MAX_K * B] LANES,
           xs[MAX_M * B] LANES, xi[MAX_M * B] LANES, f[MAX_M * B] LANES,
           dx[MAX_M * B] LANES, nz[B] LANES;
    double at[(MAX_K + MAX_M) * B] LANES, *th_at = at, *xs_at = at + k * L;
    pcg64 rng[B];
    int64_t fail[B];

    for (int b = 0; b < L; b++) {
        double u[MAX_K];
        rng[b] = seed_stream(r->seeds[i0 + b]);
        uniforms(&rng[b], k, u);
        fail[b] = -1;
        for (int64_t q = 0; q < k; q++) {
            tp[q * L + b] = r->true_p[q];
            th_at[q * L + b] = r->lo[q] + (r->hi[q] - r->lo[q]) * u[q];
        }
        for (int64_t c = 0; c < m; c++)
            xs_at[c * L + b] = r->x0[c];
    }
#ifdef VECTOR_DRAW
    pcg64x8 rng8;
    if (L == B) {
        uint64_t w[4 * B];
        for (int b = 0; b < B; b++)
            store_stream(&rng[b], w + 4 * b);
        rng8 = gather(w);
    }
#endif
    for (int64_t c = 0; c < k * L; c++)
        th[c] = th_at[c];
    for (int64_t c = 0; c < m * L; c++)
        xs[c] = xs_at[c];
    for (int64_t s = 0, rec = 0;; ) {
        for (int64_t c = 0; c < k * L; c++)
            th_at[c] = th[c];
        for (int64_t c = 0; c < m * L; c++)
            xs_at[c] = xs[c];
        /* the rows recorded after step s; rec_step is sorted */
        for (; rec < r->nrec && r->rec_step[rec] == s; rec++)
            for (int b = 0; b < L; b++) {
                int64_t row = rec * n + i0 + b;
                for (int64_t q = 0; q < k; q++)
                    r->rec_theta[row * k + q] = th_at[q * L + b];
                for (int64_t c = 0; c < m; c++)
                    r->rec_x[row * m + c] = xs_at[c * L + b];
            }
        /* a screening: every every-th step and the last */
        if (s == r->total || (s > 0 && s % every == 0))
            for (int b = 0; b < L; b++)
                if (fail[b] < 0 && (past(k, L, b, th_at, r->theta_bound)
                                    || past(m, L, b, xs_at, r->x_bound)))
                    fail[b] = s;
        if (s == r->total)
            break;
        int64_t stop = s - s % every + every;
        if (stop > r->total)
            stop = r->total;
        if (rec < r->nrec && r->rec_step[rec] < stop)
            stop = r->rec_step[rec];
        for (; s < stop; s++) {
            int64_t nmain = s - burn_in;
            /* at t = 1 + nmain dt */
            double alpha = c_alpha / (c0 + (1.0 + (double)nmain * dt));
#ifdef VECTOR_DRAW
            if (L == B)
                for (int64_t c = 0; c < m; c++)
                    normals8(&rng8, xi + c * L);
            else
#endif
            for (int b = 0; b < L; b++)
                for (int64_t c = 0; c < m; c++)
                    xi[c * L + b] = normal(&rng[b]);
            /* dx = f*(x) dt + (sqrt(dt) xi) @ sigma^T */
            drift(family, m, L, tp, xs, f);
            for (int64_t c = 0; c < m; c++) {
                noise(m, L, sigma_t, sqdt, xi, c, nz);
                for (int b = 0; b < L; b++)
                    dx[c * L + b] = f[c * L + b] * dt + nz[b];
            }
            if (nmain >= 0) {
                sgdct(family, m, k, L, a_inv, alpha, dt, xs, dx, th, upd);
                for (int64_t q = 0; q < k * L; q++)
                    th[q] = upd[q];
            }
            for (int64_t c = 0; c < m * L; c++)
                xs[c] += dx[c];
        }
    }
    for (int b = 0; b < L; b++)
        r->fail[i0 + b] = fail[b];
}

/* Inlined at each call below, so that family and m are constants there:
   the replications in blocks of B lanes, then the fewer than B left over
   one by one, on one lane each. */
static inline __attribute__((always_inline)) void
batch(int family, int64_t m, const batch_t *r)
{
    int64_t i = 0;
    for (; i + B <= r->n; i += B)
        lanes(family, m, B, r, i);
    for (; i < r->n; i++)
        lanes(family, m, 1, r, i);
}

static inline __attribute__((always_inline)) void
path(int family, int64_t m, const double *true_p, const double *sigma_t,
     double dt, uint64_t *stream, int64_t nsteps, double *x, double *out)
{
    double sqdt = sqrt(dt);
    double xi[MAX_M], f[MAX_M], nz[1];
    pcg64 rng = load_stream(stream);

    for (int64_t s = 0; s < nsteps; s++) {
        for (int64_t c = 0; c < m; c++)
            xi[c] = normal(&rng);
        /* sde.euler_step's order: (x + f*(x) dt) + (sqrt(dt) xi) @ sigma^T */
        drift(family, m, 1, true_p, x, f);
        for (int64_t c = 0; c < m; c++) {
            noise(m, 1, sigma_t, sqdt, xi, c, nz);
            x[c] = out[s * m + c] = (x[c] + f[c] * dt) + nz[0];
        }
    }
    store_stream(&rng, stream);
}

static inline __attribute__((always_inline)) void
replay(int family, int64_t m, const double *a_inv, double c_alpha, double c0,
       int64_t nrows, const double *t, const double *x, const double *theta,
       double *out)
{
    int64_t k = family == LINEAR ? m * m : 2;
    double dx[MAX_M];

    for (int64_t i = 0; i + 1 < nrows; i++) {
        const double *xi = x + i * m;
        for (int64_t c = 0; c < m; c++)
            dx[c] = xi[m + c] - xi[c];
        sgdct(family, m, k, 1, a_inv, c_alpha / (c0 + t[i]), t[i + 1] - t[i],
              xi, dx, theta, out + i * k);
        theta = out + i * k;
    }
}

/* One inlined copy of the body per (family, m) in _kernel.BODIES; the entry
   point returns -1, touching nothing, for any other. */
#define DISPATCH(CALL)                                   \
    if (family == AFFINE && m == 1)                      \
        return CALL(AFFINE, 1);                          \
    if (family == LINEAR && m == 1)                      \
        return CALL(LINEAR, 1);                          \
    if (family == LINEAR && m == 2)                      \
        return CALL(LINEAR, 2);                          \
    return -1

/* engine.run_batch for the n replications seeded by seeds (n): replication
   i's stream is np.random.PCG64's for seed i, its theta0 lo + (hi - lo) u
   in the box lo, hi (k,), and x0 (m,) its start.  Its rows after step rec_step[r]
   (nrec, sorted, within [0, total]) go to rec_theta[r, i] (nrec, n, k) and
   rec_x[r, i] (nrec, n, m); fail[i] (n) gets the first step at which it is
   screened past theta_bound or x_bound, or -1.  Steps burn_in onwards
   update theta; a screening is every every-th step and step total.
   Returns 0. */
int driftfit_batch(int family, int64_t m, const double *true_p,
                   const double *sigma_t, const double *a_inv, double dt,
                   double c_alpha, double c0, const double *lo, const double *hi,
                   const double *x0, int64_t burn_in, int64_t total, int64_t every,
                   double theta_bound, double x_bound, int64_t n,
                   const uint64_t *seeds, int64_t nrec, const int64_t *rec_step,
                   double *rec_theta, double *rec_x, int64_t *fail)
{
    const batch_t r = {true_p, sigma_t, a_inv, lo, hi, x0, dt, c_alpha, c0,
                       theta_bound, x_bound, burn_in, total, every, n, nrec,
                       seeds, rec_step, rec_theta, rec_x, fail};
#define BATCH(FAMILY, M) (batch(FAMILY, M, &r), 0)
    DISPATCH(BATCH);
#undef BATCH
}

/* Into flags[i] (n), whether driftfit_batch's screening flags the row of
   theta (n, k) and x (n, m).  Returns 0.  The load-time check's runs test
   the screening only on what a run reaches; their rows never hold the
   edges _kernel.check_rows holds (a bound itself, the double past it,
   ±inf, NaN), which this entry screens. */
int driftfit_screen(int64_t n, int64_t k, int64_t m, const double *theta,
                    const double *x, double theta_bound, double x_bound,
                    uint8_t *flags)
{
    for (int64_t i = 0; i < n; i++)
        flags[i] = past(k, 1, 0, theta + i * k, theta_bound)
                   || past(m, 1, 0, x + i * m, x_bound);
    return 0;
}

/* calls standard normals from each of the n streams words (n, 4), which
   it advances in place, into out (n, calls), row i from stream i: as the
   batch draws, full blocks of B streams on the vector draw where the kernel
   has it, and the rest one by one.  Returns 0. */
int driftfit_normals(int64_t n, uint64_t *words, int64_t calls, double *out)
{
    int64_t i = 0;
#ifdef VECTOR_DRAW
    for (; i + B <= n; i += B) {
        double x[B] LANES;
        pcg64x8 v = gather(words + 4 * i);
        for (int64_t s = 0; s < calls; s++) {
            normals8(&v, x);
            for (int b = 0; b < B; b++)
                out[(i + b) * calls + s] = x[b];
        }
        scatter(words + 4 * i, &v);
    }
#endif
    for (; i < n; i++) {
        pcg64 g = load_stream(words + 4 * i);
        for (int64_t s = 0; s < calls; s++)
            out[i * calls + s] = normal(&g);
        store_stream(&g, words + 4 * i);
    }
    return 0;
}

/* nsteps Euler steps of the state x (m,), drawing from the stream (4,), both
   updated in place; the state after step s goes to row s of out (nsteps, m).
   Returns 0. */
int driftfit_path(int family, int64_t m, const double *true_p,
                  const double *sigma_t, double dt, uint64_t *stream,
                  int64_t nsteps, double *x, double *out)
{
#define PATH(FAMILY, M) (path(FAMILY, M, true_p, sigma_t, dt, stream, nsteps, x, \
                              out), 0)
    DISPATCH(PATH);
#undef PATH
}

/* The SGDCT updates driven by the increments of the observed rows t (nrows)
   and x (nrows, m), from theta (k): update i uses t[i], dt = t[i+1] - t[i]
   and dx = x[i+1] - x[i], and its theta goes to row i of out (nrows - 1, k).
   Returns 0. */
int driftfit_replay(int family, int64_t m, const double *a_inv, double c_alpha,
                    double c0, int64_t nrows, const double *t, const double *x,
                    const double *theta, double *out)
{
#define REPLAY(FAMILY, M) (replay(FAMILY, M, a_inv, c_alpha, c0, nrows, t, x, \
                                  theta, out), 0)
    DISPATCH(REPLAY);
#undef REPLAY
}

/* The '%.12g' of Python's % operator, which formats write_csv's default
   lines: the double's exact binary value rounded half to even to 12
   significant digits, in integer arithmetic alone (no snprintf, no locale,
   no libm).  A finite nonzero |v| = m 2^e is covered where
   10^-11 <= |v| < 2^127: there m 2^e 10^s, for the s that leaves 12 digits
   before the point, fits an unsigned 128-bit integer.  ±0, ±inf and every
   NaN ("nan", its sign dropped, as % drops it) are covered too. */
enum { CSV_DIGITS = 12, MAX_POW10 = 27, CSV_SLACK = 16 };
static const uint64_t LOW = 100000000000ULL, HIGH = 1000000000000ULL;
static const char PAIRS[200] =  /* the two digits of 0..99 */
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* floor(m 2^e 10^s) for the s at hand, and into *up whether the rest rounds
   it up, half to even.  For s >= 0 the estimated exponent is at most 11, so
   |v| < 2^40 and e < 0: m 10^s is shifted by -e, and for s <= 19, where
   10^s fits a word, m 10^s is one 64 x 64 -> 128-bit product.  For s < 0
   the one division: m 2^e over 10^-s. */
static uint64_t scaled(uint64_t m, int e, int s, const u128 *pow10, int *up)
{
    u128 q, rest, half;
    if (s >= 0) {
        u128 n = s <= 19 ? (u128)m * (uint64_t)pow10[s] : (u128)m * pow10[s];
        q = n >> -e;
        rest = n & (((u128)1 << -e) - 1);
        half = (u128)1 << (-e - 1);
    } else {
        u128 n = e > 0 ? (u128)m << e : m;
        u128 d = e < 0 ? pow10[-s] << -e : pow10[-s];
        q = n / d;
        rest = 2 * (n - q * d);
        half = d;
    }
    *up = rest > half || (rest == half && (q & 1));
    return (uint64_t)q;
}

/* h < 10^6 as six digits at o, two at a time */
static inline void six(uint32_t h, char *o)
{
    memcpy(o, PAIRS + 2 * (h / 10000), 2);
    memcpy(o + 2, PAIRS + 2 * (h / 100 % 100), 2);
    memcpy(o + 4, PAIRS + 2 * (h % 100), 2);
}

/* Writes v's '%.12g' at o; returns the end, or NULL outside the range.  Its
   copies are of fixed size, so it writes up to CSV_SLACK - 1 bytes past the
   end, which the next cell or the caller's slack takes. */
static char *cell(double v, const u128 *pow10, char *o)
{
    uint64_t bits, frac;
    memcpy(&bits, &v, sizeof bits);
    int biased = (bits >> 52) & 0x7ff;
    frac = bits & 0x000fffffffffffffULL;
    if (biased == 0x7ff && frac) {
        memcpy(o, "nan", 3);
        return o + 3;
    }
    if (bits >> 63)
        *o++ = '-';
    if (biased == 0x7ff) {
        memcpy(o, "inf", 3);
        return o + 3;
    }
    if (biased == 0) {
        if (frac)  /* subnormal, below 1e-307 */
            return NULL;
        *o++ = '0';
        return o;
    }
    uint64_t m = frac | (1ULL << 52);
    int e = biased - 1075;  /* |v| = m 2^e, 2^52 <= m < 2^53 */
    if (e > 127 - 53)
        return NULL;
    /* floor(log10(2^(e + 52))), gcc's >> of a negative int being a floor:
       the decimal exponent of |v|, or one less */
    int x = ((e + 52) * 78913) >> 18;
    if (x < -12)
        return NULL;
    /* 10^11 <= |v| 10^s < 2 10^12 where x is the exponent, 2 10^13 where it
       is one less; s stops at 22, where m 10^s still fits */
    int s = x < -11 ? 22 : 11 - x, up;
    uint64_t d = scaled(m, e, s, pow10, &up);
    if (d >= HIGH)
        d = scaled(m, e, --s, pow10, &up);
    if (d < LOW)  /* x = -12 */
        return NULL;
    x = 11 - s;
    d += up;
    if (d == HIGH) {  /* rounded up to the next power of ten */
        d = LOW;
        x++;
    }
    /* the 12 digits, then zeros, which the fixed copies below read */
    char dig[32];
    uint64_t w[2];
    six(d / 1000000, dig);
    six(d % 1000000, dig + 6);
    memset(dig + CSV_DIGITS, '0', sizeof dig - CSV_DIGITS);
    /* nd digits up to the last nonzero one: the highest byte of the digits
       (little-endian words) that differs from '0'; dig[0] does */
    memcpy(w, dig, sizeof w);
    w[0] ^= 0x3030303030303030ULL;
    w[1] ^= 0x3030303030303030ULL;
    int nd = w[1] ? 16 - __builtin_clzll(w[1]) / 8 : 8 - __builtin_clzll(w[0]) / 8;
    if (x < -4 || x >= CSV_DIGITS) {  /* d.ddde±xx: |x| <= 38 has two digits */
        int ax = x < 0 ? -x : x;
        char tail[4] = {'e', x < 0 ? '-' : '+', '0' + ax / 10, '0' + ax % 10};
        o[0] = dig[0];
        o[1] = '.';
        memcpy(o + 2, dig + 1, 16);
        o += nd > 1 ? nd + 1 : 1;
        memcpy(o, tail, 4);
        return o + 4;
    }
    if (x >= 0) {  /* ddd.ddd: 12 digits hold the integer part */
        memcpy(o, dig, 16);
        if (nd <= x + 1)
            return o + x + 1;
        o[x + 1] = '.';
        memcpy(o + x + 2, dig + x + 1, 16);
        return o + nd + 1;
    }
    memcpy(o, "0.000", 5);  /* 0.000ddd */
    memcpy(o + 1 - x, dig, 16);
    return o + 1 - x + nd;
}

/* The rows (rows, cols) of cells, C order, as CSV lines in out: each cell's
   '%.12g', commas between them, a newline after each row.  A cell takes at
   most 18 bytes and its separator one; out holds 19 bytes a cell and
   CSV_SLACK more, and the call writes nothing at or past the end it returns
   plus CSV_SLACK.  Returns the bytes written, or -1 where a cell lies
   outside the range above, and Python formats the block. */
int64_t driftfit_csv(const double *cells, int64_t rows, int64_t cols, char *out)
{
    u128 pow10[MAX_POW10 + 1];
    char *o = out;
    pow10[0] = 1;
    for (int i = 1; i <= MAX_POW10; i++)
        pow10[i] = pow10[i - 1] * 10;
    for (int64_t r = 0; r < rows; r++)
        for (int64_t c = 0; c < cols; c++) {
            o = cell(cells[r * cols + c], pow10, o);
            if (o == NULL)
                return -1;
            *o++ = c + 1 < cols ? ',' : '\n';
        }
    return o - out;
}

/* The lines of cells that driftfit_csv writes, read back as np.loadtxt
   reads them, in a strict grammar: a line is cols cells, commas between
   them and a newline after the last; a cell is an optional '-', digits,
   optionally '.' and digits, optionally 'e', a sign and 1 to 3 digits, with
   at most 15 significant digits D and a decimal exponent p within ±22.
   Then D and 10^|p| are exact doubles, and D 10^p, or D / 10^-p, is one
   correctly rounded operation (Clinger 1990): np.loadtxt's correctly
   rounded value.  The len bytes of text hold the lines alone, and out
   room for cols cells a newline in text, which a call with out NULL
   returns.  Returns the rows, or -1 where text holds none, or any byte
   lies outside the grammar, and np.loadtxt reads it. */
static const double EXACT[23] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
    1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20,
    1e21, 1e22};
#define DIGIT(c) ((unsigned char)((c) - '0') < 10)

/* the newlines in s, 8 bytes at a time: in w, a word xor 0a0a.., the zero
   bytes, the ones whose high bit ((w & 7f7f..) + 7f7f..) | w leaves clear */
static int64_t newlines(const char *s, int64_t len)
{
    const uint64_t low7 = 0x7f7f7f7f7f7f7f7fULL;
    int64_t n = 0, i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        memcpy(&w, s + i, 8);
        w ^= 0x0a0a0a0a0a0a0a0aULL;
        n += 8 - __builtin_popcountll((((w & low7) + low7) | w) & ~low7);
    }
    for (; i < len; i++)
        n += s[i] == '\n';
    return n;
}

int64_t driftfit_parse(const char *text, int64_t len, int64_t cols, double *out)
{
    const char *s = text, *end = text + len;
    int64_t rows = 0;
    if (out == NULL)
        return newlines(text, len);
    /* the last byte a newline, no read below passes it, and no row starts
       after the last newline, so out has room for each row */
    if (len == 0 || end[-1] != '\n' || cols < 1)
        return -1;
    for (; s < end; rows++)
        for (int64_t c = 0; c < cols; c++) {
            int neg = *s == '-';
            uint64_t d = 0;
            int64_t sig = 0, p = 0, e = 0;
            const char *at = (s += neg);
            for (; DIGIT(*s); s++)
                sig += (d = d * 10 + (*s - '0')) != 0;
            if (s == at)
                return -1;
            if (*s == '.') {
                for (at = ++s; DIGIT(*s); s++)
                    sig += (d = d * 10 + (*s - '0')) != 0;
                if (s == at)
                    return -1;
                p = at - s;
            }
            if (*s == 'e') {
                int sign = s[1] == '-' ? -1 : s[1] == '+' ? 1 : 0;
                if (!sign)
                    return -1;
                for (at = s += 2; DIGIT(*s) && s - at < 3; s++)
                    e = e * 10 + (*s - '0');
                if (s == at || DIGIT(*s))
                    return -1;
                p += sign * e;
            }
            if (sig > 15 || p < -22 || p > 22)
                return -1;
            double v = p < 0 ? (double)d / EXACT[-p] : (double)d * EXACT[p];
            out[rows * cols + c] = neg ? -v : v;
            if (*s++ != (c + 1 < cols ? ',' : '\n'))
                return -1;
        }
    return rows;
}
