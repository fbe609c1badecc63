/* The compiled SGDCT kernel for the compiled model families: four entry
   points, each bitwise equal to the Python code it stands for.

     driftfit_span    one span of engine.run_batch's coupled Euler/SGDCT steps
     driftfit_path    Euler steps of sde.simulate_path (sde.euler_step)
     driftfit_replay  the CSV replay's SGDCT updates (engine.sgdct_step)
     driftfit_csv     sde.write_csv's '%.12g' lines of a block of cells

   The Python code is the definition; this file repeats its arithmetic
   operation for operation, so that the results are bitwise equal, and
   driftfit_csv repeats the rounding of Python's % (see there).  Noise
   comes from numpy's PCG64, stepped here from each generator's public state
   (a stream, below), through an inlined copy of numpy's ziggurat
   (random_standard_normal), m draws per step, in the order
   Generator.standard_normal would draw them.  The ziggurat's tables are
   numpy's own, made global in a copy of libnpyrandom.a.  Build with -ffp-contract=off:
   a fused multiply-add rounds once where numpy rounds twice.  Nothing here
   tests for divergence: the callers screen the results with sde.diverged.

   The span runs its replications in blocks of B, as the lanes of vector
   instructions: all of a block's replications one step, then the next
   step.  Each replication does its own arithmetic in numpy's order and
   draws only from its own stream, so the order across replications cannot
   change a bit.  Vector arithmetic rounds each lane as the scalar
   instruction would, so the CPU level the kernel is built for cannot either.

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
   inc_hi, as _kernel.streams packs the public PCG64.state; the entry points
   copy it into a pcg64 and write it back when they return. */
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

/* numpy's ziggurat tables (file-local in its distributions.c) and its two
   constants, which it compiles in as immediates */
extern const uint64_t ki_double[256];
extern const double wi_double[256], fi_double[256];
static const double ZIGGURAT_NOR_R = 3.6541528853610088;
static const double ZIGGURAT_NOR_INV_R = 0.27366123732975828;

/* One ziggurat box from r = next_uint64: idx = r & 0xff, then the sign bit,
   then the 52-bit rabs; x = rabs wi[idx], its sign bit flipped by the sign
   (numpy's x = -x, without the branch). */
static inline int box(pcg64 *g, uint64_t *rabs, double *x)
{
    uint64_t r = next_uint64(g), bits;
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
        idx = box(g, &rabs, &x);
        if (rabs < ki_double[idx])
            return x;
    }
}

/* random_standard_normal: accepts the first box 99 % of the time */
static inline double normal(pcg64 *g)
{
    uint64_t rabs;
    double x;
    int idx = box(g, &rabs, &x);
    if (__builtin_expect(rabs < ki_double[idx], 1))
        return x;
    return rejected(g, idx, rabs, x);
}

enum { LINEAR = 0, AFFINE = 1 };
enum { MAX_M = 2, MAX_K = MAX_M * MAX_M };  /* the largest m in DISPATCH, and _kernel.BODIES */

/* The replications a span steps together, as lanes.  The arithmetic below
   works on lane arrays: component c of lane b of an L-lane array v is
   v[c * L + b].  Each statement is a loop over the L lanes, with L a
   constant at each inlined call, so the compiler turns it into vector
   instructions.  With L = 1 a lane array is a plain vector: path, replay
   and the replications past the span's last full block use the same
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
#define LANES __attribute__((aligned(64)))

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

/* Steps L replications together, as L lanes, with L a constant at each
   call (B or 1): their streams, parameters and states are copied into lane
   arrays, stepped, and copied back.  Each step first draws the L lanes'
   normals, replication by replication, then runs the arithmetic on all
   lanes.  Each lane does numpy's operations in numpy's order and draws only
   from its own stream, so neither the grouping nor the lanes can change a
   bit.  The L PCG64 recurrences are independent, so the CPU overlaps them. */
static inline __attribute__((always_inline)) void
lanes(int family, int64_t m, int L, const double *true_p, const double *sigma_t,
      const double *a_inv, double dt, double c_alpha, double c0, int64_t step0,
      int64_t nsteps, int64_t burn_in, uint64_t *streams, double *theta,
      double *x)
{
    int64_t k = family == LINEAR ? m * m : 2;
    double sqdt = sqrt(dt);  /* correctly rounded, as np.sqrt is */
    double tp[MAX_K * B] LANES, th[MAX_K * B] LANES, upd[MAX_K * B] LANES,
           xs[MAX_M * B] LANES, xi[MAX_M * B] LANES, f[MAX_M * B] LANES,
           dx[MAX_M * B] LANES, nz[B] LANES;
    pcg64 rng[B];

    for (int b = 0; b < L; b++) {
        rng[b] = load_stream(streams + 4 * b);
        for (int64_t q = 0; q < k; q++) {
            tp[q * L + b] = true_p[q];
            th[q * L + b] = theta[b * k + q];
        }
        for (int64_t c = 0; c < m; c++)
            xs[c * L + b] = x[b * m + c];
    }
    for (int64_t s = step0; s < step0 + nsteps; s++) {
        int64_t nmain = s - burn_in;
        /* at t = 1 + nmain dt */
        double alpha = c_alpha / (c0 + (1.0 + (double)nmain * dt));
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
    for (int b = 0; b < L; b++) {
        store_stream(&rng[b], streams + 4 * b);
        for (int64_t q = 0; q < k; q++)
            theta[b * k + q] = th[q * L + b];
        for (int64_t c = 0; c < m; c++)
            x[b * m + c] = xs[c * L + b];
    }
}

/* Inlined at each call below, so that family and m are constants there:
   the replications in blocks of B lanes, then the fewer than B left over
   one by one, on one lane each. */
static inline __attribute__((always_inline)) void
span(int family, int64_t m, const double *true_p, const double *sigma_t,
     const double *a_inv, double dt, double c_alpha, double c0, int64_t step0,
     int64_t nsteps, int64_t burn_in, int64_t n, uint64_t *streams,
     double *theta, double *x)
{
    int64_t k = family == LINEAR ? m * m : 2, i = 0;
    for (; i + B <= n; i += B)
        lanes(family, m, B, true_p, sigma_t, a_inv, dt, c_alpha, c0, step0, nsteps,
              burn_in, streams + 4 * i, theta + i * k, x + i * m);
    for (; i < n; i++)
        lanes(family, m, 1, true_p, sigma_t, a_inv, dt, c_alpha, c0, step0, nsteps,
              burn_in, streams + 4 * i, theta + i * k, x + i * m);
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

/* Steps [step0, step0 + nsteps) of all n replications: streams is (n, 4),
   theta (n, k) and x (n, m), all C order, updated in place.  Returns 0. */
int driftfit_span(int family, int64_t m, const double *true_p,
                  const double *sigma_t, const double *a_inv, double dt,
                  double c_alpha, double c0, int64_t step0, int64_t nsteps,
                  int64_t burn_in, int64_t n, uint64_t *streams, double *theta,
                  double *x)
{
#define SPAN(FAMILY, M) (span(FAMILY, M, true_p, sigma_t, a_inv, dt, c_alpha, \
                              c0, step0, nsteps, burn_in, n, streams, theta, x), 0)
    DISPATCH(SPAN);
#undef SPAN
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
enum { CSV_DIGITS = 12, MAX_POW10 = 27 };
static const uint64_t LOW = 100000000000ULL, HIGH = 1000000000000ULL;

/* floor(m 2^e 10^s) for the s at hand, and into *up whether the rest rounds
   it up, half to even.  For s >= 0 the estimated exponent is at most 11, so
   |v| < 2^40 and e < 0: m 10^s is shifted by -e.  For s < 0 the one
   division: m 2^e over 10^-s. */
static uint64_t scaled(uint64_t m, int e, int s, const u128 *pow10, int *up)
{
    u128 q, rest, half;
    if (s >= 0) {
        u128 n = (u128)m * pow10[s];
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

/* Writes v's '%.12g' at o; returns the end, or NULL outside the range. */
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
    char dig[CSV_DIGITS];
    for (int i = CSV_DIGITS - 1; i >= 0; i--, d /= 10)
        dig[i] = '0' + d % 10;
    int nd = CSV_DIGITS;
    while (dig[nd - 1] == '0')
        nd--;
    if (x < -4 || x >= CSV_DIGITS) {  /* d.ddde±xx: |x| <= 38 has two digits */
        *o++ = dig[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, dig + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        *o++ = '0' + x / 10;
        *o++ = '0' + x % 10;
    } else if (x >= 0) {  /* ddd.ddd: 12 digits hold the integer part */
        memcpy(o, dig, x + 1);
        o += x + 1;
        if (nd > x + 1) {
            *o++ = '.';
            memcpy(o, dig + x + 1, nd - x - 1);
            o += nd - x - 1;
        }
    } else {  /* 0.000ddd */
        *o++ = '0';
        *o++ = '.';
        memset(o, '0', -x - 1);
        o += -x - 1;
        memcpy(o, dig, nd);
        o += nd;
    }
    return o;
}

/* The rows (rows, cols) of cells, C order, as CSV lines in out: each cell's
   '%.12g', commas between them, a newline after each row.  A cell takes at
   most 18 bytes and its separator one.  Returns the bytes written, or -1
   where a cell lies outside the range above, and Python formats the block. */
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
