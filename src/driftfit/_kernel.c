/* The compiled SGDCT kernel for the compiled model families: three entry
   points, each bitwise equal to the numpy code it stands for.

     driftfit_span    one span of engine.run_batch's coupled Euler/SGDCT steps
     driftfit_path    Euler steps of sde.simulate_path (sde.euler_step)
     driftfit_replay  the CSV replay's SGDCT updates (engine.sgdct_step)

   The numpy code is the definition; this file repeats its arithmetic
   operation for operation, so that the results are bitwise equal.  Noise
   comes from the caller's numpy bit generators through an inlined copy of
   numpy's ziggurat (random_standard_normal), m draws per step, in the order
   Generator.standard_normal would draw them.  Its tables are numpy's own,
   made global in a copy of libnpyrandom.a.  Build with -ffp-contract=off:
   a fused multiply-add rounds once where numpy rounds twice.  Nothing here
   tests for divergence: the callers screen the results with sde.diverged.

   The span runs its replications in blocks of B, all of a block's
   replications one step, then the next step.  Each replication does its own
   arithmetic in numpy's order and draws only from its own generator, so
   the order across replications cannot change a bit.

   Families, for a state of dimension m and parameters p:
     LINEAR  f(x, p) = -P x with P = reshape(p, (m, m)) row-major, k = m * m
     AFFINE  f(x, p) = p_0 (p_1 - x), m = 1, k = 2
   The true drift is the same family at the true parameters. */
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy's ziggurat tables (file-local in its distributions.c) and its two
   constants, which it compiles in as immediates */
extern const uint64_t ki_double[256];
extern const double wi_double[256], fi_double[256];
static const double ZIGGURAT_NOR_R = 3.6541528853610088;
static const double ZIGGURAT_NOR_INV_R = 0.27366123732975828;

/* One ziggurat box from r = next_uint64: idx = r & 0xff, then the sign bit,
   then the 52-bit rabs; x = rabs wi[idx], its sign bit flipped by the sign
   (numpy's x = -x, without the branch). */
static inline int box(bitgen_t *g, uint64_t *rabs, double *x)
{
    uint64_t r = g->next_uint64(g->state), bits;
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
rejected(bitgen_t *g, int idx, uint64_t rabs, double x)
{
    for (;;) {
        if (idx == 0) {
            for (;;) {
                double xx = -ZIGGURAT_NOR_INV_R * log1p(-g->next_double(g->state));
                double yy = -log1p(-g->next_double(g->state));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ZIGGURAT_NOR_R + xx)
                                               : ZIGGURAT_NOR_R + xx;
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * g->next_double(g->state)
                + fi_double[idx] < exp(-0.5 * x * x))
            return x;
        idx = box(g, &rabs, &x);
        if (rabs < ki_double[idx])
            return x;
    }
}

/* random_standard_normal: accepts the first box 99 % of the time */
static inline double normal(bitgen_t *g)
{
    uint64_t rabs;
    double x;
    int idx = box(g, &rabs, &x);
    if (__builtin_expect(rabs < ki_double[idx], 1))
        return x;
    return rejected(g, idx, rabs, x);
}

enum { LINEAR = 0, AFFINE = 1 };
enum { MAX_M = 2 };  /* the largest m in DISPATCH, and _kernel.BODIES */

static inline void drift(int family, int64_t m, const double *p,
                         const double *x, double *f)
{
    if (family == AFFINE) {
        f[0] = p[0] * (p[1] - x[0]);
        return;
    }
    for (int64_t i = 0; i < m; i++) {
        /* einsum's sum: the output starts at zero, one term added at a time */
        double acc = 0.0;
        for (int64_t j = 0; j < m; j++)
            acc += p[i * m + j] * x[j];
        f[i] = -acc;
    }
}

/* d f / d p_q, component c, at state x and parameters p */
static inline double grad(int family, int64_t m, const double *p,
                          const double *x, int64_t q, int64_t c)
{
    if (family == AFFINE)
        return q == 0 ? p[1] - x[0] : p[0];
    /* p_q = P[i, j] enters f_i only, as -x_j; the zeros are summed too */
    return c == q / m ? -x[q % m] : 0.0;
}

/* engine.sgdct_step: upd = th + alpha grad_th f(x, th) a_inv (dx - f(x, th) dt),
   for k parameters */
static inline __attribute__((always_inline)) void
sgdct(int family, int64_t m, int64_t k, const double *a_inv, double alpha,
      double dt, const double *x, const double *dx, const double *th,
      double *upd)
{
    double f[MAX_M], r[MAX_M];
    drift(family, m, th, x, f);
    for (int64_t c = 0; c < m; c++)
        r[c] = dx[c] - f[c] * dt;
    for (int64_t q = 0; q < k; q++) {
        double acc = 0.0;
        for (int64_t a = 0; a < m; a++) {
            double g = grad(family, m, th, x, q, a);
            for (int64_t b = 0; b < m; b++)
                acc += (g * a_inv[a * m + b]) * r[b];
        }
        upd[q] = th[q] + alpha * acc;
    }
}

/* (sqrt(dt) xi) @ sigma^T, component c */
static inline double noise(int64_t m, const double *sigma_t, double sqdt,
                           const double *xi, int64_t c)
{
    double out = (sqdt * xi[0]) * sigma_t[c];
    for (int64_t q = 1; q < m; q++)
        out += (sqdt * xi[q]) * sigma_t[q * m + c];
    return out;
}

/* The replications a span steps together.  One step of one replication is
   a chain of dependent operations through x and theta, so a replication run
   alone leaves the core waiting on it; B replications keep B independent
   chains in flight.  On scalar_ou at n = 2048 (a 2-vCPU Xeon VM), B = 16
   took a replication-step from about 14 to 11.5 ns.  B = 4, 8 and 32 read
   within that machine's drift of 16; stepping all n at once was slower. */
enum { B = 16 };

/* Inlined at each call below, so that family and m are constants there.
   Steps replications [i0, i0 + nb) together, then the next B.  alpha is the
   same for every replication at a step, so it is computed once per step.
   Where the generators are shared (_kernel.normals), a single step draws
   for replications 0..n-1 in order. */
static inline __attribute__((always_inline)) void
span(int family, int64_t m, const double *true_p, const double *sigma_t,
     const double *a_inv, double dt, double c_alpha, double c0, int64_t step0,
     int64_t nsteps, int64_t burn_in, int64_t n, bitgen_t **gens,
     double *theta, double *x)
{
    int64_t k = family == LINEAR ? m * m : 2;
    double sqdt = sqrt(dt);  /* correctly rounded, as np.sqrt is */
    double xi[MAX_M], f[MAX_M], dx[MAX_M], upd[MAX_M * MAX_M];

    for (int64_t i0 = 0; i0 < n; i0 += B) {
        int64_t nb = n - i0 < B ? n - i0 : B;
        double *th0 = theta + i0 * k, *x0 = x + i0 * m;
        bitgen_t **g0 = gens + i0;
        for (int64_t s = step0; s < step0 + nsteps; s++) {
            int64_t nmain = s - burn_in;
            /* at t = 1 + nmain dt */
            double alpha = c_alpha / (c0 + (1.0 + (double)nmain * dt));
            for (int64_t b = 0; b < nb; b++) {
                double *th = th0 + b * k, *xs = x0 + b * m;
                for (int64_t c = 0; c < m; c++)
                    xi[c] = normal(g0[b]);
                /* dx = f*(x) dt + (sqrt(dt) xi) @ sigma^T */
                drift(family, m, true_p, xs, f);
                for (int64_t c = 0; c < m; c++)
                    dx[c] = f[c] * dt + noise(m, sigma_t, sqdt, xi, c);
                if (nmain >= 0) {
                    sgdct(family, m, k, a_inv, alpha, dt, xs, dx, th, upd);
                    for (int64_t q = 0; q < k; q++)
                        th[q] = upd[q];
                }
                for (int64_t c = 0; c < m; c++)
                    xs[c] += dx[c];
            }
        }
    }
}

static inline __attribute__((always_inline)) void
path(int family, int64_t m, const double *true_p, const double *sigma_t,
     double dt, bitgen_t *gen, int64_t nsteps, double *x, double *out)
{
    double sqdt = sqrt(dt);
    double xi[MAX_M], f[MAX_M];

    for (int64_t s = 0; s < nsteps; s++) {
        for (int64_t c = 0; c < m; c++)
            xi[c] = normal(gen);
        /* sde.euler_step's order: (x + f*(x) dt) + (sqrt(dt) xi) @ sigma^T */
        drift(family, m, true_p, x, f);
        for (int64_t c = 0; c < m; c++)
            x[c] = out[s * m + c] =
                (x[c] + f[c] * dt) + noise(m, sigma_t, sqdt, xi, c);
    }
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
        sgdct(family, m, k, a_inv, c_alpha / (c0 + t[i]), t[i + 1] - t[i],
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

/* Steps [step0, step0 + nsteps) of all n replications: theta is (n, k)
   and x is (n, m), both C order, updated in place.  Returns 0. */
int driftfit_span(int family, int64_t m, const double *true_p,
                  const double *sigma_t, const double *a_inv, double dt,
                  double c_alpha, double c0, int64_t step0, int64_t nsteps,
                  int64_t burn_in, int64_t n, bitgen_t **gens, double *theta,
                  double *x)
{
#define SPAN(FAMILY, M) (span(FAMILY, M, true_p, sigma_t, a_inv, dt, c_alpha, \
                              c0, step0, nsteps, burn_in, n, gens, theta, x), 0)
    DISPATCH(SPAN);
#undef SPAN
}

/* nsteps Euler steps of the state x (m,), updated in place; the state
   after step s goes to row s of out (nsteps, m).  Returns 0. */
int driftfit_path(int family, int64_t m, const double *true_p,
                  const double *sigma_t, double dt, bitgen_t *gen,
                  int64_t nsteps, double *x, double *out)
{
#define PATH(FAMILY, M) (path(FAMILY, M, true_p, sigma_t, dt, gen, nsteps, x, \
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
