/* One span of coupled Euler/SGDCT steps for the compiled model families.

   The numpy loop in engine.run_batch is the definition; this file repeats
   its arithmetic operation for operation, so that the results are bitwise
   equal.  Replication i draws its standard normals from its own numpy bit
   generator through numpy's own random_standard_normal, m per step, in the
   order Generator.standard_normal((span, m)) would, so its stream is the one
   the numpy loop consumes.  Build with -ffp-contract=off: a fused
   multiply-add rounds once where numpy rounds twice.

   Families, for a state of dimension m and parameters p:
     LINEAR  f(x, p) = -P x with P = reshape(p, (m, m)) row-major, k = m * m
     AFFINE  f(x, p) = p_0 (p_1 - x), m = 1, k = 2
   The true drift is the same family at the true parameters. */
#include <stdint.h>

#include "numpy/random/bitgen.h"

/* numpy/random/distributions.h declares it too, but includes Python.h */
double random_standard_normal(bitgen_t *bitgen_state);

enum { LINEAR = 0, AFFINE = 1 };
enum { MAX_M = 2 };  /* the largest state dimension, _kernel.MAX_DIM */

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

/* Inlined at each call below, so that family and m are constants there. */
static inline __attribute__((always_inline)) void
span(int family, int64_t m, const double *true_p, const double *sigma_t,
     const double *a_inv, double dt, double sqdt, double c_alpha, double c0,
     int64_t step0, int64_t nsteps, int64_t burn_in, int64_t n,
     bitgen_t **gens, const uint8_t *alive, double *theta, double *x)
{
    int64_t k = family == LINEAR ? m * m : 2;
    double xi[MAX_M], f[MAX_M], dx[MAX_M], r[MAX_M], upd[MAX_M * MAX_M];

    for (int64_t i = 0; i < n; i++) {
        if (!alive[i])
            continue;
        double *th = theta + i * k, *xs = x + i * m;
        for (int64_t s = step0; s < step0 + nsteps; s++) {
            for (int64_t c = 0; c < m; c++)
                xi[c] = random_standard_normal(gens[i]);
            /* dx = f*(x) dt + (sqrt(dt) xi) @ sigma^T */
            drift(family, m, true_p, xs, f);
            for (int64_t c = 0; c < m; c++) {
                double noise = (sqdt * xi[0]) * sigma_t[c];
                for (int64_t q = 1; q < m; q++)
                    noise += (sqdt * xi[q]) * sigma_t[q * m + c];
                dx[c] = f[c] * dt + noise;
            }
            int64_t nmain = s - burn_in;
            if (nmain >= 0) {
                /* engine.sgdct_step at t = 1 + nmain dt */
                double alpha = c_alpha / (c0 + (1.0 + (double)nmain * dt));
                drift(family, m, th, xs, f);
                for (int64_t c = 0; c < m; c++)
                    r[c] = dx[c] - f[c] * dt;
                for (int64_t q = 0; q < k; q++) {
                    double acc = 0.0;
                    for (int64_t a = 0; a < m; a++) {
                        double g = grad(family, m, th, xs, q, a);
                        for (int64_t b = 0; b < m; b++)
                            acc += (g * a_inv[a * m + b]) * r[b];
                    }
                    upd[q] = th[q] + alpha * acc;
                }
                for (int64_t q = 0; q < k; q++)
                    th[q] = upd[q];
            }
            for (int64_t c = 0; c < m; c++)
                xs[c] += dx[c];
        }
    }
}

/* Steps [step0, step0 + nsteps) of replications i < n with alive[i] set:
   theta is (n, k) and x is (n, m), both C order, updated in place.
   Returns -1, touching nothing, for a family or m it does not cover. */
int driftfit_span(int family, int64_t m, const double *true_p,
                  const double *sigma_t, const double *a_inv,
                  double dt, double sqdt, double c_alpha, double c0,
                  int64_t step0, int64_t nsteps, int64_t burn_in,
                  int64_t n, bitgen_t **gens, const uint8_t *alive,
                  double *theta, double *x)
{
#define SPAN(FAMILY, M) span(FAMILY, M, true_p, sigma_t, a_inv, dt, sqdt, \
                             c_alpha, c0, step0, nsteps, burn_in, n, gens, \
                             alive, theta, x)
    if (family == AFFINE && m == 1)
        SPAN(AFFINE, 1);
    else if (family == LINEAR && m == 1)
        SPAN(LINEAR, 1);
    else if (family == LINEAR && m == 2)
        SPAN(LINEAR, 2);
    else
        return -1;
    return 0;
#undef SPAN
}
