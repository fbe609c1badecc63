"""Limiting CLT covariance by two independent routes, and the approximate
second-moment ODE oracle.

Each route takes (Delta gbar(theta*), hbar, C_alpha) and returns the limiting
covariance sigma_bar itself, a float64 (k, k) array.  The eigen-expansion route is the reference: with Delta gbar(theta*) =
U diag(lambda) U^T, the covariance entry couples eigenpairs through the
bracket C_alpha^2 / ((lambda_m + lambda_m') C_alpha - 1).  The quadrature
route integrates C_alpha^2 e(s) hbar e(s) ds with e(s) = exp(-s M) and
M = C_alpha H_s - I/2, where H_s = (H + H^T)/2, so that both routes agree;
the two printed forms of this object differ by whether the identity shift is
split across the exponents, and the eigen-expansion is taken as
authoritative.  M is symmetric, so one `expm` serves both sides of each
quadrature node; every catalog Hessian is exactly symmetric, so H_s is H
bit for bit.

The integral is adaptive Gauss-Kronrod quadrature in QUADPACK's style
(Piessens & de Doncker, 1983): `_quad_gk21` writes out, operation for
operation, the finite-interval path of scipy's BSD-licensed
`scipy.integrate.quad_vec`, so sigma_bar no longer depends on the installed
scipy's `quad_vec`, and nothing loads `scipy.integrate`.  A GK21 call takes
its 21 nodes' `expm` on one (21, k, k) stack, which keeps each node's bits
(scipy's `expm` picks its 1 x 1, diagonal or Pade branch slice by slice);
the sums over the nodes stay sequential adds, since a reduce moves bits.

The eigen route keeps its own Jacobi solver rather than LAPACK's `eigh`:
its matrices are k x k (k <= 4 in the catalog), so speed cannot matter,
but `eigh` moves predict-covariance's route agreement on linear_system
from 9.700573677662305e-15 to 9.658940314238862e-15, and report.json
bytes are pinned in bench/reference.json.  The quadrature route uses
`expm`, so the two routes stay independent either way.
"""
from __future__ import annotations

import sys

import numpy as np

from .schedule import ScheduleSpec, regime_check

SYMMETRY_TOL = 1e-10
# jacobi_eigh stops once the off-diagonal norm is within JACOBI_TOL of the
# matrix's scale (at least 1), or after JACOBI_MAX_SWEEPS sweeps
JACOBI_TOL, JACOBI_MAX_SWEEPS = 1e-12, 60
QUADRATURE_TOL = 1e-13  # the quadrature's absolute and relative tolerance
# quad_vec's most intervals halved in one round, and its interval limit
QUADRATURE_ROUND, QUADRATURE_LIMIT = 128, 10_000
# quad_vec's GK21 rule, as the doubles its literals round to: the Kronrod
# nodes on [-1, 1] from 1 down, their weights, and the Gauss weights of the
# odd-indexed nodes (the rule is symmetric, so half of each is written)
_NODES = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                   0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                   0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                   0.14887433898163122])
_KRONROD = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                     0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                     0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                     0.14773910490133849, 0.1494455540029169])
_GAUSS = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                   0.26926671930999635, 0.29552422471475287])
GK21_NODES = np.concatenate([_NODES, [0.0], -_NODES[::-1]])
GK21_KRONROD = np.concatenate([_KRONROD, _KRONROD[-2::-1]])[:, None, None]
GK21_GAUSS = np.concatenate([_GAUSS, _GAUSS[::-1]])[:, None, None]


class CovarianceError(ValueError):
    pass


class RegimeError(CovarianceError):
    pass


def jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi rotations; returns ascending eigenvalues and vectors."""
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) \
                    if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    lam = np.diag(a).copy()
    order = np.argsort(lam)
    return lam[order], v[:, order]


def positive_curvature(lam) -> float:
    """The convexity constant C, the least of lam; RegimeError unless C > 0."""
    lam_min = float(np.min(lam))
    if not lam_min > 0:
        raise RegimeError("Hessian must be positive definite; smallest "
                          "eigenvalue %g" % lam_min)
    return lam_min


def _check_regime(lam, c_alpha, hbar):
    lam_min = positive_curvature(lam)
    if regime_check(ScheduleSpec(c_alpha), lam_min).regime != "supercritical":
        raise RegimeError("regime violation: 2 lambda_min C_alpha = %g <= 1 "
                          "(lambda_min=%g, C_alpha=%g)"
                          % (2 * lam_min * c_alpha, lam_min, c_alpha))
    if not np.isfinite(c_alpha * c_alpha * float(np.abs(hbar).max())):
        raise CovarianceError("C_alpha^2 hbar is not finite at C_alpha = %g "
                              "(largest |hbar| %g)" % (c_alpha, np.abs(hbar).max()))
    return lam_min


def _symmetric(hessian) -> np.ndarray:
    """hessian as a float array; CovarianceError where it is not square or
    not symmetric within SYMMETRY_TOL."""
    hessian = np.asarray(hessian, dtype=float)
    if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
        raise CovarianceError("expected a square matrix")
    if (np.abs(hessian - hessian.T).max()
            > SYMMETRY_TOL * max(1.0, np.abs(hessian).max())):
        raise CovarianceError("matrix is not symmetric within tolerance")
    return hessian


def sigma_bar_eigen(hessian: np.ndarray, hbar: np.ndarray,
                    c_alpha: float) -> np.ndarray:
    """Reference route via the eigen-expansion bracket; CovarianceError for a
    hessian that is not square or not symmetric within SYMMETRY_TOL."""
    hessian = _symmetric(hessian)
    hbar = np.asarray(hbar, dtype=float)
    lam, u = jacobi_eigh(hessian)
    _check_regime(lam, c_alpha, hbar)
    b = u.T @ hbar @ u
    denom = (lam[:, None] + lam[None, :]) * c_alpha - 1.0
    core = c_alpha ** 2 * b / denom
    sig = u @ core @ u.T
    return 0.5 * (sig + sig.T)


def _node_sum(terms):
    """quad_vec's sum over the nodes: one in-place add each, from 0.0."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _gk21(f, a, b):
    """quad_vec's GK21 rule on [a, b] for f, which takes the 21 nodes at once:
    the integral, its error estimate and its rounding error."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = f(c + h * GK21_NODES)
    s_k = _node_sum(GK21_KRONROD * fv)
    s_g = _node_sum(GK21_GAUSS * fv[1::2])
    s_k_abs = _node_sum(GK21_KRONROD * np.abs(fv))
    s_k_dabs = _node_sum(GK21_KRONROD * np.abs(fv - s_k / 2.0))
    err = float(np.linalg.norm((s_k - s_g) * h))
    dabs = float(np.linalg.norm(s_k_dabs * h))
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    round_err = float(np.linalg.norm(50 * sys.float_info.epsilon * h * s_k_abs))
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return h * s_k, err, round_err


def _quad_gk21(f, a: float, b: float, tol: float) -> np.ndarray:
    """quad_vec(f, a, b, epsabs=tol, epsrel=tol)'s integral, bit for bit, for
    an f that takes the 21 nodes of a GK21 call at once."""
    import heapq
    total, error, rounding = _gk21(f, a, b)
    integrals = {(a, b): total.copy()}
    heap = [(-error, a, b)]
    while len(heap) < QUADRATURE_LIMIT:
        # halve the intervals of largest error: as many as carry all of the
        # error but goal, and at most QUADRATURE_ROUND of them
        goal = max(tol, tol * np.linalg.norm(total)) / 8
        split, err_sum = [], 0
        while heap and len(split) < QUADRATURE_ROUND:
            if split and err_sum > error - goal:
                break
            split.append(heapq.heappop(heap))
            err_sum -= split[-1][0]
        for neg_err, lo, hi in split:
            mid = 0.5 * (lo + hi)
            s1, err1, round1 = _gk21(f, lo, mid)
            s2, err2, round2 = _gk21(f, mid, hi)
            total += s1 + s2 - integrals[lo, hi]
            error += err1 + err2 + neg_err
            rounding += round1 + round2
            integrals[lo, mid], integrals[mid, hi] = s1, s2
            heapq.heappush(heap, (-err1, lo, mid))
            heapq.heappush(heap, (-err2, mid, hi))
        if len(heap) >= 2 and (error < max(tol, tol * np.linalg.norm(total)) / 8
                               or error < rounding):
            break
        if not (np.isfinite(error) and np.isfinite(rounding)):
            break
    return total


def sigma_bar_quadrature(hessian: np.ndarray, hbar: np.ndarray,
                         c_alpha: float) -> np.ndarray:
    """Cross-check route by adaptive quadrature of the matrix-exponential
    integral, over the symmetric part H_s of hessian; independent of the
    Jacobi eigensolver.  It refuses the hessians sigma_bar_eigen refuses."""
    from scipy.linalg import expm
    hessian = _symmetric(hessian)
    hbar = np.asarray(hbar, dtype=float)
    k = hessian.shape[0]
    h_sym = 0.5 * (hessian + hessian.T)
    lam = np.linalg.eigvalsh(h_sym)
    lam_min = _check_regime(lam, c_alpha, hbar)
    rate = 2.0 * lam_min * c_alpha - 1.0
    scale = max(np.abs(hbar).max(), 1.0) * c_alpha ** 2
    # the integrand decays like exp(-rate s): at a large rate it is a spike
    # at s = 0, which a range floored at s = 1 would step over
    s_max = max(1.0, np.log(scale / QUADRATURE_TOL)) / rate
    exponent = c_alpha * h_sym - 0.5 * np.eye(k)

    def integrand(nodes):
        e = expm(-nodes[:, None, None] * exponent)
        return c_alpha ** 2 * e @ hbar @ e

    sig = _quad_gk21(integrand, 0.0, s_max, QUADRATURE_TOL)
    return 0.5 * (sig + sig.T)


def moment_ode_oracle(convexity_constant: float, hbar_trace: float,
                      schedule: ScheduleSpec, m0: float,
                      t_grid: np.ndarray) -> np.ndarray:
    """Integrate dm/dt = -2 alpha_t C m + alpha_t^2 tr(hbar), RK4 in log-time.

    Approximate oracle for the mean-square error curve: it keeps the
    descent/noise balance and drops the state-parameter fluctuation
    coupling, so it carries a stated 15% acceptance band rather than
    being ground truth.  Supercritical tails satisfy
    t m(t) -> C_alpha^2 tr(hbar) / (2 C C_alpha - 1).

    An interval's substeps get u, t and alpha as arrays (np.add.accumulate
    adds in a loop's order; array np.exp rounds as scalar np.exp, math.exp
    does not), then RK4 runs on Python floats: one scalar loop's bits.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0):
        raise CovarianceError("t_grid must be strictly increasing")
    if abs(t_grid[0] - 1.0) > 1e-9:
        raise CovarianceError("t_grid must start at t = 1")
    c = float(convexity_constant)
    htr = float(hbar_trace)

    def rhs(a, m):  # at alpha_t = a
        return -2.0 * a * c * m + a * a * htr

    out = np.empty_like(t_grid)
    out[0] = m = float(m0)
    t = t_grid[0]
    du_max = 0.002
    for idx in range(1, len(t_grid)):
        u0, u1 = np.log(t), np.log(t_grid[idx])
        nsub = max(1, int(np.ceil((u1 - u0) / du_max)))
        du = float((u1 - u0) / nsub)
        u = np.add.accumulate(np.r_[u0, np.full(nsub, du)])
        ts, th = np.exp(u), np.exp(u[:-1] + 0.5 * du)
        ts, at, th, ah = (v.tolist() for v in (ts, schedule.alpha(ts), th,
                                               schedule.alpha(th)))
        for j in range(nsub):
            # RK4 in u = log t: dm/du = t rhs(t, m)
            k1 = ts[j] * rhs(at[j], m)
            k2 = th[j] * rhs(ah[j], m + 0.5 * du * k1)
            k3 = th[j] * rhs(ah[j], m + 0.5 * du * k2)
            k4 = ts[j + 1] * rhs(at[j + 1], m + du * k3)
            m += du / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(m):
            raise CovarianceError("moment ODE integration failed near t=%g"
                                  % np.exp(u[-1]))
        t = t_grid[idx]
        out[idx] = m
    return out
