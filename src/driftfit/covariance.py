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

The eigen route keeps its own Jacobi solver rather than LAPACK's `eigh`:
its matrices are k x k (k <= 4 in the catalog), so speed cannot matter,
but `eigh` moves predict-covariance's route agreement on linear_system
from 9.700573677662305e-15 to 9.658940314238862e-15, and report.json
bytes are pinned in bench/reference.json.  The quadrature route uses
`expm`, so the two routes stay independent either way.
"""
from __future__ import annotations

import numpy as np

from .schedule import ScheduleSpec, regime_check

SYMMETRY_TOL = 1e-10
# jacobi_eigh stops once the off-diagonal norm is within JACOBI_TOL of the
# matrix's scale (at least 1), or after JACOBI_MAX_SWEEPS sweeps
JACOBI_TOL, JACOBI_MAX_SWEEPS = 1e-12, 60
QUADRATURE_TOL = 1e-13  # quad_vec's absolute and relative tolerance


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


def sigma_bar_quadrature(hessian: np.ndarray, hbar: np.ndarray,
                         c_alpha: float) -> np.ndarray:
    """Cross-check route by adaptive quadrature of the matrix-exponential
    integral, over the symmetric part H_s of hessian; independent of the
    Jacobi eigensolver.  It refuses the hessians sigma_bar_eigen refuses."""
    from scipy.integrate import quad_vec
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

    def integrand(s):
        e = expm(-s * exponent)
        return c_alpha ** 2 * e @ hbar @ e

    sig, _ = quad_vec(integrand, 0.0, s_max, epsabs=QUADRATURE_TOL,
                      epsrel=QUADRATURE_TOL)
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
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0):
        raise CovarianceError("t_grid must be strictly increasing")
    if abs(t_grid[0] - 1.0) > 1e-9:
        raise CovarianceError("t_grid must start at t = 1")
    c = float(convexity_constant)
    htr = float(hbar_trace)

    def rhs(t, m):
        a = schedule.alpha(t)
        return -2.0 * a * c * m + a * a * htr

    out = np.empty_like(t_grid)
    out[0] = m = float(m0)
    t = t_grid[0]
    du_max = 0.002
    for idx in range(1, len(t_grid)):
        u0, u1 = np.log(t), np.log(t_grid[idx])
        nsub = max(1, int(np.ceil((u1 - u0) / du_max)))
        du = (u1 - u0) / nsub
        u = u0
        for _ in range(nsub):
            # RK4 in u = log t: dm/du = t rhs(t, m)
            t0 = np.exp(u)
            th = np.exp(u + 0.5 * du)
            t1 = np.exp(u + du)
            k1 = t0 * rhs(t0, m)
            k2 = th * rhs(th, m + 0.5 * du * k1)
            k3 = th * rhs(th, m + 0.5 * du * k2)
            k4 = t1 * rhs(t1, m + du * k3)
            m += du / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            u += du
        if not np.isfinite(m):
            raise CovarianceError("moment ODE integration failed near t=%g"
                                  % np.exp(u))
        t = t_grid[idx]
        out[idx] = m
    return out
