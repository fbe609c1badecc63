"""Limiting CLT covariance by two independent routes, fundamental-solution
utilities, and the approximate second-moment ODE oracle.

The eigen-expansion route is the reference: with Delta gbar(theta*) =
U diag(lambda) U^T, the covariance entry couples eigenpairs through the
bracket C_alpha^2 / ((lambda_m + lambda_m') C_alpha - 1).  The quadrature
route integrates C_alpha^2 exp(-s(C_alpha H - I/2)) hbar exp(-s(C_alpha H^T - I/2)) ds
so that both routes agree; the two printed forms of this object differ by
whether the identity shift is split across the exponents, and the
eigen-expansion is taken as authoritative.

The eigen route keeps its own Jacobi solver rather than LAPACK's `eigh`:
its matrices are k x k (k <= 4 in the catalog), so speed cannot matter,
but `eigh` moves predict-covariance's route agreement on linear_system
from 9.700573677662305e-15 to 9.658940314238862e-15, and report.json
bytes are pinned in bench/reference.json.  The quadrature route uses
`expm`, so the two routes stay independent either way.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import expm

from .schedule import ScheduleSpec, bracket_limit

SYMMETRY_TOL = 1e-10


class CovarianceError(ValueError):
    pass


class RegimeError(CovarianceError):
    pass


@dataclasses.dataclass(frozen=True)
class EigenDecomposition:
    u: np.ndarray        # orthogonal, columns are eigenvectors
    lam: np.ndarray      # ascending eigenvalues


@dataclasses.dataclass(frozen=True)
class CovariancePrediction:
    sigma_bar: np.ndarray
    hessian: np.ndarray
    hbar: np.ndarray
    c_alpha: float
    method: str


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60):
    """Cyclic Jacobi rotations; returns ascending eigenvalues and vectors."""
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= tol * scale:
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


def symmetric_eigen(a: np.ndarray) -> EigenDecomposition:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise CovarianceError("expected a square matrix")
    if np.abs(a - a.T).max() > SYMMETRY_TOL * max(1.0, np.abs(a).max()):
        raise CovarianceError("matrix is not symmetric within tolerance")
    lam, u = jacobi_eigh(a)
    return EigenDecomposition(u=u, lam=lam)


def _check_regime(lam, c_alpha):
    lam_min = float(np.min(lam))
    if lam_min <= 0:
        raise RegimeError("Hessian must be positive definite; smallest "
                          "eigenvalue %g" % lam_min)
    if not 2.0 * lam_min * c_alpha > 1.0:
        raise RegimeError("regime violation: 2 lambda_min C_alpha = %g <= 1 "
                          "(lambda_min=%g, C_alpha=%g)"
                          % (2 * lam_min * c_alpha, lam_min, c_alpha))
    return lam_min


def sigma_bar_eigen(hessian: np.ndarray, hbar: np.ndarray,
                    c_alpha: float) -> CovariancePrediction:
    """Reference route via the eigen-expansion bracket."""
    hessian = np.asarray(hessian, dtype=float)
    hbar = np.asarray(hbar, dtype=float)
    dec = symmetric_eigen(hessian)
    _check_regime(dec.lam, c_alpha)
    b = dec.u.T @ hbar @ dec.u
    denom = (dec.lam[:, None] + dec.lam[None, :]) * c_alpha - 1.0
    core = c_alpha ** 2 * b / denom
    sig = dec.u @ core @ dec.u.T
    sig = 0.5 * (sig + sig.T)
    return CovariancePrediction(sig, hessian, hbar, float(c_alpha), "eigen")


def sigma_bar_quadrature(hessian: np.ndarray, hbar: np.ndarray, c_alpha: float,
                         tol: float = 1e-10) -> CovariancePrediction:
    """Cross-check route by adaptive quadrature of the matrix-exponential
    integral; independent of the Jacobi eigensolver."""
    hessian = np.asarray(hessian, dtype=float)
    hbar = np.asarray(hbar, dtype=float)
    k = hessian.shape[0]
    lam = np.linalg.eigvalsh(0.5 * (hessian + hessian.T))
    lam_min = _check_regime(lam, c_alpha)
    rate = 2.0 * lam_min * c_alpha - 1.0
    scale = max(np.abs(hbar).max(), 1.0) * c_alpha ** 2
    s_max = max(1.0, np.log(scale / (tol * 1e-3)) / rate)
    eye = np.eye(k)
    m_left = c_alpha * hessian - 0.5 * eye
    m_right = c_alpha * hessian.T - 0.5 * eye

    def integrand(s):
        return c_alpha ** 2 * expm(-s * m_left) @ hbar @ expm(-s * m_right)

    sig, _ = quad_vec(integrand, 0.0, s_max, epsabs=tol * 1e-3, epsrel=tol * 1e-3)
    sig = 0.5 * (sig + sig.T)
    return CovariancePrediction(sig, hessian, hbar, float(c_alpha), "quadrature")


def sigma_bar_bracket(hessian: np.ndarray, hbar: np.ndarray,
                      schedule: ScheduleSpec, horizon: float = 1e6,
                      tol: float = 1e-4) -> CovariancePrediction:
    """General-schedule variant: the closed-form bracket is replaced by the
    bracket-limit evaluator from the schedule module."""
    hessian = np.asarray(hessian, dtype=float)
    hbar = np.asarray(hbar, dtype=float)
    dec = symmetric_eigen(hessian)
    _check_regime(dec.lam, schedule.c_alpha)
    k = len(dec.lam)
    b = dec.u.T @ hbar @ dec.u
    core = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            br = bracket_limit(schedule, float(dec.lam[i] + dec.lam[j]),
                               horizon=horizon, tol=tol)
            core[i, j] = core[j, i] = b[i, j] * br if i != j else b[i, i] * br
    sig = dec.u @ core @ dec.u.T
    sig = 0.5 * (sig + sig.T)
    return CovariancePrediction(sig, hessian, hbar, schedule.c_alpha, "bracket")


def fundamental_solution(hessian: np.ndarray, schedule: ScheduleSpec,
                         t: float, s: float) -> np.ndarray:
    """Propagator of the linearized error dynamics for alpha = C_alpha / t:
    U diag((s/t)^(lambda C_alpha)) U^T, identity at s = t."""
    if not 1.0 <= s <= t:
        raise CovarianceError("requires 1 <= s <= t, got s=%g t=%g" % (s, t))
    dec = symmetric_eigen(np.asarray(hessian, dtype=float))
    d = (s / t) ** (dec.lam * schedule.c_alpha)
    return dec.u @ np.diag(d) @ dec.u.T


def psi(p: float, convexity_constant: float, schedule: ScheduleSpec,
        t: float, s: float) -> float:
    """(s/t)^(p C C_alpha): the scalar decay envelope of the propagator."""
    if p < 1:
        raise CovarianceError("p must be >= 1")
    if not 1.0 <= s <= t:
        raise CovarianceError("requires 1 <= s <= t, got s=%g t=%g" % (s, t))
    return float((s / t) ** (p * convexity_constant * schedule.c_alpha))


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
        a = schedule.c_alpha / (schedule.c0 + t)
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
