"""Monte Carlo replication harness and trajectory estimators."""
from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .engine import EngineConfig, ReplicationSet, run_batch, seed_split

KS_CRITICAL_1PCT = 1.628  # one-sample KS, 1% level: reject if D > 1.628 / sqrt(N)
MIN_CLT_SAMPLES = 100     # fewest rescaled errors clt_diagnostics accepts


class ReplicationError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class SlopeEstimate:
    slope: float
    stderr: float


@dataclasses.dataclass
class CltReport:
    empirical_cov: np.ndarray
    variance_ratio: np.ndarray
    ks_statistic: np.ndarray
    n_samples: int


def run_replications(config: EngineConfig, n_reps: int,
                     master_seed: int) -> ReplicationSet:
    """Replication i consumes seed_split(master_seed, i) and nothing else; all
    replications advance as one vectorised batch."""
    if n_reps < 2:
        raise ReplicationError("n_reps must be >= 2")
    reps = run_batch(config, seed_split(master_seed, np.arange(n_reps)))
    if len(reps.failed) > 0.01 * n_reps:
        raise ReplicationError(
            "%d of %d replications diverged (indices %s)"
            % (len(reps.failed), n_reps, sorted(reps.failed)[:10]))
    return reps


def moment_curve(rep_set: ReplicationSet, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """Across-replication mean of ||theta_t - theta*||^p per checkpoint.

    Failed replications are excluded from the mean; they remain listed in
    rep_set.failed and are never silently forgotten.
    """
    if p < 0:
        raise ReplicationError("p must be nonnegative")
    ok = rep_set.ok_mask()
    dev = rep_set.thetas[:, ok, :] - rep_set.theta_star
    norms = np.linalg.norm(dev, axis=2)
    return rep_set.times.copy(), np.mean(norms ** p, axis=1)


def in_window(times, window: Tuple[float, float]) -> np.ndarray:
    """Which times the slope fit over window = (lo, hi) reads: lo <= t <= hi,
    up to 1e-9."""
    times = np.asarray(times, dtype=float)
    return (times >= window[0] - 1e-9) & (times <= window[1] + 1e-9)


def loglog_slope(times: np.ndarray, values: np.ndarray,
                 window: Tuple[float, float]) -> SlopeEstimate:
    """Least-squares slope of log(value) against log(t) inside the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = in_window(times, window)
    if sel.sum() < 2:
        raise ReplicationError("need at least 2 checkpoints in the window")
    y = values[sel]
    if np.any(y <= 0):
        raise ReplicationError("curve values must be positive for a log fit")
    lx, ly = np.log(times[sel]), np.log(y)
    n = len(lx)
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = ly.mean() - slope * xbar
    resid = ly - (intercept + slope * lx)
    var = float(np.sum(resid ** 2) / (n - 2)) if n > 2 else 0.0
    return SlopeEstimate(slope=slope, stderr=float(np.sqrt(var / sxx)))


def rescaled_sample(rep_set: ReplicationSet, t_eval: float) -> np.ndarray:
    """sqrt(t) (theta_t - theta*) per replication at a checkpoint time."""
    idx = np.nonzero(np.isclose(rep_set.times, t_eval, rtol=1e-9, atol=1e-9))[0]
    if idx.size == 0:
        raise ReplicationError("t_eval=%g is not a checkpoint" % t_eval)
    ok = rep_set.ok_mask()
    dev = rep_set.thetas[idx[0], ok, :] - rep_set.theta_star
    return np.sqrt(rep_set.times[idx[0]]) * dev


def ks_normal(column: np.ndarray) -> float:
    """The one-sample KS statistic of column against N(0, 1).

    It is formed as scipy's kstest(column, "norm") forms it, so it is that
    statistic bit for bit: norm.cdf at loc 0 and scale 1 is ndtr, and the
    two one-sided distances are taken and chosen in kstest's order.  Only
    scipy.special is loaded, not scipy's statistics package (about 20 MiB).
    """
    from scipy.special import ndtr
    cdf = ndtr(np.sort(column))
    n = cdf.shape[0]
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return d_plus if d_plus > d_minus else d_minus


def clt_diagnostics(samples: np.ndarray, sigma_bar: np.ndarray) -> CltReport:
    """Compare a rescaled sample against the predicted normal limit N(0, sigma_bar).

    Coordinates are standardized by the predicted covariance (not the
    empirical one) so the test also exercises the prediction itself.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, k = samples.shape
    if n < MIN_CLT_SAMPLES:
        raise ReplicationError("need at least %d samples, got %d" % (MIN_CLT_SAMPLES, n))
    emp = np.cov(samples, rowvar=False, ddof=1).reshape(k, k)
    try:
        chol = np.linalg.cholesky(sigma_bar)
    except np.linalg.LinAlgError as exc:
        raise ReplicationError("predicted covariance is singular") from exc
    z = np.linalg.solve(chol, samples.T).T
    ks = np.array([ks_normal(z[:, j]) for j in range(k)])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = emp / sigma_bar
    return CltReport(
        empirical_cov=emp,
        variance_ratio=ratio,
        ks_statistic=ks,
        n_samples=n,
    )
