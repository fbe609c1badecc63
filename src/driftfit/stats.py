"""Monte Carlo replication harness and trajectory estimators."""
from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np
from scipy import stats as spstats

from .covariance import CovariancePrediction
from .engine import EngineConfig, ReplicationSet, run_batch, seed_split

KS_CRITICAL_1PCT = 1.628  # one-sample KS, 1% level: reject if D > 1.628 / sqrt(N)


class ReplicationError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class SlopeEstimate:
    slope: float
    stderr: float
    window: Tuple[float, float]


@dataclasses.dataclass
class CltReport:
    t_eval: float
    empirical_cov: np.ndarray
    predicted_cov: np.ndarray
    variance_ratio: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    ks_statistic: np.ndarray
    n_samples: int


def run_replications(config: EngineConfig, n_reps: int,
                     master_seed: int) -> ReplicationSet:
    """Replication i consumes seed_split(master_seed, i) and nothing else; all
    replications advance as one vectorised batch."""
    if n_reps < 2:
        raise ReplicationError("n_reps must be >= 2")
    reps = run_batch(config, [seed_split(master_seed, i) for i in range(n_reps)])
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
    if rep_set.theta_star is None:
        raise ReplicationError("theta* unknown; moment curve undefined")
    if p < 0:
        raise ReplicationError("p must be nonnegative")
    ok = rep_set.ok_mask()
    dev = rep_set.thetas[:, ok, :] - rep_set.theta_star
    norms = np.linalg.norm(dev, axis=2)
    return rep_set.times.copy(), np.mean(norms ** p, axis=1)


def loglog_slope(times: np.ndarray, values: np.ndarray,
                 window: Tuple[float, float]) -> SlopeEstimate:
    """Least-squares slope of log(value) against log(t) inside the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_lo, t_hi = window
    sel = (times >= t_lo - 1e-9) & (times <= t_hi + 1e-9)
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
    return SlopeEstimate(slope=slope, stderr=float(np.sqrt(var / sxx)),
                         window=(float(t_lo), float(t_hi)))


def rescaled_sample(rep_set: ReplicationSet, t_eval: float) -> np.ndarray:
    """sqrt(t) (theta_t - theta*) per replication at a checkpoint time."""
    if rep_set.theta_star is None:
        raise ReplicationError("theta* unknown")
    idx = np.nonzero(np.isclose(rep_set.times, t_eval, rtol=1e-9, atol=1e-9))[0]
    if idx.size == 0:
        raise ReplicationError("t_eval=%g is not a checkpoint" % t_eval)
    ok = rep_set.ok_mask()
    dev = rep_set.thetas[idx[0], ok, :] - rep_set.theta_star
    return np.sqrt(rep_set.times[idx[0]]) * dev


def clt_diagnostics(samples: np.ndarray,
                    predicted: CovariancePrediction) -> CltReport:
    """Compare a rescaled sample against the predicted normal limit.

    Coordinates are standardized by the predicted covariance (not the
    empirical one) so the test also exercises the prediction itself.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, k = samples.shape
    if n < 100:
        raise ReplicationError("need at least 100 samples, got %d" % n)
    emp = np.cov(samples, rowvar=False, ddof=1).reshape(k, k)
    pred = predicted.sigma_bar
    try:
        chol = np.linalg.cholesky(pred)
    except np.linalg.LinAlgError as exc:
        raise ReplicationError("predicted covariance is singular") from exc
    z = np.linalg.solve(chol, samples.T).T
    ks = np.array([spstats.kstest(z[:, j], "norm").statistic for j in range(k)])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = emp / pred
    return CltReport(
        t_eval=np.nan,
        empirical_cov=emp,
        predicted_cov=pred.copy(),
        variance_ratio=ratio,
        skewness=spstats.skew(samples, axis=0),
        excess_kurtosis=spstats.kurtosis(samples, axis=0),
        ks_statistic=ks,
        n_samples=n,
    )
