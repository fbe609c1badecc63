import dataclasses
import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfit import _kernel, engine, sde
from driftfit.covariance import CovariancePrediction
from driftfit.engine import EngineConfig, geometric_checkpoints, run_batch, seed_split
from driftfit.models import scalar_ou
from driftfit.schedule import ScheduleSpec
from driftfit.sde import IntegratorConfig
from driftfit.stats import (KS_CRITICAL_1PCT, ReplicationError, ReplicationSet,
                            clt_diagnostics, loglog_slope, moment_curve,
                            rescaled_sample, run_replications)

from conftest import needs_compiler


def small_config(horizon=20.0):
    model, noise = scalar_ou(1.0, 1.0)
    return EngineConfig(model=model, noise=noise,
                        schedule=ScheduleSpec(4.0, 1.0),
                        integrator=IntegratorConfig(dt=0.02, burn_in_steps=50),
                        horizon=horizon,
                        checkpoint_times=geometric_checkpoints(horizon, 8))


def hand_set():
    times = np.array([1.0, 4.0])
    thetas = np.zeros((2, 3, 1))
    thetas[0, :, 0] = [2.0, 0.0, 1.0]   # errors 1, -1, 0 at t=1
    thetas[1, :, 0] = [1.5, 1.5, 0.5]   # errors 0.5, 0.5, -0.5 at t=4
    return ReplicationSet(times=times, thetas=thetas, xs=np.zeros((2, 3, 1)),
                          failed={}, theta_star=np.array([1.0]))


# With sde.THETA_BOUND patched to PARTITION_BOUND, one replication of
# PARTITION_SEED's 100 exceeds it at step 256 (mid-run), so the property also
# covers `failed`, inside the 1 % that run_replications tolerates.
PARTITION_REPS, PARTITION_SEED, PARTITION_BOUND = 100, 5, 3.2


@functools.lru_cache(maxsize=None)
def partition_case(path):
    model, noise = scalar_ou(1.0, 1.0)
    if path == "numpy":  # without its family the model runs numpy's loop
        model = dataclasses.replace(model, family=None)
    cfg = EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(dt=0.02, burn_in_steps=50),
                       horizon=11.0, checkpoint_times=geometric_checkpoints(11.0, 8),
                       theta0_lo=np.array([-1.0]), theta0_hi=np.array([3.0]))
    seeds = [seed_split(PARTITION_SEED, i) for i in range(PARTITION_REPS)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "THETA_BOUND", PARTITION_BOUND)
        return cfg, seeds, run_batch(cfg, seeds)


# The compiled kernel ignores NOISE_BUFFER_BYTES; the numpy loop refills its
# noise buffer down to every step.
@pytest.mark.parametrize("path", [pytest.param("kernel", marks=needs_compiler),
                                  "numpy"])
@settings(max_examples=15, deadline=None)
@given(order=st.permutations(range(PARTITION_REPS)),
       cuts=st.sets(st.integers(1, PARTITION_REPS - 1), max_size=4),
       buffer_bytes=st.integers(0, 8 * PARTITION_REPS * 600))
def test_results_independent_of_grouping_and_noise_buffer(path, order, cuts,
                                                          buffer_bytes):
    cfg, seeds, whole = partition_case(path)
    assert path == "numpy" or _kernel.load() is not None
    assert whole.failed
    # both paths give the same results
    assert whole.digest() == partition_case("numpy")[2].digest()
    thetas, xs = np.empty_like(whole.thetas), np.empty_like(whole.xs)
    failed = {}
    bounds = [0, *sorted(cuts), PARTITION_REPS]
    with pytest.MonkeyPatch.context() as mp:
        # down to one step per refill when buffer_bytes < 8 * len(part)
        mp.setattr(engine, "NOISE_BUFFER_BYTES", buffer_bytes)
        mp.setattr(sde, "THETA_BOUND", PARTITION_BOUND)
        for lo, hi in zip(bounds, bounds[1:]):
            part = order[lo:hi]
            res = run_batch(cfg, [seeds[i] for i in part])
            npt.assert_array_equal(res.times, whole.times)
            thetas[:, part], xs[:, part] = res.thetas, res.xs
            failed.update({part[pos]: step for pos, step in res.failed.items()})
        reps = run_replications(cfg, PARTITION_REPS, PARTITION_SEED)
    npt.assert_array_equal(thetas, whole.thetas)
    npt.assert_array_equal(xs, whole.xs)
    assert failed == whole.failed
    # run_replications returns run_batch's own result
    assert reps.digest() == whole.digest()
    assert reps.n_reps == PARTITION_REPS
    npt.assert_array_equal(reps.theta_star, cfg.model.true_theta)


def test_run_replications_validation():
    cfg = small_config()
    assert (run_replications(cfg, n_reps=2, master_seed=77).digest()
            != run_replications(cfg, n_reps=2, master_seed=78).digest())
    with pytest.raises(ReplicationError):
        run_replications(cfg, n_reps=1, master_seed=0)


def test_moment_curve_hand_values():
    reps = hand_set()
    t, m2 = moment_curve(reps, 2.0)
    npt.assert_allclose(t, [1.0, 4.0])
    npt.assert_allclose(m2, [2.0 / 3.0, 0.25])
    _, m1 = moment_curve(reps, 1.0)
    npt.assert_allclose(m1, [2.0 / 3.0, 0.5])
    with pytest.raises(ReplicationError):
        moment_curve(reps, -1.0)


def test_moment_curve_excludes_failed():
    reps = hand_set()
    reps.failed = {0: 123}
    reps.thetas[:, 0, :] = np.nan
    _, m2 = moment_curve(reps, 2.0)
    npt.assert_allclose(m2, [0.5, 0.25])


def test_loglog_slope_recovers_power_law():
    t = np.geomspace(1.0, 1000.0, 30)
    est = loglog_slope(t, 5.0 * t ** -1.3, (1.0, 1000.0))
    assert est.slope == pytest.approx(-1.3, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    windowed = loglog_slope(t, 5.0 * t ** -1.3, (10.0, 100.0))
    assert windowed.window == (10.0, 100.0)
    assert windowed.slope == pytest.approx(-1.3, abs=1e-12)


def test_loglog_slope_validation():
    t = np.array([1.0, 10.0, 100.0])
    with pytest.raises(ReplicationError):
        loglog_slope(t, np.ones(3), (200.0, 300.0))
    with pytest.raises(ReplicationError):
        loglog_slope(t, np.array([1.0, -1.0, 1.0]), (1.0, 100.0))


def test_rescaled_sample():
    reps = hand_set()
    sample = rescaled_sample(reps, 4.0)
    npt.assert_allclose(np.sort(sample[:, 0]), [-1.0, 1.0, 1.0])
    with pytest.raises(ReplicationError):
        rescaled_sample(reps, 2.5)


def test_clt_diagnostics_on_exact_normal_sample():
    rng = np.random.default_rng(2024)
    sigma = 8.0 / 3.0
    z = rng.standard_normal((10000, 1)) * np.sqrt(sigma)
    pred = CovariancePrediction(np.array([[sigma]]), np.array([[0.5]]),
                                np.array([[0.5]]), 4.0, "eigen")
    rep = clt_diagnostics(z, pred)
    assert rep.n_samples == 10000
    assert rep.variance_ratio[0, 0] == pytest.approx(1.0, abs=0.05)
    assert rep.ks_statistic[0] < KS_CRITICAL_1PCT / np.sqrt(10000)
    assert abs(rep.skewness[0]) < 0.1
    assert abs(rep.excess_kurtosis[0]) < 0.15


def test_clt_diagnostics_flags_wrong_scale():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((10000, 1)) * 2.0
    pred = CovariancePrediction(np.array([[1.0]]), np.array([[0.5]]),
                                np.array([[0.5]]), 4.0, "eigen")
    rep = clt_diagnostics(z, pred)
    assert rep.variance_ratio[0, 0] == pytest.approx(4.0, rel=0.1)
    assert rep.ks_statistic[0] > KS_CRITICAL_1PCT / np.sqrt(10000)


def test_clt_diagnostics_needs_samples():
    pred = CovariancePrediction(np.eye(1), np.eye(1), np.eye(1), 4.0, "eigen")
    with pytest.raises(ReplicationError):
        clt_diagnostics(np.zeros((50, 1)), pred)
