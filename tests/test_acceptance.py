"""End-to-end statistical acceptance checks.

These run the full Monte Carlo verification pipeline at desk scale and
compare against closed-form limits, so the module takes a few minutes.
The master seed is fixed; every check is deterministic.

Replication i always consumes seed_split(MASTER_SEED, i), so the 4000-
replication run used for the fourth-moment rate contains the canonical
2000-replication run as its first half, bitwise; the smaller set is a
slice, not a rerun.
"""
import json

import numpy as np
import numpy.testing as npt
import pytest

import driftfit as df
from driftfit import poisson, stats
from driftfit.config import from_dict
from driftfit.experiments import run_experiment

MASTER_SEED = 123456789

OU_SIGMA_BAR = 8.0 / 3.0  # C_alpha^2 h / (2 C C_alpha - 1), C = h = 1/2


def ou_engine_config(c_alpha=4.0):
    model, noise = df.scalar_ou(1.0, 1.0)
    return df.EngineConfig(
        model=model, noise=noise,
        schedule=df.ScheduleSpec(c_alpha=c_alpha, c0=1.0),
        integrator=df.IntegratorConfig(dt=0.005, burn_in_steps=2000),
        horizon=2000.0,
        checkpoint_times=df.geometric_checkpoints(2000.0, 60))


def slice_reps(reps, n):
    return stats.ReplicationSet(
        times=reps.times, thetas=reps.thetas[:, :n, :], xs=reps.xs[:, :n, :],
        failed={i: s for i, s in reps.failed.items() if i < n},
        theta_star=reps.theta_star)


@pytest.fixture(scope="module")
def ou_reps_4000():
    cfg = ou_engine_config()
    return stats.run_replications(cfg, 4000, MASTER_SEED)


@pytest.fixture(scope="module")
def ou_reps(ou_reps_4000):
    return slice_reps(ou_reps_4000, 2000)


@pytest.fixture(scope="module")
def ou_clt_report(ou_reps):
    pred = df.sigma_bar_eigen(np.array([[0.5]]), np.array([[0.5]]), 4.0)
    sample = stats.rescaled_sample(ou_reps, float(ou_reps.times[-1]))
    return stats.clt_diagnostics(sample, pred)


def test_clt_variance(ou_clt_report):
    ratio = float(ou_clt_report.variance_ratio[0, 0])
    assert 0.85 <= ratio <= 1.15, (
        "rescaled variance %.4f x prediction outside [0.85, 1.15]" % ratio)


def test_clt_normality(ou_clt_report, record_property):
    """Known-failing at T=2000: the rescaled error keeps a transient mean
    shift of about 0.1 standard deviations (decaying like 1/sqrt(T),
    independent of dt and of the initialization box), which a 1%-level
    KS test with 2000 replications can just resolve.  Kept at the stated
    tolerance; see README."""
    ks = float(ou_clt_report.ks_statistic[0])
    crit = stats.KS_CRITICAL_1PCT / np.sqrt(ou_clt_report.n_samples)
    record_property("ks", ks)
    assert ks < crit, "KS %r >= 1%% critical value %r" % (ks, crit)


def test_l2_rate(ou_reps):
    t, m2 = stats.moment_curve(ou_reps, 2.0)
    slope = stats.loglog_slope(t, m2, (20.0, 2000.0)).slope
    assert -1.15 <= slope <= -0.85, "mean-square slope %.4f" % slope


def test_l4_rate(ou_reps_4000):
    t, m4 = stats.moment_curve(ou_reps_4000, 4.0)
    slope = stats.loglog_slope(t, m4, (20.0, 2000.0)).slope
    assert -2.35 <= slope <= -1.65, "fourth-moment slope %.4f" % slope


def test_nonconvex_clt_variance(record_property):
    model, noise = df.bounded_link(1.0, 1.0)
    cfg = df.EngineConfig(
        model=model, noise=noise,
        schedule=df.ScheduleSpec(c_alpha=4.0, c0=1.0),
        integrator=df.IntegratorConfig(dt=0.005, burn_in_steps=2000),
        horizon=2000.0,
        checkpoint_times=df.geometric_checkpoints(2000.0, 60),
        theta0_lo=np.array([-2.0]), theta0_hi=np.array([3.0]))
    reps = stats.run_replications(cfg, 2000, MASTER_SEED)
    sample = stats.rescaled_sample(reps, float(reps.times[-1]))
    # curvature at the minimum: m2 * eta'(1)^2 with m2 = 1 / (2 eta(1))
    c = model.analytic.hessian[0, 0]
    sigma_pred = 16.0 * c / (8.0 * c - 1.0)
    ratio = float(np.var(sample[:, 0], ddof=1)) / sigma_pred
    record_property("variance_ratio", ratio)
    assert 0.85 <= ratio <= 1.15, (
        "variance ratio %r to prediction %r" % (ratio, sigma_pred))


def test_covariance_routes_cross_validate():
    import time
    rng = np.random.default_rng(314)
    start = time.monotonic()
    for _ in range(20):
        k = int(rng.integers(1, 7))
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        lam = rng.uniform(0.4, 3.0, k)
        hess = q @ np.diag(lam) @ q.T
        b = rng.standard_normal((k, k))
        hb = b @ b.T + 0.1 * np.eye(k)
        c_alpha = 1.05 / (2.0 * lam.min()) * rng.uniform(1.0, 2.0)
        e = df.sigma_bar_eigen(hess, hb, c_alpha)
        q2 = df.sigma_bar_quadrature(hess, hb, c_alpha)
        npt.assert_allclose(e, q2, atol=1e-8, rtol=0)
    assert time.monotonic() - start < 1.0


def test_poisson_solver_ou_closed_form():
    model, noise = df.scalar_ou(1.0, 1.0)
    grid = poisson.Grid1D(-8.0, 8.0, 32001)
    sol = poisson.solve(model, noise, 0.5 - grid.nodes ** 2, grid)
    sel = np.abs(grid.nodes) <= 5.0
    err = float(np.abs(sol.dv_dx[sel] - grid.nodes[sel]).max())
    assert err < 1e-4, "dv/dx sup error %.3g on [-5, 5]" % err
    assert sol.residual_sup < 1e-4


def test_moment_ode_oracle_consistency(ou_reps, record_property):
    """Known-failing around t=100-150: the ODE oracle drops the
    fluctuation coupling, whose contribution is still ~25% there and
    only re-enters the 15% band near t=160 (verified independent of the
    initialization box and of dt).  Kept at the stated tolerance; see
    README."""
    cfg = ou_engine_config()
    t, m2 = stats.moment_curve(ou_reps, 2.0)
    grid = np.geomspace(1.0, 2000.0, 200)
    grid[0] = 1.0
    # E||theta_0 - theta*||^2 = 1/3 for the uniform [0, 2] start
    oracle = df.moment_ode_oracle(0.5, 0.5, cfg.schedule, 1.0 / 3.0, grid)
    tail = t >= 100.0
    worst = float(np.abs(m2[tail] / np.interp(t[tail], grid, oracle) - 1.0).max())
    record_property("worst_deviation", worst)
    assert worst <= 0.15, "worst oracle deviation %r at t >= 100" % worst


def test_subcritical_rate_degradation():
    cfg = ou_engine_config(c_alpha=0.8)  # C C_alpha = 0.4
    reps = stats.run_replications(cfg, 1000, MASTER_SEED)
    t, m2 = stats.moment_curve(reps, 2.0)
    slope = stats.loglog_slope(t, m2, (20.0, 2000.0)).slope
    assert -0.95 <= slope <= -0.65, "subcritical slope %.4f" % slope


def _report_bytes(out_dir):
    raw = json.loads((out_dir / "report.json").read_text())
    raw.pop("wall_clock")
    return json.dumps(raw, sort_keys=True)


@pytest.mark.parametrize("experiment,extra", [
    ("estimate", {"horizon": 50.0, "integrator.dt": 0.01,
                  "integrator.burn_in_steps": 200}),
    ("predict-covariance", {}),
    ("verify-rate", {"horizon": 50.0, "integrator.dt": 0.01,
                     "integrator.burn_in_steps": 200, "n_reps": 32}),
    ("regime-sweep", {"horizon": 50.0, "integrator.dt": 0.01,
                      "integrator.burn_in_steps": 200, "n_reps": 32,
                      "schedule.c_alpha": 0.8}),
    ("poisson-solve", {"model.name": "mean_reversion"}),
    ("simulate", {"horizon": 11.0, "integrator.dt": 0.01,
                  "integrator.burn_in_steps": 100, "output.stride": 10}),
])
def test_rerun_determinism(tmp_path, experiment, extra):
    overrides = {"experiment": experiment, "master_seed": MASTER_SEED}
    overrides.update(extra)
    cfg = from_dict(overrides)
    out = tmp_path / "out"
    run_experiment(cfg, out)
    first = _report_bytes(out)
    run_experiment(cfg, out)
    assert _report_bytes(out) == first
