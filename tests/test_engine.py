import dataclasses
import functools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftfit
from driftfit import _kernel, engine, sde
from driftfit.engine import (BlowupError, EngineConfig, diverged, geometric_checkpoints,
                             run_batch, seed_split, sgdct_step, splitmix64, step_of)
from driftfit.experiments import _replay_csv
from driftfit.models import (bounded_link, linear_system, mean_reversion,
                             objective_grad, scalar_ou)
from driftfit.schedule import ScheduleSpec
from driftfit.sde import DIVERGENCE_BOUND, IntegratorConfig, simulate_path

from conftest import needs_compiler


def make_config(horizon=20.0, dt=0.01, n_cp=10, c_alpha=4.0, c0=1.0,
                burn_in=100, factory=scalar_ou):
    model, noise = factory()
    return EngineConfig(model=model, noise=noise,
                        schedule=ScheduleSpec(c_alpha=c_alpha, c0=c0),
                        integrator=IntegratorConfig(dt=dt, burn_in_steps=burn_in),
                        horizon=horizon,
                        checkpoint_times=geometric_checkpoints(horizon, n_cp))


def test_splitmix64_reference_vector():
    # first output of the splitmix64 sequence seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) != splitmix64(0)
    assert 0 <= splitmix64(2 ** 64 - 1) < 2 ** 64


def test_seed_split_properties():
    assert seed_split(0, 0) == splitmix64(0)
    seeds = [seed_split(12345, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert seed_split(12345, 3) == seed_split(12345, 3)
    with pytest.raises(ValueError):
        seed_split(0, -1)


def test_geometric_checkpoints():
    cps = geometric_checkpoints(100.0, 5)
    npt.assert_allclose(cps, [1.0, 100.0 ** 0.25, 10.0, 100.0 ** 0.75, 100.0])
    with pytest.raises(ValueError):
        geometric_checkpoints(1.0)


def test_sgdct_step_hand_value():
    model, noise = scalar_ou(1.0, 1.0)
    sched = ScheduleSpec(c_alpha=1.0, c0=0.0)
    out = sgdct_step(model, noise, sched, t=1.0, x=np.array([2.0]),
                     theta=np.array([1.0]), delta_x=np.array([0.015]), dt=0.01)
    # residual 0.015 - (-2)(0.01) = 0.035; grad -2; theta 1 - 0.07
    npt.assert_allclose(out, [0.93], atol=1e-15)


def test_sgdct_step_noiseless_fixed_point():
    # at theta = theta* with the exact increment dx = f* dt the update is zero
    model, noise = scalar_ou(1.0, 1.0)
    sched = ScheduleSpec(c_alpha=4.0, c0=1.0)
    x = np.array([1.7])
    dx = model.true_drift_fn(x) * 0.01
    out = sgdct_step(model, noise, sched, 5.0, x, np.array([1.0]), dx, 0.01)
    npt.assert_allclose(out, [1.0], atol=1e-15)


def test_sgdct_step_noiseless_is_objective_descent():
    # with the noise increment removed, the update is an explicit Euler
    # step of the pointwise objective gradient flow
    model, noise = scalar_ou(1.0, 1.0)
    sched = ScheduleSpec(c_alpha=4.0, c0=1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(1)
        theta = rng.standard_normal(1)
        dt = 0.01
        t = float(rng.uniform(1.0, 50.0))
        dx = model.true_drift_fn(x) * dt
        stepped = sgdct_step(model, noise, sched, t, x, theta, dx, dt)
        a_t = sched.c_alpha / (sched.c0 + t)
        expected = theta - a_t * objective_grad(model, noise, x, theta) * dt
        npt.assert_allclose(stepped, expected, atol=1e-15)


def test_run_deterministic():
    cfg = make_config()
    a = run_batch(cfg, [42])
    b = run_batch(cfg, [42])
    npt.assert_array_equal(a.thetas, b.thetas)
    npt.assert_array_equal(a.xs, b.xs)
    c = run_batch(cfg, [43])
    assert not np.array_equal(a.thetas, c.thetas)


def test_run_records_initial_checkpoint():
    cfg = make_config()
    traj = run_batch(cfg, [1])
    assert traj.times[0] == pytest.approx(1.0)
    assert cfg.theta0_lo[0] <= traj.thetas[0, 0, 0] <= cfg.theta0_hi[0]
    assert traj.times[-1] == pytest.approx(cfg.horizon, abs=0.02)
    assert np.all(np.diff(traj.times) > 0)


def test_the_t1_checkpoint_holds_x0_not_the_state_after_the_burn_in():
    # recorded before the 100 burn-in steps run, so estimate's rep_0.csv
    # starts at x0; its bytes are pinned by the benchmark's reference digests
    cfg = make_config(burn_in=100)
    cfg = dataclasses.replace(cfg, integrator=dataclasses.replace(
        cfg.integrator, x0=np.array([1.5])))
    traj = run_batch(cfg, [seed_split(5, i) for i in range(3)])
    assert traj.times[0] == 1.0
    npt.assert_array_equal(traj.xs[0], np.full((3, 1), 1.5))


def test_batch_results_independent_of_grouping():
    cfg = make_config()
    seeds = [seed_split(99, i) for i in range(6)]
    joint = run_batch(cfg, seeds)
    for i, s in enumerate(seeds):
        solo = run_batch(cfg, [s])
        npt.assert_array_equal(joint.thetas[:, i, :], solo.thetas[:, 0, :])
        npt.assert_array_equal(joint.xs[:, i, :], solo.xs[:, 0, :])
    split = run_batch(cfg, seeds[:3]), run_batch(cfg, seeds[3:])
    npt.assert_array_equal(joint.thetas[:, :3, :], split[0].thetas)
    npt.assert_array_equal(joint.thetas[:, 3:, :], split[1].thetas)


def test_estimation_error_shrinks():
    cfg = make_config(horizon=200.0, dt=0.01, n_cp=20)
    res = run_batch(cfg, [seed_split(7, i) for i in range(32)])
    err = np.nanmean((res.thetas[:, :, 0] - 1.0) ** 2, axis=1)
    assert err[-1] < 0.1 * err[0]
    assert not res.failed


def test_matrix_model_runs():
    cfg = make_config(horizon=50.0, factory=lambda: linear_system(dim=2))
    traj = run_batch(cfg, [5])
    assert not traj.failed
    assert traj.thetas.shape[1:] == (1, 4)
    err0 = np.linalg.norm(traj.thetas[0, 0] - cfg.model.true_theta)
    err1 = np.linalg.norm(traj.thetas[-1, 0] - cfg.model.true_theta)
    assert err1 < err0


@pytest.mark.parametrize("factory", [scalar_ou, mean_reversion, linear_system])
def test_replaying_the_estimate_path_gives_back_its_parameters(factory):
    # paths that share increments must agree: the CSV replay of the states
    # run_batch records at every step repeats run_batch's own updates
    model, noise = factory()
    dt, steps = 0.01, 500
    cfg = EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(dt=dt, burn_in_steps=0),
                       horizon=1.0 + steps * dt,
                       checkpoint_times=1.0 + dt * np.arange(steps + 1))
    est = run_batch(cfg, [11])
    assert len(est.times) == steps + 1 and not est.failed
    replayed = _replay_csv(cfg, est.times, est.xs[:, 0, :], 11)
    npt.assert_array_equal(replayed.times, est.times[1:])
    npt.assert_array_equal(replayed.xs, est.xs[1:])
    npt.assert_allclose(replayed.thetas, est.thetas[1:], rtol=0, atol=1e-12)


def diverging_config():
    # an explosive learning schedule on a wildly misspecified start blows up
    model, noise = scalar_ou(1.0, 1.0)
    return EngineConfig(model=model, noise=noise,
                        schedule=ScheduleSpec(c_alpha=1e9, c0=0.0),
                        integrator=IntegratorConfig(dt=0.5, burn_in_steps=0),
                        horizon=500.0,
                        checkpoint_times=geometric_checkpoints(500.0, 5),
                        theta0_lo=np.array([-600.0]), theta0_hi=np.array([-500.0]))


def test_divergence_is_flagged():
    res = run_batch(diverging_config(), [seed_split(0, i) for i in range(4)])
    assert res.failed
    for i in res.failed:
        assert np.all(np.isnan(res.thetas[:, i, :]))


def test_the_divergence_screen_flags_non_finite_and_over_bound_rows():
    edge = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]
    theta_vals = edge + [5.0, -5.0, 5.0000001, -5.0000001]
    x_vals = edge + [DIVERGENCE_BOUND, -DIVERGENCE_BOUND, np.nextafter(1e8, 2e8), -2e8]
    rows = [(a, b, c) for a in theta_vals for b in theta_vals for c in x_vals]
    theta = np.array([r[:2] for r in rows])
    x = np.array([r[2:] for r in rows])
    with np.errstate(invalid="ignore"):
        # the screen's first form: four reductions, two per array
        want_theta = ~np.isfinite(theta).all(axis=1) | (np.abs(theta).max(axis=1) > 5.0)
        want_x = ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > DIVERGENCE_BOUND)
    want = want_theta | want_x
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "THETA_BOUND", 5.0)
        got = diverged(theta, x)
        # one array alone, as simulate_path and the replay screen; rows all
        # inside take the whole-array check alone
        npt.assert_array_equal(diverged(theta), want_theta)
        npt.assert_array_equal(diverged(x=x), want_x)
        inside = ~want_x
        npt.assert_array_equal(diverged(x=x[inside]), np.zeros(inside.sum(), bool))
        assert diverged(theta[:0], x[:0]).shape == (0,)
    npt.assert_array_equal(got, want)
    assert want.any() and not want.all()


def test_engine_config_validation():
    model, noise = scalar_ou()
    with pytest.raises(ValueError):
        EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                     integrator=IntegratorConfig(), horizon=10.0,
                     checkpoint_times=np.array([1.0, 20.0]))
    with pytest.raises(ValueError):
        EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                     integrator=IntegratorConfig(), horizon=10.0,
                     checkpoint_times=np.array([1.0, 10.0]),
                     theta0_lo=np.array([2.0]), theta0_hi=np.array([1.0]))
    with pytest.raises(ValueError, match="checkpoint times"):
        EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                     integrator=IntegratorConfig(), horizon=10.0,
                     checkpoint_times=np.array([1.0, np.nan]))
    # run_batch's theta0 draw is lo + (hi - lo) u, as Generator.uniform's,
    # which refused such a box only when it drew
    for lo, hi in [(-1e308, 1e308), (np.nan, 1.0), (0.0, np.inf)]:
        with pytest.raises(ValueError, match="finite width"):
            EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                         integrator=IntegratorConfig(), horizon=10.0,
                         checkpoint_times=np.array([1.0]),
                         theta0_lo=np.array([lo]), theta0_hi=np.array([hi]))


def test_engine_config_rejects_horizon_off_the_dt_grid():
    # (10.002 - 1) / 0.005 = 1800.4 steps: the engine would stop at 9.62 and
    # record 59 of the 60 checkpoints
    with pytest.raises(ValueError, match="not a whole number"):
        make_config(horizon=10.002, dt=0.005, n_cp=60)
    make_config(horizon=10.0, dt=0.005, n_cp=60)
    make_config(horizon=1.0 + 0.1 * 3, dt=0.1)  # 3.0000000000000004 steps: round-off


@pytest.mark.parametrize("dt", [0.01, 0.005, 0.1])
def test_step_of_rounds_a_time_up_to_the_first_step_that_reaches_it(dt):
    assert step_of(1.0, dt) == 0
    for j in (1, 7, 156, 19900):
        for offset in (-1e-13, 0.0, 1e-13):
            assert step_of(1.0 + j * dt + offset, dt) == j
            assert step_of(1.0 + j * dt + offset, dt, exact=True) == j
    assert step_of(1.0 + 2.5 * dt, dt) == 3  # off the grid: rounds up
    with pytest.raises(ValueError, match="not a whole number"):
        step_of(1.0 + 2.5 * dt, dt, exact=True)
    npt.assert_array_equal(step_of(1.0 + np.array([0.0, 2.5, 4.0]) * dt, dt),
                           [0, 3, 4])
    for bad in (np.nan, np.inf, 1.0 - 0.5 * dt, [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite and at least 1"):
            step_of(bad, dt)


def test_step_of_keeps_its_tolerance_below_half_a_step_at_a_billion_steps():
    # 1e-9 steps per step of s used to reach a whole step at s = 1e9
    assert step_of(2001.0, 1e-6, exact=True) == 2_000_000_000
    assert step_of(1001.0, 1e-6, exact=True) == 10 ** 9
    assert step_of(11.0, 1e-9, exact=True) == 10 ** 10


def test_every_admitted_checkpoint_is_recorded():
    # horizon + 5e-10 used to pass the range check and then not be recorded
    cfg = dataclasses.replace(make_config(horizon=20.0, dt=0.01),
                              checkpoint_times=np.array([1.0, 5.0, 20.0 + 5e-10]))
    reps = run_batch(cfg, [3])
    npt.assert_array_equal(reps.times, [1.0, 5.0, 1.0 + 1900 * 0.01])
    npt.assert_array_equal(reps.thetas[-1], run_batch(make_config(), [3]).thetas[-1])
    with pytest.raises(ValueError, match="checkpoint times"):
        dataclasses.replace(cfg, checkpoint_times=np.array([1.0, 20.01]))


def test_trajectory_csv(tmp_path):
    cfg = make_config()
    traj = run_batch(cfg, [2])
    out = tmp_path / "rep.csv"
    traj.dump_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,theta_1,x_1"
    assert len(lines) == 1 + len(traj.times)


def numpy_only(cfg):
    """cfg with its model's family dropped, so run_batch runs numpy."""
    return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, family=None))


def run_and_spy(cfg, seeds):
    """run_batch's result and whether it ran the compiled kernel."""
    bound = []

    def spy(*args):
        advance = real(*args)
        bound.append(advance is not None)
        return advance

    real = _kernel.bind
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "bind", spy)
        res = run_batch(cfg, seeds)
    return res, bound == [True]


@needs_compiler
def test_a_diverged_replication_is_booked_alike_on_the_kernel_and_numpy():
    # a failed row runs on to the end, overflowing, silently on both paths
    cfg, seeds = diverging_config(), [seed_split(0, i) for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, compiled = run_and_spy(cfg, seeds)
        want = run_batch(numpy_only(cfg), seeds)
    assert compiled and got.failed and got.failed == want.failed
    for res in (got, want):
        assert np.isnan(res.thetas[:, list(res.failed)]).all()
        assert np.isnan(res.xs[:, list(res.failed)]).all()
    assert got.digest() == want.digest()


PATHS = [pytest.param("kernel", marks=needs_compiler), "numpy"]


def run_on(path, cfg, seeds):
    """run_batch on the kernel (checking that it ran) or on the numpy loop."""
    if path == "numpy":
        return run_batch(numpy_only(cfg), seeds)
    res, compiled = run_and_spy(cfg, seeds)
    assert compiled
    return res


@pytest.mark.parametrize("path", PATHS)
def test_a_divergence_after_the_last_screening_multiple_is_booked_at_the_end(path):
    # 300 steps: screenings at 256 and at the end; with |theta| <= 1.8 as the
    # bound, replication 1 is past it at step 256 (1.90) and replication 2
    # only at step 300 (1.74, then 1.89), while 0 and 3 stay inside
    model, noise = scalar_ou()
    cfg = EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(dt=0.01, burn_in_steps=0),
                       horizon=4.0, checkpoint_times=geometric_checkpoints(4.0, 5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "THETA_BOUND", 1.8)
        res = run_on(path, cfg, [seed_split(1, i) for i in range(4)])
    assert res.failed == {1: engine.CHECK_EVERY, 2: 300}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("burn_in", [0, 300])
def test_a_theta0_past_the_bound_is_booked_at_the_first_screening(path, burn_in):
    # the t = 1 checkpoint is recorded at step 0, which is no screening; with
    # a burn-in past CHECK_EVERY, theta is still theta0 when it is screened
    cfg = dataclasses.replace(make_config(burn_in=burn_in),
                              theta0_lo=np.array([2e6]), theta0_hi=np.array([3e6]))
    assert cfg.checkpoint_times[0] == 1.0
    res = run_on(path, cfg, [seed_split(2, i) for i in range(3)])
    assert set(res.failed.values()) == {engine.CHECK_EVERY}
    if burn_in > engine.CHECK_EVERY:
        assert res.failed == {0: 256, 1: 256, 2: 256}
    assert np.isnan(res.thetas[:, list(res.failed)]).all()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("extra", [1.0, 1.0 + 0.01 * 156, 7.777, 20.0],
                         ids=["t1", "screening_step", "off_grid", "horizon"])
def test_adding_a_checkpoint_leaves_the_other_rows_unchanged(path, extra):
    # verify-clt adds t_eval to its grid and reads the other rows as they were
    cfg = make_config(horizon=20.0, dt=0.01, burn_in=100)
    cfg = dataclasses.replace(cfg, checkpoint_times=np.geomspace(1.5, 19.0, 7))
    more = dataclasses.replace(cfg, checkpoint_times=np.append(
        cfg.checkpoint_times, extra))
    seeds = [seed_split(6, i) for i in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "THETA_BOUND", 1.8)  # fails some replications
        base, grown = run_on(path, cfg, seeds), run_on(path, more, seeds)
    assert base.failed and grown.failed == base.failed
    rows = np.searchsorted(grown.times, base.times)
    assert len(grown.times) == len(base.times) + 1
    npt.assert_array_equal(grown.times[rows], base.times)
    assert grown.thetas[rows].tobytes() == base.thetas.tobytes()
    assert grown.xs[rows].tobytes() == base.xs.tobytes()


@pytest.mark.parametrize("path", PATHS)
def test_an_empty_batch_gives_an_empty_set(path):
    cfg = make_config()
    res = run_on(path, cfg, [])
    npt.assert_array_equal(res.times, run_batch(cfg, [1]).times)
    assert res.thetas.shape == (len(res.times), 0, 1)
    assert res.xs.shape == (len(res.times), 0, 1)
    assert res.n_reps == 0 and res.failed == {}


@st.composite
def kernel_models(draw):
    name = draw(st.sampled_from(["scalar_ou", "mean_reversion", "linear_system"]))
    sigma = draw(st.floats(0.3, 2.0))
    if name == "scalar_ou":
        return scalar_ou(draw(st.floats(0.3, 3.0)), sigma)
    if name == "mean_reversion":
        return mean_reversion(draw(st.floats(0.3, 3.0)), draw(st.floats(-1.0, 1.0)),
                              sigma)
    d = draw(st.integers(1, 3))
    th = np.diag(draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d)))
    off = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=d * d,
                                 max_size=d * d))).reshape(d, d)
    return linear_system(th + off - np.diag(np.diag(off)), sigma * np.eye(d))


@needs_compiler
@settings(max_examples=40, deadline=None)
@given(model_noise=kernel_models(), master=st.integers(0, 2 ** 32),
       n=st.integers(1, 40), burn_in=st.integers(0, 300), steps=st.integers(1, 700),
       dt=st.floats(1e-3, 0.05),
       cp_frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       bound_margin=st.sampled_from([None, 0.5]))
def test_kernel_is_bitwise_equal_to_the_numpy_loop(model_noise, master, n, burn_in,
                                                    steps, dt, cp_frac, bound_margin):
    model, noise = model_noise
    horizon = 1.0 + steps * dt
    # theta0 is drawn within theta* +- 1, so a margin of 0.5 fails some replications
    bound = (sde.THETA_BOUND if bound_margin is None
             else float(np.abs(model.true_theta).max()) + bound_margin)
    cfg = EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(dt=dt, burn_in_steps=burn_in),
                       horizon=horizon,
                       checkpoint_times=1.0 + (horizon - 1.0) * np.array(cp_frac))
    seeds = [seed_split(master, i) for i in range(n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "THETA_BOUND", bound)
        got, compiled = run_and_spy(cfg, seeds)
        want = run_batch(numpy_only(cfg), seeds)
    # the kernel copies numpy's sums of at most two drift terms
    assert compiled == ((model.family, model.m) in _kernel.BODIES)
    npt.assert_array_equal(got.times, want.times)
    npt.assert_array_equal(got.thetas, want.thetas)
    npt.assert_array_equal(got.xs, want.xs)
    assert got.failed == want.failed
    assert got.digest() == want.digest()


# each replacement computes what it replaces, so the numpy loop gives the
# family model's digest; the kernel, which reads the family and true_theta
# alone, must not run it
REPLACEMENTS = {
    "drift": lambda model: {"drift_fn": lambda x, theta: -theta[..., 0:1] * x},
    "gradient": lambda model: {"drift_grad_fn": lambda x, theta: np.expand_dims(-x, -2)},
    # a partial on the model's own true_theta: only its func tells it apart
    "true_drift": lambda model: {"true_drift_fn": functools.partial(
        lambda x, theta: -theta * x, theta=model.true_theta)},
    # a copy: the true drift still reads the original array
    "true_theta": lambda model: {"true_theta": model.true_theta.copy()},
}


@needs_compiler
@pytest.mark.parametrize("replaced", sorted(REPLACEMENTS))
def test_a_replaced_drift_runs_on_numpy(replaced):
    cfg = make_config(horizon=6.0)
    model = cfg.model
    same = dataclasses.replace(model, **REPLACEMENTS[replaced](model))
    seeds = [seed_split(4, i) for i in range(3)]
    want, compiled = run_and_spy(cfg, seeds)
    assert compiled
    assert want.digest() == run_batch(numpy_only(cfg), seeds).digest()
    got, compiled = run_and_spy(dataclasses.replace(cfg, model=same), seeds)
    assert not compiled
    assert got.digest() == want.digest()


def simulate_and_replay(cfg, seed, steps=300):
    """simulate_path's states and the replay of them: (times, xs, thetas)."""
    blocks = list(simulate_path(cfg.model, cfg.noise, cfg.integrator, seed, steps))
    times = np.concatenate([t for t, _ in blocks])
    xs = np.concatenate([x for _, x in blocks])
    thetas = _replay_csv(cfg, times, xs, seed).thetas
    assert thetas.shape == (steps - 1, 1, cfg.model.k)
    return times, xs, thetas


def assert_falls_back_to_numpy(patches):
    """With the attributes in patches set on _kernel in a fresh process, all
    three entry points run numpy and give its bytes, after one warning."""
    cfg = make_config(horizon=6.0)
    seeds = [seed_split(8, i) for i in range(3)]
    want = run_batch(numpy_only(cfg), seeds).digest()
    want_path = simulate_and_replay(numpy_only(cfg), 8)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        mp.setattr(_kernel, "_lib", None)  # as in a fresh process
        for name, value in patches.items():
            mp.setattr(_kernel, name, value)
        assert run_batch(cfg, seeds).digest() == want
        assert run_batch(cfg, seeds).digest() == want
        got_path = simulate_and_replay(cfg, 8)
    for got, expected in zip(got_path, want_path):
        assert got.tobytes() == expected.tobytes()
    # one warning for all three entry points
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "numpy step loop" in str(seen[0].message)
    return str(seen[0].message)


def test_run_batch_falls_back_to_numpy_when_the_build_fails(tmp_path):
    assert_falls_back_to_numpy({"cache_dir": lambda: str(tmp_path / "cache"),
                                "CC": str(tmp_path / "no-such-compiler")})


def test_run_batch_falls_back_to_numpy_without_objcopy(tmp_path):
    message = assert_falls_back_to_numpy({
        "cache_dir": lambda: str(tmp_path / "cache"),
        "OBJCOPY": str(tmp_path / "no-such-objcopy")})
    assert "no-such-objcopy" in message
    assert list((tmp_path / "cache").iterdir()) == []


numpy_normals = _kernel.reference_normals


def off_by_one_ulp(bit_generator, n):
    return np.nextafter(numpy_normals(bit_generator, n), np.inf)


def one_draw_more(bit_generator, n):
    return numpy_normals(bit_generator, n + 1)[:n]


@needs_compiler
@pytest.mark.parametrize("reference, why", [
    (off_by_one_ulp, "normal draws differ"),
    (one_draw_more, "another bit-generator state")])
def test_a_kernel_whose_normals_differ_from_numpy_is_not_used(reference, why):
    message = assert_falls_back_to_numpy({"reference_normals": reference})
    assert why in message


def one_ulp_off_for(body, name):
    """_kernel's reference `name` (reference_steps or reference_replay), one
    ulp off for the model of body (family, m) alone."""
    real = getattr(_kernel, name)

    def reference(config, *args):
        out = real(config, *args)
        if (config.model.family, config.model.m) != body:
            return out
        if name == "reference_replay":
            return np.nextafter(out, np.inf)
        x = args[2]

        def advance(lo, hi):
            out(lo, hi)
            x[-1, -1] = np.nextafter(x[-1, -1], np.inf)

        return advance

    return reference


@needs_compiler
@pytest.mark.parametrize("name, what", [("reference_steps", "span"),
                                        ("reference_replay", "replay")])
@pytest.mark.parametrize("body", sorted(_kernel.BODIES))
def test_a_kernel_whose_arithmetic_differs_from_numpy_is_not_used(body, name, what):
    message = assert_falls_back_to_numpy({name: one_ulp_off_for(body, name)})
    assert "its %s of body %s with m = %d differs" % (what, *body) in message


def test_the_load_time_check_runs_every_body():
    assert {(cfg.model.family, cfg.model.m)
            for cfg in _kernel.check_configs()} == _kernel.BODIES


@needs_compiler
def test_the_kernel_at_every_level_this_cpu_has_equals_numpy(tmp_path):
    # each level this CPU has, forced through the feature probe and built
    # into a cache of its own, so that the levels march() would not pick
    # here are checked bitwise too
    have = _kernel.cpu_features()
    levels = {"baseline": {}}
    levels.update({level: {"X86_" + level.upper(): True} for level in ("v3", "v4")
                   if have.get("X86_" + level.upper())})
    cfgs = [make_config(horizon=3.0, burn_in=20, factory=factory)
            for factory in (scalar_ou, mean_reversion, linear_system)]
    seeds = [seed_split(9, i) for i in range(19)]
    want = [run_batch(numpy_only(cfg), seeds).digest() for cfg in cfgs]
    want_path = simulate_and_replay(numpy_only(cfgs[2]), 9)
    names = set()
    for level, features in levels.items():
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")  # the load-time check must pass
            mp.setattr(_kernel, "_lib", None)
            mp.setattr(_kernel, "cache_dir", lambda: str(tmp_path / level))
            mp.setattr(_kernel, "cpu_features", lambda: features)
            flags = _kernel.march()
            assert flags == (() if level == "baseline" else ("-march=x86-64-" + level,))
            names.add(os.path.basename(_kernel.load()._name))
            for cfg, digest in zip(cfgs, want):
                got, compiled = run_and_spy(cfg, seeds)
                assert compiled and got.digest() == digest, (level, cfg.model.name)
            for got, expected in zip(simulate_and_replay(cfgs[2], 9), want_path):
                assert got.tobytes() == expected.tobytes(), level
    # the level is part of the kernel's cache key
    assert len(names) == len(levels)


# A child process's numpy-loop digest of each catalog model, and the x86-64
# levels its numpy dispatches to.
LEVEL_CHILD = """
import dataclasses, json
from driftfit import _kernel
from driftfit.engine import EngineConfig, geometric_checkpoints, run_batch, seed_split
from driftfit.models import bounded_link, linear_system, mean_reversion, scalar_ou
from driftfit.schedule import ScheduleSpec
from driftfit.sde import IntegratorConfig
out = {level: bool(_kernel.cpu_features().get(level)) for level in ("X86_V3", "X86_V4")}
for name, (model, noise) in {
        "scalar_ou": scalar_ou(), "mean_reversion": mean_reversion(),
        "linear_system_d2": linear_system(dim=2), "linear_system_d3": linear_system(dim=3),
        "bounded_link": bounded_link()}.items():
    cfg = EngineConfig(model=dataclasses.replace(model, family=None), noise=noise,
                       schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(dt=0.01, burn_in_steps=20),
                       horizon=5.0, checkpoint_times=geometric_checkpoints(5.0, 6))
    out[name] = run_batch(cfg, [seed_split(11, i) for i in range(16)]).digest()
print(json.dumps(out))
"""
# numpy's dispatch targets above each level, as NPY_DISABLE_CPU_FEATURES names them
ABOVE_V3 = "X86_V4 AVX512_ICL AVX512_SPR"
FORCED_LEVELS = {"v3": ABOVE_V3, "baseline": "X86_V3 " + ABOVE_V3}


def numpy_loop_digests(disable):
    """LEVEL_CHILD's output with numpy's dispatch to `disable` (None: none)
    turned off in the child's environment alone."""
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    src = os.path.dirname(os.path.dirname(os.path.abspath(driftfit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", LEVEL_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_numpy_loop_digests_do_not_depend_on_numpys_dispatch_level(record_property):
    have = _kernel.cpu_features()
    if not have.get("X86_V3"):
        pytest.skip("numpy dispatches to no x86-64 level above its baseline here")
    native = numpy_loop_digests(None)
    forced = {level: numpy_loop_digests(off) for level, off in FORCED_LEVELS.items()
              if level == "baseline" or have.get("X86_V4")}  # v3 is native without v4
    for level, got in forced.items():
        # the variable took: numpy runs no target above the level
        assert not got["X86_V4"] and got["X86_V3"] == (level == "v3"), level
        for name in ("scalar_ou", "mean_reversion", "linear_system_d2",
                     "linear_system_d3"):
            assert got[name] == native[name], (level, name)
    # the known exception: numpy's tanh and cosh round differently per level,
    # so bounded_link's digest is a fact of the level, not of the program
    record_property("bounded_link_digest_by_level", json.dumps(
        {"native": native["bounded_link"],
         **{level: got["bounded_link"] for level, got in forced.items()}}))


@needs_compiler
def test_the_kernel_normals_are_numpys_standard_normal():
    # 10^7 draws over each seed reach the ziggurat's tail beyond r too
    lib, chunk, tail = _kernel.load(), 2 ** 20, 0
    assert lib is not None
    for seed in (0, 1, 2 ** 63 + 5):
        ours, theirs = np.random.PCG64(seed), np.random.PCG64(seed)
        for n in [chunk] * 9 + [10 ** 7 - 9 * chunk]:
            got = _kernel.normals(lib, ours, n)
            assert got.tobytes() == _kernel.reference_normals(theirs, n).tobytes()
            tail += np.count_nonzero(np.abs(got) > 3.6541528853610088)
        assert ours.state == theirs.state
    assert tail > 0


@needs_compiler
def test_the_kernel_normals_keep_a_negative_zero_draw():
    # a bit generator whose every word is a ziggurat box with idx 2, rabs 0
    # and the sign bit set, which numpy's random_standard_normal (linked into
    # the kernel) turns into -0.0; a state that started at +0.0 would lose it
    import ctypes
    import types

    class BitGen(ctypes.Structure):  # numpy's bitgen_t
        _fields_ = [(name, ctypes.c_void_p) for name in (
            "state", "next_uint64", "next_uint32", "next_double", "next_raw")]

    word = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)(lambda _: 1 << 8 | 2)
    gen = BitGen(next_uint64=ctypes.cast(word, ctypes.c_void_p))
    capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
    fake = types.SimpleNamespace(capsule=capsule(ctypes.addressof(gen),
                                                 b"BitGenerator", None))
    lib = _kernel.load()
    lib.random_standard_normal.restype = ctypes.c_double
    lib.random_standard_normal.argtypes = [ctypes.c_void_p]
    want = lib.random_standard_normal(ctypes.addressof(gen))
    got = _kernel.normals(lib, fake, 3)
    assert want == 0.0 and np.signbit(want)
    assert got.tobytes() == np.full(3, want).tobytes()


def replay_and_spy(cfg, times, xs, seed):
    """The replay's thetas or BlowupError, and whether the kernel ran it."""
    ran = []

    def spy(*args):
        done = real(*args)
        ran.append(done is not None)
        return done

    real = _kernel.replay
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore",
                                                          invalid="ignore"):
        mp.setattr(_kernel, "replay", spy)
        try:
            out = _replay_csv(cfg, times, xs, seed).thetas
        except BlowupError as exc:
            out = exc
    return out, ran == [True]


@needs_compiler
@settings(max_examples=60, deadline=None)
@given(model_noise=kernel_models(), seed=st.integers(0, 2 ** 63),
       rows=st.integers(2, 200), log_c_alpha=st.floats(-1.0, 4.0),
       c0=st.floats(0.0, 5.0), t0=st.floats(0.0, 10.0),
       x_scale=st.sampled_from([1.0, 1e100]))
def test_the_replay_on_the_kernel_equals_the_sgdct_step_loop(
        model_noise, seed, rows, log_c_alpha, c0, t0, x_scale):
    model, noise = model_noise
    rng = np.random.default_rng(seed)
    times = t0 + np.cumsum(rng.uniform(1e-3, 0.1, rows))
    xs = x_scale * rng.standard_normal((rows, model.m))
    # a large C_alpha or large states overflow theta: a BlowupError
    cfg = EngineConfig(model=model, noise=noise,
                       schedule=ScheduleSpec(10.0 ** log_c_alpha, c0),
                       integrator=IntegratorConfig(), horizon=2.0,
                       checkpoint_times=np.array([1.0]))
    got, compiled = replay_and_spy(cfg, times, xs, seed)
    want, _ = replay_and_spy(numpy_only(cfg), times, xs, seed)
    assert compiled == ((model.family, model.m) in _kernel.BODIES)
    assert type(got) is type(want)
    if isinstance(want, BlowupError):
        assert (got.step, got.t) == (want.step, want.t) and want.t == times[want.step]
        assert got.theta.tobytes() == want.theta.tobytes()
        if want.step == 0:
            return
        # the updates before the failure: the replay of the rows they read
        # runs them alone, with no failure, and ends at the error's theta
        rows = want.step + 1
        got, _ = replay_and_spy(cfg, times[:rows], xs[:rows], seed)
        want_rows, _ = replay_and_spy(numpy_only(cfg), times[:rows], xs[:rows], seed)
        assert want_rows[-1, 0].tobytes() == want.theta.tobytes()
        want = want_rows
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model_noise", [bounded_link(), linear_system(dim=3),
                                         linear_system(sigma=[[1.0, 0.3], [0.0, 1.0]])],
                         ids=["bounded_link", "linear_system_d3", "full_sigma"])
def test_models_the_kernel_does_not_cover_replay_on_numpy(model_noise):
    model, noise = model_noise
    cfg = EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(), horizon=2.0,
                       checkpoint_times=np.array([1.0]))
    times = 1.0 + 0.01 * np.arange(50)
    xs = np.random.default_rng(0).standard_normal((50, model.m))
    thetas, compiled = replay_and_spy(cfg, times, xs, 3)
    assert not compiled and thetas.shape == (49, 1, model.k)


def test_the_kernel_is_never_loaded_from_a_directory_others_can_write(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        mp.setattr(_kernel, "_lib", None)
        mp.setattr(_kernel, "cache_dir", lambda: str(shared))
        assert _kernel.load() is None
    assert "writable by another user" in str(seen[0].message)
    assert list(shared.iterdir()) == []


@needs_compiler
def test_a_build_keeps_only_the_most_recently_used_other_kernel(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    older, newer = cache / ("span-%024d.so" % 0), cache / ("span-%024d.so" % 1)
    older.write_bytes(b"an older kernel")
    newer.write_bytes(b"a newer kernel")
    os.utime(older, (1.0e9, 1.0e9))
    os.utime(newer, (1.5e9, 1.5e9))
    (cache / "notes.txt").write_text("not a kernel")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "cache_dir", lambda: str(cache))
        path = _kernel._build()
        os.utime(path, (1.2e9, 1.2e9))
        assert _kernel._build() == path
    # the hit marked it used; the objcopy and gcc temporaries went with their
    # directory
    assert os.stat(path).st_mtime > 1.5e9
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [os.path.basename(path), newer.name, "notes.txt"])
