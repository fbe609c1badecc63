import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftfit
from driftfit import _kernel, engine, sde
from driftfit.engine import (BlowupError, EngineConfig, diverged, geometric_checkpoints,
                             run_batch, seed_split, sgdct_step, splitmix64, step_of)
from driftfit.experiments import _replay_csv
from driftfit.models import (FAMILIES, bounded_link, linear_system, mean_reversion,
                             objective_grad, scalar_ou)
from driftfit.schedule import ScheduleSpec
from driftfit.sde import DIVERGENCE_BOUND, IntegratorConfig, simulate_path

from conftest import has_compiler, kernel_calls, needs_compiler, numpy_loop


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
    with pytest.raises(ValueError):
        seed_split(0, np.array([0, -1]))


def python_seed_split(master, index):
    """seed_split in Python's unbounded ints, reduced mod 2**64 by hand."""
    mask = 2 ** 64 - 1
    z = ((master + index * 0x9E3779B97F4A7C15) + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@settings(max_examples=50, deadline=None)
@given(master=st.integers(-2 ** 70, 2 ** 70), start=st.integers(0, 2 ** 64),
       n=st.integers(0, 50))
@example(master=2 ** 64 - 1, start=2 ** 64 - 3, n=5)
def test_seed_split_of_an_index_array_is_the_seeds_of_its_indices(master, start, n):
    # uint64 arithmetic wraps where Python's ints are reduced mod 2**64
    index = np.arange(n, dtype=np.uint64) + np.uint64(start % 2 ** 64)
    got = seed_split(master, index)
    assert got.dtype == np.uint64 and got.shape == (n,)
    want = [python_seed_split(master, i) for i in index.tolist()]
    assert got.tolist() == want
    assert [seed_split(master, i) for i in index.tolist()] == want
    assert all(type(seed_split(master, i)) is int for i in index.tolist()[:2])


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


@needs_compiler
def test_a_diverged_replication_is_booked_alike_on_the_kernel_and_numpy():
    # a failed row runs on to the end, overflowing, silently on both paths
    cfg, seeds = diverging_config(), [seed_split(0, i) for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_on("kernel", cfg, seeds)
        want = run_on("numpy", cfg, seeds)
    assert got.failed and got.failed == want.failed
    for res in (got, want):
        assert np.isnan(res.thetas[:, list(res.failed)]).all()
        assert np.isnan(res.xs[:, list(res.failed)]).all()
    assert got.digest() == want.digest()


PATHS = [pytest.param("kernel", marks=needs_compiler), "numpy"]


# the kernel calls of a run_batch that runs on the kernel
BATCH_CALL = [("driftfit_batch", 0)]


def run_on(path, cfg, seeds):
    """run_batch on the kernel (checking that it ran, in one call) or on the
    numpy loop."""
    if path == "numpy":
        with numpy_loop():
            return run_batch(cfg, seeds)
    with kernel_calls() as calls:
        res = run_batch(cfg, seeds)
    assert calls == BATCH_CALL
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
def test_two_checkpoints_on_one_step_record_the_same_rows(path):
    # 1.2345 and 1.235 both round up to main step 24, recorded after step 34
    cfg = dataclasses.replace(
        make_config(horizon=3.0, dt=0.01, burn_in=10),
        checkpoint_times=np.array([1.0, 1.0, 1.2345, 1.235, 2.0, 3.0]))
    assert engine.record_steps(cfg)[1].tolist() == [0, 0, 34, 34, 110, 210]
    once = dataclasses.replace(cfg, checkpoint_times=np.array([1.0, 1.2345, 2.0, 3.0]))
    seeds = seed_split(12, np.arange(9))
    got, want = run_on(path, cfg, seeds), run_on(path, once, seeds)
    assert got.thetas[[0, 2, 4, 5]].tobytes() == want.thetas.tobytes()
    assert got.xs[[0, 2, 4, 5]].tobytes() == want.xs.tobytes()
    assert got.thetas[[1, 3]].tobytes() == want.thetas[:2].tobytes()
    assert got.xs[[1, 3]].tobytes() == want.xs[:2].tobytes()
    assert got.digest() == run_on("numpy", cfg, seeds).digest()


@pytest.mark.parametrize("path", PATHS)
def test_an_empty_batch_gives_an_empty_set(path):
    cfg = make_config()
    res = run_on(path, cfg, [])
    npt.assert_array_equal(res.times, run_batch(cfg, [1]).times)
    assert res.thetas.shape == (len(res.times), 0, 1)
    assert res.xs.shape == (len(res.times), 0, 1)
    assert res.n_reps == 0 and res.failed == {}


@needs_compiler
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       factory=st.sampled_from([scalar_ou, mean_reversion, linear_system]))
@example(seed=0, factory=linear_system)
@example(seed=2 ** 32 - 1, factory=linear_system)
@example(seed=2 ** 32, factory=linear_system)
@example(seed=2 ** 63, factory=linear_system)
@example(seed=2 ** 64 - 1, factory=linear_system)
def test_the_kernel_seeds_pcg64_as_numpy_does(seed, factory):
    # the stream of Generator(PCG64(seed)): the t = 1 row holds its theta0
    # draw (up to 4 uniforms) and the later rows its normals; from a list of
    # ints and a uint64 array
    cfg = make_config(horizon=1.05, n_cp=3, burn_in=2, factory=factory)
    want = run_on("numpy", cfg, [seed]).digest()
    for seeds in ([seed], np.array([seed], dtype=np.uint64)):
        assert run_on("kernel", cfg, seeds).digest() == want


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 128, 2 ** 200 + 12345])
def test_a_seed_past_two_to_the_64_is_refused(path, seed):
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        run_on(path, make_config(horizon=3.0), [3, seed])


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seeds", [[1.5, 2.9], [3, 2.0], np.array([1.0, 2.0]),
                                   [np.float64(1)], ["1"]],
                         ids=["fractions", "whole_float", "float_array", "numpy_float",
                              "str"])
def test_a_seed_that_is_not_an_integer_raises_typeerror(path, seeds):
    with pytest.raises(TypeError):
        run_on(path, make_config(horizon=3.0), seeds)


@pytest.mark.parametrize("path", PATHS)
def test_seed_split_seeds_run_as_a_list_or_a_uint64_array(path):
    # seed_split's seeds, up to 2**64 - 1: a uint64 array, a list of ints and
    # a list of numpy integers give the same streams
    cfg = make_config(horizon=1.5, burn_in=5)
    seeds = np.append(seed_split(5, np.arange(6)), np.uint64(2 ** 64 - 1))
    want = run_on("numpy", cfg, seeds.tolist()).digest()
    for given in (seeds, seeds.tolist(), list(seeds)):
        assert run_on(path, cfg, given).digest() == want


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seeds", [[3, -1], np.array([3, -1]), [-2 ** 70]],
                         ids=["list", "array", "big"])
def test_a_negative_seed_raises_numpys_error(path, seeds):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_on(path, make_config(horizon=3.0), seeds)


def screen_entries(bound):
    """An entry of a row to screen: an edge of the bound or an ordinary value."""
    return st.sampled_from([0.0, -0.0, bound, -bound, np.nextafter(bound, np.inf),
                            np.nextafter(-bound, -np.inf), np.inf, -np.inf,
                            np.nan]) | st.floats(-2.0 * bound, 2.0 * bound)


def screen_rows(n, width, bound):
    return st.lists(st.lists(screen_entries(bound), min_size=width, max_size=width),
                    min_size=n, max_size=n).map(
        lambda rows: np.array(rows, dtype=float).reshape(n, width))


@needs_compiler
@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), k=st.integers(1, 4), m=st.integers(1, 2))
def test_the_kernel_screens_the_rows_diverged_flags(data, n, k, m):
    theta = data.draw(screen_rows(n, k, sde.THETA_BOUND))
    x = data.draw(screen_rows(n, m, DIVERGENCE_BOUND))
    got = _kernel.screened(_kernel.load(), theta, x)
    with np.errstate(invalid="ignore"):
        assert got.tolist() == diverged(theta, x).tolist()


@needs_compiler
@pytest.mark.parametrize("n", [1, 11, 2048])
def test_failed_is_booked_in_the_same_order_on_the_kernel_and_numpy(n):
    # 600 steps: screenings at 256, 512 and the end; with |theta| <= 1.8 as
    # the bound, replications fail at each of them, so failed's order (step,
    # then replication) is not the replications' order
    model, noise = scalar_ou()
    cfg = EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(dt=0.01, burn_in_steps=0),
                       horizon=7.0, checkpoint_times=geometric_checkpoints(7.0, 5))
    seeds = seed_split(1, np.arange(n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "THETA_BOUND", 1.8)
        got, want = run_on("kernel", cfg, seeds), run_on("numpy", cfg, seeds)
    assert list(got.failed.items()) == list(want.failed.items())
    assert got.thetas.tobytes() == want.thetas.tobytes()
    assert got.xs.tobytes() == want.xs.tobytes()
    if n == 2048:
        assert {256, 512, 600} <= set(want.failed.values())
        assert list(want.failed) != sorted(want.failed)


@needs_compiler
@pytest.mark.parametrize("n", [1, 11, 64])
def test_a_kernel_run_is_one_kernel_call_and_builds_no_generator(n):
    def no_generator(*args, **kwargs):
        raise AssertionError("a Generator or a PCG64 was built")

    cfg = make_config(horizon=6.0)
    seeds = seed_split(3, np.arange(n))
    want = run_on("numpy", cfg, seeds)
    with kernel_calls() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "Generator", no_generator)
        mp.setattr(np.random, "PCG64", no_generator)
        got = run_batch(cfg, seeds)
    assert calls == BATCH_CALL
    assert got.digest() == want.digest()


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
        with kernel_calls() as calls:
            got = run_batch(cfg, seeds)
        want = run_on("numpy", cfg, seeds)
    # the kernel copies numpy's sums of at most two drift terms
    assert calls == (BATCH_CALL if (model.family, model.m) in _kernel.BODIES else [])
    npt.assert_array_equal(got.times, want.times)
    npt.assert_array_equal(got.thetas, want.thetas)
    npt.assert_array_equal(got.xs, want.xs)
    assert got.failed == want.failed
    assert got.digest() == want.digest()


@needs_compiler
@pytest.mark.parametrize("factory, theta_star", [
    (scalar_ou, [1.7]), (mean_reversion, [1.7, -0.3]),
    (linear_system, [1.3, 0.2, -0.1, 0.8])],
    ids=["scalar_ou", "mean_reversion", "linear_system_d2"])
def test_a_model_replaced_at_another_theta_star_runs_it_on_the_kernel(factory,
                                                                     theta_star):
    # the true drift is derived from true_theta, so a replaced theta* is the
    # one both the numpy loop and the kernel read
    cfg = make_config(horizon=6.0, factory=factory)
    theta_star = np.array(theta_star)
    moved = dataclasses.replace(cfg.model, true_theta=theta_star)
    x = np.linspace(-2.0, 2.0, 8 * moved.m).reshape(8, moved.m)
    drift, _ = FAMILIES[moved.family]
    npt.assert_array_equal(moved.true_drift_fn(x), drift(x, theta_star))
    assert not np.array_equal(moved.true_drift_fn(x), cfg.model.true_drift_fn(x))
    assert _kernel.covers(moved, cfg.noise)
    seeds = [seed_split(4, i) for i in range(3)]
    before = run_batch(cfg, seeds)
    cfg = dataclasses.replace(cfg, model=moved)
    got = run_on("kernel", cfg, seeds)
    assert got.digest() == run_on("numpy", cfg, seeds).digest()
    assert got.digest() != before.digest()


def simulate_and_replay(cfg, seed, steps=300):
    """simulate_path's states and the replay of them: (times, xs, thetas)."""
    blocks = list(simulate_path(cfg.model, cfg.noise, cfg.integrator, seed, steps))
    times = np.concatenate([t for t, _ in blocks])
    xs = np.concatenate([x for _, x in blocks])
    thetas = _replay_csv(cfg, times, xs, seed).thetas
    assert thetas.shape == (steps - 1, 1, cfg.model.k)
    return times, xs, thetas


def assert_falls_back_to_numpy(patches, tmp_path):
    """With the attributes in patches set on _kernel in a fresh process, all
    four entry points run numpy or Python's % and give their bytes, after
    one warning."""
    cfg = make_config(horizon=6.0)
    seeds = [seed_split(8, i) for i in range(3)]
    with numpy_loop():
        want = run_batch(cfg, seeds).digest()
        want_path = simulate_and_replay(cfg, 8)
    table = np.random.default_rng(8).standard_normal((30, 3))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        mp.setattr(_kernel, "_lib", None)  # as in a fresh process
        for name, value in patches.items():
            mp.setattr(_kernel, name, value)
        assert run_batch(cfg, seeds).digest() == want
        assert run_batch(cfg, seeds).digest() == want
        got_path = simulate_and_replay(cfg, 8)
        sde.write_csv(tmp_path / "table.csv", "a,b,c", [table])
        assert _kernel.load() is None
    for got, expected in zip(got_path, want_path):
        assert got.tobytes() == expected.tobytes()
    assert (tmp_path / "table.csv").read_bytes() == b"a,b,c\n" + sde.percent_lines(table)
    # one warning for all four entry points
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "numpy step loop" in str(seen[0].message)
    return str(seen[0].message)


def test_run_batch_falls_back_to_numpy_when_the_build_fails(tmp_path):
    assert_falls_back_to_numpy({"cache_dir": lambda: str(tmp_path / "cache"),
                                "CC": str(tmp_path / "no-such-compiler")}, tmp_path)


def test_run_batch_falls_back_to_numpy_without_objcopy(tmp_path):
    message = assert_falls_back_to_numpy({
        "cache_dir": lambda: str(tmp_path / "cache"),
        "OBJCOPY": str(tmp_path / "no-such-objcopy")}, tmp_path)
    assert "no-such-objcopy" in message
    assert list((tmp_path / "cache").iterdir()) == []


def test_run_batch_falls_back_to_numpy_without_the_kernel_source(tmp_path):
    missing = FileNotFoundError(2, "No such file or directory", "_kernel.c")
    message = assert_falls_back_to_numpy({"cache_dir": lambda: str(tmp_path / "cache"),
                                          "_source": missing}, tmp_path)
    assert "No such file or directory" in message


@needs_compiler
def test_the_kernel_built_is_the_source_read_at_import(tmp_path):
    # an edit to _kernel.c after import is not compiled into this process,
    # whose ctypes declarations match the source as it was at import
    broken = tmp_path / "_kernel.c"
    broken.write_text("this is not C\n")
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")  # the load-time check must pass
        mp.setattr(_kernel, "_lib", None)
        mp.setattr(_kernel, "cache_dir", lambda: str(tmp_path / "cache"))
        mp.setattr(_kernel, "SOURCE", str(broken))
        assert _kernel.load() is not None


numpy_normals = _kernel.reference_normals


def off_by_one_ulp(bit_generator, n):
    return np.nextafter(numpy_normals(bit_generator, n), np.inf)


def one_draw_more(bit_generator, n):
    return numpy_normals(bit_generator, n + 1)[:n]


@needs_compiler
@pytest.mark.parametrize("reference, why", [
    (off_by_one_ulp, "normal draws differ"),
    (one_draw_more, "another bit-generator state")])
def test_a_kernel_whose_normals_differ_from_numpy_is_not_used(reference, why, tmp_path):
    message = assert_falls_back_to_numpy({"reference_normals": reference}, tmp_path)
    assert why in message


def one_ulp_off_for(body, name):
    """_kernel's reference `name` (reference_batch, reference_path or
    reference_replay), one ulp off for the model of body (family, m) alone."""
    real = getattr(_kernel, name)

    def reference(config, *args):
        out = real(config, *args)
        if (config.model.family, config.model.m) != body:
            return out
        if name != "reference_batch":
            return np.nextafter(out, np.inf)
        rec_theta, rec_x, fail = out
        rec_x[-1, -1, -1] = np.nextafter(rec_x[-1, -1, -1], np.inf)
        return rec_theta, rec_x, fail

    return reference


@needs_compiler
@pytest.mark.parametrize("name, what", [("reference_batch", "run"),
                                        ("reference_path", "path"),
                                        ("reference_replay", "replay")])
@pytest.mark.parametrize("body", sorted(_kernel.BODIES))
def test_a_kernel_whose_arithmetic_differs_from_numpy_is_not_used(body, name, what,
                                                                  tmp_path):
    message = assert_falls_back_to_numpy({name: one_ulp_off_for(body, name)}, tmp_path)
    assert "its %s of body %s with m = %d differs" % (what, *body) in message


def one_digit_off(block):
    """Python's % lines of block, the first digit of its first cell one more
    (mod 10)."""
    text = sde.percent_lines(block)
    i = next(i for i, c in enumerate(text) if chr(c).isdigit())
    return text[:i] + str((int(chr(text[i])) + 1) % 10).encode() + text[i + 1:]


@needs_compiler
def test_a_kernel_whose_csv_lines_differ_from_python_is_not_used(tmp_path):
    message = assert_falls_back_to_numpy({"reference_csv": one_digit_off}, tmp_path)
    assert "its CSV lines differ from Python's %.12g" in message


@needs_compiler
@pytest.mark.parametrize("csv_range, why", [
    ((1e-10, 1e10), "its CSV lines cover a cell past their range"),
    ((1e-12, 1e10), "its CSV lines differ from Python's %.12g")],
    ids=["narrower", "takes_in_1e-12"])
def test_a_kernel_whose_csv_range_is_not_csv_range_is_not_used(csv_range, why,
                                                                tmp_path):
    # narrowed, CSV_RANGE leaves out cells the kernel still formats; past
    # 1e-11 it takes in cells the kernel refuses
    message = assert_falls_back_to_numpy({"CSV_RANGE": csv_range}, tmp_path)
    assert why in message


def test_the_load_time_check_runs_every_body():
    assert {(cfg.model.family, cfg.model.m)
            for cfg in _kernel.check_configs()} == _kernel.BODIES


def test_bodies_and_codes_are_the_kernels_dispatch_and_family_enum():
    # both tables copy _kernel.c by hand: a body missing from BODIES sends its
    # models to numpy unseen, and an extra one sends a run to no body at all
    source = _kernel._source.decode()
    dispatch = source[source.index("#define DISPATCH"):source.index("return -1")]
    rows = re.findall(r"if \(family == (\w+) && m == (\d+)\)\s*\\\s*"
                      r"return CALL\((\w+), (\d+)\);", dispatch)
    assert len(rows) == dispatch.count("CALL(")
    assert all((f, m) == (g, n) for f, m, g, n in rows)
    assert sorted((f.lower(), int(m)) for f, m, _, _ in rows) == sorted(_kernel.BODIES)
    enum = re.search(r"enum \{ (LINEAR = [^}]*) \};", source).group(1)
    assert {name.lower(): int(code) for name, code in
            re.findall(r"(\w+) = (\d+)", enum)} == _kernel.CODES


@pytest.mark.parametrize("cfg", _kernel.check_configs(), ids=lambda c: c.model.name)
def test_the_load_time_check_runs_diverging_and_sound_replications(cfg):
    # its run checks the screening on replications past the bound beside
    # ones inside it, and records t = 1 before the burn-in and the last step;
    # its first seeds are the edge seeds
    seeds = _kernel.check_seeds()
    assert seeds[:len(_kernel.CHECK_SEEDS)] == list(_kernel.CHECK_SEEDS)
    assert len(seeds) == _kernel.CHECK_REPS
    _, rec_step, total = engine.record_steps(cfg)
    fail = _kernel.reference_batch(cfg, seeds, rec_step, total)[2]
    assert 0 < np.count_nonzero(fail >= 0) < _kernel.CHECK_REPS
    assert (rec_step == 0).any() and (rec_step == total).any()


def test_the_load_time_check_screens_rows_of_every_kind():
    theta, x = _kernel.check_rows()
    flagged = _kernel.reference_screen(theta, x)
    assert flagged.any() and not flagged.all()
    for a in (theta, x):
        assert np.isnan(a).any() and np.isinf(a).any()
        assert np.signbit(a[a == 0]).any()


@needs_compiler
def test_a_kernel_whose_seeding_differs_from_numpy_is_not_used(tmp_path):
    # the load-time check's runs read each edge seed's theta0 in their t = 1
    # row; one bit of it off for the replication seeded 2**64 - 1
    real = _kernel.reference_batch

    def one_bit_off(config, seeds, *args):
        rec_theta, rec_x, fail = real(config, seeds, *args)
        assert engine.record_steps(config)[1][0] == 0  # row 0 is t = 1
        theta0 = rec_theta[0, list(seeds).index(2 ** 64 - 1)]
        theta0.view(np.uint64)[0] ^= np.uint64(1)
        return rec_theta, rec_x, fail

    message = assert_falls_back_to_numpy({"reference_batch": one_bit_off}, tmp_path)
    assert "its run of body" in message


@needs_compiler
def test_a_kernel_whose_screening_differs_from_numpy_is_not_used(tmp_path):
    real = _kernel.reference_screen

    def one_row_off(theta, x):
        flags = real(theta, x)
        flags[0] = ~flags[0]
        return flags

    message = assert_falls_back_to_numpy({"reference_screen": one_row_off}, tmp_path)
    assert "its screening differs from sde.diverged" in message


# A child process's numpy-loop results of each catalog model, the x86-64
# levels its numpy dispatches to and the flag march() builds the kernel
# with; given a cache directory, also the kernel's results of each model it
# covers, the kernel's calls while it ran them, each with its return value,
# and the file name of the kernel, built into that cache (None if the
# kernel did not load).  A model's results are its run_batch digest and a
# digest of simulate_path's states and the CSV replay of them.  Its
# Recording is conftest's, which a child cannot import.
LEVEL_CHILD = """
import hashlib, json, os, sys
import numpy as np
from driftfit import _kernel
from driftfit.engine import EngineConfig, geometric_checkpoints, run_batch, seed_split
from driftfit.experiments import _replay_csv
from driftfit.models import bounded_link, linear_system, mean_reversion, scalar_ou
from driftfit.schedule import ScheduleSpec
from driftfit.sde import IntegratorConfig, simulate_path
out = {level: bool(_kernel.cpu_features().get(level)) for level in ("X86_V3", "X86_V4")}
out["march"] = " ".join(_kernel.march())
cfgs = {name: EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                           integrator=IntegratorConfig(dt=0.01, burn_in_steps=20),
                           horizon=5.0, checkpoint_times=geometric_checkpoints(5.0, 6))
        for name, (model, noise) in {
            "scalar_ou": scalar_ou(), "mean_reversion": mean_reversion(),
            "linear_system_d2": linear_system(dim=2),
            "linear_system_d3": linear_system(dim=3),
            "bounded_link": bounded_link()}.items()}
seeds = [seed_split(11, i) for i in range(16)]

class Recording:
    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if not name.startswith("driftfit_"):
            return fn

        def call(*args):
            out = fn(*args)
            self.calls.append((name, out))
            return out

        return call

def results(cfg):
    blocks = list(simulate_path(cfg.model, cfg.noise, cfg.integrator, 9, 300))
    times, xs = (np.concatenate(part) for part in zip(*blocks))
    thetas = _replay_csv(cfg, times, xs, 9).thetas
    path = hashlib.sha256(b"".join(a.tobytes() for a in (times, xs, thetas)))
    return [run_batch(cfg, seeds).digest(), path.hexdigest()]

_kernel._lib = False  # the numpy loop, as where the kernel failed to load
out["numpy"] = {name: results(cfg) for name, cfg in cfgs.items()}
if sys.argv[1:]:
    _kernel._lib = None
    _kernel.cache_dir = lambda: sys.argv[1]
    lib = _kernel.load()
    _kernel._lib = recording = Recording(lib)
    out["kernel"] = lib and {
        "file": os.path.basename(lib._name),
        "results": {name: results(cfg) for name, cfg in cfgs.items()
                    if _kernel.covers(cfg.model, cfg.noise)},
        "calls": recording.calls}
print(json.dumps(out))
"""
# numpy's dispatch targets above each level, as NPY_DISABLE_CPU_FEATURES names them
ABOVE_V3 = "X86_V4 AVX512_ICL AVX512_SPR"
# (level, the targets above it, the feature that puts a CPU above it)
FORCED_LEVELS = (("v3", ABOVE_V3, "X86_V4"), ("baseline", "X86_V3 " + ABOVE_V3, "X86_V3"))


def level_child(disable, cache=None):
    """LEVEL_CHILD's output with numpy's dispatch to `disable` (None: none)
    turned off in the child's environment alone, and its kernel built into
    cache where one is given."""
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    src = os.path.dirname(os.path.dirname(os.path.abspath(driftfit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", LEVEL_CHILD] + ([cache] if cache else [])
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_numpy_loop_digests_do_not_depend_on_numpys_dispatch_level(record_property,
                                                                  tmp_path):
    have = _kernel.cpu_features()
    # at the native level march() builds for the highest level numpy reports
    top = [level for level in ("v4", "v3") if have.get("X86_" + level.upper())]
    assert _kernel.march() == tuple("-march=x86-64-" + level for level in top[:1])
    native = level_child(None)
    # each level below this CPU's builds its own kernel, into a cache of its own
    forced = {level: level_child(off, str(tmp_path / level) if has_compiler else None)
              for level, off, above in FORCED_LEVELS if have.get(above)}
    covered = ("scalar_ou", "mean_reversion", "linear_system_d2")
    for level, got in forced.items():
        # the variable took: numpy runs no target above the level, and
        # march() builds the kernel for the level numpy reports
        assert not got["X86_V4"] and got["X86_V3"] == (level == "v3"), level
        assert got["march"] == ("-march=x86-64-v3" if level == "v3" else ""), level
        for name in (*covered, "linear_system_d3"):
            assert got["numpy"][name] == native["numpy"][name], (level, name)
        if has_compiler:
            # the kernel built for the level passed its load-time check, ran
            # each model's path (one chunk), replay and run, and runs,
            # simulates and replays the models it covers as the numpy loop
            # does there
            kernel = got["kernel"]
            each = [["driftfit_path", 0], ["driftfit_replay", 0], ["driftfit_batch", 0]]
            assert kernel and kernel["calls"] == each * len(covered), level
            want = {name: got["numpy"][name] for name in covered}
            assert kernel["results"] == want, level
    if has_compiler:
        # the level is part of the kernel's cache key
        files = [os.path.basename(_kernel.load()._name),
                 *(got["kernel"]["file"] for got in forced.values())]
        assert len(set(files)) == len(files)
    # the known exception: numpy's tanh and cosh round differently per level,
    # so bounded_link's digest is a fact of the level, not of the program
    record_property("bounded_link_digest_by_level", json.dumps(
        {"native": native["numpy"]["bounded_link"][0],
         **{level: got["numpy"]["bounded_link"][0] for level, got in forced.items()}}))


def pcg64s(seed, n):
    """n PCG64 bit generators derived from seed, as run_batch derives them."""
    return [np.random.PCG64(seed_split(seed, i)) for i in range(n)]


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
ZIGGURAT_NOR_R = 3.6541528853610088  # a draw beyond it comes from the tail


def pcg64_at(state, inc):
    """A PCG64 set to (state, inc) through its public state."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                           "state": {"state": state, "inc": inc}}
    return bit_generator


def assert_normals_are_numpys(lib, words, bit_generators, calls):
    """The kernel's (G, calls) normals from the streams words are the rows of
    Generator.standard_normal from bit_generators, and advance words to the
    streams of those generators after it; returns them."""
    got = _kernel.normals(lib, words, calls)
    want = np.array([_kernel.reference_normals(b, calls) for b in bit_generators])
    assert got.tobytes() == want.tobytes()
    assert words.tobytes() == _kernel.streams(bit_generators).tobytes()
    return got


@needs_compiler
def test_the_kernel_normals_are_numpys_standard_normal():
    # 10^7 draws from each seed's generators reach the ziggurat's tail beyond r
    lib, tail = _kernel.load(), 0
    assert lib is not None
    for seed in (0, 1, 2 ** 63 + 5):
        bit_generators = pcg64s(seed, 1000)
        words = _kernel.streams(bit_generators)
        for _ in range(10):
            got = assert_normals_are_numpys(lib, words, bit_generators, 1000)
            tail += np.count_nonzero(np.abs(got) > ZIGGURAT_NOR_R)
    assert tail > 0


def first_boxes_rejected(bit_generator, draws):
    """(normals, rejected): `draws` of Generator.standard_normal from
    bit_generator, one at a time, and whether each rejected its first
    ziggurat box: an accepted box takes one word of the stream, a rejected
    one more."""
    generator, normals = np.random.Generator(bit_generator), np.empty(draws)
    rejected = np.empty(draws, dtype=bool)
    state = bit_generator.state["state"]
    s, inc = state["state"], state["inc"]
    for j in range(draws):
        normals[j] = generator.standard_normal()
        after = bit_generator.state["state"]["state"]
        rejected[j] = after != (s * PCG64_MULT + inc) % 2 ** 128
        s = after
    return normals, rejected


@needs_compiler
def test_the_kernel_normals_reach_the_rare_paths_of_a_full_block():
    # 4 full blocks of 8 lanes (8 of 4 where the kernel is built without
    # AVX-512) and 3 streams past them.  The sample holds a step at which 2
    # or more lanes of a block reject their first box, and a draw of a block
    # from the tail beyond r, and every draw is numpy's
    lib = _kernel.load()
    assert lib is not None
    blocks, calls = 4, 1000
    bit_generators = pcg64s(11, 8 * blocks + 3)
    words = _kernel.streams(bit_generators)
    got = _kernel.normals(lib, words, calls)
    want, rejected = zip(*(first_boxes_rejected(b, calls) for b in bit_generators))
    assert got.tobytes() == np.array(want).tobytes()
    assert words.tobytes() == _kernel.streams(bit_generators).tobytes()
    in_blocks = slice(0, 8 * blocks)
    per_step = np.array(rejected)[in_blocks].reshape(blocks, 8, calls).sum(axis=1)
    assert per_step.max() >= 2
    assert np.any(np.abs(got[in_blocks]) > ZIGGURAT_NOR_R)


@needs_compiler
def test_normals_advances_the_words_it_is_given_and_no_bit_generator():
    lib = _kernel.load()
    assert lib is not None
    bit_generators = pcg64s(7, 5)
    before = [b.state for b in bit_generators]
    words = _kernel.streams(bit_generators)
    _kernel.normals(lib, words, 30)
    assert [b.state for b in bit_generators] == before
    for b in bit_generators:
        np.random.Generator(b).standard_normal(30)
    assert words.tobytes() == _kernel.streams(bit_generators).tobytes()
    # the kernel writes the words back through their address, so it takes
    # them only as streams packs them
    for other in (words[:, :3], words.astype(np.int64), np.asfortranarray(words)):
        with pytest.raises(ValueError, match="C-ordered uint64"):
            _kernel.normals(lib, other, 1)


@needs_compiler
@settings(max_examples=100, deadline=None)
@given(state=st.integers(0, 2 ** 128 - 1), inc=st.integers(0, 2 ** 127 - 1),
       calls=st.integers(1, 40))
@example(state=0, inc=0, calls=40).via("the least state and odd inc")
@example(state=2 ** 128 - 1, inc=2 ** 127 - 1, calls=40).via("the greatest")
def test_the_kernel_steps_pcg64_from_any_state(state, inc, calls):
    # any 128-bit state and any odd increment 2 inc + 1
    lib = _kernel.load()
    assert lib is not None
    bit_generator = pcg64_at(state, 2 * inc + 1)
    assert_normals_are_numpys(lib, _kernel.streams([bit_generator]), [bit_generator],
                              calls)


@needs_compiler
def test_the_kernel_normals_keep_a_negative_zero_draw():
    # a PCG64 state whose next word, 1 << 8 | 2, is a ziggurat box with idx
    # 2, rabs 0 and the sign bit set, which numpy's standard_normal turns into
    # -0.0; a draw that started from +0.0 would lose it.  The word is the
    # post-step state N = 0x102: its top 6 bits are 0, so no rotation, and
    # hi ^ lo = N.  Then the state before the step is (N - inc) M^-1.
    inc, word = 0xDA3E39CB94B95BDB, 1 << 8 | 2
    state = (word - inc) * pow(PCG64_MULT, -1, 2 ** 128) % 2 ** 128
    assert pcg64_at(state, inc).random_raw() == word
    want = _kernel.reference_normals(pcg64_at(state, inc), 1)
    assert want[0] == 0.0 and np.signbit(want[0])
    # the first draw of each of 9 generators: a full block of lanes and one
    # stream past it, so both of the kernel's draws
    lib = _kernel.load()
    bit_generators = [pcg64_at(state, inc) for _ in range(9)]
    got = assert_normals_are_numpys(lib, _kernel.streams(bit_generators),
                                    bit_generators, 1)
    assert got.tobytes() == np.full((9, 1), want[0]).tobytes()


def replayed(cfg, times, xs, seed):
    """The replay's thetas, or the BlowupError it raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _replay_csv(cfg, times, xs, seed).thetas
        except BlowupError as exc:
            return exc


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
    with kernel_calls() as calls:
        got = replayed(cfg, times, xs, seed)
    with numpy_loop():
        want = replayed(cfg, times, xs, seed)
    covered = (model.family, model.m) in _kernel.BODIES
    assert calls == ([("driftfit_replay", 0)] if covered else [])
    assert type(got) is type(want)
    if isinstance(want, BlowupError):
        assert (got.step, got.t) == (want.step, want.t) and want.t == times[want.step]
        assert got.theta.tobytes() == want.theta.tobytes()
        if want.step == 0:
            return
        # the updates before the failure: the replay of the rows they read
        # runs them alone, with no failure, and ends at the error's theta
        rows = want.step + 1
        got = replayed(cfg, times[:rows], xs[:rows], seed)
        with numpy_loop():
            want_rows = replayed(cfg, times[:rows], xs[:rows], seed)
        assert want_rows[-1, 0].tobytes() == want.theta.tobytes()
        want = want_rows
    assert got.tobytes() == want.tobytes()


def replay_config(model_noise):
    """An EngineConfig of the model for replay calls, which read its model,
    noise and schedule alone."""
    model, noise = model_noise
    return EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                        integrator=IntegratorConfig(), horizon=2.0,
                        checkpoint_times=np.array([1.0]))


@pytest.mark.parametrize("model_noise", [bounded_link(), linear_system(dim=3),
                                         linear_system(sigma=[[1.0, 0.3], [0.0, 1.0]])],
                         ids=["bounded_link", "linear_system_d3", "full_sigma"])
def test_models_the_kernel_does_not_cover_replay_on_numpy(model_noise):
    cfg = replay_config(model_noise)
    model = cfg.model
    times = 1.0 + 0.01 * np.arange(50)
    xs = np.random.default_rng(0).standard_normal((50, model.m))
    with kernel_calls() as calls:
        thetas = replayed(cfg, times, xs, 3)
    assert calls == [] and thetas.shape == (49, 1, model.k)


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


# Each guard below stops a kernel call that would write past, or read beside,
# a numpy buffer: the C code trusts every shape it is given.
ARRAY_REFUSAL = "kernel arrays must be C-ordered"


@needs_compiler
@pytest.mark.parametrize("x", [np.zeros(3), np.zeros(2, dtype=np.float32),
                               np.zeros(4)[::2]], ids=["shape", "dtype", "order"])
def test_bind_path_refuses_a_state_of_another_layout(x):
    model, noise = linear_system(dim=2)
    with pytest.raises(ValueError, match=ARRAY_REFUSAL):
        _kernel.bind_path(_kernel.load(), model, noise, 0.01, 1, x)


@needs_compiler
@pytest.mark.parametrize("out", [np.empty((5, 3)), np.empty((5, 2), dtype=np.float32),
                                 np.empty((5, 2), order="F")],
                         ids=["shape", "dtype", "order"])
def test_path_steps_refuse_an_output_of_another_layout(out):
    model, noise = linear_system(dim=2)
    x = np.zeros(2)
    steps = _kernel.bind_path(_kernel.load(), model, noise, 0.01, 1, x)
    with pytest.raises(ValueError, match=ARRAY_REFUSAL):
        steps(out)
    assert not x.any()  # no step ran


@needs_compiler
@pytest.mark.parametrize("xs, theta", [(np.zeros((6, 1)), np.zeros(4)),
                                       (np.zeros((5, 2)), np.zeros(3))],
                         ids=["xs", "theta"])
def test_the_replay_refuses_states_or_a_theta_of_another_shape(xs, theta):
    # it casts both to C-ordered float64 itself, so shape alone can differ
    cfg = replay_config(linear_system(dim=2))
    times = 1.0 + 0.01 * np.arange(5)
    with pytest.raises(ValueError, match=ARRAY_REFUSAL):
        _kernel.replay(_kernel.load(), cfg, times, xs, theta)


@needs_compiler
@pytest.mark.parametrize("words", [np.zeros((3, 3), dtype=np.uint64),
                                   np.zeros((3, 4), dtype=np.int64),
                                   np.zeros((3, 4), dtype=np.uint64, order="F")],
                         ids=["shape", "dtype", "order"])
def test_normals_refuses_words_of_another_layout(words):
    with pytest.raises(ValueError, match=ARRAY_REFUSAL):
        _kernel.normals(_kernel.load(), words, 4)


@needs_compiler
@pytest.mark.parametrize("rec_step, total", [([3, 2], 5), ([2, 6], 5), ([], -1)],
                         ids=["unsorted", "past_total", "negative_total"])
def test_batch_refuses_record_steps_it_would_not_reach_in_order(rec_step, total):
    cfg = make_config(horizon=2.0, burn_in=0)
    with pytest.raises(ValueError, match="rec_step must be sorted"):
        _kernel.batch(_kernel.load(), cfg, [1, 2], np.array(rec_step), total)


@needs_compiler
@pytest.mark.parametrize("block", [np.zeros(4), np.zeros((1, 2, 2))], ids=["1-d", "3-d"])
def test_csv_lines_refuses_a_block_that_is_not_2d(block):
    lib = _kernel.load()
    with pytest.raises(ValueError, match="a CSV block must be 2-d"):
        _kernel.csv_lines(lib, block)
    ones = np.ones((2, 4))
    assert bytes(_kernel.csv_lines(lib, ones)) == sde.percent_lines(ones)


@needs_compiler
def test_every_step_entry_point_refuses_a_family_and_m_without_a_body():
    # covers() keeps such models off the kernel; called anyway, the kernel
    # returns -1 before it writes, and the errcheck raises
    lib, cfg = _kernel.load(), replay_config(linear_system(dim=3))
    assert (cfg.model.family, cfg.model.m) not in _kernel.BODIES
    refusal = "no body for family code 0 with m = 3"
    with pytest.raises(ValueError, match=refusal):
        _kernel.batch(lib, cfg, [1, 2], np.array([0, 3]), 3)
    with pytest.raises(ValueError, match=refusal):
        _kernel.bind_path(lib, cfg.model, cfg.noise, 0.01, 1, np.zeros(3))(
            np.empty((4, 3)))
    times, xs = 1.0 + 0.01 * np.arange(5), np.zeros((5, 3))
    with pytest.raises(ValueError, match=refusal):
        _kernel.replay(lib, cfg, times, xs, cfg.model.true_theta)
