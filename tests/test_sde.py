import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfit import _kernel, sde
from driftfit.engine import EngineConfig, geometric_checkpoints, run_batch, seed_split
from driftfit.models import (DriftModelSpec, NoiseSpec, bounded_link, linear_system,
                             mean_reversion, scalar_ou)
from driftfit.schedule import ScheduleSpec
from driftfit.sde import (BlowupError, IntegratorConfig, dump_path_csv, euler_step,
                          load_path_csv, simulate_path, write_csv)

from conftest import needs_compiler


def test_euler_step_drift_only():
    model, noise = scalar_ou(1.0, 1.0)
    out = euler_step(model, noise, np.array([1.0]), 0.01, np.array([0.0]))
    npt.assert_allclose(out, [0.99])


def test_euler_step_with_noise():
    model, noise = scalar_ou(1.0, 2.0)
    out = euler_step(model, noise, np.array([1.0]), 0.04, np.array([1.0]))
    # 1 - 0.04 + 2 * 0.2 * 1
    npt.assert_allclose(out, [1.36])


def test_euler_step_vectorized():
    model, noise = linear_system(dim=2)
    x = np.random.default_rng(0).standard_normal((5, 2))
    xi = np.zeros((5, 2))
    out = euler_step(model, noise, x, 0.01, xi)
    npt.assert_allclose(out, x + model.true_drift_fn(x) * 0.01)


def test_euler_step_rejects_nonpositive_dt():
    model, noise = scalar_ou()
    with pytest.raises(ValueError):
        euler_step(model, noise, np.array([1.0]), 0.0, np.array([0.0]))


def test_euler_step_returns_a_diverging_step_as_it_is():
    # no bound of its own: simulate_path screens its states with diverged
    model, noise = scalar_ou(1.0, 1.0)
    out = euler_step(model, noise, np.array([-2e8]), 0.01, np.array([0.0]))
    npt.assert_allclose(out, [-1.98e8])


@pytest.mark.parametrize("burn_in,t_end", [(0, 1.27), (100, 0.27)])
def test_simulate_path_divergence_records_the_step_and_time(burn_in, t_end):
    # x doubles each step from x0 = 1 and passes the 1e8 bound on step 27,
    # counted from the first burn-in step as run_batch counts, which ends at
    # t = 1 + (27 - burn_in) dt; t used to hold dt itself
    explosive = DriftModelSpec("explosive", k=1, m=1,
                               drift_fn=lambda x, th: th[..., 0:1] * x,
                               drift_grad_fn=lambda x, th: np.expand_dims(x, -2),
                               true_drift_fn=lambda x: 100.0 * x)
    cfg = IntegratorConfig(dt=0.01, x0=[1.0], burn_in_steps=burn_in)
    with pytest.raises(BlowupError, match="at step 27 ") as info:
        for _ in simulate_path(explosive, NoiseSpec(np.array([[1e-6]])), cfg,
                               seed=0, n_steps=100):
            pass
    assert info.value.step == 27
    assert info.value.t == pytest.approx(t_end, abs=1e-12)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=2.0)
    with pytest.raises(ValueError):
        IntegratorConfig(burn_in_steps=-1)
    cfg = IntegratorConfig(x0=[1.0, 2.0])
    npt.assert_allclose(cfg.initial_state(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        cfg.initial_state(3)
    npt.assert_allclose(IntegratorConfig().initial_state(3), np.zeros(3))


def whole_path(*args):
    """simulate_path's blocks joined: (times, states)."""
    blocks = list(simulate_path(*args))
    return (np.concatenate([t for t, _ in blocks]),
            np.concatenate([x for _, x in blocks]))


def test_simulate_path_deterministic_and_timed():
    model, noise = scalar_ou(1.0, 1.0)
    cfg = IntegratorConfig(dt=0.01, burn_in_steps=50)
    ta, xa = whole_path(model, noise, cfg, 7, 40)
    tb, xb = whole_path(model, noise, cfg, 7, 40)
    assert xa.shape == (40, 1)
    npt.assert_allclose(ta, 1.0 + 0.01 * np.arange(1, 41), atol=1e-12)
    npt.assert_array_equal(ta, tb)
    npt.assert_array_equal(xa, xb)
    _, xc = whole_path(model, noise, cfg, 8, 40)
    assert not np.allclose(xa[-1], xc[-1])


@pytest.mark.parametrize("burn_in", [0, 5, 4095, 4096, 5000])
def test_simulate_path_yields_blocks_of_path_chunk_rows(burn_in):
    # the burn-in runs in the same chunks as the path, so the first block
    # may be short; every block but the last is full after that
    model, noise = scalar_ou(1.0, 1.0)
    cfg = IntegratorConfig(dt=0.01, burn_in_steps=burn_in)
    n_steps = 3 * sde.PATH_CHUNK
    blocks = list(simulate_path(model, noise, cfg, 7, n_steps))
    sizes = [len(t) for t, _ in blocks]
    assert sum(sizes) == n_steps and max(sizes) <= sde.PATH_CHUNK
    assert sizes[0] == sde.PATH_CHUNK - burn_in % sde.PATH_CHUNK
    for t, x in blocks:
        assert t.dtype == np.float64 and x.shape == (len(t), 1)


def test_stationary_moment_ou_second():
    # time average of X^2 over 2000 time units after burn-in: sigma^2 / 2 theta*
    model, noise = scalar_ou(1.0, 1.0)
    cfg = IntegratorConfig(dt=0.01, burn_in_steps=1000)
    _, xs = whole_path(model, noise, cfg, 3, 200000)
    assert np.mean(xs ** 2) == pytest.approx(0.5, rel=0.08)


def test_path_csv_roundtrip(tmp_path):
    times = np.array([1.0, 1.5, 2.0])
    xs = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]])
    path = tmp_path / "path.csv"
    dump_path_csv(path, times, xs)
    header = path.read_text().splitlines()[0]
    assert header == "t,x_1,x_2"
    t2, x2 = load_path_csv(path)
    npt.assert_allclose(t2, times, atol=1e-12)
    npt.assert_allclose(x2, xs, atol=1e-12)


@pytest.mark.parametrize("block", [3, sde.CSV_BLOCK])
@pytest.mark.parametrize("fmt", ["%.12g", "%d,%d,%.8f,%.8f"])
def test_write_csv_writes_the_bytes_of_savetxt(tmp_path, fmt, block, monkeypatch):
    edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1.5e300, 1 / 3])
    cols = [np.arange(8), np.array([3, -0.0, 1, 2, -4, 0, 7, 5]), edge, edge[::-1]]
    monkeypatch.setattr(sde, "CSV_BLOCK", block)
    write_csv(tmp_path / "ours.csv", "i,j,a,b", cols, fmt=fmt)
    np.savetxt(tmp_path / "numpy.csv", np.column_stack(cols), delimiter=",",
               header="i,j,a,b", comments="", fmt=fmt)
    ours = (tmp_path / "ours.csv").read_bytes()
    assert ours == (tmp_path / "numpy.csv").read_bytes()
    assert b"nan" in ours and b"-inf" in ours


@st.composite
def path_models(draw):
    """A kernel-covered model, its numpy-only twin and a dt; with explosive
    set, one Euler step multiplies x by about -2, so the path diverges."""
    name = draw(st.sampled_from(["scalar_ou", "mean_reversion", "linear_system"]))
    boom = draw(st.booleans())
    rate = draw(st.floats(2.9, 3.1) if boom else st.floats(0.3, 3.0))
    sigma = draw(st.floats(0.3, 2.0))
    if name == "scalar_ou":
        model, noise = scalar_ou(rate, sigma)
    elif name == "mean_reversion":
        model, noise = mean_reversion(rate, draw(st.floats(-1.0, 1.0)), sigma)
    else:
        d = draw(st.integers(1, 3))
        off = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=d * d,
                                     max_size=d * d))).reshape(d, d)
        model, noise = linear_system(rate * np.eye(d) + off - np.diag(np.diag(off)),
                                     sigma * np.eye(d))
    dt = 1.0 if boom else draw(st.floats(1e-3, 0.05))
    return model, noise, dt


def run_path(model, noise, cfg, seed, n_steps):
    """simulate_path's yielded blocks, its BlowupError (or None) and whether
    the kernel ran the steps."""
    bound = []

    def spy(*args):
        steps = real(*args)
        bound.append(steps is not None)
        return steps

    real, blocks, error = _kernel.bind_path, [], None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "bind_path", spy)
        try:
            for block in simulate_path(model, noise, cfg, seed, n_steps):
                blocks.append(block)
        except BlowupError as exc:
            error = exc
    return blocks, error, bound == [True]


@needs_compiler
@settings(max_examples=60, deadline=None)
@given(case=path_models(), seed=st.integers(0, 2 ** 63), burn_in=st.integers(0, 40),
       n_steps=st.integers(1, 120), chunk=st.sampled_from([1, 3, 16, 4096]),
       x0=st.floats(-3.0, 3.0))
def test_simulate_path_on_the_kernel_equals_the_numpy_path(case, seed, burn_in,
                                                          n_steps, chunk, x0):
    model, noise, dt = case
    cfg = IntegratorConfig(dt=dt, x0=np.full(model.m, x0), burn_in_steps=burn_in)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "PATH_CHUNK", chunk)
        got, got_err, compiled = run_path(model, noise, cfg, seed, n_steps)
        want, want_err, _ = run_path(dataclasses.replace(model, family=None), noise,
                                     cfg, seed, n_steps)
    # the kernel copies numpy's sums of at most two drift terms
    assert compiled == ((model.family, model.m) in _kernel.BODIES)
    # the same blocks, so the same rows yielded before any BlowupError
    assert [len(t) for t, _ in got] == [len(t) for t, _ in want]
    for (tg, xg), (tw, xw) in zip(got, want):
        assert tg.tobytes() == tw.tobytes() and xg.tobytes() == xw.tobytes()
    assert (got_err is None) == (want_err is None)
    if want_err is not None:
        assert (got_err.step, got_err.t) == (want_err.step, want_err.t)
        # the flagged state is the one after the last yielded row
        assert want_err.t == 1.0 + (want_err.step - burn_in) * dt
        assert sum(len(t) for t, _ in want) == max(0, want_err.step - burn_in - 1)
    else:
        assert sum(len(t) for t, _ in want) == n_steps


@pytest.mark.parametrize("model_noise", [bounded_link(), linear_system(dim=3),
                                         linear_system(sigma=[[1.0, 0.3], [0.0, 1.0]])],
                         ids=["bounded_link", "linear_system_d3", "full_sigma"])
def test_models_the_kernel_does_not_cover_simulate_on_numpy(model_noise):
    model, noise = model_noise
    assert not _kernel.covers(model, noise)
    cfg = IntegratorConfig(dt=0.01, burn_in_steps=5)
    blocks, error, compiled = run_path(model, noise, cfg, 3, 20)
    assert not compiled and error is None and len(blocks[0][1]) == 20


def test_a_family_the_kernel_has_no_body_for_runs_on_numpy():
    # an affine model stretched to m = 2 keeps its family, but the
    # kernel has no affine body for m = 2, so covers() refuses it
    model, _ = mean_reversion()
    wide, noise = dataclasses.replace(model, m=2), NoiseSpec(np.eye(2))
    numpy_only = dataclasses.replace(wide, family=None)
    assert not _kernel.covers(wide, noise)
    cfg = IntegratorConfig(dt=0.01, burn_in_steps=5)
    (got, got_err, compiled), (want, want_err, _) = [
        run_path(m, noise, cfg, 3, 20) for m in (wide, numpy_only)]
    assert not compiled and got_err is None and want_err is None
    assert [(t.tobytes(), x.tobytes()) for t, x in got] == [
        (t.tobytes(), x.tobytes()) for t, x in want]
    batch = EngineConfig(model=wide, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                         integrator=cfg, horizon=3.0,
                         checkpoint_times=geometric_checkpoints(3.0, 5))
    seeds = [seed_split(5, i) for i in range(3)]
    assert run_batch(batch, seeds).digest() == run_batch(
        dataclasses.replace(batch, model=numpy_only), seeds).digest()
