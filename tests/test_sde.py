import numpy as np
import numpy.testing as npt
import pytest

from driftfit.models import scalar_ou, linear_system
from driftfit.sde import (DivergenceError, IntegratorConfig, dump_path_csv,
                          euler_step, load_path_csv, simulate_path,
                          stationary_moment)


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


def test_euler_step_divergence_guard():
    model, noise = scalar_ou(1.0, 1.0)
    with pytest.raises(DivergenceError):
        euler_step(model, noise, np.array([-2e8]), 0.01, np.array([0.0]))


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


def test_simulate_path_deterministic_and_timed():
    model, noise = scalar_ou(1.0, 1.0)
    cfg = IntegratorConfig(dt=0.01, burn_in_steps=50)
    a = list(simulate_path(model, noise, cfg, seed=7, n_steps=40))
    b = list(simulate_path(model, noise, cfg, seed=7, n_steps=40))
    assert len(a) == 40
    npt.assert_allclose([t for t, _ in a],
                        1.0 + 0.01 * np.arange(1, 41), atol=1e-12)
    for (ta, xa), (tb, xb) in zip(a, b):
        assert ta == tb
        npt.assert_array_equal(xa, xb)
    c = list(simulate_path(model, noise, cfg, seed=8, n_steps=40))
    assert not np.allclose(a[-1][1], c[-1][1])


def test_stationary_moment_ou_second():
    model, noise = scalar_ou(1.0, 1.0)
    cfg = IntegratorConfig(dt=0.01, burn_in_steps=1000)
    m2 = stationary_moment(model, noise, 2, horizon=2000.0, seed=3, config=cfg)
    assert m2 == pytest.approx(0.5, rel=0.08)


def test_stationary_moment_averages_the_simulated_path():
    # one stream and one step loop: the average runs over simulate_path itself
    model, noise = linear_system(dim=2)
    cfg = IntegratorConfig(dt=0.5, burn_in_steps=20)
    path = [x for _, x in simulate_path(model, noise, cfg, seed=3, n_steps=2000)]
    expected = sum(float(np.linalg.norm(x)) ** 4 for x in path) / 2000
    assert stationary_moment(model, noise, 4, horizon=1000.0, seed=3,
                             config=cfg) == expected


def test_stationary_moment_validation():
    model, noise = scalar_ou()
    with pytest.raises(ValueError):
        stationary_moment(model, noise, 3, horizon=2000.0, seed=0)
    with pytest.raises(ValueError):
        stationary_moment(model, noise, 2, horizon=10.0, seed=0)
    assert stationary_moment(model, noise, 0, horizon=2000.0, seed=0) == 1.0


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
