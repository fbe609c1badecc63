import dataclasses
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftfit import _kernel, models
from driftfit.config import ConfigError, from_dict
from driftfit.experiments import build_model, covariance_inputs
from driftfit.models import (FAMILIES, DriftModelSpec, ModelError, NoiseSpec,
                             affine_drift, affine_grad, bounded_link, linear_drift,
                             linear_grad, linear_system, mean_reversion, objective_grad,
                             pointwise_objective, scalar_ou)


def check_drift_gradient(model: DriftModelSpec, n_probes: int = 100,
                         seed: int = 1) -> float:
    """Max relative error of drift_grad_fn vs central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(model.m)
        theta = rng.standard_normal(model.k)
        grad = model.drift_grad_fn(x, theta)
        fd = np.empty_like(grad)
        for j in range(model.k):
            h = 1e-5 * max(1.0, abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (model.drift_fn(x, tp) - model.drift_fn(x, tm)) / (2 * h)
        scale = max(1.0, float(np.abs(grad).max()))
        worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    return worst


def test_noise_spec_scalar():
    n = NoiseSpec(np.array([[2.0]]))
    assert n.sigma.shape == (1, 1)
    npt.assert_allclose(n.a, [[4.0]])
    npt.assert_allclose(n.a_inv, [[0.25]])


def test_noise_spec_matrix_inverse():
    sig = np.array([[1.0, 0.5], [0.0, 2.0]])
    n = NoiseSpec(sig)
    npt.assert_allclose(n.a, sig @ sig.T)
    npt.assert_allclose(n.a @ n.a_inv, np.eye(2), atol=1e-14)


def test_noise_spec_rejects_singular():
    with pytest.raises(ModelError):
        NoiseSpec(np.zeros((2, 2)))


def test_noise_spec_rejects_nonsquare():
    with pytest.raises(ModelError):
        NoiseSpec(np.ones((2, 3)))


def test_pointwise_objective_ou():
    model, noise = scalar_ou(1.0, 1.0)
    # f - f* = -(1.5 - 1) x = -1 at x = 2; objective = 0.5 * 1 * 1
    assert pointwise_objective(model, noise, [2.0], [1.5]) == pytest.approx(0.5)
    assert pointwise_objective(model, noise, [2.0], [1.0]) == 0.0


def test_objective_grad_matches_finite_differences():
    model, noise = mean_reversion(1.0, 0.5, 1.3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(1)
        th = rng.standard_normal(2)
        g = objective_grad(model, noise, x, th)
        fd = np.empty(2)
        for j in range(2):
            h = 1e-6
            tp, tm = th.copy(), th.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (pointwise_objective(model, noise, x, tp)
                     - pointwise_objective(model, noise, x, tm)) / (2 * h)
        npt.assert_allclose(g, fd, atol=1e-7)


@pytest.mark.parametrize("factory", [
    lambda: scalar_ou(1.0, 1.0),
    lambda: bounded_link(1.0, 1.0),
    lambda: mean_reversion(1.0, 0.5, 1.0),
    lambda: linear_system(dim=2),
])
def test_drift_gradients_consistent(factory):
    model, _ = factory()
    assert check_drift_gradient(model) < 1e-8


def test_drift_vectorization_batch():
    model, _ = scalar_ou(2.0, 1.0)
    x = np.linspace(-1, 1, 7).reshape(7, 1)
    th = np.full((7, 1), 1.5)
    d = model.drift_fn(x, th)
    assert d.shape == (7, 1)
    npt.assert_allclose(d, -1.5 * x)
    g = model.drift_grad_fn(x, th)
    assert g.shape == (7, 1, 1)
    npt.assert_allclose(g[:, 0, :], -x)


def test_ou_averaged_objective():
    model, _ = scalar_ou(1.0, 1.0)
    # stationary second moment 1/2, so gbar(theta) = (theta - 1)^2 / 4
    npt.assert_allclose(model.analytic.hessian, [[0.5]])
    npt.assert_allclose(model.analytic.stationary_second_moment, [0.5])


def test_bounded_link_curvature_at_truth():
    model, _ = bounded_link(1.0, 1.0)
    eta1 = 1.0 + np.tanh(1.0)
    etap1 = 1.0 + 1.0 / np.cosh(1.0) ** 2
    m2 = 1.0 / (2.0 * eta1)
    npt.assert_allclose(model.analytic.hessian, [[m2 * etap1 ** 2]], rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linear_system_hessian_is_the_stationary_fisher_information(dim):
    # at theta* the residual f - f* vanishes, so the Hessian of gbar is
    # E_pi[grad_theta f A^-1 grad_theta f^T]; the gradient is linear in x, so
    # summing over the Cholesky columns of S gives the Gaussian mean exactly
    sigma = np.array([[1.0, 0.0, 0.0], [0.4, 0.8, 0.0], [-0.3, 0.5, 1.2]])[:dim, :dim]
    model, noise = linear_system(sigma=sigma, dim=dim)
    th = model.true_theta.reshape(dim, dim)
    # solve Theta* S + S Theta*^T = A without the model's Lyapunov solver
    eye = np.eye(dim)
    s_cov = np.linalg.solve(np.kron(th, eye) + np.kron(eye, th),
                            noise.a.reshape(-1)).reshape(dim, dim)
    want = np.zeros((model.k, model.k))
    for col in np.linalg.cholesky(s_cov).T:
        g = model.drift_grad_fn(col, model.true_theta)
        want += g @ noise.a_inv @ g.T
    npt.assert_allclose(model.analytic.hessian, want, rtol=1e-12, atol=1e-14)


def test_gbar_minimum_at_truth():
    for factory in (lambda: scalar_ou(1.0, 1.0),
                    lambda: mean_reversion(1.0, 0.5, 1.0),
                    lambda: linear_system(dim=2)):
        model, _ = factory()
        hess = model.analytic.hessian
        assert hess.shape == (model.k, model.k)
        npt.assert_array_equal(hess, hess.T)
        assert np.all(np.linalg.eigvalsh(hess) > 0)


def test_linear_system_stationary_covariance():
    model, noise = linear_system(dim=2)
    th = model.true_theta.reshape(2, 2)
    s = np.diag(model.analytic.stationary_second_moment)
    # recover the full covariance from the Hessian structure instead:
    s_cov = model.analytic.hessian[:2, :2] / noise.a_inv[0, 0]
    npt.assert_allclose(th @ s_cov + s_cov @ th.T, noise.a, atol=1e-12)
    npt.assert_allclose(np.diag(s_cov), np.diag(s), atol=1e-12)


def test_averaged_objective_requires_analytic():
    bare = DriftModelSpec("custom", "linear", 1, np.array([1.0]))
    with pytest.raises(ConfigError, match="analytic metadata"):
        covariance_inputs(bare, NoiseSpec(np.array([[1.0]])))


def test_a_model_of_an_unknown_family_is_a_model_error():
    with pytest.raises(ModelError, match="unknown drift family 'quadratic'"):
        DriftModelSpec("custom", "quadratic", 1, np.array([1.0]))
    model, _ = scalar_ou()
    with pytest.raises(ModelError, match="unknown drift family 'quadratic'"):
        dataclasses.replace(model, family="quadratic")


def test_model_constructor_validation():
    with pytest.raises(ModelError):
        scalar_ou(-1.0)
    with pytest.raises(ModelError):
        mean_reversion(0.0, 0.5)
    with pytest.raises(ModelError):
        linear_system(theta_star_matrix=-np.eye(2))
    with pytest.raises(ModelError, match="theta_star_matrix must be square"):
        linear_system(theta_star_matrix=np.ones((2, 3)))
    # eta(theta) = theta + tanh(theta) is positive for theta > 0 alone
    with pytest.raises(ModelError, match=r"eta\(theta_star\) must be positive"):
        bounded_link(0.0)


def test_builtin_registry():
    assert set(models.BUILTIN_MODELS) == {"scalar_ou", "bounded_link",
                                          "mean_reversion", "linear_system"}
    # a factory's parameter names are its config keys, so renaming one
    # renames a key; their order is the order error messages list them in
    assert {name: models.config_keys(name) for name in models.BUILTIN_MODELS} == {
        "scalar_ou": ("theta_star", "sigma"), "bounded_link": ("theta_star", "sigma"),
        "mean_reversion": ("rate_star", "level_star", "sigma"),
        "linear_system": ("dim", "sigma")}
    # every entry builds from its config keys; sigma is scalar in the config
    for name in models.BUILTIN_MODELS:
        model, noise = build_model(from_dict({"experiment": "estimate",
                                              "model.name": name,
                                              "model.sigma": "0.5"}))
        assert model.name == name
        npt.assert_array_equal(noise.sigma, 0.5 * np.eye(model.m))


def test_readme_key_table_is_the_config_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.search(r"^\| `model\.name` .*?\n\n", readme, re.M | re.S).group(0)
    rows = {row[0]: tuple(row[1].split("`, `"))
            for row in re.findall(r"^\| `(\w+)` +\| `(.*?)` +\|$", table, re.M)}
    assert rows == {name: tuple("model." + key for key in models.config_keys(name))
                    for name in models.BUILTIN_MODELS}


# Nonzero factors whose products neither overflow nor underflow: at a zero
# product the linear family's einsum, whose sum starts at +0.0, gives -0.0
# where -theta x gives +0.0.
FACTORS = st.floats(-1e100, 1e100).filter(lambda v: abs(v) >= 1e-100)
POSITIVE = st.floats(0.1, 10.0)


def assert_same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([None, 1, 5]), d=st.integers(1, 4))
def test_the_families_give_the_closed_forms_they_replaced(data, n, d):
    lead = () if n is None else (n,)

    def draw(k):  # an (n, k) batch or a single (k,) vector
        return data.draw(arrays(np.float64, lead + (k,), elements=FACTORS))

    # scalar_ou's own drift and gradient, before it became linear at m = 1
    x, theta = draw(1), draw(1)
    assert_same(linear_drift(x, theta), -theta[..., 0:1] * x)
    assert_same(linear_grad(x, theta), np.expand_dims(-x, -2))
    theta = draw(2)
    assert_same(affine_drift(x, theta), theta[..., 0:1] * (theta[..., 1:2] - x))
    assert_same(affine_grad(x, theta), np.stack(
        [theta[..., 1:2] - x, np.broadcast_to(theta[..., 0:1], x.shape)], axis=-2))
    # each catalog family model's true drift, as its factory wrote it
    ts, a, b = data.draw(POSITIVE), data.draw(POSITIVE), data.draw(FACTORS)
    # stable: each Gershgorin disc, radius at most 0.3, lies right of 0.5
    diag = data.draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d))
    off = data.draw(st.lists(st.floats(-0.1, 0.1), min_size=d * d, max_size=d * d))
    th = np.diag(diag) + np.array(off).reshape(d, d) * (1.0 - np.eye(d))
    xd = draw(d)
    for (model, _), xm, want in [
            (scalar_ou(ts), x, lambda x: -ts * x),
            (mean_reversion(a, b), x, lambda x: a * (b - x)),
            (linear_system(th), xd, lambda x: -np.einsum("ij,...j->...i", th, x))]:
        drift, grad = FAMILIES[model.family]
        assert (model.drift_fn, model.drift_grad_fn) == (drift, grad)
        assert_same(model.true_drift_fn(xm), want(xm))
        assert_same(model.true_drift_fn(xm), drift(xm, model.true_theta))


def test_the_link_family_gives_bounded_links_eta_expressions():
    # the closures bounded_link was built from, before it became a family;
    # the grid runs out to where tanh saturates and 1 / cosh^2 reaches 0
    theta, x = (a.reshape(-1, 1) for a in np.meshgrid(np.linspace(-400.0, 400.0, 321),
                                                      np.linspace(-3.0, 3.0, 13)))
    theta = np.concatenate([theta, np.zeros((13, 1)), np.full((13, 1), -0.0)])
    x = np.concatenate([x, x[:26]])
    drift, grad = FAMILIES["link"]
    eta = theta + np.tanh(theta)
    with np.errstate(over="ignore"):  # cosh^2 overflows past |theta| ~ 355
        etap = 1.0 + 1.0 / np.cosh(theta) ** 2
        assert_same(drift(x, theta), -eta * x)
        assert_same(grad(x, theta), np.expand_dims(-etap * x, -2))
    for ts in np.linspace(0.05, 20.0, 400).tolist():
        model, noise = bounded_link(ts, 0.7)
        assert model.family == "link" and not _kernel.covers(model, noise)
        assert (model.drift_fn, model.drift_grad_fn) == (drift, grad)
        eta_star = ts + np.tanh(ts)
        assert_same(model.true_drift_fn(x), -eta_star * x)
        sig2 = 0.7 * 0.7
        m2 = sig2 / (2.0 * eta_star)
        etap_star = 1.0 + 1.0 / np.cosh(ts) ** 2
        assert_same(model.analytic.hessian, np.array([[m2 / sig2 * etap_star ** 2]]))
