import numpy as np
import numpy.testing as npt
import pytest

from driftfit.config import from_dict
from driftfit.covariance import (QUADRATURE_TOL, CovarianceError, RegimeError,
                                 jacobi_eigh, moment_ode_oracle, sigma_bar_eigen,
                                 sigma_bar_quadrature)
from driftfit.experiments import build_model, covariance_inputs
from driftfit.models import BUILTIN_MODELS
from driftfit.schedule import ScheduleSpec


def random_spd(rng, k, lam_lo=0.5, lam_hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = rng.uniform(lam_lo, lam_hi, k)
    return q @ np.diag(lam) @ q.T


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 5, 6):
        a = rng.standard_normal((k, k))
        a = a + a.T
        lam, v = jacobi_eigh(a)
        lam_ref = np.linalg.eigvalsh(a)
        npt.assert_allclose(lam, lam_ref, atol=1e-10)
        npt.assert_allclose(v.T @ v, np.eye(k), atol=1e-12)
        npt.assert_allclose(v @ np.diag(lam) @ v.T, a, atol=1e-10)


@pytest.mark.parametrize("route", [sigma_bar_eigen, sigma_bar_quadrature])
def test_sigma_bar_routes_reject_asymmetry(route):
    # the quadrature used to integrate an asymmetric hessian's own exponents,
    # and it raised numpy's broadcast error for a non-square one
    with pytest.raises(CovarianceError, match="not symmetric"):
        route(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), 4.0)
    with pytest.raises(CovarianceError, match="square"):
        route(np.ones((2, 3)), np.eye(2), 4.0)


def test_sigma_bar_scalar_closed_form():
    # C_alpha^2 h / (2 C C_alpha - 1) with C = h = 1/2, C_alpha = 4
    pred = sigma_bar_eigen(np.array([[0.5]]), np.array([[0.5]]), 4.0)
    assert pred.dtype == np.float64 and pred.shape == (1, 1)
    npt.assert_allclose(pred, [[8.0 / 3.0]], rtol=1e-14)


def test_sigma_bar_eigen_against_elementwise_sum():
    # independent reference: expand the bracket entry by entry in the
    # eigenbasis with a quadruple loop
    rng = np.random.default_rng(3)
    k = 4
    hess = random_spd(rng, k)
    hb = random_spd(rng, k)
    c_alpha = 2.5
    lam, u = np.linalg.eigh(hess)
    ref = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            for a in range(k):
                for b in range(k):
                    br = c_alpha ** 2 / ((lam[a] + lam[b]) * c_alpha - 1.0)
                    ref[i, j] += (u[i, a] * u[j, b] * br
                                  * (u[:, a] @ hb @ u[:, b]))
    pred = sigma_bar_eigen(hess, hb, c_alpha)
    npt.assert_allclose(pred, ref, atol=1e-11)


def test_sigma_bar_routes_agree():
    rng = np.random.default_rng(7)
    for k in (1, 2, 4):
        hess = random_spd(rng, k)
        hb = random_spd(rng, k)
        c_alpha = 1.2 / (2.0 * np.linalg.eigvalsh(hess).min()) + 0.3
        e = sigma_bar_eigen(hess, hb, c_alpha)
        q = sigma_bar_quadrature(hess, hb, c_alpha)
        npt.assert_allclose(e, q, atol=1e-9)


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_sigma_bar_quadrature_equals_its_two_exponent_integrand(name):
    # the route used to take one expm for each side of every node; on a
    # catalog Hessian, which is exactly symmetric, the one shared expm
    # gives the same bits
    from scipy.integrate import quad_vec
    from scipy.linalg import expm
    cfg = from_dict({"experiment": "predict-covariance", "model.name": name})
    hessian, hbar = covariance_inputs(*build_model(cfg))
    c_alpha = cfg["schedule.c_alpha"]
    npt.assert_array_equal(hessian, hessian.T)
    lam_min = np.linalg.eigvalsh(0.5 * (hessian + hessian.T)).min()
    scale = max(np.abs(hbar).max(), 1.0) * c_alpha ** 2
    s_max = max(1.0, np.log(scale / QUADRATURE_TOL)) / (2.0 * lam_min * c_alpha - 1.0)
    eye = np.eye(hessian.shape[0])
    m_left = c_alpha * hessian - 0.5 * eye
    m_right = c_alpha * hessian.T - 0.5 * eye
    old, _ = quad_vec(lambda s: c_alpha ** 2 * expm(-s * m_left) @ hbar @ expm(-s * m_right),
                      0.0, s_max, epsabs=QUADRATURE_TOL, epsrel=QUADRATURE_TOL)
    npt.assert_array_equal(sigma_bar_quadrature(hessian, hbar, c_alpha),
                           0.5 * (old + old.T))


def test_sigma_bar_regime_guard():
    hess = np.array([[0.5]])
    hb = np.array([[0.5]])
    with pytest.raises(RegimeError):
        sigma_bar_eigen(hess, hb, 1.0)  # 2 * 0.5 * 1 = 1, not > 1
    with pytest.raises(RegimeError):
        sigma_bar_quadrature(hess, hb, 0.9)
    with pytest.raises(RegimeError):
        sigma_bar_eigen(np.array([[-1.0]]), hb, 4.0)


def test_moment_ode_supercritical_tail():
    sched = ScheduleSpec(4.0, 1.0)
    grid = np.geomspace(1.0, 1e5, 300)
    grid[0] = 1.0
    m = moment_ode_oracle(0.5, 0.5, sched, m0=1.0 / 3.0, t_grid=grid)
    # t m(t) -> C_alpha^2 tr(h) / (2 C C_alpha - 1) = 8/3
    assert grid[-1] * m[-1] == pytest.approx(8.0 / 3.0, rel=1e-3)
    assert np.all(m > 0)
    assert np.all(np.diff(m[grid > 10.0]) < 0)


def test_moment_ode_subcritical_slope():
    sched = ScheduleSpec(0.8, 1.0)
    grid = np.geomspace(1.0, 1e6, 200)
    grid[0] = 1.0
    m = moment_ode_oracle(0.5, 0.5, sched, m0=1.0 / 3.0, t_grid=grid)
    tail = grid > 1e4
    slope = np.polyfit(np.log(grid[tail]), np.log(m[tail]), 1)[0]
    assert slope == pytest.approx(-0.8, abs=0.02)


def test_moment_ode_grid_validation():
    sched = ScheduleSpec(4.0)
    with pytest.raises(CovarianceError):
        moment_ode_oracle(0.5, 0.5, sched, 1.0, np.array([2.0, 3.0]))
    with pytest.raises(CovarianceError):
        moment_ode_oracle(0.5, 0.5, sched, 1.0, np.array([1.0, 1.0]))
