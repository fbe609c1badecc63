import numpy as np
import numpy.testing as npt
import pytest

from driftfit.covariance import (CovarianceError, RegimeError, jacobi_eigh,
                                 moment_ode_oracle, sigma_bar_eigen,
                                 sigma_bar_quadrature)
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


def test_sigma_bar_eigen_rejects_asymmetry():
    with pytest.raises(CovarianceError, match="not symmetric"):
        sigma_bar_eigen(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), 4.0)
    with pytest.raises(CovarianceError, match="square"):
        sigma_bar_eigen(np.ones((2, 3)), np.eye(2), 4.0)


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
