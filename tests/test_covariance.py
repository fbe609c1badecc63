import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def quad_vec_sigma_bar(hessian, hbar, c_alpha):
    """sigma_bar_quadrature as it was: scipy's quad_vec over a per-node expm."""
    from scipy.integrate import quad_vec
    from scipy.linalg import expm
    lam_min = float(np.linalg.eigvalsh(hessian).min())
    scale = max(np.abs(hbar).max(), 1.0) * c_alpha ** 2
    s_max = max(1.0, np.log(scale / QUADRATURE_TOL)) / (2.0 * lam_min * c_alpha - 1.0)
    exponent = c_alpha * hessian - 0.5 * np.eye(hessian.shape[0])

    def integrand(s):
        e = expm(-s * exponent)
        return c_alpha ** 2 * e @ hbar @ e

    sig, _ = quad_vec(integrand, 0.0, s_max, epsabs=QUADRATURE_TOL, epsrel=QUADRATURE_TOL)
    return 0.5 * (sig + sig.T)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), split=st.integers(0, 3),
       diagonal=st.booleans(), zero_rows=st.integers(0, 3), excess=st.floats(1e-4, 4.5))
# two cases nearer the regime bound, which split up to 3 and up to 6 intervals
# in one round; both end on the rounding-error exit, as many drawn cases do
@example(k=3, seed=3021493085, split=1, diagonal=False, zero_rows=3,
         excess=3.371000511183689e-06)
@example(k=4, seed=2077868015, split=1, diagonal=False, zero_rows=3,
         excess=1.5977051125461432e-06)
def test_sigma_bar_quadrature_is_quad_vecs_bit_for_bit(k, seed, split, diagonal,
                                                        zero_rows, excess):
    # the route used to call scipy.integrate.quad_vec with one expm a node;
    # H = Q diag(lam) Q^T, with Q orthogonal in two blocks split at `split`
    # (so H has exact zeros) or the identity (expm's diagonal branch); hbar =
    # G G^T with `zero_rows` rows of G zeroed; C_alpha = (1/2 + excess) /
    # lambda_min, from just above the regime bound to 5 / lambda_min.  Much
    # nearer the bound the quadrature runs to its 10 000-interval limit.
    rng = np.random.default_rng(seed)
    split = min(split, k - 1)
    q = np.eye(k)
    if not diagonal:
        for block in (slice(0, split), slice(split, k)):
            n = block.stop - block.start
            q[block, block] = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.uniform(0.05, 5.0, k)
    hessian = q @ np.diag(lam) @ q.T
    hessian = 0.5 * (hessian + hessian.T)
    g = rng.standard_normal((k, k))
    g[:min(zero_rows, k - 1)] = 0.0
    hbar = g @ g.T
    c_alpha = (0.5 + excess) / float(np.linalg.eigvalsh(hessian).min())
    ref = quad_vec_sigma_bar(hessian, hbar, c_alpha)
    got = sigma_bar_quadrature(hessian, hbar, c_alpha)
    npt.assert_array_equal(got, ref)
    npt.assert_array_equal(np.signbit(got), np.signbit(ref))


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


def loop_moment_ode_oracle(c, htr, schedule, m0, t_grid):
    """moment_ode_oracle as one scalar loop over the RK4 substeps: the
    reference its precomputed substeps must equal bit for bit."""
    def rhs(t, m):
        a = schedule.alpha(t)
        return -2.0 * a * c * m + a * a * htr

    out = np.empty_like(t_grid)
    out[0] = m = float(m0)
    t = t_grid[0]
    for idx in range(1, len(t_grid)):
        u0, u1 = np.log(t), np.log(t_grid[idx])
        nsub = max(1, int(np.ceil((u1 - u0) / 0.002)))
        du = (u1 - u0) / nsub
        u = u0
        for _ in range(nsub):
            t0 = np.exp(u)
            th = np.exp(u + 0.5 * du)
            t1 = np.exp(u + du)
            k1 = t0 * rhs(t0, m)
            k2 = th * rhs(th, m + 0.5 * du * k1)
            k3 = th * rhs(th, m + 0.5 * du * k2)
            k4 = t1 * rhs(t1, m + du * k3)
            m += du / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            u += du
        t = t_grid[idx]
        out[idx] = m
    return out


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.01, 5.0), htr=st.floats(0.0, 10.0), c_alpha=st.floats(0.05, 20.0),
       c0=st.one_of(st.just(0.0), st.floats(0.0, 10.0)), m0=st.floats(0.0, 5.0),
       gaps=st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=8))
@example(c=0.5, htr=0.5, c_alpha=4.0, c0=1.0, m0=1.0 / 3.0, gaps=[0.5, 9.0, 100.0])
def test_moment_ode_oracle_keeps_the_bits_of_the_scalar_loop(c, htr, c_alpha, c0, m0,
                                                             gaps):
    grid = 1.0 + np.cumsum([0.0, *gaps])
    sched = ScheduleSpec(c_alpha, c0)
    got = moment_ode_oracle(c, htr, sched, m0, grid)
    assert got.tobytes() == loop_moment_ode_oracle(c, htr, sched, m0, grid).tobytes()


def test_moment_ode_grid_validation():
    sched = ScheduleSpec(4.0)
    with pytest.raises(CovarianceError):
        moment_ode_oracle(0.5, 0.5, sched, 1.0, np.array([2.0, 3.0]))
    with pytest.raises(CovarianceError):
        moment_ode_oracle(0.5, 0.5, sched, 1.0, np.array([1.0, 1.0]))
