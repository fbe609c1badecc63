import numpy as np
import numpy.testing as npt
import pytest

from driftfit.models import (DriftModelSpec, NoiseSpec, bounded_link, mean_reversion,
                             scalar_ou)
from driftfit.poisson import (Grid1D, PoissonError, default_grid, hbar, solve,
                              stationary_density)


def test_grid_validation():
    with pytest.raises(PoissonError):
        Grid1D(1.0, 1.0, 10)
    with pytest.raises(PoissonError):
        Grid1D(0.0, 1.0, 2)
    g = Grid1D(-1.0, 1.0, 5)
    npt.assert_allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_ou_stationary_density_is_gaussian():
    model, noise = scalar_ou(1.0, 1.0)
    grid = default_grid(model, noise)
    dens = stationary_density(model, noise, grid)
    assert np.trapezoid(dens, grid.nodes) == pytest.approx(1.0, abs=1e-10)
    # N(0, 1/2): peak density 1/sqrt(pi)
    assert np.interp(0.0, grid.nodes, dens) == pytest.approx(
        1.0 / np.sqrt(np.pi), abs=1e-8)
    # the +/- 6 sd truncation costs a few 1e-8 of x^2-weighted mass
    var = np.trapezoid(grid.nodes ** 2 * dens, grid.nodes)
    assert var == pytest.approx(0.5, abs=1e-6)


def test_mean_reversion_density_centered_at_level():
    model, noise = mean_reversion(1.0, 0.5, 1.0)
    grid = default_grid(model, noise)
    dens = stationary_density(model, noise, grid)
    mean = np.trapezoid(grid.nodes * dens, grid.nodes)
    assert mean == pytest.approx(0.5, abs=1e-8)


def test_narrow_grid_rejected():
    model, noise = scalar_ou(1.0, 1.0)
    with pytest.raises(PoissonError):
        stationary_density(model, noise, Grid1D(-1.0, 1.0, 201))


def test_ou_poisson_closed_form():
    # generator -x d/dx + (1/2) d^2/dx^2 sends x^2/2 - 1/4 to 1/2 - x^2;
    # the wide grid keeps the truncated-tail contribution below the
    # quadrature error on the |x| <= 5 window
    model, noise = scalar_ou(1.0, 1.0)
    grid = Grid1D(-8.0, 8.0, 32001)
    sol = solve(model, noise, 0.5 - grid.nodes ** 2, grid)
    sel = np.abs(grid.nodes) <= 5.0
    npt.assert_allclose(sol.dv_dx[sel], grid.nodes[sel], atol=2e-5)
    npt.assert_allclose(sol.v[sel], grid.nodes[sel] ** 2 / 2.0 - 0.25,
                        atol=2e-5)
    assert sol.residual_sup < 1e-4
    dens = stationary_density(model, noise, grid)
    assert abs(np.trapezoid((0.5 - grid.nodes ** 2) * dens, grid.nodes)) < 1e-8


def test_ou_poisson_refinement():
    # halving the step shrinks the dv error by about 4 (second order)
    model, noise = scalar_ou(1.0, 1.0)
    errs = []
    for n in (8001, 16001):
        grid = Grid1D(-8.0, 8.0, n)
        sol = solve(model, noise, 0.5 - grid.nodes ** 2, grid)
        sel = np.abs(grid.nodes) <= 5.0
        errs.append(np.abs(sol.dv_dx[sel] - grid.nodes[sel]).max())
    assert errs[1] < errs[0] / 3.0


def test_poisson_centering_violation():
    model, noise = scalar_ou(1.0, 1.0)
    grid = default_grid(model, noise)
    with pytest.raises(PoissonError):
        solve(model, noise, np.ones(grid.n), grid)


def test_solve_refuses_a_g_that_is_not_one_value_per_node():
    model, noise = scalar_ou(1.0, 1.0)
    grid = default_grid(model, noise, 101)
    with pytest.raises(PoissonError, match=r"G has shape \(100,\), not one value per"):
        solve(model, noise, np.zeros(100), grid)


def test_default_grid_without_analytic_moments_centres_six_noise_scales_on_zero():
    # with no stationary moments to read, the grid takes mean 0 and the
    # variance sigma^2
    bare = DriftModelSpec("custom", "linear", 1, np.array([1.0]))
    grid = default_grid(bare, NoiseSpec(np.array([[2.0]])), 101)
    assert (grid.lo, grid.hi, grid.n) == (-12.0, 12.0, 101)


def test_hbar_ou_at_truth():
    model, noise = scalar_ou(1.0, 1.0)
    npt.assert_allclose(hbar(model, noise), [[0.5]], atol=1e-6)


def test_hbar_ou_off_truth_closed_form():
    # for theta != theta* the correction dv/dx = (theta - theta*) x scales
    # the effective gradient: hbar = (1 + (theta - theta*))^2 m2
    model, noise = scalar_ou(1.0, 1.0)
    h = hbar(model, noise, theta=np.array([1.5]))
    npt.assert_allclose(h, [[1.125]], atol=1e-5)


def test_hbar_bounded_link_matches_curvature():
    model, noise = bounded_link(1.0, 1.0)
    hess = model.analytic.hessian
    npt.assert_allclose(hbar(model, noise), hess, atol=1e-6)


def test_hbar_mean_reversion_matches_hessian():
    model, noise = mean_reversion(1.0, 0.5, 1.0)
    hess = model.analytic.hessian
    h = hbar(model, noise)
    npt.assert_allclose(h, hess, atol=1e-6)
    assert np.all(np.linalg.eigvalsh(h) > 0)
