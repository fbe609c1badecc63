"""1-D Poisson equation L_x v = G for ergodic scalar diffusions.

The generator is L_x = f*(x) d/dx + (sigma^2 / 2) d^2/dx^2.  In one
dimension the invariant density has the closed form
pi(x) ~ exp(2 F(x) / sigma^2) with F' = f*, which turns the Poisson
equation into two cumulative quadratures:
    v'(x) = (2 / sigma^2) pi(x)^-1 int_lo^x G pi,
and v follows by integrating v' and centering so that int v dpi = 0.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .models import DriftModelSpec, NoiseSpec, objective_grad

CENTERING_TOL = 1e-6
TAIL_MASS_TOL = 1e-6


class PoissonError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class Grid1D:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise PoissonError("grid requires lo < hi")
        if self.n < 3:
            raise PoissonError("grid requires n >= 3 nodes")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclasses.dataclass(frozen=True)
class PoissonSolution:
    v: np.ndarray
    dv_dx: np.ndarray
    residual_sup: float


def default_grid(model: DriftModelSpec, noise: NoiseSpec, n: int = 4001) -> Grid1D:
    """[-6 sd, 6 sd] around the stationary mean; Gaussian-tailed mass
    outside six standard deviations is below 1e-8."""
    if model.analytic is not None:
        mean = float(model.analytic.stationary_mean[0])
        m2 = float(model.analytic.stationary_second_moment[0])
    else:
        mean, m2 = 0.0, float(noise.a[0, 0])
    sd = np.sqrt(max(m2 - mean * mean, 1e-12))
    return Grid1D(mean - 6.0 * sd, mean + 6.0 * sd, n)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_x[0]^x[i] y by the trapezoid rule at every node, starting from 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _true_drift_values(model: DriftModelSpec, nodes: np.ndarray) -> np.ndarray:
    return model.true_drift_fn(nodes[:, None])[:, 0]


def stationary_density(model: DriftModelSpec, noise: NoiseSpec,
                       grid: Grid1D) -> np.ndarray:
    """Normalized invariant density on the grid nodes (log-space tails).  Every
    solver here starts from it, so it is where a non-scalar state is refused."""
    if model.m != 1:
        raise PoissonError("the Poisson solver is 1-D in x; state dimension "
                           "is %d" % model.m)
    nodes = grid.nodes
    sig2 = float(noise.a[0, 0])
    fstar = _true_drift_values(model, nodes)
    log_dens = _cumulative_trapezoid(2.0 * fstar / sig2, nodes)
    log_dens -= log_dens.max()
    dens = np.exp(log_dens)
    z = np.trapezoid(dens, nodes)
    dens /= z
    # tail-mass bound: near a boundary, pi decays ~ exp(2 f* (x - b)/sig2),
    # so the mass beyond b is about pi(b) sig2 / (2 |f*(b)|)
    for edge, f_edge in ((dens[0], fstar[0]), (dens[-1], fstar[-1])):
        if abs(f_edge) < 1e-12:
            raise PoissonError("drift vanishes at the grid boundary; cannot "
                               "bound the truncated tail mass")
        if edge * sig2 / (2.0 * abs(f_edge)) > TAIL_MASS_TOL:
            raise PoissonError("estimated density mass outside the grid "
                               "exceeds %g; widen the grid" % TAIL_MASS_TOL)
    return dens


def solve(model: DriftModelSpec, noise: NoiseSpec, G, grid: Grid1D,
          dens=None) -> PoissonSolution:
    """Solve L_x v = G, G given on grid.nodes with int G dpi = 0; v is centered
    so that int v dpi = 0.  dens is `stationary_density` on the grid, computed
    here unless the caller has it."""
    nodes = grid.nodes
    sig2 = float(noise.a[0, 0])
    if dens is None:
        dens = stationary_density(model, noise, grid)
    g = np.asarray(G, dtype=float)
    if g.shape != nodes.shape:
        raise PoissonError("G has shape %s, not one value per grid node" % (g.shape,))
    mean_g = float(np.trapezoid(g * dens, nodes))
    if abs(mean_g) > CENTERING_TOL:
        raise PoissonError("centering violated: |int G dpi| = %g > %g"
                           % (abs(mean_g), CENTERING_TOL))
    g = g - mean_g
    w = g * dens
    cum = _cumulative_trapezoid(w, nodes)
    # int_lo^x w vanishes at both ends, so for x past the density peak it is
    # a near-cancellation of O(1) partial sums and the accumulated roundoff
    # swamps the tiny tail values that dv divides by.  Integrate the right
    # half from the right boundary instead: int_lo^x w = -int_x^hi w.
    tail = -_cumulative_trapezoid(w[::-1], nodes[::-1])[::-1]
    peak = int(np.argmax(dens))
    cum[peak:] = -tail[peak:]
    dv = (2.0 / sig2) * cum / dens
    v = _cumulative_trapezoid(dv, nodes)
    v = v - float(np.trapezoid(v * dens, nodes))

    # recorded residual sup over the trusted interior (density not in the
    # deep tail, second derivative by central differences)
    fstar = _true_drift_values(model, nodes)
    d2v = np.gradient(dv, nodes, edge_order=2)
    resid = fstar * dv + 0.5 * sig2 * d2v - g
    trusted = dens > 1e-10 * dens.max()
    trusted[:2] = trusted[-2:] = False
    residual_sup = float(np.abs(resid[trusted]).max()) if trusted.any() else np.inf
    return PoissonSolution(v=v, dv_dx=dv, residual_sup=residual_sup)


def _grad_g(model: DriftModelSpec, noise: NoiseSpec, theta: np.ndarray,
            grid: Grid1D) -> np.ndarray:
    """grad_theta g(x, theta) at the grid nodes, shape (n, k)."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    thetas = np.broadcast_to(theta, (grid.n, model.k))
    return objective_grad(model, noise, grid.nodes[:, None], thetas)


def corrections(model: DriftModelSpec, noise: NoiseSpec, theta,
                grid: Grid1D, dens: np.ndarray) -> list:
    """The k Poisson corrections: solutions of L_x v_j = grad_j gbar - grad_j g,
    given dens = `stationary_density` on the grid."""
    grad_g = _grad_g(model, noise, theta, grid)
    gbar_grad = np.trapezoid(grad_g * dens[:, None], grid.nodes, axis=0)
    return [solve(model, noise, gbar_grad[j] - grad_g[:, j], grid, dens)
            for j in range(model.k)]


def hbar(model: DriftModelSpec, noise: NoiseSpec, theta=None) -> np.ndarray:
    """Averaged noise-covariance matrix entering the CLT covariance.

    h_bar = int (grad_theta f A^-1 - grad_x v) A (grad_theta f A^-1 - grad_x v)^T dpi
    with A = sigma sigma^T and v the componentwise Poisson correction for
    G_j = grad_j gbar - grad_j g.  For well-specified models at theta*
    the correction vanishes.
    """
    theta = np.asarray(model.true_theta if theta is None else theta,
                       dtype=float).reshape(-1)
    grid = default_grid(model, noise)
    nodes = grid.nodes
    dens = stationary_density(model, noise, grid)
    sig2 = float(noise.a[0, 0])
    a_inv = float(noise.a_inv[0, 0])

    thetas = np.broadcast_to(theta, (grid.n, model.k))
    grad_f = model.drift_grad_fn(nodes[:, None], thetas)[:, :, 0]  # (n, k)

    if np.allclose(theta, model.true_theta, atol=1e-12):
        dv = np.zeros((grid.n, model.k))
    else:
        dv = np.column_stack([sol.dv_dx
                              for sol in corrections(model, noise, theta, grid, dens)])

    amat = grad_f * a_inv - dv  # (n, k)
    integrand = np.einsum("ni,nj->nij", amat, amat) * sig2
    h = np.trapezoid(integrand * dens[:, None, None], nodes, axis=0)
    return 0.5 * (h + h.T)
