"""Parametric drift families f(x, theta) and their averaged objectives.

A model packages the drift family, its theta-gradient, the true drift,
and (for the built-in catalog) closed-form stationary moments and the
averaged objective with derivatives.  All callables are vectorized: they
accept `x` of shape (..., m) and `theta` of shape (..., k) with matching
leading dimensions and return (..., m) drifts and (..., k, m) gradients.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import solve_lyapunov


class ModelError(Exception):
    pass


class AnalyticUnavailableError(ModelError):
    """Raised when closed-form averaged-objective data is missing.

    Callers without analytic metadata should go through the numeric
    route in the poisson module instead.
    """


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Constant diffusion coefficient sigma; sigma @ sigma.T must be SPD."""

    sigma: np.ndarray

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if sig.shape[0] != sig.shape[1]:
            raise ModelError("sigma must be square, got shape %s" % (sig.shape,))
        a = sig @ sig.T
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ModelError("sigma @ sigma.T is not positive definite") from exc
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_a_inv", np.linalg.inv(a))

    @property
    def m(self) -> int:
        return self.sigma.shape[0]

    @property
    def a(self) -> np.ndarray:
        """sigma @ sigma.T"""
        return self._a

    @property
    def a_inv(self) -> np.ndarray:
        return self._a_inv


@dataclasses.dataclass(frozen=True)
class AnalyticInfo:
    """Closed-form stationary data for a built-in model.

    stationary_mean and stationary_second_moment hold E[x_i] and E[x_i^2]
    under the invariant measure, one entry per state coordinate.
    """

    stationary_mean: np.ndarray
    stationary_second_moment: np.ndarray
    gbar_fn: Callable[[np.ndarray], float]
    gbar_grad_fn: Callable[[np.ndarray], np.ndarray]
    gbar_hessian_fn: Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass(frozen=True)
class DriftModelSpec:
    name: str
    k: int
    m: int
    drift_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    drift_grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    true_drift_fn: Callable[[np.ndarray], np.ndarray]
    true_theta: Optional[np.ndarray] = None
    analytic: Optional[AnalyticInfo] = None


@dataclasses.dataclass(frozen=True)
class AveragedObjective:
    gbar: float
    grad: np.ndarray
    hessian: np.ndarray


@dataclasses.dataclass(frozen=True)
class GrowthReport:
    passes: bool
    estimated_degree: float
    tier: str


def pointwise_objective(model: DriftModelSpec, noise: NoiseSpec,
                        x: np.ndarray, theta: np.ndarray) -> float:
    """0.5 <f(x,theta) - f*(x), (sigma sigma^T)^-1 (f(x,theta) - f*(x))>."""
    x = np.asarray(x, dtype=float).reshape(-1)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    r = model.drift_fn(x, theta) - model.true_drift_fn(x)
    return float(0.5 * r @ noise.a_inv @ r)


def objective_grad(model: DriftModelSpec, noise: NoiseSpec,
                   x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Gradient in theta of the pointwise objective, shape (..., k)."""
    r = model.drift_fn(x, theta) - model.true_drift_fn(x)
    grad = model.drift_grad_fn(x, theta)
    return np.einsum("...km,mn,...n->...k", grad, noise.a_inv, r)


def averaged_objective(model: DriftModelSpec, theta: np.ndarray) -> AveragedObjective:
    """Closed-form averaged objective gbar(theta) with derivatives."""
    if model.analytic is None:
        raise AnalyticUnavailableError(
            "model %r has no analytic metadata; use the poisson module's "
            "numeric route" % model.name)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    return AveragedObjective(
        gbar=float(model.analytic.gbar_fn(theta)),
        grad=np.asarray(model.analytic.gbar_grad_fn(theta), dtype=float),
        hessian=np.asarray(model.analytic.gbar_hessian_fn(theta), dtype=float),
    )


_TIER_BOUND = {"quadratic": 2.0, "linear": 1.0}


def growth_check(model: DriftModelSpec, tier: str, seed: int = 0,
                 n_directions: int = 6, n_x_probes: int = 8) -> GrowthReport:
    """Estimate the growth degree of ||f(x, theta)|| in ||theta||.

    Log-log regression of sup_x ||f(x, r u)|| against r over
    r in [10, 1e4] along random unit directions u.  Passes iff the
    worst-direction degree stays within the tier's bound plus 0.1.
    """
    if tier not in _TIER_BOUND:
        raise ModelError("unknown growth tier %r" % tier)
    rng = np.random.default_rng(seed)
    xs = 1.5 * rng.standard_normal((n_x_probes, model.m))
    dirs = rng.standard_normal((n_directions, model.k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.logspace(1.0, 4.0, 13)
    worst = 0.0
    for u in dirs:
        ys = []
        for r in radii:
            vals = np.array([np.linalg.norm(model.drift_fn(x, r * u)) for x in xs])
            if not np.all(np.isfinite(vals)):
                bad = xs[int(np.argmax(~np.isfinite(vals)))]
                raise ModelError("non-finite model output at x=%s, |theta|=%g" % (bad, r))
            ys.append(vals.max())
        ys = np.asarray(ys)
        if np.all(ys < 1e-300):
            continue
        slope = np.polyfit(np.log(radii), np.log(ys + 1e-300), 1)[0]
        worst = max(worst, float(slope))
    return GrowthReport(passes=worst <= _TIER_BOUND[tier] + 0.1,
                        estimated_degree=worst, tier=tier)


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


# ---------------------------------------------------------------------------
# Built-in catalog.  Every family is well-specified: f(x, theta*) = f*(x).
# ---------------------------------------------------------------------------

def scalar_ou(theta_star: float = 1.0, sigma: float = 1.0):
    """f(x, theta) = -theta x with f*(x) = -theta* x, scalar state."""
    if theta_star <= 0:
        raise ModelError("theta_star must be positive for a mean-reverting truth")
    ts = float(theta_star)
    sig2 = float(sigma) ** 2
    m2 = sig2 / (2.0 * ts)

    def drift(x, theta):
        return -theta[..., 0:1] * x

    def grad(x, theta):
        return np.expand_dims(-x, -2)

    def true_drift(x):
        return -ts * x

    analytic = AnalyticInfo(
        stationary_mean=np.zeros(1),
        stationary_second_moment=np.array([m2]),
        gbar_fn=lambda th: 0.5 * m2 / sig2 * (th[0] - ts) ** 2,
        gbar_grad_fn=lambda th: np.array([m2 / sig2 * (th[0] - ts)]),
        gbar_hessian_fn=lambda th: np.array([[m2 / sig2]]),
    )
    model = DriftModelSpec("scalar_ou", k=1, m=1, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=np.array([ts]), analytic=analytic)
    return model, NoiseSpec(np.array([[float(sigma)]]))


def bounded_link(theta_star: float = 1.0, sigma: float = 1.0):
    """f(x, theta) = -eta(theta) x with eta(theta) = theta + tanh(theta).

    eta is monotone, so gbar has a single critical point, yet gbar is
    non-convex away from theta*.
    """
    ts = float(theta_star)

    def eta(t):
        return t + np.tanh(t)

    def etap(t):
        return 1.0 + 1.0 / np.cosh(t) ** 2

    def etapp(t):
        return -2.0 * np.tanh(t) / np.cosh(t) ** 2

    if eta(ts) <= 0:
        raise ModelError("eta(theta_star) must be positive")
    sig2 = float(sigma) ** 2
    m2 = sig2 / (2.0 * eta(ts))
    eta_star = eta(ts)

    def drift(x, theta):
        return -eta(theta[..., 0:1]) * x

    def grad(x, theta):
        return np.expand_dims(-etap(theta[..., 0:1]) * x, -2)

    def true_drift(x):
        return -eta_star * x

    def gbar(th):
        return 0.5 * m2 / sig2 * (eta(th[0]) - eta_star) ** 2

    def gbar_grad(th):
        return np.array([m2 / sig2 * (eta(th[0]) - eta_star) * etap(th[0])])

    def gbar_hess(th):
        d = eta(th[0]) - eta_star
        return np.array([[m2 / sig2 * (etap(th[0]) ** 2 + d * etapp(th[0]))]])

    analytic = AnalyticInfo(np.zeros(1), np.array([m2]), gbar, gbar_grad, gbar_hess)
    model = DriftModelSpec("bounded_link", k=1, m=1, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=np.array([ts]), analytic=analytic)
    return model, NoiseSpec(np.array([[float(sigma)]]))


def mean_reversion(rate_star: float = 1.0, level_star: float = 0.5,
                   sigma: float = 1.0):
    """Affine family f(x, theta) = theta_1 (theta_2 - x), scalar state."""
    a_star, b_star = float(rate_star), float(level_star)
    if a_star <= 0:
        raise ModelError("rate_star must be positive")
    sig2 = float(sigma) ** 2
    var = sig2 / (2.0 * a_star)
    mu = b_star
    # f - f* = c(theta) + d(theta) x with c = th1 th2 - a* b*, d = a* - th1;
    # gbar = (1 / 2 sig2) w^T M w for w = (c, d) and M the moment matrix.
    mom = np.array([[1.0, mu], [mu, var + mu * mu]])

    def drift(x, theta):
        return theta[..., 0:1] * (theta[..., 1:2] - x)

    def grad(x, theta):
        g1 = theta[..., 1:2] - x
        g2 = np.broadcast_to(theta[..., 0:1], g1.shape)
        return np.stack([g1, g2], axis=-2)

    def true_drift(x):
        return a_star * (b_star - x)

    def _w(th):
        return np.array([th[0] * th[1] - a_star * b_star, a_star - th[0]])

    def _jac(th):
        # columns: d w / d theta_j
        return np.array([[th[1], th[0]], [-1.0, 0.0]])

    def gbar(th):
        w = _w(th)
        return 0.5 / sig2 * w @ mom @ w

    def gbar_grad(th):
        return (_jac(th).T @ mom @ _w(th)) / sig2

    def gbar_hess(th):
        j = _jac(th)
        h = j.T @ mom @ j
        # second derivative of w: only c has d2c/dth1 dth2 = 1
        mw = mom @ _w(th)
        h = h.copy()
        h[0, 1] += mw[0]
        h[1, 0] += mw[0]
        return h / sig2

    analytic = AnalyticInfo(np.array([mu]), np.array([var + mu * mu]),
                            gbar, gbar_grad, gbar_hess)
    model = DriftModelSpec("mean_reversion", k=2, m=1, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=np.array([a_star, b_star]),
                           analytic=analytic)
    return model, NoiseSpec(np.array([[float(sigma)]]))


def linear_system(theta_star_matrix=None, sigma=None, dim: int = 2):
    """f(x, theta) = -Theta x with Theta = reshape(theta, (d, d)) row-major."""
    if theta_star_matrix is None:
        theta_star_matrix = np.eye(dim) + 0.25 * np.diag(np.ones(dim - 1), 1)
    th_star = np.asarray(theta_star_matrix, dtype=float)
    d = th_star.shape[0]
    if th_star.shape != (d, d):
        raise ModelError("theta_star_matrix must be square")
    if np.any(np.linalg.eigvals(th_star).real <= 0):
        raise ModelError("theta_star_matrix must be stable (-Theta* Hurwitz)")
    if sigma is None:
        sigma = np.eye(d)
    noise = NoiseSpec(np.asarray(sigma, dtype=float))
    a = noise.a
    a_inv = noise.a_inv
    # stationary covariance S of dx = -Theta* x dt + sigma dW
    s_cov = solve_lyapunov(th_star, a)
    s_cov = 0.5 * (s_cov + s_cov.T)

    def drift(x, theta):
        th = theta.reshape(theta.shape[:-1] + (d, d))
        return -np.einsum("...ij,...j->...i", th, x)

    def grad(x, theta):
        batch = np.broadcast_shapes(x.shape[:-1], theta.shape[:-1])
        out = np.zeros(batch + (d, d, d))
        xb = np.broadcast_to(x, batch + (d,))
        for i in range(d):
            out[..., i, :, i] = -xb
        return out.reshape(batch + (d * d, d))

    def true_drift(x):
        return -np.einsum("ij,...j->...i", th_star, x)

    def gbar(th):
        dmat = th.reshape(d, d) - th_star
        return 0.5 * np.trace(dmat.T @ a_inv @ dmat @ s_cov)

    def gbar_grad(th):
        dmat = th.reshape(d, d) - th_star
        return (a_inv @ dmat @ s_cov).reshape(d * d)

    def gbar_hess(th):
        # H[(ij),(kl)] = a_inv[i,k] s_cov[j,l]
        return np.kron(a_inv, s_cov)

    analytic = AnalyticInfo(np.zeros(d), np.diag(s_cov).copy(),
                            gbar, gbar_grad, gbar_hess)
    model = DriftModelSpec("linear_system", k=d * d, m=d, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=th_star.reshape(d * d).copy(),
                           analytic=analytic)
    return model, noise


class ModelEntry(NamedTuple):
    """A catalog model: its factory and the `model.<key>` config values it
    takes, passed as keyword arguments of the same names."""

    factory: Callable[..., Tuple[DriftModelSpec, NoiseSpec]]
    keys: Tuple[str, ...]


BUILTIN_MODELS = {
    "scalar_ou": ModelEntry(scalar_ou, ("theta_star", "sigma")),
    "bounded_link": ModelEntry(bounded_link, ("theta_star", "sigma")),
    "mean_reversion": ModelEntry(mean_reversion,
                                 ("rate_star", "level_star", "sigma")),
    # the config's scalar sigma is the noise level on every coordinate
    "linear_system": ModelEntry(
        lambda dim, sigma: linear_system(dim=dim, sigma=sigma * np.eye(dim)),
        ("dim", "sigma")),
}
