"""Parametric drift families f(x, theta) and their averaged objectives.

A model packages the drift family, its theta-gradient, the true drift,
and (for the built-in catalog) closed-form stationary moments and the
Hessian of the averaged objective at theta*.  All callables are vectorized:
they accept `x` of shape (..., m) and `theta` of shape (..., k) with matching
leading dimensions and return (..., m) drifts and (..., k, m) gradients.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np


class ModelError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Constant diffusion coefficient sigma; sigma @ sigma.T must be SPD, with
    it and its inverse finite."""

    sigma: np.ndarray

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if sig.shape[0] != sig.shape[1]:
            raise ModelError("sigma must be square, got shape %s" % (sig.shape,))
        with np.errstate(over="ignore"):  # refused below
            a = sig @ sig.T
        if not np.isfinite(a).all():
            raise ModelError("sigma @ sigma.T overflows: sigma is too large")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ModelError("sigma @ sigma.T is not positive definite") from exc
        a_inv = np.linalg.inv(a)
        if not np.isfinite(a_inv).all():
            raise ModelError("(sigma @ sigma.T)^-1 overflows: sigma is too small")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_a_inv", a_inv)

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
    under the invariant measure, one entry per state coordinate; hessian is
    the k x k Hessian of the averaged objective gbar at theta*, the only
    point where the covariance and regime predictions read it.
    """

    stationary_mean: np.ndarray
    stationary_second_moment: np.ndarray
    hessian: np.ndarray


@dataclasses.dataclass(frozen=True)
class CompiledForm:
    """What a built-in factory's three callables compute, in a form the
    compiled span kernel runs: family "linear" is f(x, p) = -P x with
    P = reshape(p, (m, m)) row-major, family "affine" is f(x, p) = p_1 (p_2 - x).
    The true drift is the family at `params`."""

    family: str
    params: np.ndarray
    callables: Tuple[Callable, Callable, Callable]  # drift, gradient, true drift


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
    compiled: Optional[CompiledForm] = None


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


# ---------------------------------------------------------------------------
# Built-in catalog.  Every family is well-specified: f(x, theta*) = f*(x).
# ---------------------------------------------------------------------------

def scalar_ou(theta_star: float = 1.0, sigma: float = 1.0):
    """f(x, theta) = -theta x with f*(x) = -theta* x, scalar state."""
    if theta_star <= 0:
        raise ModelError("theta_star must be positive for a mean-reverting truth")
    ts = float(theta_star)
    noise = NoiseSpec(np.array([[float(sigma)]]))
    sig2 = float(noise.a[0, 0])
    m2 = sig2 / (2.0 * ts)

    def drift(x, theta):
        return -theta[..., 0:1] * x

    def grad(x, theta):
        return np.expand_dims(-x, -2)

    def true_drift(x):
        return -ts * x

    # gbar(theta) = m2 (theta - theta*)^2 / (2 sig2)
    analytic = AnalyticInfo(np.zeros(1), np.array([m2]), np.array([[m2 / sig2]]))
    model = DriftModelSpec("scalar_ou", k=1, m=1, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=np.array([ts]), analytic=analytic,
                           compiled=CompiledForm("linear", np.array([ts]),
                                                 (drift, grad, true_drift)))
    return model, noise


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

    if eta(ts) <= 0:
        raise ModelError("eta(theta_star) must be positive")
    noise = NoiseSpec(np.array([[float(sigma)]]))
    sig2 = float(noise.a[0, 0])
    m2 = sig2 / (2.0 * eta(ts))
    eta_star = eta(ts)

    def drift(x, theta):
        return -eta(theta[..., 0:1]) * x

    def grad(x, theta):
        return np.expand_dims(-etap(theta[..., 0:1]) * x, -2)

    def true_drift(x):
        return -eta_star * x

    # gbar(theta) = m2 (eta(theta) - eta*)^2 / (2 sig2); at theta* the
    # eta'' term of its second derivative carries the factor eta - eta* = 0
    analytic = AnalyticInfo(np.zeros(1), np.array([m2]),
                            np.array([[m2 / sig2 * etap(ts) ** 2]]))
    model = DriftModelSpec("bounded_link", k=1, m=1, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=np.array([ts]), analytic=analytic)
    return model, noise


def mean_reversion(rate_star: float = 1.0, level_star: float = 0.5,
                   sigma: float = 1.0):
    """Affine family f(x, theta) = theta_1 (theta_2 - x), scalar state."""
    a_star, b_star = float(rate_star), float(level_star)
    if a_star <= 0:
        raise ModelError("rate_star must be positive")
    noise = NoiseSpec(np.array([[float(sigma)]]))
    sig2 = float(noise.a[0, 0])
    var = sig2 / (2.0 * a_star)
    mu = b_star
    # f - f* = c(theta) + d(theta) x with c = th1 th2 - a* b*, d = a* - th1;
    # gbar = (1 / 2 sig2) w^T M w for w = (c, d) and M the moment matrix.
    # w(theta*) = 0, so the Hessian there is J^T M J / sig2, J = dw / dtheta.
    mom = np.array([[1.0, mu], [mu, var + mu * mu]])
    jac = np.array([[b_star, a_star], [-1.0, 0.0]])

    def drift(x, theta):
        return theta[..., 0:1] * (theta[..., 1:2] - x)

    def grad(x, theta):
        g1 = theta[..., 1:2] - x
        g2 = np.broadcast_to(theta[..., 0:1], g1.shape)
        return np.stack([g1, g2], axis=-2)

    def true_drift(x):
        return a_star * (b_star - x)

    analytic = AnalyticInfo(np.array([mu]), np.array([var + mu * mu]),
                            (jac.T @ mom @ jac) / sig2)
    model = DriftModelSpec("mean_reversion", k=2, m=1, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=np.array([a_star, b_star]),
                           analytic=analytic,
                           compiled=CompiledForm("affine", np.array([a_star, b_star]),
                                                 (drift, grad, true_drift)))
    return model, noise


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
    # stationary covariance S of dx = -Theta* x dt + sigma dW: Theta* S + S
    # Theta*^T = A, one d^2 x d^2 linear system in the row-major entries of S
    eye = np.eye(d)
    s_cov = np.linalg.solve(np.kron(th_star, eye) + np.kron(eye, th_star),
                            a.ravel()).reshape(d, d)
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

    # gbar(theta) = tr((Theta - Theta*)^T A^-1 (Theta - Theta*) S) / 2, so
    # H[(ij),(kl)] = a_inv[i,k] s_cov[j,l]
    analytic = AnalyticInfo(np.zeros(d), np.diag(s_cov).copy(),
                            np.kron(a_inv, s_cov))
    model = DriftModelSpec("linear_system", k=d * d, m=d, drift_fn=drift,
                           drift_grad_fn=grad, true_drift_fn=true_drift,
                           true_theta=th_star.reshape(d * d).copy(),
                           analytic=analytic,
                           compiled=CompiledForm("linear", th_star.reshape(d * d).copy(),
                                                 (drift, grad, true_drift)))
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
