"""Parametric drift families f(x, theta) and their averaged objectives.

A model is one row of FAMILIES, a drift and its theta-gradient, at its
true parameter theta*: its true drift is the family's drift at theta*.
It may carry closed-form stationary moments and the Hessian of the
averaged objective at theta* (`AnalyticInfo`).  All callables are
vectorized: they accept `x` of shape (..., m) and `theta` of shape (..., k)
with matching leading dimensions and return (..., m) drifts and (..., k, m)
gradients.  The compiled kernel runs a model where it has a body for its
family and m (`_kernel.covers`); the link family, among others, runs on
numpy.  The catalog, BUILTIN_MODELS, maps a model's name to its factory,
whose parameter names are the `model.<key>` config keys it reads
(`config_keys`), passed by name.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Callable, Optional, Tuple

import numpy as np


class ModelError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Constant diffusion coefficient sigma; a = sigma @ sigma.T must be SPD,
    with it and its inverse a_inv finite."""

    sigma: np.ndarray
    a: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    a_inv: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_inv", a_inv)


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
class DriftModelSpec:
    """The model of `family`, a key of FAMILIES, with state dimension m at
    theta* = true_theta.  Its k = len(true_theta) parameters, drift_fn and
    drift_grad_fn (the family's) and true_drift_fn (the family's drift at
    true_theta) are derived from them, so dataclasses.replace derives them
    anew."""

    name: str
    family: str
    m: int
    true_theta: np.ndarray
    analytic: Optional[AnalyticInfo] = None
    k: int = dataclasses.field(init=False, repr=False, compare=False)
    drift_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = dataclasses.field(
        init=False, repr=False, compare=False)
    drift_grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = dataclasses.field(
        init=False, repr=False, compare=False)
    true_drift_fn: Callable[[np.ndarray], np.ndarray] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ModelError("unknown drift family %r; the families are %s"
                             % (self.family, ", ".join(sorted(FAMILIES))))
        drift, grad = FAMILIES[self.family]
        object.__setattr__(self, "k", len(self.true_theta))
        object.__setattr__(self, "drift_fn", drift)
        object.__setattr__(self, "drift_grad_fn", grad)
        object.__setattr__(self, "true_drift_fn",
                           functools.partial(drift, theta=self.true_theta))


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
# Drift families: one numpy drift and one gradient each.
# ---------------------------------------------------------------------------

def linear_drift(x, theta):
    """-P x with P = reshape(theta, (m, m)) row-major."""
    m = x.shape[-1]
    return -np.einsum("...ij,...j->...i", theta.reshape(theta.shape[:-1] + (m, m)), x)


def linear_grad(x, theta):
    """d f_i / d P_ij = -x_j, every other entry zero: (..., m * m, m)."""
    m = x.shape[-1]
    batch = np.broadcast_shapes(x.shape[:-1], theta.shape[:-1])
    out = np.zeros(batch + (m, m, m))
    xb = np.broadcast_to(x, batch + (m,))
    for i in range(m):
        out[..., i, :, i] = -xb
    return out.reshape(batch + (m * m, m))


def affine_drift(x, theta):
    """theta_1 (theta_2 - x)."""
    return theta[..., 0:1] * (theta[..., 1:2] - x)


def affine_grad(x, theta):
    g1 = theta[..., 1:2] - x
    g2 = np.broadcast_to(theta[..., 0:1], g1.shape)
    return np.stack([g1, g2], axis=-2)


def link_eta(t):
    """eta(theta) = theta + tanh(theta), the link's rate."""
    return t + np.tanh(t)


def link_eta_prime(t):
    return 1.0 + 1.0 / np.cosh(t) ** 2


def link_drift(x, theta):
    """-eta(theta_1) x."""
    return -link_eta(theta[..., 0:1]) * x


def link_grad(x, theta):
    return np.expand_dims(-link_eta_prime(theta[..., 0:1]) * x, -2)


# family name -> (drift, gradient)
FAMILIES = {"linear": (linear_drift, linear_grad),
            "affine": (affine_drift, affine_grad),
            "link": (link_drift, link_grad)}


# ---------------------------------------------------------------------------
# Built-in catalog.  Every model is well-specified: f(x, theta*) = f*(x).
# ---------------------------------------------------------------------------

def scalar_ou(theta_star: float = 1.0, sigma: float = 1.0):
    """f(x, theta) = -theta x, f*(x) = -theta* x: the linear family at m = 1."""
    if theta_star <= 0:
        raise ModelError("theta_star must be positive for a mean-reverting truth")
    ts = float(theta_star)
    noise = NoiseSpec(np.array([[float(sigma)]]))
    sig2 = float(noise.a[0, 0])
    m2 = sig2 / (2.0 * ts)
    # gbar(theta) = m2 (theta - theta*)^2 / (2 sig2)
    analytic = AnalyticInfo(np.zeros(1), np.array([m2]), np.array([[m2 / sig2]]))
    return DriftModelSpec("scalar_ou", "linear", 1, np.array([ts]), analytic), noise


def bounded_link(theta_star: float = 1.0, sigma: float = 1.0):
    """The link family f(x, theta) = -eta(theta) x, eta(theta) = theta + tanh(theta).

    eta is monotone, so gbar has a single critical point, yet gbar is
    non-convex away from theta*.
    """
    ts = float(theta_star)
    if link_eta(ts) <= 0:
        raise ModelError("eta(theta_star) must be positive")
    noise = NoiseSpec(np.array([[float(sigma)]]))
    sig2 = float(noise.a[0, 0])
    m2 = sig2 / (2.0 * link_eta(ts))
    # gbar(theta) = m2 (eta(theta) - eta*)^2 / (2 sig2); at theta* the
    # eta'' term of its second derivative carries the factor eta - eta* = 0
    analytic = AnalyticInfo(np.zeros(1), np.array([m2]),
                            np.array([[m2 / sig2 * link_eta_prime(ts) ** 2]]))
    return DriftModelSpec("bounded_link", "link", 1, np.array([ts]), analytic), noise


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
    analytic = AnalyticInfo(np.array([mu]), np.array([var + mu * mu]),
                            (jac.T @ mom @ jac) / sig2)
    return DriftModelSpec("mean_reversion", "affine", 1, np.array([a_star, b_star]),
                          analytic), noise


def linear_system(theta_star_matrix=None, sigma=None, dim: int = 2):
    """The linear family f(x, theta) = -Theta x at m = d."""
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
    # stationary covariance S of dx = -Theta* x dt + sigma dW: Theta* S + S
    # Theta*^T = A, one d^2 x d^2 linear system in the row-major entries of S
    eye = np.eye(d)
    s_cov = np.linalg.solve(np.kron(th_star, eye) + np.kron(eye, th_star),
                            noise.a.ravel()).reshape(d, d)
    s_cov = 0.5 * (s_cov + s_cov.T)
    # gbar(theta) = tr((Theta - Theta*)^T A^-1 (Theta - Theta*) S) / 2, so
    # H[(ij),(kl)] = a_inv[i,k] s_cov[j,l]
    analytic = AnalyticInfo(np.zeros(d), np.diag(s_cov).copy(),
                            np.kron(noise.a_inv, s_cov))
    return DriftModelSpec("linear_system", "linear", d,
                          th_star.reshape(d * d).copy(), analytic), noise


BUILTIN_MODELS = {
    "scalar_ou": scalar_ou,
    "bounded_link": bounded_link,
    "mean_reversion": mean_reversion,
    # the config's scalar sigma is the noise level on every coordinate
    "linear_system": lambda dim, sigma: linear_system(dim=dim, sigma=sigma * np.eye(dim)),
}


def config_keys(name: str) -> Tuple[str, ...]:
    """The `model.<key>` config keys the catalog model `name` reads, in the
    order of its factory's parameters."""
    return tuple(inspect.signature(BUILTIN_MODELS[name]).parameters)
