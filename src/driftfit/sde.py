"""Euler-Maruyama simulation of the data process dX = f*(X) dt + sigma dW."""
from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple

import numpy as np

from .models import DriftModelSpec, NoiseSpec

DIVERGENCE_BOUND = 1e8
MAX_BURN_IN_TIME = 1e5


class DivergenceError(RuntimeError):
    def __init__(self, msg, x=None, t=None):
        super().__init__(msg)
        self.x = x
        self.t = t


@dataclasses.dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.005
    x0: Optional[np.ndarray] = None  # defaults to the origin
    burn_in_steps: int = 2000

    def __post_init__(self):
        if not (0.0 < self.dt <= 1.0):
            raise ValueError("dt must be in (0, 1], got %r" % (self.dt,))
        if self.burn_in_steps < 0:
            raise ValueError("burn_in_steps must be nonnegative")
        if self.burn_in_steps * self.dt > MAX_BURN_IN_TIME:
            raise ValueError("burn-in horizon exceeds %g time units" % MAX_BURN_IN_TIME)
        if self.x0 is not None:
            object.__setattr__(self, "x0",
                               np.atleast_1d(np.asarray(self.x0, dtype=float)))

    def initial_state(self, m: int) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(m)
        if self.x0.shape != (m,):
            raise ValueError("x0 has shape %s, expected (%d,)" % (self.x0.shape, m))
        return self.x0.copy()


def euler_step(model: DriftModelSpec, noise: NoiseSpec, x: np.ndarray,
               dt: float, xi: np.ndarray) -> np.ndarray:
    """x + f*(x) dt + sigma sqrt(dt) xi.  Vectorized over leading dims."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    out = x + model.true_drift_fn(x) * dt + np.sqrt(dt) * xi @ noise.sigma.T
    if not np.all(np.isfinite(out)) or np.any(np.abs(out) > DIVERGENCE_BOUND):
        raise DivergenceError("state diverged during Euler step", x=x, t=dt)
    return out


def simulate_path(model: DriftModelSpec, noise: NoiseSpec,
                  config: IntegratorConfig, seed: int,
                  n_steps: int) -> Iterator[Tuple[float, np.ndarray]]:
    """Yield (t, X_t) after burn-in; times run t = 1 + i dt, i = 1..n_steps.

    Deterministic given the seed.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    x = config.initial_state(model.m)
    for _ in range(config.burn_in_steps):
        x = euler_step(model, noise, x, config.dt, rng.standard_normal(model.m))
    for i in range(1, n_steps + 1):
        x = euler_step(model, noise, x, config.dt, rng.standard_normal(model.m))
        yield (1.0 + i * config.dt, x.copy())


def stationary_moment(model: DriftModelSpec, noise: NoiseSpec, power: int,
                      horizon: float, seed: int,
                      config: Optional[IntegratorConfig] = None) -> float:
    """Time average of ||X_t||^power over [0, horizon] after burn-in."""
    if power % 2 != 0 or power < 0:
        raise ValueError("power must be a nonnegative even integer")
    if horizon < 1e3:
        raise ValueError("horizon must be >= 1e3 time units")
    if power == 0:
        return 1.0
    if config is None:
        config = IntegratorConfig()
    n_steps = int(round(horizon / config.dt))
    total = 0.0
    for _, x in simulate_path(model, noise, config, seed, n_steps):
        total += float(np.linalg.norm(x)) ** power
    return total / n_steps


def dump_path_csv(path, times, xs) -> None:
    """CSV with header t,x_1,...,x_m, one row per checkpoint."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m = xs.shape[1]
    header = "t," + ",".join("x_%d" % (i + 1) for i in range(m))
    data = np.column_stack([np.asarray(times, dtype=float), xs])
    np.savetxt(path, data, delimiter=",", header=header, comments="",
               fmt="%.12g")


def load_path_csv(path):
    """Read a t,x_1..x_m CSV back into (times, states)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]
