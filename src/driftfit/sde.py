"""Euler-Maruyama simulation of the data process dX = f*(X) dt + sigma dW."""
from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple

import numpy as np

from . import _kernel
from .models import DriftModelSpec, NoiseSpec

DIVERGENCE_BOUND = 1e8
MAX_BURN_IN_TIME = 1e5
PATH_CHUNK = 4096  # the most steps simulate_path computes and yields at once
CSV_BLOCK = 4096   # rows write_csv formats at once


class DivergenceError(RuntimeError):
    def __init__(self, msg, x=None, t=None):
        super().__init__(msg)
        self.x = x  # the state the diverging step started from
        self.t = t  # its end time on the simulate_path clock (burn-in ends at 1)


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
        raise DivergenceError("state diverged during Euler step", x=x)
    return out


def simulate_path(model: DriftModelSpec, noise: NoiseSpec,
                  config: IntegratorConfig, seed: int,
                  n_steps: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (times, states) blocks of at most PATH_CHUNK rows after burn-in;
    the rows run t = 1 + i dt, i = 1..n_steps, with X_t in states.

    Deterministic given the seed.  The first step whose state is non-finite
    or exceeds DIVERGENCE_BOUND raises DivergenceError, after every state
    before it has been yielded.  The steps, burn-in included, run in chunks
    of PATH_CHUNK, in the kernel where `_kernel.bind_path` takes the model,
    else in the `euler_step` loop below, which defines them bitwise.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    m, dt = model.m, config.dt
    x = config.initial_state(m)

    def _numpy_steps(out):
        for j in range(len(out)):
            try:
                x[:] = euler_step(model, noise, x, dt, rng.standard_normal(m))
            except DivergenceError:
                return j
            out[j] = x
        return len(out)

    steps = _kernel.bind_path(model, noise, dt, DIVERGENCE_BOUND, rng, x) or _numpy_steps
    # burn-in is the steps i = 1 - burn_in_steps .. 0; step i ends at t = 1 + i dt
    for lo in range(1 - config.burn_in_steps, n_steps + 1, PATH_CHUNK):
        out = np.empty((min(PATH_CHUNK, n_steps + 1 - lo), m))
        done = steps(out)
        first = max(lo, 1)  # burn-in rows are not yielded
        if lo + done > first:
            yield 1.0 + np.arange(first, lo + done) * dt, out[first - lo:done]
        if done < len(out):
            raise DivergenceError("state diverged during Euler step", x=x,
                                  t=1.0 + (lo + done) * dt)


def write_csv(path, header, columns, fmt="%.12g") -> None:
    """The one artifact writer: a header line, then the columns side by side.
    fmt is one conversion for all columns, or one per column joined by commas."""
    table = np.column_stack(columns)
    row = (fmt if fmt.count("%") > 1 else ",".join([fmt] * table.shape[1])) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        # np.savetxt's bytes, from one % operation per block of rows instead
        # of one per row; the block bounds the memory the strings take
        for lo in range(0, len(table), CSV_BLOCK):
            block = table[lo:lo + CSV_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def dump_path_csv(path, times, xs) -> None:
    """CSV with header t,x_1,...,x_m, one row per checkpoint."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    header = "t," + ",".join("x_%d" % (i + 1) for i in range(xs.shape[1]))
    write_csv(path, header, [np.asarray(times, dtype=float), xs])


def load_path_csv(path):
    """Read a t,x_1..x_m CSV back into (times, states)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]
