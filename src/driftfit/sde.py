"""Euler-Maruyama simulation of the data process dX = f*(X) dt + sigma dW."""
from __future__ import annotations

import dataclasses
import functools
from typing import Iterator, Optional, Tuple

import numpy as np

from . import _kernel
from .models import DriftModelSpec, NoiseSpec

THETA_BOUND = 1e6        # the divergence screen's |theta| bound
DIVERGENCE_BOUND = 1e8   # its |x| bound
MAX_BURN_IN_TIME = 1e5
PATH_CHUNK = 4096  # the most steps simulate_path computes and yields at once
# rows write_csv formats at once: one block's lines are built in memory,
# in the kernel's buffer or in Python's % string, and then written
CSV_BLOCK = 4096
CSV_FMT = "%.12g"  # write_csv's default format, which the kernel also writes


class BlowupError(RuntimeError):
    def __init__(self, msg, step=None, t=None, theta=None):
        super().__init__(msg)
        self.step = step
        self.t = t
        self.theta = theta


def _past(a: np.ndarray, bound: float) -> np.ndarray:
    """Rows of a (n, c) with an entry past bound in absolute value or NaN,
    which fails every comparison; rows are checked only if min or max fails."""
    if a.size and a.min() >= -bound and a.max() <= bound:
        return np.zeros(len(a), dtype=bool)
    return ~(np.abs(a).max(axis=1) <= bound)


def diverged(theta=None, x=None) -> np.ndarray:
    """The one divergence rule: the rows whose theta (n, k) has an entry past
    THETA_BOUND or whose state (n, m) has one past DIVERGENCE_BOUND in
    absolute value, or either a non-finite entry.  An omitted array flags
    no row."""
    pairs = ((theta, THETA_BOUND), (x, DIVERGENCE_BOUND))
    rows = [_past(a, bound) for a, bound in pairs if a is not None]
    return rows[0] | rows[-1]  # rows[0] alone where one array is given


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
            raise ValueError("integrator.burn_in_steps %d at integrator.dt %r is a "
                             "burn-in of %r time units, past the limit of %g"
                             % (self.burn_in_steps, self.dt,
                                self.burn_in_steps * self.dt, MAX_BURN_IN_TIME))
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
    """x + f*(x) dt + sigma sqrt(dt) xi.  Vectorized over leading dims.  A
    diverging step is returned as it is; callers screen with `diverged`."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return x + model.true_drift_fn(x) * dt + np.sqrt(dt) * xi @ noise.sigma.T


def numpy_path(model: DriftModelSpec, noise: NoiseSpec, dt: float, seed: int,
               x: np.ndarray):
    """steps(out): run len(out) `euler_step`s in numpy on the normals of
    np.random.PCG64(seed), updating x in place, with the state after step j
    in out[j].  These define simulate_path's steps; the counterpart of
    `_kernel.bind_path`."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def steps(out):
        for j in range(len(out)):
            out[j] = x[:] = euler_step(model, noise, x, dt, rng.standard_normal(model.m))

    return steps


def simulate_path(model: DriftModelSpec, noise: NoiseSpec,
                  config: IntegratorConfig, seed: int,
                  n_steps: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (times, states) blocks of at most PATH_CHUNK rows after burn-in;
    the rows run t = 1 + i dt, i = 1..n_steps, with X_t in states.

    Deterministic given the seed.  The steps, burn-in included, run in chunks
    of PATH_CHUNK, in the kernel (`_kernel.bind_path`) where
    `_kernel.covering` gives a library for the model, else in `numpy_path`,
    which defines them bitwise.  Then `diverged` screens each chunk: its
    first flagged state, burn-in included, raises BlowupError after the
    states before it, with `t` its time and `step` the steps since the first
    burn-in step, as `run_batch` counts.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    m, dt, burn_in = model.m, config.dt, config.burn_in_steps
    x = config.initial_state(m)
    lib = _kernel.covering(model, noise)
    steps = (_kernel.bind_path(lib, model, noise, dt, seed, x) if lib
             else numpy_path(model, noise, dt, seed, x))
    # burn-in is the steps i = 1 - burn_in .. 0; step i ends at t = 1 + i dt
    for lo in range(1 - burn_in, n_steps + 1, PATH_CHUNK):
        out = np.empty((min(PATH_CHUNK, n_steps + 1 - lo), m))
        # a diverging state overflows on to the chunk's end, silently
        with np.errstate(over="ignore", invalid="ignore"):
            steps(out)
        bad = np.flatnonzero(diverged(x=out))
        done = bad[0] if bad.size else len(out)
        first = max(lo, 1)  # burn-in rows are not yielded
        if lo + done > first:
            yield 1.0 + np.arange(first, lo + done) * dt, out[first - lo:done]
        if bad.size:
            i = int(lo + done)
            t = 1.0 + i * dt
            raise BlowupError("state diverged at step %d (t = %r)" % (i + burn_in, t),
                              step=i + burn_in, t=t)


def percent_lines(block: np.ndarray, fmt: str = CSV_FMT) -> bytes:
    """The rows of block as CSV lines by Python's %, the bytes np.savetxt
    would write, from one % operation for the block instead of one per row.
    fmt is one conversion for all columns, or one per column joined by
    commas.  This defines write_csv's bytes."""
    row = (fmt if fmt.count("%") > 1 else ",".join([fmt] * block.shape[1])) + "\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode()


def write_csv(path, header, columns, fmt=CSV_FMT) -> None:
    """The one artifact writer: a header line, then the columns side by side,
    as `percent_lines` formats them, CSV_BLOCK rows at a time.  The default
    fmt's lines come from the compiled kernel (`_kernel.csv_lines`) where
    `_kernel.loaded` gives a library; % formats any other fmt, every block
    where no kernel is loaded, and each block with a cell outside the
    kernel's range."""
    table = np.column_stack(columns)
    lib = _kernel.loaded() if fmt == CSV_FMT else None
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode() + b"\n")
        for lo in range(0, len(table), CSV_BLOCK):
            block = table[lo:lo + CSV_BLOCK]
            text = _kernel.csv_lines(lib, block) if lib else None
            fh.write(percent_lines(block, fmt) if text is None else text)


def dump_path_csv(path, times, xs) -> None:
    """CSV with header t,x_1,...,x_m, one row per checkpoint."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    header = "t," + ",".join("x_%d" % (i + 1) for i in range(xs.shape[1]))
    write_csv(path, header, [np.asarray(times, dtype=float), xs])


def load_path_csv(path):
    """Read a t,x_1..x_m CSV back into (times, states) as np.loadtxt reads
    it: by `_kernel.csv_rows` where `_kernel.loaded` gives a library and the
    file lies in its grammar; a row np.loadtxt cannot read is named as data
    row N, counted from 1 as the rows it returns are."""
    read = functools.partial(np.loadtxt, delimiter=",", ndmin=2)
    lib, data, text = _kernel.loaded(), None, b""
    if lib:
        try:
            with open(path, "rb") as fh:
                text = fh.read()
        except OSError:  # np.loadtxt raises it, or reads what open cannot
            pass
    head = text.find(b"\n") + 1
    if head and text[:head].isascii() and b"\r" not in text[:head]:
        data = _kernel.csv_rows(lib, text, head)
    try:
        if data is None:
            data = read(path, skiprows=1)
    except ValueError as exc:
        with open(path) as fh:
            lines = fh.read().split("\n")[1:]
        # bisect: np.loadtxt reads lines[:lo], and not lines[:hi] if hi <= len
        lo, hi, rows = 0, len(lines) + 1, 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                lo, rows = mid, len(read(lines[:mid]))
            except ValueError:
                hi = mid
        if hi > len(lines):  # every line reads: no row is at fault
            raise
        raise ValueError("data row %d: %s" % (rows + 1, str(exc).split(" at row")[0])) from exc
    return data[:, 0], data[:, 1:]
