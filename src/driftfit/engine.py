"""Coupled simulation loop: the data process and the parameter update share
each Brownian increment, since the update is driven by the observed dX."""
from __future__ import annotations

import dataclasses
import hashlib
import operator
from typing import Dict, Optional, Sequence

import numpy as np

from . import _kernel
from .models import DriftModelSpec, NoiseSpec
from .sde import BlowupError, IntegratorConfig, diverged, write_csv
from .schedule import ScheduleSpec

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

NOISE_BUFFER_BYTES = 8 * 2 ** 20  # standard normals drawn ahead, all replications
CHECK_EVERY = 256                 # steps between divergence screenings


def splitmix64(x):
    """One splitmix64 draw seeded at x (advance by the golden gamma, then mix),
    in uint64 arithmetic, which wraps mod 2**64 (silently, on arrays): x an
    int below 2**64 (an int out) or a uint64 array (a uint64 array out)."""
    z = np.array(x, dtype=np.uint64, ndmin=1) + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return int(z[0]) if np.ndim(x) == 0 else z


def seed_split(master: int, index):
    """Deterministic per-replication seed stream from a master seed: the
    splitmix64 draw seeded at master + index * golden mod 2**64, for an int
    index (an int out) or an integer array of them (a uint64 array out)."""
    i = np.array(index, ndmin=1)
    if (i < 0).any():
        raise ValueError("index must be nonnegative")
    z = splitmix64(np.uint64(int(master) & _MASK) + i.astype(np.uint64) * np.uint64(_GOLDEN))
    return int(z[0]) if np.ndim(index) == 0 else z


def seed_array(seeds) -> np.ndarray:
    """run_batch's seeds, one per replication, as a C-contiguous uint64
    array: each an integer in [0, 2**64), the range seed_split makes.  An
    integer array is read as it is.  ValueError for a negative seed, as
    np.random.PCG64 raises, or one past 2**64 - 1; TypeError for one that
    is not an integer."""
    if isinstance(seeds, np.ndarray) and seeds.ndim == 1 and seeds.dtype.kind in "ui":
        if seeds.dtype.kind == "i" and np.any(seeds < 0):
            raise ValueError("expected non-negative integer")
        return np.ascontiguousarray(seeds, dtype=np.uint64)
    ints = [operator.index(s) for s in seeds]
    if ints and min(ints) < 0:
        raise ValueError("expected non-negative integer")
    if ints and max(ints) > _MASK:
        raise ValueError("a seed must be below 2**64, not %d" % max(ints))
    return np.array(ints, dtype=np.uint64)


def step_of(t, dt: float, what: str = "time", exact: bool = False):
    """The first main step j whose end time 1 + j dt reaches t, an end time
    up to min(0.25, 1e-9 max(1, |s|)) steps short of t, s = (t - 1) / dt,
    counting as reaching it: an int64, or an array for an array of times.
    The cap keeps the tolerance below half a step once s passes 2.5e8.
    ValueError naming `what` for a t that is not finite, lies before t = 1
    or needs more than 2**53 steps, or, if `exact`, that lies farther than
    that tolerance from 1 + j dt."""
    s = (np.asarray(t, dtype=float) - 1.0) / dt
    tol = np.minimum(0.25, 1e-9 * np.maximum(1.0, np.abs(s)))
    if not np.all(np.isfinite(s) & (s >= -tol)):
        raise ValueError("%s %r must be finite and at least 1"
                         % (what, np.asarray(t).tolist()))
    j = np.ceil(s - tol)
    if np.any(j > 2.0 ** 53):
        raise ValueError("%s %r lies %r steps of dt = %r after t = 1; a step "
                         "count must not pass 2**53"
                         % (what, np.asarray(t).tolist(), float(j.max()), dt))
    if exact and not np.all(j - s <= tol):
        raise ValueError("(%s - 1) / dt = %r is not a whole number of steps; "
                         "no step ends at %s" % (what, s.tolist(), what))
    return j.astype(np.int64)[()]


def theta0_box(model: DriftModelSpec, lo=None, hi=None) -> tuple:
    """(lo, hi), each (k,), of the uniform theta0 draw; an unset side is
    theta* -/+ 1."""
    center = model.true_theta
    return (np.full(model.k, center - 1.0 if lo is None else lo, dtype=float),
            np.full(model.k, center + 1.0 if hi is None else hi, dtype=float))


def geometric_checkpoints(horizon: float, n: int = 60) -> np.ndarray:
    """Log-uniform checkpoint grid t_j = r^j covering [1, horizon]."""
    if horizon <= 1:
        raise ValueError("horizon must exceed the initial time t = 1")
    return np.geomspace(1.0, float(horizon), n)


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    model: DriftModelSpec
    noise: NoiseSpec
    schedule: ScheduleSpec
    integrator: IntegratorConfig
    horizon: float
    checkpoint_times: np.ndarray
    theta0_lo: Optional[np.ndarray] = None
    theta0_hi: Optional[np.ndarray] = None

    def __post_init__(self):
        lo, hi = theta0_box(self.model, self.theta0_lo, self.theta0_hi)
        if np.any(lo > hi):
            raise ValueError("theta0 box must satisfy lo <= hi componentwise")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(hi - lo)):  # as Generator.uniform requires
                raise ValueError("theta0 box [%s, %s] must have a finite width"
                                 % (lo.tolist(), hi.tolist()))
        object.__setattr__(self, "theta0_lo", lo)
        object.__setattr__(self, "theta0_hi", hi)
        dt = self.integrator.dt
        last = step_of(self.horizon, dt, "horizon", exact=True)
        cps = np.sort(np.asarray(self.checkpoint_times, dtype=float).reshape(-1))
        # run_batch records every checkpoint admitted here, at its step_of
        if step_of(cps, dt, "checkpoint times").max(initial=0) > last:
            raise ValueError("checkpoint times must lie in [1, horizon]")
        object.__setattr__(self, "checkpoint_times", cps)


@dataclasses.dataclass
class ReplicationSet:
    """Replications advanced in lock-step by `run_batch`, one column each."""

    times: np.ndarray               # (n_cp,) actual grid times recorded
    thetas: np.ndarray              # (n_cp, n_reps, k); NaN rows for failed reps
    xs: np.ndarray                  # (n_cp, n_reps, m)
    failed: Dict[int, int]          # replication position -> failing step
    theta_star: np.ndarray

    @property
    def n_reps(self) -> int:
        return self.thetas.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.times).tobytes())
        h.update(np.ascontiguousarray(self.thetas).tobytes())
        h.update(repr(sorted(self.failed.items())).encode())
        return h.hexdigest()

    def dump_csv(self, path) -> None:
        """Replication 0 as rows t,theta_1..theta_k,x_1..x_m."""
        k, m = self.thetas.shape[2], self.xs.shape[2]
        header = ("t,"
                  + ",".join("theta_%d" % (i + 1) for i in range(k)) + ","
                  + ",".join("x_%d" % (i + 1) for i in range(m)))
        write_csv(path, header, [self.times, self.thetas[:, 0], self.xs[:, 0]])

    def ok_mask(self) -> np.ndarray:
        mask = np.ones(self.n_reps, dtype=bool)
        mask[list(self.failed)] = False
        return mask


def sgdct_step(model: DriftModelSpec, noise: NoiseSpec, schedule: ScheduleSpec,
               t: float, x: np.ndarray, theta: np.ndarray,
               delta_x: np.ndarray, dt: float) -> np.ndarray:
    """theta + alpha_t grad_theta f (sigma sigma^T)^-1 (delta_x - f dt).

    delta_x must be the same observed increment that advanced the state.
    Leading axes of x, theta and delta_x are replications.  A diverging
    update is returned as it is; callers screen for non-finite values.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    delta_x = np.asarray(delta_x, dtype=float)
    a_t = schedule.alpha(t)
    resid = delta_x - model.drift_fn(x, theta) * dt
    grad = model.drift_grad_fn(x, theta)
    return theta + a_t * np.einsum("...km,mn,...n->...k", grad, noise.a_inv, resid)


def draw_theta0(config: EngineConfig, gens) -> np.ndarray:
    """Row i of theta0 from gens[i]: Generator.uniform(lo, hi) in the config's
    box, which is lo + (hi - lo) next_double, k draws in order."""
    u = np.empty((len(gens), config.model.k))
    for g, row in zip(gens, u):
        g.random(out=row)
    return config.theta0_lo + (config.theta0_hi - config.theta0_lo) * u


def numpy_replay(config: EngineConfig, times: np.ndarray, xs: np.ndarray,
                 theta: np.ndarray) -> np.ndarray:
    """The CSV replay's updates from theta in numpy, which defines them: row i
    is `sgdct_step` i, on the increments to row i + 1 of (times, xs).  The
    counterpart of `_kernel.replay`."""
    out = np.empty((len(times) - 1, len(theta)))
    for i in range(len(times) - 1):
        theta = out[i] = sgdct_step(
            config.model, config.noise, config.schedule, times[i], xs[i], theta,
            xs[i + 1] - xs[i], times[i + 1] - times[i])
    return out


def record_steps(config: EngineConfig):
    """(j, rec_step, total): each checkpoint's main step j = step_of(t), the
    step after which run_batch records it, burn_in + j, or 0 for t = 1 (j =
    0), before the burn-in; and the run's steps, burn-in included."""
    burn_in, dt = config.integrator.burn_in_steps, config.integrator.dt
    j = step_of(config.checkpoint_times, dt)
    return j, np.where(j > 0, burn_in + j, 0), burn_in + int(step_of(config.horizon, dt))


def numpy_batch(config: EngineConfig, seeds, rec_step: np.ndarray, total: int):
    """(rec_theta, rec_x, fail) of `run_batch` in numpy, which defines them:
    replication i draws from Generator(PCG64(seeds[i])), the seeds read by
    `seed_array`: first theta0 (`draw_theta0`), then one normal m-vector per
    step.  For s = 0..total in order, as the kernel's `lanes` loop runs
    them: the rows of the sorted rec_step equal to s get theta and x after s
    steps, in rec_theta (nrec, n, k) and rec_x (nrec, n, m); `diverged`
    screens at each positive multiple of CHECK_EVERY and at total, and fail
    (n,) holds each replication's first flagged s, or -1; then step s + 1
    runs, its noise drawn ahead in chunks.  The counterpart of
    `_kernel.batch`."""
    model, noise, sched, integ = (config.model, config.noise,
                                  config.schedule, config.integrator)
    seeds = seed_array(seeds).tolist()
    n, m, dt, burn_in = len(seeds), model.m, integ.dt, integ.burn_in_steps
    sqdt = np.sqrt(dt)
    sigma_t = noise.sigma.T.copy()
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    theta = draw_theta0(config, gens)
    x = np.tile(integ.initial_state(m), (n, 1))
    rec_theta = np.empty((len(rec_step), n, model.k))
    rec_x = np.empty((len(rec_step), n, m))
    fail = np.full(n, -1, dtype=np.int64)
    # never larger than the run itself, so n = 1 runs allocate only what they use
    noise_chunk = max(1, min(total, NOISE_BUFFER_BYTES // (8 * max(n, 1) * m)))
    xi = np.empty((noise_chunk, n, m))
    recorded, rec = rec_step.tolist(), 0
    # a diverging replication overflows, before its first screening and on
    # to the end, so suppress the warnings it raises
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(total + 1):
            while rec < len(recorded) and recorded[rec] == step:
                rec_theta[rec], rec_x[rec] = theta, x
                rec += 1
            if step == total or 0 < step and step % CHECK_EVERY == 0:
                fail[(fail < 0) & diverged(theta, x)] = step
            if step == total:
                break
            if step % noise_chunk == 0:  # xi holds the noise of this chunk's steps
                span = min(noise_chunk, total - step)
                for i, g in enumerate(gens):
                    xi[:span, i, :] = g.standard_normal((span, m))
            dx = model.true_drift_fn(x) * dt + sqdt * xi[step % noise_chunk] @ sigma_t
            nmain = step - burn_in  # completed main steps
            if nmain >= 0:
                theta = sgdct_step(model, noise, sched, 1.0 + nmain * dt, x, theta,
                                   dx, dt)
            x += dx
    return rec_theta, rec_x, fail


def run_batch(config: EngineConfig, seeds: Sequence[int]) -> ReplicationSet:
    """Advance n = len(seeds) independent replications in lock-step.

    Replication i consumes exactly the stream of Generator(PCG64(seeds[i])),
    each seed an integer in [0, 2**64) (`seed_array`, which raises before
    any step for another): first the uniform theta0 draw, then one
    standard-normal m-vector per step (burn-in included), so results are
    bitwise independent of how replications are grouped into batches.

    Checkpoints at t = 1 are recorded before the burn-in: their xs hold x0,
    not the state after the burn-in.

    The run is one call of the compiled kernel, `_kernel.batch`, where
    `_kernel.covering` gives a library for the model: it seeds each
    replication's PCG64 from its integer seed, draws theta0, records the
    checkpoints and screens for divergence at every CHECK_EVERY-th step and
    the last.  Else it runs in `numpy_batch`,
    which defines it: the two agree bitwise.  A failed replication runs on;
    `failed` books each one at its first flagged step, in order of step,
    then of replication, and its rows end as NaN.  Empty seeds give an
    empty ReplicationSet.
    """
    j, rec_step, total = record_steps(config)
    lib = _kernel.covering(config.model, config.noise)
    rec_theta, rec_x, fail = (_kernel.batch(lib, config, seeds, rec_step, total) if lib
                              else numpy_batch(config, seeds, rec_step, total))
    bad = np.flatnonzero(fail >= 0)
    bad = bad[np.argsort(fail[bad], kind="stable")]
    rec_theta[:, bad] = rec_x[:, bad] = np.nan
    return ReplicationSet(1.0 + j * config.integrator.dt, rec_theta, rec_x,
                          dict(zip(bad.tolist(), fail[bad].tolist())),
                          config.model.true_theta)
