"""Coupled simulation loop: the data process and the parameter update share
each Brownian increment, since the update is driven by the observed dX."""
from __future__ import annotations

import dataclasses
import hashlib
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


def splitmix64(x: int) -> int:
    """One splitmix64 draw seeded at x (advance by the golden gamma, then mix)."""
    z = (int(x) + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def seed_split(master: int, index: int) -> int:
    """Deterministic per-replication seed stream from a master seed."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return splitmix64((int(master) + index * _GOLDEN) & _MASK)


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
    theta* -/+ 1 where theta* is known, else -/+ 1."""
    center = model.true_theta if model.true_theta is not None else np.zeros(model.k)
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
    theta_star: Optional[np.ndarray]

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


def numpy_steps(config: EngineConfig, gens, theta: np.ndarray, x: np.ndarray):
    """advance(lo, hi): run steps [lo, hi) of `run_batch` in the numpy loop,
    which defines them, updating theta (n, k) and x (n, m) in place; replication
    i draws from gens[i].  The counterpart of `_kernel.bind`."""
    model, noise, sched, integ = (config.model, config.noise,
                                  config.schedule, config.integrator)
    n, m = x.shape
    dt = integ.dt
    sqdt = np.sqrt(dt)
    sigma_t = noise.sigma.T.copy()
    burn_in = integ.burn_in_steps
    total = burn_in + step_of(config.horizon, dt)
    # never larger than the run itself, so n = 1 runs allocate only what they use
    noise_chunk = max(1, min(total, NOISE_BUFFER_BYTES // (8 * max(n, 1) * m)))
    xi = np.empty((noise_chunk, n, m))

    def advance(lo, hi):
        for step in range(lo, hi):
            if step % noise_chunk == 0:  # xi holds the noise of this chunk's steps
                span = min(noise_chunk, total - step)
                for i, g in enumerate(gens):
                    xi[:span, i, :] = g.standard_normal((span, m))
            dx = model.true_drift_fn(x) * dt + sqdt * xi[step % noise_chunk] @ sigma_t
            nmain = step - burn_in  # completed main steps
            if nmain >= 0:  # in place: the screening and the checkpoints read theta
                theta[:] = sgdct_step(model, noise, sched, 1.0 + nmain * dt,
                                      x, theta, dx, dt)
            np.add(x, dx, out=x)  # in place, like theta

    return advance


def run_batch(config: EngineConfig, seeds: Sequence[int]) -> ReplicationSet:
    """Advance n = len(seeds) independent replications in lock-step.

    Replication i consumes exactly the stream of Generator(PCG64(seeds[i])):
    first the uniform theta0 draw, then one standard-normal m-vector per
    step (burn-in included), so results are bitwise independent of how
    replications are grouped into batches.

    Checkpoints at t = 1 are recorded before the burn-in: their xs hold x0,
    not the state after the burn-in.

    Python draws theta0, records checkpoints and screens for divergence; a
    failed replication runs on, booked once in `failed`, and ends as NaN rows.
    Between two such events the steps run in one call of the compiled
    kernel where `_kernel.bind` takes the model, else in `numpy_steps`,
    which defines them: the two agree bitwise.  Empty seeds
    give an empty ReplicationSet.
    """
    model, integ = config.model, config.integrator
    n = len(seeds)
    k, m = model.k, model.m
    dt = integ.dt

    gens = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
    theta = draw_theta0(config, gens)
    x = np.tile(integ.initial_state(m), (n, 1))

    burn_in = integ.burn_in_steps
    total = burn_in + step_of(config.horizon, dt)
    # a checkpoint is recorded after main step j = step_of(t), i.e. after
    # step burn_in + j; those at t = 1 (j = 0) at step 0, before the burn-in
    j = step_of(config.checkpoint_times, dt)
    rec_step = np.where(j > 0, burn_in + j, 0)
    rec_t = 1.0 + j * dt
    rec_theta = np.empty((len(j), n, k))
    rec_x = np.empty((len(j), n, m))
    failed: dict = {}

    advance = (_kernel.bind(config, gens, theta, x)
               or numpy_steps(config, gens, theta, x))
    # stop at each checkpoint's step (0 for t = 1, where advance runs no step)
    # and at each screening: every CHECK_EVERY-th step and the end; rec_step
    # is sorted, so each stop records rows [lo, hi)
    stops = np.union1d(np.append(rec_step, total),
                       np.arange(CHECK_EVERY, total, CHECK_EVERY))
    rows = zip(np.searchsorted(rec_step, stops, "left").tolist(),
               np.searchsorted(rec_step, stops, "right").tolist())
    step = 0
    # a diverging replication overflows, before its first screening and on
    # until the NaN fill below, so suppress the warnings it raises
    with np.errstate(over="ignore", invalid="ignore"):
        for stop, (lo, hi) in zip(stops.tolist(), rows):
            advance(step, stop)
            step = stop
            rec_theta[lo:hi] = theta
            rec_x[lo:hi] = x
            if step == total or 0 < step and step % CHECK_EVERY == 0:
                for i in np.flatnonzero(diverged(theta, x)).tolist():
                    failed.setdefault(i, step)
    rec_theta[:, list(failed)] = rec_x[:, list(failed)] = np.nan
    return ReplicationSet(rec_t, rec_theta, rec_x, failed, model.true_theta)

