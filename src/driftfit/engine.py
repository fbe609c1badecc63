"""Coupled simulation loop: the data process and the parameter update share
each Brownian increment, since the update is driven by the observed dX."""
from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Sequence

import numpy as np

from .models import DriftModelSpec, NoiseSpec
from .sde import DIVERGENCE_BOUND, IntegratorConfig
from .schedule import ScheduleSpec

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

THETA_BOUND_DEFAULT = 1e6
NOISE_BUFFER_BYTES = 8 * 2 ** 20  # standard normals drawn ahead, all replications
CHECK_EVERY = 256                 # steps between divergence screenings


class BlowupError(RuntimeError):
    def __init__(self, msg, step=None, t=None, theta=None):
        super().__init__(msg)
        self.step = step
        self.t = t
        self.theta = theta


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
    theta_bound: float = THETA_BOUND_DEFAULT

    def __post_init__(self):
        lo, hi = self.theta0_lo, self.theta0_hi
        if lo is None or hi is None:
            # default box: theta* +/- 1 when the truth is known, else [-1, 1]
            center = (self.model.true_theta if self.model.true_theta is not None
                      else np.zeros(self.model.k))
            lo = center - 1.0 if lo is None else lo
            hi = center + 1.0 if hi is None else hi
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.model.k,)).copy()
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.model.k,)).copy()
        if np.any(lo > hi):
            raise ValueError("theta0 box must satisfy lo <= hi componentwise")
        object.__setattr__(self, "theta0_lo", lo)
        object.__setattr__(self, "theta0_hi", hi)
        steps = (self.horizon - 1.0) / self.integrator.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("(horizon - 1) / dt = %r is not a whole number of "
                             "steps; the final checkpoint would be dropped" % steps)
        cps = np.sort(np.asarray(self.checkpoint_times, dtype=float).reshape(-1))
        if cps.size and (cps[0] < 1.0 - 1e-9 or cps[-1] > self.horizon + 1e-9):
            raise ValueError("checkpoint times must lie in [1, horizon]")
        object.__setattr__(self, "checkpoint_times", cps)

    def digest(self) -> str:
        payload = "|".join([
            self.model.name, repr(self.model.true_theta),
            repr(self.noise.sigma.tolist()),
            "%r,%r" % (self.schedule.c_alpha, self.schedule.c0),
            "%r,%r,%r" % (self.integrator.dt, self.integrator.burn_in_steps,
                          None if self.integrator.x0 is None
                          else self.integrator.x0.tolist()),
            repr(self.horizon), repr(self.checkpoint_times.tolist()),
            repr(self.theta0_lo.tolist()), repr(self.theta0_hi.tolist()),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class Trajectory:
    times: np.ndarray       # (n_cp,)
    thetas: np.ndarray      # (n_cp, k)
    xs: np.ndarray          # (n_cp, m)
    seed: int
    config_digest: str

    def dump_csv(self, path) -> None:
        k, m = self.thetas.shape[1], self.xs.shape[1]
        header = ("t,"
                  + ",".join("theta_%d" % (i + 1) for i in range(k)) + ","
                  + ",".join("x_%d" % (i + 1) for i in range(m)))
        data = np.column_stack([self.times, self.thetas, self.xs])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.12g")


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

    def ok_mask(self) -> np.ndarray:
        mask = np.ones(self.n_reps, dtype=bool)
        for i in self.failed:
            mask[i] = False
        return mask


def sgdct_step(model: DriftModelSpec, noise: NoiseSpec, schedule: ScheduleSpec,
               t: float, x: np.ndarray, theta: np.ndarray,
               delta_x: np.ndarray, dt: float) -> np.ndarray:
    """theta + alpha_t grad_theta f (sigma sigma^T)^-1 (delta_x - f dt).

    delta_x must be the same observed increment that advanced the state.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    delta_x = np.asarray(delta_x, dtype=float)
    a_t = schedule.c_alpha / (schedule.c0 + t)
    resid = delta_x - model.drift_fn(x, theta) * dt
    grad = model.drift_grad_fn(x, theta)
    out = theta + a_t * np.einsum("...km,mn,...n->...k", grad, noise.a_inv, resid)
    if not np.all(np.isfinite(out)):
        raise BlowupError("non-finite parameter update", t=t, theta=theta)
    return out


def run_batch(config: EngineConfig, seeds: Sequence[int]) -> ReplicationSet:
    """Advance n = len(seeds) independent replications in lock-step.

    Replication i consumes exactly the stream of Generator(PCG64(seeds[i])):
    first the uniform theta0 draw, then one standard-normal m-vector per
    step (burn-in included), so results are bitwise independent of how
    replications are grouped into batches.
    """
    model, noise, sched, integ = (config.model, config.noise,
                                  config.schedule, config.integrator)
    n = len(seeds)
    k, m = model.k, model.m
    dt = integ.dt
    sqdt = np.sqrt(dt)
    sigma_t = noise.sigma.T.copy()
    a_inv = noise.a_inv

    gens = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
    theta = np.empty((n, k))
    for i, g in enumerate(gens):
        theta[i] = g.uniform(config.theta0_lo, config.theta0_hi)
    x = np.tile(integ.initial_state(m), (n, 1))

    n_main = int(round((config.horizon - 1.0) / dt))
    cps = config.checkpoint_times
    n_cp = len(cps)
    rec_t = np.empty(n_cp)
    rec_theta = np.full((n_cp, n, k), np.nan)
    rec_x = np.full((n_cp, n, m), np.nan)
    failed: dict = {}
    alive = np.ones(n, dtype=bool)

    def _screen(step_idx):
        bad = (~np.isfinite(theta).all(axis=1)
               | ~np.isfinite(x).all(axis=1)
               | (np.abs(theta).max(axis=1) > config.theta_bound)
               | (np.abs(x).max(axis=1) > DIVERGENCE_BOUND))
        newly = bad & alive
        if newly.any():
            for i in np.nonzero(newly)[0]:
                failed[int(i)] = step_idx
            alive[newly] = False
            theta[newly] = 0.0
            x[newly] = 0.0

    cp_ptr = 0
    # checkpoints at (or numerically equal to) the initial time t = 1
    while cp_ptr < n_cp and cps[cp_ptr] <= 1.0 + 1e-12:
        rec_t[cp_ptr] = 1.0
        rec_theta[cp_ptr] = theta
        rec_x[cp_ptr] = x
        cp_ptr += 1

    total = integ.burn_in_steps + n_main
    step = 0
    # never larger than the run itself, so n = 1 runs allocate only what they use
    noise_chunk = max(1, min(total, NOISE_BUFFER_BYTES // (8 * n * m)))
    xi = np.empty((noise_chunk, n, m))
    # diverging replications may overflow between screenings; they are
    # zeroed out at the next _screen call, so suppress the transient warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while step < total:
            span = min(noise_chunk, total - step)
            for i, g in enumerate(gens):
                xi[:span, i, :] = g.standard_normal((span, m))
            for j in range(span):
                if step < integ.burn_in_steps:
                    x += model.true_drift_fn(x) * dt + sqdt * xi[j] @ sigma_t
                else:
                    nmain = step - integ.burn_in_steps  # completed main steps
                    t = 1.0 + nmain * dt
                    dx = model.true_drift_fn(x) * dt + sqdt * xi[j] @ sigma_t
                    resid = dx - model.drift_fn(x, theta) * dt
                    grad = model.drift_grad_fn(x, theta)
                    a_t = sched.c_alpha / (sched.c0 + t)
                    theta += a_t * np.einsum("nkm,mp,np->nk", grad, a_inv, resid)
                    x += dx
                    t_next = 1.0 + (nmain + 1) * dt
                    while cp_ptr < n_cp and cps[cp_ptr] <= t_next + 1e-12:
                        rec_t[cp_ptr] = t_next
                        rec_theta[cp_ptr] = theta
                        rec_x[cp_ptr] = x
                        cp_ptr += 1
                step += 1
                if step % CHECK_EVERY == 0:
                    _screen(step)
    _screen(step)
    for i in failed:
        rec_theta[:, i, :] = np.nan
        rec_x[:, i, :] = np.nan
    return ReplicationSet(rec_t[:cp_ptr], rec_theta[:cp_ptr], rec_x[:cp_ptr], failed,
                          model.true_theta)


def run(config: EngineConfig, seed: int) -> Trajectory:
    """One replication; deterministic given (config, seed)."""
    res = run_batch(config, [int(seed)])
    if res.failed:
        raise BlowupError("replication diverged at step %d" % res.failed[0],
                          step=res.failed[0])
    return Trajectory(times=res.times.copy(),
                      thetas=res.thetas[:, 0, :].copy(),
                      xs=res.xs[:, 0, :].copy(),
                      seed=int(seed),
                      config_digest=config.digest())
