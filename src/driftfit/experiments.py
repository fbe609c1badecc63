"""Experiment orchestration: each subcommand reproduces one of the
convergence-rate / CLT / regime predictions at desk scale and emits a
machine-readable report plus plot-ready CSV data."""
from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import List

import numpy as np

from . import covariance, models, poisson, stats
from .config import ConfigError, ExperimentConfig
from .engine import (EngineConfig, Trajectory, geometric_checkpoints, run,
                     seed_split, sgdct_step)
from .sde import IntegratorConfig, dump_path_csv, load_path_csv, simulate_path
from .schedule import ScheduleSpec, regime_check

VARIANCE_BAND = 0.15
ORACLE_BAND = 0.15
SLOPE_BAND_HALFWIDTH = 0.15
ROUTE_AGREEMENT_TOL = 1e-8


@dataclasses.dataclass
class Verdict:
    criterion: str
    measured: float
    band: tuple
    passed: bool

    def as_dict(self):
        return {"criterion": self.criterion, "measured": self.measured,
                "band": list(self.band), "passed": bool(self.passed)}


def build_model(cfg: ExperimentConfig):
    """(model, noise) of the catalog entry `model.name` names."""
    entry = models.BUILTIN_MODELS[cfg["model.name"]]
    return entry.factory(**{k: cfg["model." + k] for k in entry.keys})


def build_engine_config(cfg: ExperimentConfig, model, noise) -> EngineConfig:
    x0 = cfg.get("integrator.x0")
    integ = IntegratorConfig(dt=cfg["integrator.dt"],
                             x0=None if x0 is None else np.asarray(x0, dtype=float),
                             burn_in_steps=cfg["integrator.burn_in_steps"])
    sched = ScheduleSpec(c_alpha=cfg["schedule.c_alpha"], c0=cfg["schedule.c0"])
    horizon = cfg["horizon"]
    cps = geometric_checkpoints(horizon, cfg["checkpoints.n"])
    lo, hi = cfg.get("theta0.lo"), cfg.get("theta0.hi")
    return EngineConfig(model=model, noise=noise, schedule=sched,
                        integrator=integ, horizon=horizon,
                        checkpoint_times=cps,
                        theta0_lo=None if lo is None else np.asarray(lo, float),
                        theta0_hi=None if hi is None else np.asarray(hi, float))


def covariance_inputs(model, noise):
    """(Hessian, hbar) at theta*.

    The Hessian comes from the closed-form averaged objective; hbar is
    recomputed by stationary quadrature for scalar-state models so the
    two inputs stay independent.  For multi-dimensional state the
    Poisson correction vanishes at theta* for well-specified models and
    hbar coincides with the Hessian.
    """
    if model.true_theta is None or model.analytic is None:
        raise ConfigError("covariance prediction needs a built-in model "
                          "with theta* and analytic metadata")
    hessian = models.averaged_objective(model, model.true_theta).hessian
    if model.m == 1:
        hb = poisson.hbar(model, noise)
    else:
        hb = hessian.copy()
    return hessian, hb


def theta0_second_moment(config: EngineConfig) -> float:
    """E ||theta_0 - theta*||^2 for the uniform initialization box."""
    lo = config.theta0_lo - config.model.true_theta
    hi = config.theta0_hi - config.model.true_theta
    width = hi - lo
    out = 0.0
    for a, b, w in zip(lo, hi, width):
        out += (b ** 3 - a ** 3) / (3.0 * w) if w > 0 else a * a
    return float(out)


def _slope_window(cfg: ExperimentConfig):
    horizon = cfg["horizon"]
    lo = cfg.get("slope.window_lo", horizon / 100.0)
    hi = cfg.get("slope.window_hi", horizon)
    return lo, hi


def _write_moments_csv(path, curves):
    """curves: list of (p, times, values) -> CSV with columns t,p,value."""
    rows = []
    for p, times, values in curves:
        for t, v in zip(times, values):
            rows.append((t, p, v))
    with open(path, "w") as fh:
        fh.write("t,p,value\n")
        for t, p, v in rows:
            fh.write("%.12g,%g,%.12g\n" % (t, p, v))


def _write_sigma_csv(path, eigen_pred, quad_pred):
    k = eigen_pred.sigma_bar.shape[0]
    with open(path, "w") as fh:
        fh.write("i,j,sigma_eigen,sigma_quadrature\n")
        for i in range(k):
            for j in range(k):
                fh.write("%d,%d,%.8f,%.8f\n"
                         % (i + 1, j + 1, eigen_pred.sigma_bar[i, j],
                            quad_pred.sigma_bar[i, j]))


def _run_verify_clt(cfg, out_dir, artifacts) -> List[Verdict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    rep_set = stats.run_replications(engine_cfg, cfg["n_reps"], cfg["master_seed"])
    t_eval = cfg.get("t_eval", float(rep_set.times[-1]))
    idx = int(np.argmin(np.abs(rep_set.times - t_eval)))
    t_eval = float(rep_set.times[idx])
    sample = stats.rescaled_sample(rep_set, t_eval)

    hessian, hb = covariance_inputs(model, noise)
    pred = covariance.sigma_bar_eigen(hessian, hb, engine_cfg.schedule.c_alpha)
    report = stats.clt_diagnostics(sample, pred)
    report.t_eval = t_eval

    samples_path = out_dir / "clt_samples.csv"
    header = "rep," + ",".join("z_%d" % (i + 1) for i in range(sample.shape[1]))
    np.savetxt(samples_path,
               np.column_stack([np.arange(sample.shape[0]), sample]),
               delimiter=",", header=header, comments="", fmt="%.12g")
    quad = covariance.sigma_bar_quadrature(hessian, hb, engine_cfg.schedule.c_alpha)
    _write_sigma_csv(out_dir / "sigma_prediction.csv", pred, quad)
    artifacts += [str(samples_path), str(out_dir / "sigma_prediction.csv")]

    diag_ratio = np.diag(np.atleast_2d(report.variance_ratio))
    ks_max = float(report.ks_statistic.max())
    ks_crit = stats.KS_CRITICAL_1PCT / np.sqrt(report.n_samples)
    return [
        Verdict("clt_variance_ratio", float(np.max(np.abs(diag_ratio - 1.0))) + 1.0,
                (1.0 - VARIANCE_BAND, 1.0 + VARIANCE_BAND),
                bool(np.all((diag_ratio >= 1 - VARIANCE_BAND)
                            & (diag_ratio <= 1 + VARIANCE_BAND)))),
        Verdict("clt_ks_statistic", ks_max, (0.0, ks_crit), ks_max < ks_crit),
    ]


def _run_verify_rate(cfg, out_dir, artifacts) -> List[Verdict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    rep_set = stats.run_replications(engine_cfg, cfg["n_reps"], cfg["master_seed"])
    t2, m2 = stats.moment_curve(rep_set, 2.0)
    t4, m4 = stats.moment_curve(rep_set, 4.0)
    _write_moments_csv(out_dir / "moments.csv", [(2, t2, m2), (4, t4, m4)])
    artifacts.append(str(out_dir / "moments.csv"))

    hessian, hb = covariance_inputs(model, noise)
    c_min = float(np.linalg.eigvalsh(hessian).min())
    regime = regime_check(engine_cfg.schedule, c_min)
    window = _slope_window(cfg)
    s2 = stats.loglog_slope(t2, m2, window)
    s4 = stats.loglog_slope(t4, m4, window)
    if regime.regime == "supercritical":
        band2 = (-1.15, -0.85)
        band4 = (-2.35, -1.65)
    else:
        band2 = (regime.predicted_l2_slope - SLOPE_BAND_HALFWIDTH,
                 regime.predicted_l2_slope + SLOPE_BAND_HALFWIDTH)
        band4 = (2 * regime.predicted_l2_slope - 2 * SLOPE_BAND_HALFWIDTH,
                 2 * regime.predicted_l2_slope + 2 * SLOPE_BAND_HALFWIDTH)

    oracle_grid = np.geomspace(1.0, engine_cfg.horizon, 200)
    oracle_grid[0] = 1.0
    oracle_vals = covariance.moment_ode_oracle(
        c_min, float(np.trace(np.atleast_2d(hb))), engine_cfg.schedule,
        theta0_second_moment(engine_cfg), oracle_grid)
    tail = t2 >= 100.0
    if tail.any():
        oracle_tail = np.interp(t2[tail], oracle_grid, oracle_vals)
        rel = np.abs(m2[tail] / oracle_tail - 1.0)
        worst_rel = float(rel.max())
    else:
        worst_rel = np.nan
    return [
        Verdict("l2_slope", s2.slope, band2, band2[0] <= s2.slope <= band2[1]),
        Verdict("l4_slope", s4.slope, band4, band4[0] <= s4.slope <= band4[1]),
        Verdict("moment_ode_oracle_rel_error", worst_rel, (0.0, ORACLE_BAND),
                bool(worst_rel <= ORACLE_BAND) if np.isfinite(worst_rel) else False),
    ]


def _run_regime_sweep(cfg, out_dir, artifacts) -> List[Verdict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    hessian, _ = covariance_inputs(model, noise)
    c_min = float(np.linalg.eigvalsh(hessian).min())
    regime = regime_check(engine_cfg.schedule, c_min)
    rep_set = stats.run_replications(engine_cfg, cfg["n_reps"], cfg["master_seed"])
    t2, m2 = stats.moment_curve(rep_set, 2.0)
    _write_moments_csv(out_dir / "moments.csv", [(2, t2, m2)])
    artifacts.append(str(out_dir / "moments.csv"))
    s2 = stats.loglog_slope(t2, m2, _slope_window(cfg))
    band = (regime.predicted_l2_slope - SLOPE_BAND_HALFWIDTH,
            regime.predicted_l2_slope + SLOPE_BAND_HALFWIDTH)
    return [
        Verdict("regime_cc_alpha", regime.cc_alpha,
                (regime.cc_alpha, regime.cc_alpha), True),
        Verdict("regime_l2_slope", s2.slope, band,
                band[0] <= s2.slope <= band[1]),
    ]


def _run_predict_covariance(cfg, out_dir, artifacts) -> List[Verdict]:
    model, noise = build_model(cfg)
    sched = ScheduleSpec(c_alpha=cfg["schedule.c_alpha"], c0=cfg["schedule.c0"])
    hessian, hb = covariance_inputs(model, noise)
    pred = covariance.sigma_bar_eigen(hessian, hb, sched.c_alpha)
    quad = covariance.sigma_bar_quadrature(hessian, hb, sched.c_alpha)
    _write_sigma_csv(out_dir / "sigma_prediction.csv", pred, quad)
    artifacts.append(str(out_dir / "sigma_prediction.csv"))
    dev = float(np.abs(pred.sigma_bar - quad.sigma_bar).max())
    return [Verdict("sigma_route_agreement", dev, (0.0, ROUTE_AGREEMENT_TOL),
                    dev < ROUTE_AGREEMENT_TOL)]


def _run_poisson_solve(cfg, out_dir, artifacts) -> List[Verdict]:
    model, noise = build_model(cfg)
    if cfg.get("grid.lo") is not None:  # config admits grid.lo only with grid.hi
        grid = poisson.Grid1D(cfg["grid.lo"], cfg["grid.hi"], cfg["grid.n"])
    else:
        grid = poisson.default_grid(model, noise, cfg["grid.n"])
    theta_eval = cfg.get("model.theta_eval")
    theta = (model.true_theta if theta_eval is None
             else np.asarray(theta_eval, dtype=float))
    nodes = grid.nodes
    dens = poisson.stationary_density(model, noise, grid)
    thetas = np.broadcast_to(theta, (grid.n, model.k))
    grad_g = models.objective_grad(model, noise, nodes[:, None], thetas)
    gbar_grad = poisson.gbar_grad_quadrature(model, noise, theta, grid)
    sol = poisson.solve(model, noise,
                        lambda xv: gbar_grad[0] - np.interp(xv, nodes, grad_g[:, 0]),
                        grid)
    out_path = out_dir / "poisson_solution.csv"
    np.savetxt(out_path, np.column_stack([nodes, dens, sol.v, sol.dv_dx]),
               delimiter=",", header="x,pi,v,dv_dx", comments="", fmt="%.12g")
    artifacts.append(str(out_path))
    return [Verdict("poisson_residual_sup", sol.residual_sup, (0.0, 1e-4),
                    sol.residual_sup < 1e-4)]


def _replay_csv(engine_cfg: EngineConfig, times, xs, seed) -> Trajectory:
    """Drive the parameter update with externally observed increments."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    theta = rng.uniform(engine_cfg.theta0_lo, engine_cfg.theta0_hi)
    model, noise, sched = engine_cfg.model, engine_cfg.noise, engine_cfg.schedule
    rec_t, rec_theta, rec_x = [], [], []
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        if dt <= 0:
            raise ConfigError("replay CSV times must be strictly increasing")
        theta = sgdct_step(model, noise, sched, times[i], xs[i], theta,
                           xs[i + 1] - xs[i], dt)
        rec_t.append(times[i + 1])
        rec_theta.append(theta.copy())
        rec_x.append(xs[i + 1].copy())
    return Trajectory(times=np.asarray(rec_t), thetas=np.asarray(rec_theta),
                      xs=np.asarray(rec_x), seed=int(seed),
                      config_digest=engine_cfg.digest())


def _run_simulate(cfg, out_dir, artifacts) -> List[Verdict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    replay = cfg.get("data.path_csv")
    if replay is not None:
        times, xs = load_path_csv(replay)
        if xs.shape[1] != model.m:
            raise ConfigError("%s has %d state columns, but model %r has %d"
                              % (replay, xs.shape[1], model.name, model.m))
        traj = _replay_csv(engine_cfg, times, xs,
                           seed_split(cfg["master_seed"], 0))
        traj_path = out_dir / "trajectory.csv"
        traj.dump_csv(traj_path)
        artifacts.append(str(traj_path))
        return []
    n_steps = int(round((cfg["horizon"] - 1.0) / cfg["integrator.dt"]))
    stride = cfg["output.stride"]
    ts, states = [], []
    for i, (t, x) in enumerate(simulate_path(model, noise, engine_cfg.integrator,
                                             seed_split(cfg["master_seed"], 0),
                                             n_steps), start=1):
        if i % stride == 0:
            ts.append(t)
            states.append(x)
    path_csv = out_dir / "path.csv"
    dump_path_csv(path_csv, np.asarray(ts), np.asarray(states))
    artifacts.append(str(path_csv))
    return []


def _run_estimate(cfg, out_dir, artifacts) -> List[Verdict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    traj = run(engine_cfg, seed_split(cfg["master_seed"], 0))
    traj_path = out_dir / "rep_0.csv"
    traj.dump_csv(traj_path)
    artifacts.append(str(traj_path))
    verdicts = []
    if model.true_theta is not None:
        err = float(np.linalg.norm(traj.thetas[-1] - model.true_theta))
        verdicts.append(Verdict("final_theta_error", err, (0.0, np.inf), True))
    return verdicts


_RUNNERS = {
    "verify-clt": _run_verify_clt,
    "verify-rate": _run_verify_rate,
    "regime-sweep": _run_regime_sweep,
    "predict-covariance": _run_predict_covariance,
    "poisson-solve": _run_poisson_solve,
    "simulate": _run_simulate,
    "estimate": _run_estimate,
}


def run_experiment(cfg: ExperimentConfig, out_dir):
    """Execute the configured experiment; returns (report dict, exit status)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: List[str] = []
    start = time.monotonic()
    status = 0
    error = None
    verdicts: List[Verdict] = []
    try:
        verdicts = _RUNNERS[cfg["experiment"]](cfg, out_dir, artifacts)
        if any(not v.passed for v in verdicts):
            status = 1
    except Exception as exc:  # structured error record, nonzero exit
        error = {"type": type(exc).__name__, "message": str(exc)}
        status = 2
    report = {
        "experiment": cfg["experiment"],
        "config": cfg.echo(),
        "verdicts": [v.as_dict() for v in verdicts],
        "artifacts": sorted(artifacts),
        "error": error,
        "wall_clock": round(time.monotonic() - start, 3),
    }
    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, status
