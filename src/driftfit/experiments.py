"""Experiment orchestration: each subcommand reproduces one of the
convergence-rate / CLT / regime predictions at desk scale and emits a
machine-readable report plus plot-ready CSV data."""
from __future__ import annotations

import dataclasses
import json
import time
import warnings
from pathlib import Path
from typing import List, NamedTuple

import numpy as np

from . import _kernel, covariance, engine, models, poisson, sde, stats
from .config import ConfigError, ExperimentConfig, slope_window
# bench/tracing.py wraps experiments.sgdct_step by name
from .engine import (EngineConfig, ReplicationSet, geometric_checkpoints, seed_split,
                     sgdct_step, step_of, theta0_box)  # noqa: F401
from .sde import (DIVERGENCE_BOUND, BlowupError, IntegratorConfig, diverged,
                  dump_path_csv, load_path_csv, simulate_path, write_csv)
from .schedule import RegimeReport, ScheduleSpec, regime_check

VARIANCE_BAND = 0.15
ORACLE_BAND = 0.15
SLOPE_BAND_HALFWIDTH = 0.15
ROUTE_AGREEMENT_TOL = 1e-8


def verdict(criterion: str, measured: float, band: tuple, passed) -> dict:
    """One check's record, as report.json holds it."""
    return {"criterion": criterion, "measured": measured, "band": list(band),
            "passed": bool(passed)}


def build_model(cfg: ExperimentConfig):
    """(model, noise) of the catalog entry `model.name` names."""
    name = cfg["model.name"]
    return models.BUILTIN_MODELS[name](**{k: cfg["model." + k]
                                          for k in models.config_keys(name)})


def _list_value(cfg: ExperimentConfig, key: str, sizes: tuple, model, what: str):
    """cfg[key] as an array, or None where it is unset; a ConfigError unless it
    has one of `sizes` entries (`what` names the model's matching size)."""
    val = cfg.get(key)
    if val is not None and len(val) not in sizes:
        raise ConfigError("%s has %d entries, but model %r has %s"
                          % (key, len(val), model.name, what))
    return None if val is None else np.asarray(val, dtype=float)


def build_engine_config(cfg: ExperimentConfig, model, noise) -> EngineConfig:
    x0 = _list_value(cfg, "integrator.x0", (model.m,), model,
                     "state dimension %d" % model.m)
    if x0 is not None and np.abs(x0).max() > DIVERGENCE_BOUND:
        raise ConfigError("integrator.x0 %s is past the divergence bound %g"
                          % (x0.tolist(), DIVERGENCE_BOUND))
    integ = IntegratorConfig(dt=cfg["integrator.dt"], x0=x0,
                             burn_in_steps=cfg["integrator.burn_in_steps"])
    sched = ScheduleSpec(c_alpha=cfg["schedule.c_alpha"], c0=cfg["schedule.c0"])
    horizon = cfg["horizon"]
    cps = geometric_checkpoints(horizon, cfg["checkpoints.n"])
    lo, hi = (_list_value(cfg, key, (1, model.k), model, "%d parameters (one "
                          "entry is broadcast to all)" % model.k)
              for key in ("theta0.lo", "theta0.hi"))
    lo, hi = theta0_box(model, lo, hi)  # an unset side takes its default
    if np.any(lo > hi):
        raise ConfigError("theta0.lo %s exceeds theta0.hi %s (an unset one is theta* "
                          "-/+ 1)" % (lo.tolist(), hi.tolist()))
    if np.abs([lo, hi]).max() > sde.THETA_BOUND:
        raise ConfigError("theta0.lo %s or theta0.hi %s is past the divergence bound "
                          "%g on |theta| (an unset one is theta* -/+ 1)"
                          % (lo.tolist(), hi.tolist(), sde.THETA_BOUND))
    return EngineConfig(model=model, noise=noise, schedule=sched,
                        integrator=integ, horizon=horizon, checkpoint_times=cps,
                        theta0_lo=lo, theta0_hi=hi)


def covariance_inputs(model, noise):
    """(Hessian, hbar) at theta*.

    The Hessian is the one the model's analytic metadata declares; hbar is
    recomputed by stationary quadrature for scalar-state models so the
    two inputs stay independent.  For multi-dimensional state the
    Poisson correction vanishes at theta* for well-specified models and
    hbar coincides with the Hessian.
    """
    if model.analytic is None:
        raise ConfigError("covariance prediction needs a model with analytic "
                          "metadata")
    hessian = model.analytic.hessian
    return hessian, poisson.hbar(model, noise) if model.m == 1 else hessian.copy()


def theta0_second_moment(config: EngineConfig) -> float:
    """E ||theta_0 - theta*||^2 for the uniform initialization box."""
    lo = config.theta0_lo - config.model.true_theta
    hi = config.theta0_hi - config.model.true_theta
    width = hi - lo
    out = 0.0
    for a, b, w in zip(lo, hi, width):
        out += (b ** 3 - a ** 3) / (3.0 * w) if w > 0 else a * a
    return float(out)


def _predict_covariance(model, noise, c_alpha, out_dir, artifacts):
    """(eigen, quadrature) CLT covariance at theta*, written to sigma_prediction.csv.
    The eigen route refuses a regime with no limiting covariance."""
    hessian, hb = covariance_inputs(model, noise)
    pred = covariance.sigma_bar_eigen(hessian, hb, c_alpha)
    quad = covariance.sigma_bar_quadrature(hessian, hb, c_alpha)
    i, j = np.indices(pred.shape) + 1
    path = out_dir / "sigma_prediction.csv"
    write_csv(path, "i,j,sigma_eigen,sigma_quadrature",
              [i.ravel(), j.ravel(), pred.ravel(), quad.ravel()],
              fmt="%d,%d,%.8f,%.8f")
    artifacts.append(str(path))
    return pred, quad


def _run_verify_clt(cfg, out_dir, artifacts) -> List[dict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    # the prediction checks the regime, so a violation fails before any replication
    pred, _ = _predict_covariance(model, noise, cfg["schedule.c_alpha"], out_dir,
                                  artifacts)
    # record t_eval itself, not the geometric checkpoint nearest it; the grid
    # already ends at the horizon, the default
    t_eval = cfg.get("t_eval", engine_cfg.horizon)
    engine_cfg = dataclasses.replace(engine_cfg, checkpoint_times=np.union1d(
        engine_cfg.checkpoint_times, [t_eval]))
    rep_set = stats.run_replications(engine_cfg, cfg["n_reps"], cfg["master_seed"])
    sample = stats.rescaled_sample(rep_set, t_eval)
    report = stats.clt_diagnostics(sample, pred)

    samples_path = out_dir / "clt_samples.csv"
    header = "rep," + ",".join("z_%d" % (i + 1) for i in range(sample.shape[1]))
    write_csv(samples_path, header, [np.arange(sample.shape[0]), sample])
    artifacts.append(str(samples_path))

    diag_ratio = np.diag(np.atleast_2d(report.variance_ratio))
    ks_max = float(report.ks_statistic.max())
    ks_crit = stats.KS_CRITICAL_1PCT / np.sqrt(report.n_samples)
    return [
        verdict("clt_variance_ratio", float(np.max(np.abs(diag_ratio - 1.0))) + 1.0,
                (1.0 - VARIANCE_BAND, 1.0 + VARIANCE_BAND),
                bool(np.all((diag_ratio >= 1 - VARIANCE_BAND)
                            & (diag_ratio <= 1 + VARIANCE_BAND)))),
        verdict("clt_ks_statistic", ks_max, (0.0, ks_crit), ks_max < ks_crit),
    ]


class _RateStudy(NamedTuple):
    engine_cfg: EngineConfig
    regime: RegimeReport
    c_min: float           # smallest Hessian eigenvalue at theta*
    hbar: np.ndarray
    curves: dict           # p -> (times, E ||theta_t - theta*||^p)
    slopes: dict           # p -> SlopeEstimate over the slope window
    l2_band: tuple         # predicted l2 slope +- SLOPE_BAND_HALFWIDTH


def _rate_study(cfg, out_dir, artifacts, powers) -> _RateStudy:
    """The part verify-rate and regime-sweep share: classify the regime, run
    the replications, write moments.csv (one curve per power p) and fit each
    curve's log-log slope."""
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    hessian, hb = covariance_inputs(model, noise)
    c_min = covariance.positive_curvature(np.linalg.eigvalsh(hessian))
    regime = regime_check(engine_cfg.schedule, c_min)
    rep_set = stats.run_replications(engine_cfg, cfg["n_reps"], cfg["master_seed"])
    curves = {p: stats.moment_curve(rep_set, float(p)) for p in powers}
    write_csv(out_dir / "moments.csv", "t,p,value",
              [np.concatenate([curves[p][0] for p in powers]),
               np.repeat(powers, len(rep_set.times)),
               np.concatenate([curves[p][1] for p in powers])])
    artifacts.append(str(out_dir / "moments.csv"))
    window = slope_window(cfg.values)
    slopes = {p: stats.loglog_slope(*curves[p], window) for p in powers}
    pred = regime.predicted_l2_slope
    return _RateStudy(engine_cfg, regime, c_min, hb, curves, slopes,
                      (pred - SLOPE_BAND_HALFWIDTH, pred + SLOPE_BAND_HALFWIDTH))


def _run_verify_rate(cfg, out_dir, artifacts) -> List[dict]:
    study = _rate_study(cfg, out_dir, artifacts, (2, 4))
    engine_cfg, band2 = study.engine_cfg, study.l2_band
    band4 = ((-2.35, -1.65) if study.regime.regime == "supercritical"
             else (2 * band2[0], 2 * band2[1]))
    s2, s4 = study.slopes[2], study.slopes[4]

    oracle_grid = geometric_checkpoints(engine_cfg.horizon, 200)
    oracle_vals = covariance.moment_ode_oracle(
        study.c_min, float(np.trace(np.atleast_2d(study.hbar))), engine_cfg.schedule,
        theta0_second_moment(engine_cfg), oracle_grid)
    t2, m2 = study.curves[2]
    tail = t2 >= 100.0
    rel = np.abs(m2[tail] / np.interp(t2[tail], oracle_grid, oracle_vals) - 1.0)
    worst_rel = float(rel.max()) if tail.any() else np.nan
    return [
        verdict("l2_slope", s2.slope, band2, band2[0] <= s2.slope <= band2[1]),
        verdict("l4_slope", s4.slope, band4, band4[0] <= s4.slope <= band4[1]),
        verdict("moment_ode_oracle_rel_error", worst_rel, (0.0, ORACLE_BAND),
                worst_rel <= ORACLE_BAND),  # False for NaN, no checkpoint past t = 100
    ]


def _run_regime_sweep(cfg, out_dir, artifacts) -> List[dict]:
    study = _rate_study(cfg, out_dir, artifacts, (2,))
    cc, slope, band = study.regime.cc_alpha, study.slopes[2].slope, study.l2_band
    return [verdict("regime_cc_alpha", cc, (cc, cc), True),
            verdict("regime_l2_slope", slope, band, band[0] <= slope <= band[1])]


def _run_predict_covariance(cfg, out_dir, artifacts) -> List[dict]:
    model, noise = build_model(cfg)
    pred, quad = _predict_covariance(model, noise, cfg["schedule.c_alpha"], out_dir,
                                     artifacts)
    dev = float(np.abs(pred - quad).max())
    return [verdict("sigma_route_agreement", dev, (0.0, ROUTE_AGREEMENT_TOL),
                    dev < ROUTE_AGREEMENT_TOL)]


def _run_poisson_solve(cfg, out_dir, artifacts) -> List[dict]:
    model, noise = build_model(cfg)
    if cfg.get("grid.lo") is not None:  # config admits grid.lo only with grid.hi
        grid = poisson.Grid1D(cfg["grid.lo"], cfg["grid.hi"], cfg["grid.n"])
    else:
        grid = poisson.default_grid(model, noise, cfg["grid.n"])
    theta_eval = _list_value(cfg, "model.theta_eval", (model.k,), model,
                             "%d parameters" % model.k)
    theta = model.true_theta if theta_eval is None else theta_eval
    dens = poisson.stationary_density(model, noise, grid)
    sol = poisson.corrections(model, noise, theta, grid, dens)[0]
    out_path = out_dir / "poisson_solution.csv"
    write_csv(out_path, "x,pi,v,dv_dx", [grid.nodes, dens, sol.v, sol.dv_dx])
    artifacts.append(str(out_path))
    return [verdict("poisson_residual_sup", sol.residual_sup, (0.0, 1e-4),
                    sol.residual_sup < 1e-4)]


def _replay_csv(engine_cfg: EngineConfig, times, xs, seed) -> ReplicationSet:
    """Drive the parameter update with externally observed increments.

    Update i runs at times[i] on the increments to row i + 1.  The updates
    run in the compiled kernel (`_kernel.replay`) where `_kernel.covering`
    gives a library for the model, else in `engine.numpy_replay`, which
    defines them: the two agree bitwise.  Every update runs; then the first
    one whose theta `diverged` flags raises BlowupError with the theta it
    started from.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    theta0 = engine.draw_theta0(engine_cfg, [rng])[0]
    lib = _kernel.covering(engine_cfg.model, engine_cfg.noise)
    # a diverging theta overflows on to the last update, silently
    with np.errstate(over="ignore", invalid="ignore"):
        updates = (_kernel.replay(lib, engine_cfg, times, xs, theta0) if lib
                   else engine.numpy_replay(engine_cfg, times, xs, theta0))
    bad = np.flatnonzero(diverged(updates))
    if bad.size:
        i = int(bad[0])
        raise BlowupError("parameter update %d diverged (t = %r)" % (i, float(times[i])),
                          step=i, t=times[i], theta=updates[i - 1] if i else theta0)
    return ReplicationSet(times[1:], updates[:, None, :], xs[1:, None, :], {},
                          engine_cfg.model.true_theta)


def _check_replay_rows(path, times, xs) -> None:
    """Reject a replay CSV the updates could not run on, before any update."""
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise ConfigError("%s: time on data row %d is %r; replay times must be finite"
                          % (path, bad[0] + 1, float(times[bad[0]])))
    bad = np.flatnonzero(~(np.diff(times) > 0))
    if bad.size:
        raise ConfigError("%s: time on data row %d is not above the one before; "
                          "replay times must be strictly increasing" % (path, bad[0] + 2))
    bad = np.flatnonzero(~np.isfinite(xs).all(axis=1))
    if bad.size:
        raise ConfigError("%s: state on data row %d is not finite" % (path, bad[0] + 1))


def _run_simulate(cfg, out_dir, artifacts) -> List[dict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    replay = cfg.get("data.path_csv")
    if replay is not None:
        try:
            with warnings.catch_warnings():  # np.loadtxt's on a file of no rows
                warnings.simplefilter("ignore", UserWarning)
                times, xs = load_path_csv(replay)
        except (OSError, ValueError) as exc:
            raise ConfigError("%s: cannot be read as a replay CSV, a header line "
                              "and rows t,x_1,...,x_m of numbers (%s)"
                              % (replay, exc)) from exc
        if len(times) < 2:
            raise ConfigError("%s has %d row%s; a replay needs an increment"
                              % (replay, len(times), "" if len(times) == 1 else "s"))
        if xs.shape[1] != model.m:
            raise ConfigError("%s has %d state columns, but model %r has %d"
                              % (replay, xs.shape[1], model.name, model.m))
        _check_replay_rows(replay, times, xs)
        if engine_cfg.schedule.c0 + times[0] <= 0:
            raise ConfigError("%s starts at t = %r, where the learning rate "
                              "C_alpha / (C_0 + t) is undefined or negative "
                              "(schedule.c0 = %r)"
                              % (replay, float(times[0]), engine_cfg.schedule.c0))
        replayed = _replay_csv(engine_cfg, times, xs, seed_split(cfg["master_seed"], 0))
        traj_path = out_dir / "trajectory.csv"
        replayed.dump_csv(traj_path)
        artifacts.append(str(traj_path))
        return []
    n_steps = step_of(cfg["horizon"], cfg["integrator.dt"])
    blocks = list(simulate_path(model, noise, engine_cfg.integrator,
                                seed_split(cfg["master_seed"], 0), n_steps))
    keep = slice(cfg["output.stride"] - 1, None, cfg["output.stride"])
    path_csv = out_dir / "path.csv"
    dump_path_csv(path_csv, np.concatenate([t for t, _ in blocks])[keep],
                  np.concatenate([x for _, x in blocks])[keep])
    artifacts.append(str(path_csv))
    return []


def _run_estimate(cfg, out_dir, artifacts) -> List[dict]:
    model, noise = build_model(cfg)
    engine_cfg = build_engine_config(cfg, model, noise)
    # called through the module, so a wrapper set on engine.run_batch sees it
    rep = engine.run_batch(engine_cfg, [seed_split(cfg["master_seed"], 0)])
    if rep.failed:
        raise BlowupError("replication diverged at step %d" % rep.failed[0],
                          step=rep.failed[0])
    traj_path = out_dir / "rep_0.csv"
    rep.dump_csv(traj_path)
    artifacts.append(str(traj_path))
    err = float(np.linalg.norm(rep.thetas[-1, 0] - model.true_theta))
    return [verdict("final_theta_error", err, (0.0, np.inf), True)]


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
    verdicts: List[dict] = []
    try:
        verdicts = _RUNNERS[cfg["experiment"]](cfg, out_dir, artifacts)
        if any(not v["passed"] for v in verdicts):
            status = 1
    except Exception as exc:  # structured error record, nonzero exit
        error = {"type": type(exc).__name__, "message": str(exc)}
        status = 2
    report = {
        "experiment": cfg["experiment"],
        "config": cfg.echo(),
        "verdicts": verdicts,
        "artifacts": sorted(artifacts),
        "error": error,
        "wall_clock": round(time.monotonic() - start, 3),
    }
    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, status
