"""The benchmark's tracer (bench/tracing.py) wraps driftfit functions by
name and reads their arguments, so a change to driftfit can break
`bench/run.py --trace 1` without any other test noticing.  These tests
load the tracer from its file and run it over a tiny simulate, replay and
estimate, and over a tiny verify-clt and predict-covariance."""
import importlib.util
from pathlib import Path

import pytest

from driftfit import config, experiments

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

BURN_IN, DT, HORIZON = 50, 0.01, 3.0
N_STEPS = round((HORIZON - 1.0) / DT)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists(tracing):
    for module, attr, *_ in tracing._patches():
        assert callable(getattr(module, attr, None)), "%s.%s" % (module.__name__, attr)


def test_traced_simulate_replay_estimate_count_their_steps(tracing, tmp_path):
    stream = {"model.name": "mean_reversion", "master_seed": "3",
              "horizon": str(HORIZON), "integrator.dt": str(DT),
              "integrator.burn_in_steps": str(BURN_IN)}
    path_csv = tmp_path / "simulate" / "path.csv"
    calls = [
        ("simulate", {"experiment": "simulate", **stream, "output.stride": "1"}),
        ("replay", {"experiment": "simulate", **stream, "output.stride": "1",
                    "data.path_csv": str(path_csv)}),
        ("estimate", {"experiment": "estimate", **stream}),
    ]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for label, values in calls:
            cfg = config.from_dict(values, source=label)
            _, status = experiments.run_experiment(cfg, tmp_path / label)
            assert status == 0, label
    assert len(path_csv.read_text().splitlines()) == 1 + N_STEPS
    assert tracer.counts["sde.simulate_path.steps"] == BURN_IN + N_STEPS
    assert tracer.calls["sde.simulate_path"] >= 1
    assert tracer.counts["engine.rep_steps"] == BURN_IN + N_STEPS
    assert tracer.calls["engine.run_batch"] == 1
    assert tracer.calls["sde.load_path_csv"] == 1
    assert tracer.calls["experiments.run_experiment"] == 3


def test_traced_clt_and_covariance_reach_every_analysis_wrapper(tracing, tmp_path):
    # 100 replications (the fewest verify-clt takes) over 100 steps: its
    # verdicts may fail at that size, but it must run to them
    calls = [
        ("verify-clt", {"experiment": "verify-clt", "model.name": "scalar_ou",
                        "master_seed": "3", "horizon": "1.5", "integrator.dt": "0.005",
                        "integrator.burn_in_steps": "10", "n_reps": "100"}),
        ("predict-covariance", {"experiment": "predict-covariance",
                                "model.name": "linear_system"}),
    ]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for label, values in calls:
            cfg = config.from_dict(values, source=label)
            report, status = experiments.run_experiment(cfg, tmp_path / label)
            assert report["error"] is None and status in (0, 1), label
    for name in ("stats.clt_diagnostics", "covariance.sigma_bar_eigen",
                 "covariance.jacobi_eigh", "covariance.sigma_bar_quadrature"):
        assert tracer.calls[name] >= 1, name
    assert tracer.calls["experiments.run_experiment"] == 2
