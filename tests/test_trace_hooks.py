"""The benchmark's tracer (bench/tracing.py) wraps driftfit functions by
name and reads their arguments, so a change to driftfit can break
`bench/run.py --trace 1` without any other test noticing.  These tests
load the tracer from its file and run it over a tiny simulate, replay and
estimate."""
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
