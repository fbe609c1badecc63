"""Self-tests of the benchmark.

    python3 -m pytest -q bench

They run the canary (shrunk) calls only and take well under a minute.
"""
import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads as wl

sys.path.insert(0, str(bench.SRC))
from driftfit import engine, experiments, stats  # noqa: E402
from driftfit.config import parse_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads(bench.SPEC.read_text())
METRIC_MAP = json.loads((bench.BENCH / "metric_map.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("scale", wl.SCALES)
def test_generator_is_deterministic_per_seed(workload, scale):
    texts = [c.text() for c in wl.generate(workload, 7, scale)]
    assert texts == [c.text() for c in wl.generate(workload, 7, scale)]
    assert texts != [c.text() for c in wl.generate(workload, 8, scale)]


def test_horizon_off_the_dt_grid_is_rejected():
    # the engine would silently drop the final checkpoint at T = 10.002
    call = wl.generate("clt_ou", 1)[0].replace("clt", horizon="10.002")
    with pytest.raises(ValueError, match="not a whole number"):
        wl.validate(call)


@pytest.mark.parametrize("workload", ["clt_ou", "rate_linsys"])
def test_digests_do_not_depend_on_block_size_or_parallelism(workload, tmp_path):
    (call,) = wl.generate(workload, wl.DEFAULT_SEED, "canary")
    path = tmp_path / "canary.cfg"
    path.write_text(call.text())
    cfg = parse_config(path)
    model, noise = experiments.build_model(cfg)
    engine_cfg = experiments.build_engine_config(cfg, model, noise)
    digests = {stats.run_replications(engine_cfg, cfg["n_reps"], cfg["master_seed"],
                                      parallelism, block).digest()
               for block in (64, 256, 2048) for parallelism in (1, 2)}
    # the reference was recorded through run_experiment at the default block
    assert digests == set(bench.load_reference()[call.key]["replications"])


@pytest.mark.parametrize("workload", ["clt_ou", "rate_linsys"])
def test_canary_crosses_a_noise_buffer_refill(workload):
    # past the first refill the draw order of every later chunk is checked
    (call,) = wl.generate(workload, wl.DEFAULT_SEED, "canary")
    chunk = inspect.signature(engine.run_batch).parameters["noise_chunk"].default
    assert wl.engine_rep_steps(call) // int(call.values["n_reps"]) > chunk


def test_metric_names_are_valid_unique_and_mapped():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert set(METRIC_MAP["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(METRIC_MAP["workloads"]) == {w["name"] for w in SPEC["workloads"]} \
        == set(wl.WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in METRIC_MAP["per_layer"].values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["no_change_on"]) <= set(wl.WORKLOADS)


def run_canary(monkeypatch, capsys, workload, trace):
    """The benchmark's command line on the workload's canary calls at seed 2;
    returns the exit status and the result line."""
    generate = wl.generate
    monkeypatch.setattr(wl, "generate", lambda w, seed, scale="full":
                        generate(w, seed, "canary"))
    status = bench.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                         "--trace", str(trace)])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_declared_metric(workload, trace, monkeypatch, capsys):
    status, result = run_canary(monkeypatch, capsys, workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(NAME.match(n) for n in result["metrics"])


def test_a_missing_artifact_counts_as_failed(monkeypatch, capsys):
    original = experiments.run_experiment

    def losing_an_artifact(cfg, out):
        result = original(cfg, out)
        if out.endswith("/poisson_scalar_ou"):
            (Path(out) / "poisson_solution.csv").unlink()
        return result

    monkeypatch.setattr(experiments, "run_experiment", losing_an_artifact)
    status, result = run_canary(monkeypatch, capsys, "single_stream", 0)
    assert status == 0
    assert not result["correct"] and result["failed"] >= 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "clt_ou",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
