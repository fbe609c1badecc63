"""Workloads of the driftfit benchmark and the generator of their inputs.

A workload is an ordered list of experiment calls.  Each call is one flat
`key = value` config, the format `driftfit.config.parse_config` reads, and
the directory its outputs go to.  `generate(workload, seed, scale)` is a
pure function of its arguments: the seed becomes `master_seed` of every
call that draws random numbers, and nothing else depends on it.

Why each workload is here, and which end-to-end metric each per-layer
metric should move on it, is written once, in metric_map.json.
"""
from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Dict, List

DEFAULT_SEED = 1
SCALES = ("full", "canary")
WORKLOADS = ("clt_ou", "rate_linsys", "single_stream")

# Settings the workloads share, spelled out so that a changed default in
# the program cannot change a workload unnoticed.
_ENGINE = {
    "schedule.c_alpha": "4",
    "schedule.c0": "1",
    "integrator.dt": "0.005",
    "integrator.burn_in_steps": "2000",
}
# The canary is every seeded call shrunk to under a second, run at the
# default seed before each measurement and checked against reference
# digests, so that a run at any seed still checks the program bitwise.
# 200 burn-in plus (22 - 1) / dt = 4200 steps cross run_batch's refill of
# its noise buffer every 4096 steps.  300 replications are two blocks of
# the harness's default 256, and verify-clt needs at least 100.
_CANARY = {"horizon": "22", "integrator.burn_in_steps": "200", "n_reps": "300"}

_SCALAR_MODELS = ("scalar_ou", "bounded_link", "mean_reversion")
_MODELS = _SCALAR_MODELS + ("linear_system",)


@dataclasses.dataclass(frozen=True)
class Call:
    label: str
    scale: str
    values: Dict[str, str]

    @property
    def out(self) -> str:
        """Output directory, relative to the run's working directory."""
        return "%s/%s" % (self.scale, self.label)

    @property
    def path(self) -> str:
        """Config file, relative to the run's working directory."""
        return self.out + ".cfg"

    def text(self) -> str:
        return "".join("%s = %s\n" % kv for kv in self.values.items())

    @property
    def key(self) -> str:
        """Identifies the call's inputs: the sha256 of its config text."""
        return hashlib.sha256(self.text().encode()).hexdigest()

    def replace(self, label: str, **values: str) -> "Call":
        return Call(label, self.scale, dict(self.values, **values))


def _full_calls(workload: str, scale: str, seed: int) -> List[Call]:
    seeded = dict(_ENGINE, master_seed=str(seed))
    if workload == "clt_ou":
        return [Call("clt", scale, {
            "experiment": "verify-clt", "model.name": "scalar_ou", **seeded,
            "horizon": "200", "n_reps": "2048", "parallelism": "2"})]
    if workload == "rate_linsys":
        return [Call("rate", scale, {
            "experiment": "verify-rate", "model.name": "linear_system",
            "model.dim": "2", **seeded,
            "horizon": "100", "n_reps": "512", "parallelism": "1"})]
    if workload == "single_stream":
        stream = {"model.name": "mean_reversion", **seeded, "horizon": "200"}
        simulate = {"experiment": "simulate", **stream, "output.stride": "1"}
        calls = [
            Call("simulate", scale, simulate),
            Call("replay", scale, dict(
                simulate, **{"data.path_csv": "%s/simulate/path.csv" % scale})),
            Call("estimate", scale, {"experiment": "estimate", **stream}),
        ]
        # seed-free calls: their digests are checked at every seed
        calls += [Call("covariance_" + m, scale, {
            "experiment": "predict-covariance", "model.name": m}) for m in _MODELS]
        calls += [Call("poisson_" + m, scale, {
            "experiment": "poisson-solve", "model.name": m}) for m in _SCALAR_MODELS]
        return calls
    raise ValueError("unknown workload %r (available: %s)"
                     % (workload, ", ".join(WORKLOADS)))


def generate(workload: str, seed: int, scale: str = "full") -> List[Call]:
    """The workload's calls at a seed; checked by `validate` before return."""
    if scale not in SCALES:
        raise ValueError("unknown scale %r" % scale)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must lie in [0, 2**64)")
    calls = _full_calls(workload, scale, seed)
    if scale == "canary":
        calls = [Call(c.label, c.scale, {
            k: _CANARY.get(k, v) if "horizon" in c.values else v
            for k, v in c.values.items()}) for c in calls]
    for call in calls:
        validate(call)
    return calls


def write(calls: List[Call]) -> None:
    for call in calls:
        Path(call.out).parent.mkdir(parents=True, exist_ok=True)
        Path(call.path).write_text(call.text())


def main_steps(call: Call) -> int:
    """Steps after burn-in: (horizon - 1) / dt, which must be whole."""
    span = (float(call.values["horizon"]) - 1.0) / float(call.values["integrator.dt"])
    steps = round(span)
    if steps < 1 or abs(span - steps) > 1e-9 * steps:
        raise ValueError("%s: horizon - 1 = %s is not a whole number of dt = %s steps"
                         % (call.label, span * float(call.values["integrator.dt"]),
                            call.values["integrator.dt"]))
    return steps


def validate(call: Call) -> None:
    """Reject inputs the program would run silently short.

    The engine stops at the last whole dt step, so a horizon off the dt
    grid would drop the final checkpoint without a word, and a stride that
    does not divide the step count would end path.csv early.
    """
    if "horizon" not in call.values:
        return
    steps = main_steps(call)
    stride = int(call.values.get("output.stride", "1"))
    if steps % stride:
        raise ValueError("%s: output.stride %d does not divide %d steps"
                         % (call.label, stride, steps))


def engine_rep_steps(call: Call) -> int:
    """Replication-steps the call runs through `run_batch`, burn-in included."""
    experiment = call.values["experiment"]
    if not (experiment.startswith("verify-") or experiment == "estimate"):
        return 0
    reps = int(call.values.get("n_reps", "1"))
    return reps * (int(call.values["integrator.burn_in_steps"]) + main_steps(call))


def rep_steps(call: Call) -> int:
    """Replication-steps of the call, burn-in included.

    A replay counts one step per pair of consecutive path.csv rows; the
    simulate call that wrote the path counts burn-in and every step.
    """
    if call.values["experiment"] != "simulate":
        return engine_rep_steps(call)
    steps = main_steps(call) // int(call.values["output.stride"])
    if "data.path_csv" in call.values:
        return steps - 1
    return int(call.values["integrator.burn_in_steps"]) + main_steps(call)
