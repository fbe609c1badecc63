"""Time the compiled kernel's batch and all of run_batch: ns per
replication-step per model and n.

    python3 tools/span_ns.py [--repeats 5] [--rep-steps 4000000]
                             [--level {native,v4,v3,baseline}]

Imports driftfit from the `src/` next to this directory.  For each model the
kernel covers (scalar_ou, mean_reversion, linear_system d=2) it runs about
--rep-steps replication-steps with no burn-in, so every step is a coupled
Euler/SGDCT step.  "span" times the one kernel call `_kernel.batch`, with
the t = 1 checkpoint alone, at each batch size n in 1, 256, 512 and 2048.
"run_batch" times all of `engine.run_batch` on the seeds `seed_split`
gives, with 60 geometric checkpoints, at n = 1 and 2048.  It prints one
JSON object: the -march flag the timed kernel was built with ("baseline"
for none, see `_kernel.march`) and, per row, model and n, the best and the
median of --repeats timings, in ns per replication-step.  The median is
there because a shared machine's speed drifts between timings; the best
alone hides that.

--level builds the kernel for an x86-64 level other than the highest this
CPU has (`native`, the default): in this process alone it replaces
`_kernel.cpu_features` with a table of that level and `_kernel.cache_dir`
with a temporary directory, which it deletes.  A level the CPU lacks is
refused.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from driftfit import _kernel, engine  # noqa: E402
from driftfit.engine import EngineConfig, geometric_checkpoints, seed_split  # noqa: E402
from driftfit.models import linear_system, mean_reversion, scalar_ou  # noqa: E402
from driftfit.schedule import ScheduleSpec  # noqa: E402
from driftfit.sde import IntegratorConfig  # noqa: E402

MODELS = {"scalar_ou": scalar_ou, "mean_reversion": mean_reversion,
          "linear_system_d2": lambda: linear_system(dim=2)}
SIZES = (1, 256, 512, 2048)
RUN_BATCH_SIZES = (1, 2048)
DT = 0.005
# the feature table that makes _kernel.march pick each level
LEVELS = {"native": None, "v4": {"X86_V4": True}, "v3": {"X86_V3": True},
          "baseline": {}}


def force_level(level: str, cache: str) -> None:
    """Build and load the kernel for level, into the directory cache."""
    for name in LEVELS[level]:
        if not _kernel.cpu_features().get(name):
            raise SystemExit("span_ns: this CPU has no %s" % name)
    _kernel.cpu_features = lambda: LEVELS[level]
    _kernel.cache_dir = lambda: cache


def config(factory, steps: int, checkpoints: int) -> EngineConfig:
    model, noise = factory()
    horizon = 1.0 + steps * DT
    cps = geometric_checkpoints(horizon, checkpoints) if checkpoints > 1 else [1.0]
    return EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                        integrator=IntegratorConfig(dt=DT, burn_in_steps=0),
                        horizon=horizon, checkpoint_times=np.array(cps))


def ns_per_rep_step(run, factory, n: int, rep_steps: int, repeats: int,
                    checkpoints: int) -> dict:
    """The best and median of `repeats` timings of run(cfg, seeds), n seeds
    over about rep_steps replication-steps, in ns per replication-step."""
    steps = max(1, rep_steps // n)
    cfg = config(factory, steps, checkpoints)
    times = []
    for rep in range(repeats):
        seeds = seed_split(rep, np.arange(n))
        start = time.perf_counter()
        run(cfg, seeds)
        times.append(time.perf_counter() - start)
    per = 1e9 / (n * steps)
    return {"best": round(min(times) * per, 2),
            "median": round(float(np.median(times)) * per, 2)}


def span(cfg, seeds) -> None:
    _, rec_step, total = engine.record_steps(cfg)
    if _kernel.batch(cfg, seeds, rec_step, total) is None:
        raise SystemExit("span_ns: the compiled kernel is unavailable")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rep-steps", type=int, default=4_000_000)
    parser.add_argument("--level", choices=LEVELS, default="native")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="span_ns-") as cache:
        if args.level != "native":
            force_level(args.level, cache)
        out = {"march": " ".join(_kernel.march()) or "baseline"}
        for row, run, sizes, checkpoints in (
                ("span", span, SIZES, 1),
                ("run_batch", engine.run_batch, RUN_BATCH_SIZES, 60)):
            out[row] = {name: {"n_%d" % n: ns_per_rep_step(
                run, factory, n, args.rep_steps, args.repeats, checkpoints)
                for n in sizes} for name, factory in MODELS.items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
