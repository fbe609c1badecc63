"""Time the compiled kernel's span: ns per replication-step per model and n.

    python3 tools/span_ns.py [--repeats 5] [--rep-steps 4000000]
                             [--level {native,v4,v3,baseline}]

Imports driftfit from the `src/` next to this directory.  For each model the
kernel covers (scalar_ou, mean_reversion, linear_system d=2) and each batch
size n in 1, 256, 512 and 2048, it binds one span with `_kernel.bind` (no
burn-in, so every step is a coupled Euler/SGDCT step) and times `advance`
over about --rep-steps replication-steps.  It prints one JSON object: the
-march flag the timed kernel was built with ("baseline" for none, see
`_kernel.march`) and, per model and n, the best and the median of --repeats
timings, in ns per replication-step.  The median is there because a shared
machine's speed drifts between timings; the best alone hides that.

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

from driftfit import _kernel  # noqa: E402
from driftfit.engine import EngineConfig, seed_split  # noqa: E402
from driftfit.models import linear_system, mean_reversion, scalar_ou  # noqa: E402
from driftfit.schedule import ScheduleSpec  # noqa: E402
from driftfit.sde import IntegratorConfig  # noqa: E402

MODELS = {"scalar_ou": scalar_ou, "mean_reversion": mean_reversion,
          "linear_system_d2": lambda: linear_system(dim=2)}
SIZES = (1, 256, 512, 2048)
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


def span_ns(factory, n: int, rep_steps: int, repeats: int) -> dict:
    model, noise = factory()
    steps = max(1, rep_steps // n)
    cfg = EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                       integrator=IntegratorConfig(dt=DT, burn_in_steps=0),
                       horizon=1.0 + steps * DT, checkpoint_times=np.array([1.0]))
    times = []
    for rep in range(repeats):
        gens = [np.random.default_rng(seed_split(rep, i)) for i in range(n)]
        theta = np.tile(np.asarray(model.true_theta, dtype=np.float64), (n, 1))
        x = np.zeros((n, model.m))
        advance = _kernel.bind(cfg, gens, theta, x)
        if advance is None:
            raise SystemExit("span_ns: the compiled kernel is unavailable")
        start = time.perf_counter()
        advance(0, steps)
        times.append(time.perf_counter() - start)
    per = 1e9 / (n * steps)
    return {"best": round(min(times) * per, 2),
            "median": round(float(np.median(times)) * per, 2)}


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
        out.update({name: {"n_%d" % n: span_ns(factory, n, args.rep_steps,
                                               args.repeats)
                           for n in SIZES}
                    for name, factory in MODELS.items()})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
