"""Time the compiled kernel's batch and all of run_batch: ns per
replication-step per model and n; and the kernel's normal draws: ns per draw.

    python3 tools/span_ns.py [--repeats 5] [--rep-steps 4000000]
                             [--level {native,v4,v3,baseline}] [--cache DIR]
                             [--against REV [--pairs 10]]

Imports driftfit from the `src/` next to this directory.  For each model the
kernel covers (scalar_ou, mean_reversion, linear_system d=2) it runs about
--rep-steps replication-steps with no burn-in, so every step is a coupled
Euler/SGDCT step.  "span" times the one kernel call `_kernel.batch`, with
the t = 1 checkpoint alone, at each batch size n in 1, 256, 512 and 2048.
"run_batch" times all of `engine.run_batch` on the seeds `seed_split`
gives, with 60 geometric checkpoints, at n = 1 and 2048.  "normals" times
about --rep-steps draws of `_kernel.normals` from G = 1 and G = 2048
streams, in calls of 2^16 draws (so that the output stays in cache): the
batch's RNG fill, one stream at a time at G = 1 and in full blocks of lanes
at G = 2048.  It prints one JSON object: the -march flag the timed kernel
was built with ("baseline" for none, see `_kernel.march`) and, per row,
model (or "standard_normal") and n (or G), the best and the median of
--repeats timings, in ns per replication-step (or per draw).  The median is
there because a shared machine's speed drifts between timings; the best
alone hides that.

--level builds the kernel for an x86-64 level other than the highest this
CPU has (`native`, the default): in this process alone it replaces
`_kernel.cpu_features` with a table of that level and `_kernel.cache_dir`
with a temporary directory, which it deletes.  A level the CPU lacks is
refused.  --cache builds and loads the kernel in DIR instead of
~/.cache/driftfit.

--against REV compares this checkout's timings with those of the git
revision REV.  It unpacks REV's `src/` with `git archive` into a temporary
directory, with a copy of this script next to it, and runs --pairs pairs of
child processes, one of each tree, alternating which of the two runs first.
Each tree has its own temporary kernel cache, so the first child of each
builds its kernel.  REV's tree runs this copy of the script, which calls
`_kernel.batch(lib, ...)` with the library first, so REV can only be a
revision whose `_kernel.batch` takes it so: the one that made the bindings
library-first or a later one.  Before `driftfit_normals`, `_kernel.normals`
ran the path's Euler loop one stream at a time, so the "normals" ratio
against such a REV is not that of the draw alone.  It prints, per row,
model and n: the median over the pairs of the ratio of this checkout's
median timing to REV's, the ratio's interquartile range, and in how many
pairs this checkout was slower.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
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
STREAMS = (1, 2048)
DRAWS_PER_CALL = 2 ** 16
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
    return best_and_median(times, 1e9 / (n * steps))


def best_and_median(times, per: float) -> dict:
    """The best and the median of times, each times per."""
    return {"best": round(min(times) * per, 2),
            "median": round(float(np.median(times)) * per, 2)}


def ns_per_draw(g: int, draws: int, repeats: int) -> dict:
    """The best and median of `repeats` timings of about `draws` normals from
    g streams, in calls of DRAWS_PER_CALL draws, in ns per draw."""
    lib, calls = _kernel.loaded(), DRAWS_PER_CALL // g
    chunks = max(1, draws // DRAWS_PER_CALL)
    words = _kernel.streams([np.random.PCG64(seed) for seed in range(g)])
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(chunks):
            _kernel.normals(lib, words, calls)
        times.append(time.perf_counter() - start)
    return best_and_median(times, 1e9 / (g * calls * chunks))


def child(script: Path, args, cache: str) -> dict:
    """The JSON object that one run of script prints, on the kernel cache
    cache, with args' --repeats, --rep-steps and --level."""
    out = subprocess.run(
        [sys.executable, str(script), "--repeats", str(args.repeats), "--rep-steps",
         str(args.rep_steps), "--level", args.level, "--cache", cache],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def against(args) -> dict:
    """--against: per row, model and n, the ratio of this checkout's median
    timing to REV's over --pairs alternating pairs of child processes."""
    here = Path(__file__).resolve()
    with tempfile.TemporaryDirectory(prefix="span_ns-") as tmp:
        rev = Path(tmp, "rev")
        rev.mkdir()
        archive = subprocess.run(["git", "-C", str(here.parent.parent), "archive",
                                  args.against, "src"], capture_output=True)
        if archive.returncode:
            raise SystemExit("span_ns: " + archive.stderr.decode().strip())
        subprocess.run(["tar", "-x", "-C", str(rev)], input=archive.stdout, check=True)
        (rev / "tools").mkdir()
        shutil.copy(here, rev / "tools" / here.name)
        trees = {"change": here, "rev": rev / "tools" / here.name}
        caches = {tree: str(Path(tmp, "cache-" + tree)) for tree in trees}
        runs = {tree: [] for tree in trees}
        for pair in range(args.pairs):
            for tree in (("change", "rev") if pair % 2 == 0 else ("rev", "change")):
                runs[tree].append(child(trees[tree], args, caches[tree]))
    out = {"against": args.against, "pairs": args.pairs,
           "march": runs["change"][0]["march"]}
    for row in ("span", "run_batch", "normals"):
        out[row] = {}
        for name, sizes in runs["change"][0][row].items():
            out[row][name] = {}
            for n in sizes:
                ratio = np.array([c[row][name][n]["median"] / r[row][name][n]["median"]
                                  for c, r in zip(runs["change"], runs["rev"])])
                q1, med, q3 = np.percentile(ratio, [25, 50, 75])
                out[row][name][n] = {"ratio_median": round(float(med), 4),
                                     "ratio_iqr": round(float(q3 - q1), 4),
                                     "change_slower": int(np.sum(ratio > 1.0))}
    return out


def span(cfg, seeds) -> None:
    _, rec_step, total = engine.record_steps(cfg)
    _kernel.batch(_kernel.loaded(), cfg, seeds, rec_step, total)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rep-steps", type=int, default=4_000_000)
    parser.add_argument("--level", choices=LEVELS, default="native")
    parser.add_argument("--cache", help="kernel cache directory")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the git revision REV")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.against:
        print(json.dumps(against(args)))
        return
    with tempfile.TemporaryDirectory(prefix="span_ns-") as cache:
        if args.cache:
            _kernel.cache_dir = lambda: args.cache
        if args.level != "native":
            force_level(args.level, args.cache or cache)
        # build and check the kernel here, so that no timing counts it
        if _kernel.load() is None:
            raise SystemExit("span_ns: the compiled kernel is unavailable")
        out = {"march": " ".join(_kernel.march()) or "baseline"}
        for row, run, sizes, checkpoints in (
                ("span", span, SIZES, 1),
                ("run_batch", engine.run_batch, RUN_BATCH_SIZES, 60)):
            out[row] = {name: {"n_%d" % n: ns_per_rep_step(
                run, factory, n, args.rep_steps, args.repeats, checkpoints)
                for n in sizes} for name, factory in MODELS.items()}
        out["normals"] = {"standard_normal": {
            "G_%d" % g: ns_per_draw(g, args.rep_steps, args.repeats) for g in STREAMS}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
