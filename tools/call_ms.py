"""Time each call of a benchmark workload: the median ms per full call.

    python3 tools/call_ms.py --workload single_stream [--repeats 7] [--seed 1]

Imports driftfit from the `src/` next to this directory and the workload's
calls from `bench/workloads.generate` (full scale), and writes their configs
and outputs under a temporary directory, which it deletes.  It runs the
calls once in order as a warm-up (the kernel's build and load-time check,
the imports), then --repeats times more, timing each call from its config
parse to its report.json as `bench/run.py` times a whole repetition.  The
calls run in the workload's order each time, since a replay reads the path
its simulate call wrote.  It prints one JSON object: per call label the
median and the best ms, and the median of the repetitions' totals, and the
process's peak RSS (`ru_maxrss`, MiB) after each call of the warm-up, so
that the call which sets the peak is named.  A
shared machine's speed drifts between repetitions, so the median is the
figure to compare; the best shows the floor.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402
from driftfit import config, experiments  # noqa: E402


def run_calls(calls, peak_rss=None) -> dict:
    """Seconds per call label, running calls in order; exits on status 2.
    Into a dict peak_rss it also puts the process's peak RSS in MiB after
    each call, per call label."""
    seconds = {}
    for call in calls:
        start = time.perf_counter()
        _, status = experiments.run_experiment(config.parse_config(call.path), call.out)
        seconds[call.label] = time.perf_counter() - start
        if status == 2:
            raise SystemExit("call_ms: %s exited with status 2" % call.label)
        if peak_rss is not None:
            peak_rss[call.label] = round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return seconds


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    args = parser.parse_args(argv)
    calls = wl.generate(args.workload, args.seed)
    here, peak_rss = os.getcwd(), {}
    with tempfile.TemporaryDirectory(prefix="call_ms-") as work:
        os.chdir(work)
        try:
            wl.write(calls)
            run_calls(calls, peak_rss)
            runs = [run_calls(calls) for _ in range(args.repeats)]
        finally:
            os.chdir(here)
    out = {c.label: {"median_ms": round(1e3 * statistics.median(r[c.label] for r in runs), 2),
                     "best_ms": round(1e3 * min(r[c.label] for r in runs), 2)}
           for c in calls}
    out["total_median_ms"] = round(1e3 * statistics.median(sum(r.values()) for r in runs), 2)
    print(json.dumps({"workload": args.workload, "repeats": args.repeats, "calls": out,
                      "warmup_peak_rss_mb": peak_rss}))


if __name__ == "__main__":
    main()
