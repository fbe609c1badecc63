"""driftfit benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload clt_ou --seed 1 --seconds 25 --trace 0

Run from any directory; the program is imported from the `src/` next to
this directory, and every file the run writes goes under `bench/_work/`.

--trace 0 runs the workload's experiment calls back to back, untraced,
until --seconds have passed and at least three times, and reports the
end-to-end metrics: the median wall time of a repetition (config parse to
last report.json), replication-steps per second, the median set-up time
of three fresh interpreters, and peak memory.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics, the
medians over traced repetitions; it writes the spans to
`bench/_work/<workload>/trace.json`.

Before measuring, each run executes the workload's canary (every seeded
call shrunk, at the default seed) as a warm-up.  Every call is checked:
exit status not 2, each time series ends at the configured horizon, and
digests (sha256 of each artifact, report.json without `wall_clock`, and
`ReplicationSet.digest()` of each Monte Carlo run) equal those of the
first repetition and, when the call's config is in reference.json, the
recorded ones.  A call that fails a check counts in `failed`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--record-reference`
rewrites reference.json from the program as it is, at the default seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
WORK = BENCH / "_work"
MIN_REPEATS = 3
SETUP_PROBES = 3
MODEL_SIZES = (256, 2048)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def load_program():
    """Import driftfit from this checkout's src/, and nowhere else."""
    if not (SRC / "driftfit" / "__init__.py").is_file():
        raise SystemExit("bench: no driftfit sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import driftfit
    if Path(driftfit.__file__).resolve().parent != SRC / "driftfit":
        raise SystemExit("bench: driftfit was imported from %s" % driftfit.__file__)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_once(calls, captured, tracer=None):
    """Parse and run each call, timed from the first parse to the last
    report.json.  `captured` is the list `capture_replications` fills.
    Returns the wall seconds and, per call, (exit status, replication sets,
    engine replication-steps seen by the tracer)."""
    from driftfit import config, experiments
    outcomes = []
    start = time.perf_counter()
    for call in calls:
        before = tracer.counts["engine.rep_steps"] if tracer else 0
        _, status = experiments.run_experiment(config.parse_config(call.path), call.out)
        rep_sets = captured[:]
        captured.clear()
        outcomes.append((status, rep_sets,
                         tracer.counts["engine.rep_steps"] - before if tracer else None))
    return time.perf_counter() - start, outcomes


def call_record(call, outcome):
    """Digests of one call's outputs, the problems the guards found, and the
    bytes of its artifacts and report.json (without `wall_clock`)."""
    status, rep_sets, engine_steps = outcome
    try:
        report = json.loads((Path(call.out) / "report.json").read_text())
        files = {Path(a).name: Path(a).read_bytes() for a in report["artifacts"]}
    except (OSError, ValueError, KeyError) as exc:
        return ({"status": status, "unreadable": repr(exc)},
                ["unreadable outputs: %r" % exc], 0)
    report.pop("wall_clock", None)
    problems = []
    if status == 2:
        problems.append("exit status 2: %s" % report["error"])
    elif "horizon" in call.values:
        horizon = float(call.values["horizon"])
        for name, data in files.items():
            # every series with a leading t column must end at the horizon
            lines = data.decode().rstrip("\n").split("\n")
            if lines[0].startswith("t,"):
                last = float(lines[-1].split(",", 1)[0])
                if not _close(last, horizon):
                    problems.append("%s ends at t=%r, not the horizon %g"
                                    % (name, last, horizon))
        for rep_set in rep_sets:
            last = float(rep_set.times[-1])
            if not _close(last, horizon):
                problems.append("last checkpoint %r is not the horizon %g"
                                % (last, horizon))
            if rep_set.thetas.shape[1] != int(call.values["n_reps"]):
                problems.append("%d replications, not %s"
                                % (rep_set.thetas.shape[1], call.values["n_reps"]))
        if call.values["experiment"].startswith("verify-") and len(rep_sets) != 1:
            problems.append("%d replication runs, not 1" % len(rep_sets))
    expected = wl.engine_rep_steps(call)
    if engine_steps is not None and engine_steps != expected:
        problems.append("engine.rep_steps %d, not %d" % (engine_steps, expected))
    # artifact paths name the output directory, which is not an input
    report["artifacts"] = sorted(files)
    files["report.json"] = json.dumps(report, sort_keys=True).encode()
    record = {
        "status": status,
        "artifacts": {name: sha256(data) for name, data in sorted(files.items())},
        "replications": [r.digest() for r in rep_sets],
    }
    return record, problems, sum(len(data) for data in files.values())


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


class Checker:
    """Counts calls and failures; compares digests with the reference and
    with the first repetition of the same config."""

    def __init__(self, reference):
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, calls, outcomes, base=None):
        """Checks each call's outcome; returns the bytes of their outputs.

        `base` maps labels to records a variant must match in its
        replication and CSV digests (the serial rerun of a parallel call)."""
        nbytes = 0
        for call, outcome in zip(calls, outcomes):
            record, problems, size = call_record(call, outcome)
            nbytes += size
            ref = self.reference.get(call.key)
            if ref is not None and {k: ref.get(k) for k in record} != record:
                problems.append("digests differ from reference.json")
            if self.first.setdefault(call.key, record) != record:
                problems.append("digests differ from the first repetition")
            if base is not None and not _same_outputs(record, base[call.label]):
                problems.append("outputs differ from the parallel run")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += ["%s/%s: %s" % (call.scale, call.label, p)
                                  for p in problems]
        return nbytes

    def digests(self, calls):
        return {c.label: dict(self.first[c.key], config=c.key[:16],
                              reference=c.key in self.reference) for c in calls}


def _same_outputs(record, base):
    def csv(r):
        return {k: v for k, v in r.get("artifacts", {}).items() if k != "report.json"}
    return ("unreadable" not in record
            and record["replications"] == base.get("replications") and csv(record) == csv(base))


def setup_seconds(calls):
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    cmd += [c.path for c in calls]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


def peak_rss_mib():
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_untraced(calls, captured, checker, seconds):
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_REPEATS or time.perf_counter() - start < seconds:
        wall, outcomes = run_once(calls, captured)
        walls.append(wall)
        checker.check(calls, outcomes)
    # read before the set-up probes, which are children too
    rss = peak_rss_mib()
    setups = [setup_seconds(calls) for _ in range(SETUP_PROBES)]
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "rep_steps_per_s": sum(wl.rep_steps(c) for c in calls) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }, {"wall_s": walls, "setup_s": setups}, []


def measure_traced(calls, captured, checker, seconds):
    from driftfit import config, experiments
    untraced, traced, per_repeat, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, outcomes = run_once(calls, captured)
        untraced.append(wall)
        checker.check(calls, outcomes)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            wall, outcomes = run_once(calls, captured, tracer)
        traced.append(wall)
        nbytes = checker.check(calls, outcomes)
        per_repeat.append(dict(tracing.layer_metrics(tracer),
                               **{"experiments.artifact_bytes": nbytes}))
        spans.append(tracer.spans)
    # counts must repeat exactly; times are medians over the repetitions
    counts = {"engine.rep_steps", "engine.failed_reps", "sde.path_csv_bytes",
              "experiments.artifact_bytes",
              *[k for k in per_repeat[0] if k.endswith(".calls")]}
    metrics = {k: per_repeat[0][k] if k in counts
               else statistics.median(m[k] for m in per_repeat) for k in per_repeat[0]}
    for name in sorted(counts):
        if len({m[name] for m in per_repeat}) != 1:
            checker.failed += 1
            checker.problems.append("%s differs between repetitions" % name)
    metrics["trace_overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)

    # the single-threaded baseline: the same calls at parallelism 1, which
    # must give the same digests
    parallel = [c for c in calls if int(c.values.get("parallelism", "1")) > 1]
    speedup = 1.0
    if parallel:
        serial = [c.replace(c.label + "_serial", parallelism="1") for c in parallel]
        wl.write(serial)
        wall, outcomes = run_once(serial, captured)
        base = {s.label: checker.first[c.key] for s, c in zip(serial, parallel)}
        checker.check(serial, outcomes, base)
        speedup = wall / statistics.median(untraced)
    metrics["stats.parallel_speedup"] = speedup

    model, _ = experiments.build_model(config.parse_config(calls[0].path))
    for n in MODEL_SIZES:
        suffix = "" if n == MODEL_SIZES[0] else "_n%d" % n
        for name, ns in tracing.model_ns_per_rep(model, n).items():
            metrics["models.%s.ns_per_rep%s" % (name, suffix)] = ns
    return metrics, {"wall_s": untraced, "traced_wall_s": traced}, spans


def environment():
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    def field(text, key):
        return next((line.split(":", 1)[1].strip() for line in text.splitlines()
                     if line.startswith(key)), None)

    cpu = field(read("/proc/cpuinfo"), "model name") or platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = read(index / "type").strip()
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        level = "L" + read(index / "level").strip() + suffix
        caches[level] = read(index / "size").strip()
    mem = field(read("/proc/meminfo"), "MemTotal")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "driftfit").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "mem_total": mem,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def load_reference():
    return json.loads(REFERENCE.read_text())["calls"]


def record_reference():
    """Run every workload at the default seed, full and canary, and write
    their digests to reference.json."""
    entries = {}
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    with tracing.capture_replications() as captured:
        for workload in wl.WORKLOADS:
            for scale in wl.SCALES:
                calls = wl.generate(workload, wl.DEFAULT_SEED, scale)
                wl.write(calls)
                _, outcomes = run_once(calls, captured)
                for call, outcome in zip(calls, outcomes):
                    record, problems, _ = call_record(call, outcome)
                    if problems:
                        raise SystemExit("bench: %s/%s: %s"
                                         % (scale, call.label, problems))
                    entries[call.key] = dict(record, workload=workload, scale=scale,
                                             label=call.label)
    REFERENCE.write_text(json.dumps({"default_seed": wl.DEFAULT_SEED, "calls": entries},
                                    indent=1, sort_keys=True) + "\n")
    print("bench: wrote %d reference digests to %s" % (len(entries), REFERENCE))


def main(argv=None):
    args = parse_args(argv)
    load_program()
    cwd = os.getcwd()
    try:
        if args.record_reference:
            record_reference()
            return 0
        return run(args)
    finally:
        os.chdir(cwd)


def run(args):
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    checker = Checker(load_reference())
    canary = wl.generate(args.workload, wl.DEFAULT_SEED, "canary")
    calls = wl.generate(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)

    with tracing.capture_replications() as captured:
        wl.write(canary)
        _, outcomes = run_once(canary, captured)
        checker.check(canary, outcomes)
        wl.write(calls)
        measure = measure_traced if args.trace else measure_untraced
        values, samples, spans = measure(calls, captured, checker, args.seconds)
    repeats = len(samples["wall_s"])

    if set(values) != {m["name"] for m in declared}:
        raise SystemExit("bench: measured %s, declared %s"
                         % (sorted(values), sorted(m["name"] for m in declared)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = environment()
    digests = checker.digests(calls)
    Path("result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "samples": samples, "metrics": metrics, "problems": checker.problems,
         "digests": digests, "environment": env}, indent=1, sort_keys=True) + "\n")
    if args.trace:
        Path("trace.json").write_text(json.dumps(
            [{"repeat": i, "spans": s} for i, s in enumerate(spans)]) + "\n")

    print("bench: workload %s, seed %d, %s, %d repetitions"
          % (args.workload, args.seed, "traced" if args.trace else "untraced", repeats))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-40s %14.6g (%d of %d experiment calls)"
          % ("error_frac", checker.failed / checker.attempted,
             checker.failed, checker.attempted))
    for problem in checker.problems:
        print("  FAILED " + problem)
    print(json.dumps({"digests": digests}, sort_keys=True))
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
