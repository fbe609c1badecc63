"""Outside-in tracing of driftfit's layers, from the benchmark's own files.

`instrument(tracer)` replaces layer functions at the sites their callers
look them up, e.g. `driftfit.stats.run_batch` (called by
`run_replications`) and `driftfit.experiments.sgdct_step` (called by the
CSV replay), with wrappers that time each call, and puts the originals
back on exit.  No program file changes.

A wrapped call is a span: name, start, end and the span that was open
when it began (the harness's span, for blocks that run in pool threads).
Spans stay in memory until the run writes them out.  Functions that run
once per time step (`euler_step`, `sgdct_step`, each step of
`simulate_path`) only add to counts and busy time, which keeps the
traced run close to the untraced one.

A wrapper costs time of its own, inside the span it times and outside it
(in its caller's span).  Each kind of wrapper is timed once per process
around a no-op (`wrapper_cost`), and busy and self times subtract that
cost for every wrapped call they contain, so that tens of thousands of
per-step calls do not inflate `simulate_path` or `run_experiment`.  The
spans themselves keep the raw clock readings.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import threading
import time
import timeit
from collections import defaultdict

import numpy as np

SPAN, STEP, ITER = "span", "step", "iter"
ANALYSIS = ("moment_curve", "loglog_slope", "rescaled_sample", "clt_diagnostics")


class Tracer:
    def __init__(self):
        self.spans = []                  # {"id", "parent", "name", "start", "end"}
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)   # seconds inside the function
        self.self_s = defaultdict(float)  # busy minus traced children on its thread
        self.counts = defaultdict(int)   # set by the hooks below
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = []                  # open frames of the main thread
        self._main_ident = threading.main_thread().ident
        self._ids = 0

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def enter(self):
        """Opens a frame: [id, parent id, time in children (wrappers
        included), start, tracer cost inside the frame's children]."""
        stack = self._stack()
        opened = stack or self._main
        with self._lock:
            self._ids += 1
            frame = [self._ids, opened[-1][0] if opened else None, 0.0, 0.0, 0.0]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def exit(self, frame, name, record, cost=(0.0, 0.0)):
        """Closes `frame`; `cost` is the wrapper's (inside, outside) seconds."""
        end = time.perf_counter()
        span_id, parent, children, start, hidden = frame
        inside, outside = cost
        stack = self._stack()
        stack.pop()
        took = end - start
        with self._lock:
            self.calls[name] += 1
            self.busy[name] += took - inside - hidden
            self.self_s[name] += took - inside - children
            if stack:
                stack[-1][2] += took + outside
                stack[-1][4] += hidden + inside + outside
            if record:
                self.spans.append({"id": span_id, "parent": parent, "name": name,
                                   "start": start, "end": end})

    def wrap(self, fn, name, kind, hook=None, cost=None):
        """`fn` timed under `name`; `hook(tracer, arguments, result)` counts.
        `cost` overrides the wrapper's own cost that times subtract."""
        signature = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if cost is None:
            cost = wrapper_cost(kind)

        if kind == ITER:
            @functools.wraps(fn)
            def traced_iter(*args, **kwargs):
                if hook is not None:
                    hook(self, arguments(args, kwargs), None)
                items = fn(*args, **kwargs)
                while True:
                    frame = self.enter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.exit(frame, name, False, cost)
                    yield item
            return traced_iter

        record = kind == SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame, name, record, cost)
            if hook is not None:
                hook(self, arguments(args, kwargs), result)
            return result
        return traced


@functools.lru_cache(maxsize=None)
def wrapper_cost(kind, calls=20000, repeat=5):
    """Seconds one wrapped call of `kind` adds (inside its own timed region,
    outside it): a no-op timed bare and wrapped, under an open frame as in
    the program.  The round with the fastest wrapped loop wins."""
    def noop():
        return None

    def items():
        for _ in range(calls):
            yield None

    def timed(fn):
        start = time.perf_counter()
        if kind == ITER:
            for _ in fn():
                pass
        else:
            for _ in range(calls):
                fn()
        return time.perf_counter() - start

    bare = items if kind == ITER else noop
    best = None
    for _ in range(repeat):
        tracer = Tracer()
        wrapped = tracer.wrap(bare, "noop", kind, cost=(0.0, 0.0))
        outer = tracer.enter()
        bare_s, wrapped_s = timed(bare), timed(wrapped)
        tracer.exit(outer, "outer", False)
        if best is None or wrapped_s < best[1]:
            best = (bare_s, wrapped_s, tracer.busy["noop"])
    bare_s, wrapped_s, busy = best
    inside = max(0.0, busy - bare_s) / calls
    return inside, max(0.0, wrapped_s - bare_s) / calls - inside


def _on_batch(tracer, arguments, result):
    config, n = arguments["config"], len(arguments["seeds"])
    integ = config.integrator
    # steps up to the last recorded checkpoint: a dropped final checkpoint
    # shows as missing steps
    main = round((result.times[-1] - 1.0) / integ.dt) if len(result.times) else 0
    chunk = arguments.get("noise_chunk", 0)
    with tracer._lock:
        tracer.counts["engine.rep_steps"] += n * (integ.burn_in_steps + main)
        tracer.counts["engine.failed_reps"] += len(result.failed)
        tracer.counts["engine.noise_buffer_bytes"] = max(
            tracer.counts["engine.noise_buffer_bytes"], chunk * n * config.model.m * 8)


def _on_simulate(tracer, arguments, result):
    tracer.counts["sde.simulate_path.steps"] += (
        arguments["config"].burn_in_steps + arguments["n_steps"])


def _on_dump(tracer, arguments, result):
    tracer.counts["sde.path_csv_bytes"] += os.path.getsize(arguments["path"])


def _patches():
    from driftfit import config, covariance, engine, experiments, poisson, sde, stats
    return [
        (config, "parse_config", "config.parse_config", SPAN, None),
        (experiments, "run_experiment", "experiments.run_experiment", SPAN, None),
        (stats, "run_replications", "stats.run_replications", SPAN, None),
        (stats, "run_batch", "engine.run_batch", SPAN, _on_batch),
        (engine, "run_batch", "engine.run_batch", SPAN, _on_batch),
        *[(stats, f, "stats." + f, SPAN, None) for f in ANALYSIS],
        (experiments, "sgdct_step", "engine.sgdct_step", STEP, None),
        (sde, "euler_step", "sde.euler_step", STEP, None),
        (experiments, "simulate_path", "sde.simulate_path", ITER, _on_simulate),
        (experiments, "dump_path_csv", "sde.dump_path_csv", SPAN, _on_dump),
        (experiments, "load_path_csv", "sde.load_path_csv", SPAN, None),
        *[(covariance, f, "covariance." + f, SPAN, None)
          for f in ("sigma_bar_eigen", "sigma_bar_quadrature", "moment_ode_oracle",
                    "jacobi_eigh")],
        *[(poisson, f, "poisson." + f, SPAN, None)
          for f in ("hbar", "solve", "stationary_density")],
    ]


@contextlib.contextmanager
def _patched(replacements):
    """Set (module, attr, value) triples; restore the old values on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


@contextlib.contextmanager
def instrument(tracer):
    with _patched([(module, attr, tracer.wrap(getattr(module, attr), name, kind, hook))
                   for module, attr, name, kind, hook in _patches()]):
        yield tracer


@contextlib.contextmanager
def capture_replications():
    """Yields a list that collects each ReplicationSet `stats.run_replications`
    returns.  Result capture only, no timing: traced and untraced runs use it."""
    from driftfit import stats
    captured = []
    original = stats.run_replications

    @functools.wraps(original)
    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result)
        return result

    with _patched([(stats, "run_replications", capturing)]):
        yield captured


def layer_metrics(tracer):
    """Per-layer metrics of one traced repetition of a workload."""
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts
    names = {s["id"]: s["name"] for s in tracer.spans}
    blocks = [s["end"] - s["start"] for s in tracer.spans
              if s["name"] == "engine.run_batch"
              and names.get(s["parent"]) == "stats.run_replications"]
    harness = busy["stats.run_replications"]
    steps = counts["engine.rep_steps"]
    path_steps = counts["sde.simulate_path.steps"]
    sgd_calls = calls["engine.sgdct_step"]
    densities = calls["poisson.stationary_density"]
    return {
        "engine.run_batch.calls": calls["engine.run_batch"],
        "engine.run_batch.busy_s": busy["engine.run_batch"],
        "engine.rep_steps": steps,
        "engine.ns_per_rep_step":
            1e9 * busy["engine.run_batch"] / steps if steps else 0.0,
        "engine.failed_reps": counts["engine.failed_reps"],
        "engine.noise_buffer_bytes": counts["engine.noise_buffer_bytes"],
        "stats.run_replications.busy_s": harness,
        "stats.blocks": len(blocks),
        "stats.block_overlap": sum(blocks) / harness if harness else 0.0,
        "stats.analysis_s": sum(busy["stats." + f] for f in ANALYSIS),
        "sde.simulate_path.us_per_step":
            1e6 * busy["sde.simulate_path"] / path_steps if path_steps else 0.0,
        "sde.euler_step.calls": calls["sde.euler_step"],
        "engine.sgdct_step.calls": sgd_calls,
        "engine.sgdct_step.us_per_call":
            1e6 * busy["engine.sgdct_step"] / sgd_calls if sgd_calls else 0.0,
        "sde.dump_path_csv.busy_s": busy["sde.dump_path_csv"],
        "sde.load_path_csv.busy_s": busy["sde.load_path_csv"],
        "sde.path_csv_bytes": counts["sde.path_csv_bytes"],
        "covariance.sigma_bar_eigen.busy_s": busy["covariance.sigma_bar_eigen"],
        "covariance.sigma_bar_quadrature.busy_s": busy["covariance.sigma_bar_quadrature"],
        "covariance.moment_ode_oracle.busy_s": busy["covariance.moment_ode_oracle"],
        "covariance.jacobi_eigh.calls": calls["covariance.jacobi_eigh"],
        "poisson.hbar.busy_s": busy["poisson.hbar"],
        "poisson.solve.calls": calls["poisson.solve"],
        "poisson.solve.busy_s": busy["poisson.solve"],
        "poisson.stationary_density.calls": densities,
        "poisson.density_reuse":
            (calls["poisson.solve"] + calls["poisson.hbar"]) / densities
            if densities else 0.0,
        "config.parse_config.busy_s": busy["config.parse_config"],
        "experiments.run_experiment.busy_s": busy["experiments.run_experiment"],
        "experiments.self_s": tracer.self_s["experiments.run_experiment"],
    }


def model_ns_per_rep(model, n, seed=0, repeat=7, batch_s=0.01):
    """Nanoseconds per replication of each model callable on (n, .) arrays,
    timed in isolation: the median of `repeat` batches of about `batch_s`."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.m))
    theta = model.true_theta + 0.1 * rng.standard_normal((n, model.k))
    callables = {
        "drift_fn": lambda: model.drift_fn(x, theta),
        "drift_grad_fn": lambda: model.drift_grad_fn(x, theta),
        "true_drift_fn": lambda: model.true_drift_fn(x),
    }
    out = {}
    for name, call in callables.items():
        timer = timeit.Timer(call)
        once = min(timer.repeat(3, 1))
        number = max(1, int(batch_s / max(once, 1e-9)))
        out[name] = 1e9 * statistics.median(timer.repeat(repeat, number)) / number / n
    return out
