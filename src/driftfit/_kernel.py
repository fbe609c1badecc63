"""Builds, caches, checks and binds the compiled SGDCT kernel `_kernel.c`.

The kernel has five entry points that the program runs on, each bound by
one function that takes the library first: a whole `engine.run_batch`, from
the integer seeds to the checkpoint rows and each replication's failing
step (`batch`), the Euler steps of `sde.simulate_path` (`bind_path`), the
CSV replay's updates (`replay`), `sde.write_csv`'s '%.12g' lines
(`csv_lines`) and `sde.load_path_csv`'s rows (`csv_rows`).  A caller gets
the library from one of two functions, or None, and then runs the binding
or its numpy counterpart.  `covering` loads the kernel for the models
`covers` accepts, those whose `models.FAMILIES` family and m have a body in
BODIES and whose sigma is diagonal, reading their parameters from
`true_theta`; the others, `bounded_link`'s link family among them (libm's
tanh and cosh round otherwise than numpy's), run their numpy counterparts
(`engine.numpy_batch`, `sde.numpy_path`, `engine.numpy_replay`), which
define the results.  `loaded` gives the library to the CSV lines and rows
where a step has loaded it.  The lines cover each cell v with
10^-11 <= |v| < 2^127, ±0, ±inf and NaN; a block with any other cell is
formatted by Python's %, which defines the bytes.  The rows cover text in
driftfit_parse's grammar, which holds the kernel's lines of finite cells
below 10^22; np.loadtxt, which defines the values, reads any other.  Two
more, the screening of `batch` and its normals (`normals`), are there for
the load-time check, the tests and tools/span_ns.py.

The kernel steps numpy's PCG64 itself.  `batch` seeds each replication's
stream from its integer seed, one 64-bit word (`engine.seed_array`), as
np.random.PCG64(seed) does by numpy's public SeedSequence algorithm, so no
Generator is built; `bind_path` takes simulate_path's seed and reads the
public state of np.random.PCG64(seed) once (`streams`).  It draws its
normals through an inlined copy of numpy's ziggurat, on numpy's own tables:
`objcopy` makes them global in a private copy of numpy's `libnpyrandom.a`,
which the kernel is linked against.  `_kernel.c` is read once, at import,
and the compiler reads those bytes on its stdin, so that the kernel built
is the one whose entry points `_open` declares, the step ones with an
errcheck that raises ValueError for a family and m they have no body for.
It is compiled with the system C compiler at the first call that can use
it, never at import, for the highest x86-64 level the CPU has (`march`).
The shared library goes into a per-user cache directory, keyed by the hash of
the source, the flags (the level among them), the numpy version and the
platform, so a machine compiles it once, and a home directory shared with
another CPU never loads a kernel built for a level that CPU lacks.

Each process checks it before use (`_mismatch`): CHECK_CALLS normals from
the streams of each of CHECK_GENERATORS PCG64 generators, drawn as the batch
draws them (`normals`), must equal `Generator.standard_normal`'s bytes from
those generators and advance the streams to their words after it, and its
screening of a table of edge rows (`check_rows`) must be `sde.diverged`'s;
then for each body in BODIES a small run, with diverging replications and
seeded from a table of edge seeds (`CHECK_SEEDS`) among others, a short
path and a replay must give the bytes of the numpy code they stand for, and
the CSV lines of a table of edge cases (`check_cells`) those of Python's %
and, read back, float's values, np.loadtxt's parse of a cell.  Where it
cannot be built or loaded, or fails that check, every entry point runs
numpy and one RuntimeWarning per process says why.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import stat
import warnings

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
CC = "gcc"
OBJCOPY = "objcopy"
# numpy's ziggurat tables, file-local in libnpyrandom.a
TABLES = ("wi_double", "ki_double", "fi_double")
# never -ffast-math: the kernel must round like numpy.  The x86-64 levels
# march() adds (v3, v4) have fused multiply-add, which rounds a * b + c once
# where numpy rounds twice; -ffp-contract=off keeps the compiler from using it
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
CODES = {"linear": 0, "affine": 1}  # _kernel.c's family enum
# the (family, m) pairs _kernel.c's DISPATCH has a body for; numpy sums three
# or more drift terms in SIMD-lane order, which the kernel does not copy, so
# larger linear systems stay on the numpy loop
BODIES = frozenset({("linear", 1), ("linear", 2), ("affine", 1)})
CHECK_SEED = 20170907
# the check's normals: CHECK_CALLS draws from each of CHECK_GENERATORS
# generators, 3 past a multiple of 8, so that full blocks of lanes (8 or 4)
# and leftover streams both draw
CHECK_GENERATORS, CHECK_CALLS = 259, 253
# a stream's words, as _kernel.c reads them: state_lo, state_hi, inc_lo, inc_hi
WORD = 1 << 64
# the first seeds of the check's runs: the ends of one and two 32-bit words
# of SeedSequence's entropy, the top bit and the end of the seed's one word
CHECK_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, WORD - 1)
# the check's run per body: CHECK_REPS replications, full blocks of lanes
# (8 or 4) and a partial one, over CHECK_STEPS steps of which CHECK_BURN_IN
# are burn-in; its path of CHECK_STEPS steps; and its replay over CHECK_ROWS
# rows
CHECK_REPS, CHECK_STEPS, CHECK_BURN_IN, CHECK_ROWS = 19, 40, 5, 30
CHECK_C_ALPHA = 4.0
# driftfit_csv's range of nonzero |v|: the least double >= 10^-11 (the
# double 1e-11 lies just below) up to the greatest below 2^127
CSV_RANGE = (float(np.nextafter(1e-11, 1.0)), float(np.nextafter(2.0 ** 127, 0.0)))
CSV_CELL = 19  # the most bytes driftfit_csv writes for a cell and its separator
CSV_SLACK = 16  # the bytes past its lines that driftfit_csv may write into

_lib = None  # the loaded kernel library; False once loading has failed


def _read_source():
    """SOURCE's bytes, or the OSError that reading it raised."""
    try:
        with open(SOURCE, "rb") as fh:
            return fh.read()
    except OSError as exc:
        return exc


# _kernel.c as it is at import, the source whose entry points _open declares:
# a build compiles these bytes, never the file as it is on disk by then
_source = _read_source()


def cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "driftfit")


def _check_private(path: str) -> None:
    """Refuse a path that another user owns or can write."""
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError("%s is writable by another user" % path)


def _run(argv, stdin: bytes = b"") -> None:
    """Run a build tool on stdin; OSError if it is missing or fails."""
    import subprocess
    done = subprocess.run(argv, input=stdin, capture_output=True)
    if done.returncode:
        last = (done.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
        raise OSError("%s exited with status %d: %s" % (argv[0], done.returncode, last))


def _mtime_ns(path: str) -> int:
    """When path was last used (-1 if another process deleted it)."""
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return -1


def cpu_features() -> dict:
    """numpy's table of the features of this CPU (and of its OS's support
    for them), by name; empty where this numpy keeps it elsewhere."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # a private module: the kernel builds for the baseline
        return {}
    return __cpu_features__


def march() -> tuple:
    """The flag that builds the kernel for the highest x86-64 level, v4 or v3,
    that `cpu_features` reports, or none, for the compiler's baseline."""
    features = cpu_features()
    for level in ("v4", "v3"):
        if features.get("X86_" + level.upper()):
            return ("-march=x86-64-" + level,)
    return ()


def _build() -> str:
    """Path of the cached shared library, compiling it if it is missing; a
    hit marks it used, and a build deletes the kernels of other keys from the
    cache but the most recently used one."""
    import glob
    import sysconfig
    import tempfile
    if isinstance(_source, OSError):
        raise _source
    flags = CFLAGS + march()
    key = hashlib.sha256(b"\0".join([
        _source, " ".join(flags).encode(), np.__version__.encode(),
        sysconfig.get_platform().encode()])).hexdigest()
    directory = cache_dir()
    os.makedirs(directory, mode=0o700, exist_ok=True)
    _check_private(directory)
    path = os.path.join(directory, "span-%s.so" % key[:24])
    try:
        os.utime(path)
        return path
    except FileNotFoundError:
        pass
    npyrandom = os.path.join(os.path.dirname(np.__file__), "random", "lib",
                             "libnpyrandom.a")
    with tempfile.TemporaryDirectory(dir=directory) as scratch:
        tables = os.path.join(scratch, "tables.a")
        tmp = os.path.join(scratch, "span.so")
        _run([OBJCOPY, *["--globalize-symbol=" + name for name in TABLES],
              npyrandom, tables])
        # the source is C on stdin; -x none reads tables.a as the archive it is
        _run([CC, *flags, "-o", tmp, "-x", "c", "-", "-x", "none", tables, "-lm"],
             _source)
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    # keeping one other kernel spares a second build to whoever alternates
    # between two keys, say two checkouts or two numpy installs
    others = [p for p in glob.glob(os.path.join(directory, "span-*.so")) if p != path]
    for old in sorted(others, key=_mtime_ns)[:-1]:
        try:
            os.unlink(old)
        except FileNotFoundError:  # another process's build deleted it
            pass
    return path


def _no_body(result: int, fn, args) -> int:
    """The errcheck of the step entry points, whose first two arguments are
    a family's code (CODES) and m: ValueError where the kernel returns -1,
    having no body for them."""
    if result < 0:
        raise ValueError("the kernel has no body for family code %d with m = %d"
                         % args[:2])
    return result


def _open():
    """The built kernel library, its entry points declared to ctypes."""
    import ctypes
    path = _build()
    _check_private(path)
    lib = ctypes.CDLL(path)
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for step in (lib.driftfit_batch, lib.driftfit_path, lib.driftfit_replay):
        step.restype = ctypes.c_int
        step.errcheck = _no_body
    lib.driftfit_batch.argtypes = [ctypes.c_int, i64, ptr, ptr, ptr, dbl, dbl, dbl,
                                   ptr, ptr, ptr, i64, i64, i64, dbl, dbl, i64, ptr,
                                   i64, ptr, ptr, ptr, ptr]
    lib.driftfit_path.argtypes = [ctypes.c_int, i64, ptr, ptr, dbl, ptr, i64, ptr,
                                  ptr]
    lib.driftfit_replay.argtypes = [ctypes.c_int, i64, ptr, dbl, dbl, i64, ptr, ptr,
                                    ptr, ptr]
    lib.driftfit_csv.restype = i64
    lib.driftfit_csv.argtypes = [ptr, i64, i64, ptr]
    lib.driftfit_parse.restype = i64
    lib.driftfit_parse.argtypes = [ptr, i64, i64, ptr]
    lib.driftfit_screen.restype = ctypes.c_int
    lib.driftfit_screen.argtypes = [i64, i64, i64, ptr, ptr, dbl, dbl, ptr]
    lib.driftfit_normals.restype = ctypes.c_int
    lib.driftfit_normals.argtypes = [i64, ptr, i64, ptr]
    return lib


def streams(bit_generators):
    """The kernel's streams: row i of an (n, 4) uint64 array holds the public
    state of bit generator i, read once, as [state_lo, state_hi, inc_lo,
    inc_hi]; ValueError if any of them is not numpy's PCG64, which the kernel
    steps.  The kernel advances the rows, not the bit generators."""
    words = []
    for bit_generator in bit_generators:
        state = bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise ValueError("the kernel draws from numpy's PCG64 alone")
        pcg, inc = state["state"]["state"], state["state"]["inc"]
        words.append((pcg % WORD, pcg // WORD, inc % WORD, inc // WORD))
    return np.array(words, dtype=np.uint64).reshape(-1, 4)


def screened(lib, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows of theta (n, k) and x (n, m) that the kernel's screening
    flags, at sde's bounds as they are now."""
    from . import sde
    theta, x = _consts(theta, x)
    flags = np.empty(len(theta), dtype=np.bool_)
    lib.driftfit_screen(len(theta), theta.shape[1], x.shape[1], theta.ctypes.data,
                        x.ctypes.data, sde.THETA_BOUND, sde.DIVERGENCE_BOUND,
                        flags.ctypes.data)
    return flags


def normals(lib, words: np.ndarray, calls: int) -> np.ndarray:
    """(G, calls) standard normals by the kernel's ziggurat, row i from stream
    i of words, the C-ordered (G, 4) uint64 array `streams` packs, which it
    advances in place past the draws: one driftfit_normals call, which draws
    as the batch does, full blocks of lanes on the batch's draw and the rest
    one stream at a time."""
    _check(words, (len(words), 4), np.uint64)
    out = np.empty((len(words), calls))
    lib.driftfit_normals(len(words), words.ctypes.data, calls, out.ctypes.data)
    return out


def reference_normals(bit_generator, n: int) -> np.ndarray:
    """numpy's own draws, which define the kernel's."""
    return np.random.Generator(bit_generator).standard_normal(n)


def reference_batch(config, seeds, rec_step: np.ndarray, total: int):
    """numpy's run_batch loop, which defines the kernel's batch."""
    from . import engine
    return engine.numpy_batch(config, seeds, rec_step, total)


def reference_path(config, seed: int, steps: int) -> np.ndarray:
    """The states after each of `steps` Euler steps of `sde.numpy_path` from
    seed and the config's x0, which define the kernel's path."""
    from . import sde
    model, integ = config.model, config.integrator
    x, out = integ.initial_state(model.m), np.empty((steps, model.m))
    sde.numpy_path(model, config.noise, integ.dt, seed, x)(out)
    return out


def reference_screen(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sde.diverged, which defines the kernel's screening."""
    from . import sde
    return sde.diverged(theta, x)


def reference_replay(config, times: np.ndarray, xs: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    """numpy's replay updates, which define the kernel's."""
    from . import engine
    return engine.numpy_replay(config, times, xs, theta)


def reference_csv(block: np.ndarray) -> bytes:
    """Python's %, which defines the kernel's CSV lines."""
    from . import sde
    return sde.percent_lines(block)


def check_cells():
    """The load-time check's cells, (inside, outside) the kernel's CSV
    range: ±0, ±inf, NaN, the powers of ten where '%.12g' changes notation
    and their neighbours, two exact ties at the 13th digit (one rounds to
    even down, one up into the next power of ten) and the double nearest
    another, and each edge of the range beside the first value past it."""
    powers = [1e-5, 1e-4, 1e11, 1e12]
    near = [np.nextafter(p, to) for p in powers for to in (0.0, np.inf)]
    lo, hi = CSV_RANGE
    inside = np.array([0.0, np.inf, np.nan, *powers, *near, 100000000000.5,
                       999999999999.5, 9.9999999999995, lo, hi])
    outside = np.array([np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)])
    return np.concatenate([inside, -inside]), np.concatenate([outside, -outside])


def check_rows():
    """The load-time check's rows, theta (n, 2) and x (n, 1): each pair of
    theta entries beside each x entry, of ±0, ±bound, the doubles past them,
    ±inf, NaN and two ordinary values, at sde's bounds as they are now.  No
    run of the check reaches these edges, so they go through the screening
    entry point alone."""
    from . import sde

    def entries(bound):
        return [0.0, -0.0, bound, -bound, np.nextafter(bound, np.inf),
                np.nextafter(-bound, -np.inf), np.inf, -np.inf, np.nan, 1.5, -0.25]

    t, x = entries(sde.THETA_BOUND), entries(sde.DIVERGENCE_BOUND)
    rows = np.array([(a, b, c) for a in t for b in t for c in x])
    return rows[:, :2].copy(), rows[:, 2:].copy()


def check_configs() -> list:
    """One run_batch config per body in BODIES, for the load-time check;
    its checkpoints are t = 1, recorded before the burn-in, one between and
    the horizon, and its rate C_alpha makes 2 to 4 of the CHECK_REPS
    replications diverge (the replay runs at C_alpha = CHECK_C_ALPHA)."""
    from .engine import EngineConfig
    from .models import linear_system, mean_reversion, scalar_ou
    from .schedule import ScheduleSpec
    from .sde import IntegratorConfig
    dt = 0.01
    horizon = 1.0 + (CHECK_STEPS - CHECK_BURN_IN) * dt
    return [EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(c_alpha, 1.0),
                         integrator=IntegratorConfig(dt=dt, burn_in_steps=CHECK_BURN_IN),
                         horizon=horizon,
                         checkpoint_times=np.array([1.0, 1.0 + 7 * dt, horizon]))
            for (model, noise), c_alpha in (
                (scalar_ou(0.8, 1.3), 3200.0), (mean_reversion(1.3, -0.4, 0.7), 12.0),
                (linear_system([[1.2, 0.3], [-0.2, 0.9]], [[0.8, 0.0], [0.0, 1.1]]),
                 800.0))]


def check_seeds() -> list:
    """The seeds of the check's run: CHECK_SEEDS, then seed_split(CHECK_SEED,
    i) for i = 0, 1, ... up to CHECK_REPS seeds."""
    from .engine import seed_split
    pad = seed_split(CHECK_SEED, np.arange(CHECK_REPS - len(CHECK_SEEDS)))
    return [*CHECK_SEEDS, *pad.tolist()]


def _check_run(run, config) -> bytes:
    """The bytes of run(config, seeds, rec_step, total), the recorded rows
    and failing steps of the check's replications, seeded by check_seeds:
    the t = 1 rows hold each stream's theta0 draw, and the later ones
    depend on every normal it draws."""
    from .engine import record_steps
    _, rec_step, total = record_steps(config)
    return b"".join(a.tobytes() for a in run(config, check_seeds(), rec_step, total))


def _mismatch(lib):
    """Why the kernel differs from numpy, or None if it agrees: first its
    normals, then its screening, the run, the path and the replay of each
    body in BODIES, then its CSV lines."""
    from .engine import seed_split
    from .sde import IntegratorConfig
    seeds = seed_split(CHECK_SEED, np.arange(CHECK_GENERATORS)).tolist()
    bit_generators = [np.random.PCG64(seed) for seed in seeds]
    words = streams(bit_generators)
    got = normals(lib, words, CHECK_CALLS)
    want = [reference_normals(b, CHECK_CALLS) for b in bit_generators]
    if got.tobytes() != np.array(want).tobytes():
        return "its normal draws differ from numpy's standard_normal"
    if words.tobytes() != streams(bit_generators).tobytes():
        return "its normal draws leave another bit-generator state than numpy's"
    theta, x = check_rows()
    if screened(lib, theta, x).tolist() != reference_screen(theta, x).tolist():
        return "its screening differs from sde.diverged"
    rng = np.random.default_rng(CHECK_SEED)
    for config in check_configs():
        model = config.model
        body = "%s with m = %d" % (model.family, model.m)
        kernel = _check_run(lambda *args: batch(lib, *args), config)
        if kernel != _check_run(reference_batch, config):
            return "its run of body %s differs from numpy's run_batch loop" % body
        # the path: CHECK_STEPS steps from an x0 off zero, with no burn-in
        integ = IntegratorConfig(dt=config.integrator.dt, burn_in_steps=0,
                                 x0=np.linspace(0.7, -0.4, model.m))
        sched = dataclasses.replace(config.schedule, c_alpha=CHECK_C_ALPHA)
        config = dataclasses.replace(config, integrator=integ, schedule=sched)
        path = np.empty((CHECK_STEPS, model.m))
        bind_path(lib, model, config.noise, integ.dt, CHECK_SEED,
                  integ.initial_state(model.m))(path)
        if path.tobytes() != reference_path(config, CHECK_SEED, CHECK_STEPS).tobytes():
            return ("its path of body %s differs from simulate_path's euler_step loop"
                    % body)
        times = 1.0 + np.cumsum(rng.uniform(0.005, 0.02, CHECK_ROWS))
        xs = np.cumsum(0.1 * rng.standard_normal((CHECK_ROWS, model.m)), axis=0)
        theta = model.true_theta + rng.uniform(-0.5, 0.5, model.k)
        out = replay(lib, config, times, xs, theta)
        if out.tobytes() != reference_replay(config, times, xs, theta).tobytes():
            return "its replay of body %s differs from numpy's sgdct_step loop" % body
    inside, outside = check_cells()
    table = inside.reshape(-1, 2)
    lines = csv_lines(lib, table)
    if lines is None or bytes(lines) != reference_csv(table):
        return "its CSV lines differ from Python's %.12g"
    if any(csv_lines(lib, np.array([[v]])) is not None for v in outside):
        return "its CSV lines cover a cell past their range"
    lines = bytes(csv_lines(lib, table[(np.abs(table) < 1e22).all(axis=1)]))
    rows = csv_rows(lib, lines)
    # float, np.loadtxt's parse of a cell (a first np.loadtxt costs 144 KiB)
    want = np.array([[float(c) for c in line.split(b",")] for line in lines.splitlines()])
    if rows is None or rows.tobytes() != want.tobytes():
        return "its CSV rows differ from np.loadtxt's"
    return None


def load():
    """The kernel library, built on first use and checked against numpy;
    None where it is unavailable."""
    global _lib
    if _lib is None:
        try:
            lib = _open()
            reason = _mismatch(lib)
        except OSError as exc:
            reason = str(exc)
        if reason:
            warnings.warn("driftfit: the compiled step kernel is unavailable (%s); "
                          "running the numpy step loop" % reason, RuntimeWarning)
            _lib = False
        else:
            _lib = lib
    return _lib or None


def covers(model, noise) -> bool:
    """Whether the kernel runs this model: _kernel.c has a body for its
    (family, m), and sigma is diagonal."""
    return ((model.family, model.m) in BODIES
            and not np.count_nonzero(noise.sigma - np.diag(np.diag(noise.sigma))))


def covering(model, noise):
    """The kernel library, loaded, where it runs this model, else None."""
    return load() if covers(model, noise) else None


def loaded():
    """The kernel library where a step has loaded it, else None: formatting
    alone does not build and check it."""
    return _lib or None


def _check(a: np.ndarray, shape, dtype=np.float64) -> None:
    if a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-ordered %s of shape %s"
                         % (np.dtype(dtype).name, shape))


def _consts(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def batch(lib, config, seeds, rec_step: np.ndarray, total: int):
    """(rec_theta, rec_x, fail): `run_batch`'s run of total steps in one
    kernel call, from the seeds (`engine.seed_array`) to the rows after each
    step in the sorted rec_step, rec_theta (nrec, n, k) and rec_x (nrec, n,
    m), and each replication's first step screened as diverged, fail (n,), or
    -1."""
    from . import engine, sde
    model, noise, sched, integ = (config.model, config.noise, config.schedule,
                                  config.integrator)
    seeds = engine.seed_array(seeds)
    n, k, m = len(seeds), model.k, model.m
    rec_step = np.ascontiguousarray(rec_step, dtype=np.int64)
    # the kernel stops at each rec_step in turn, and at total
    if total < 0 or np.any(np.diff(rec_step, prepend=0, append=total) < 0):
        raise ValueError("rec_step must be sorted within [0, total = %d]" % total)
    # the kernel reads these through their addresses, so they are held here
    consts = _consts(model.true_theta, noise.sigma.T, noise.a_inv, config.theta0_lo,
                     config.theta0_hi, integ.initial_state(m))
    at = [a.ctypes.data for a in consts]
    rec_theta = np.empty((len(rec_step), n, k))
    rec_x = np.empty((len(rec_step), n, m))
    fail = np.empty(n, dtype=np.int64)
    lib.driftfit_batch(CODES[model.family], m, *at[:3], integ.dt, float(sched.c_alpha),
                       float(sched.c0), *at[3:], integ.burn_in_steps, total,
                       engine.CHECK_EVERY, sde.THETA_BOUND, sde.DIVERGENCE_BOUND, n,
                       seeds.ctypes.data, len(rec_step), rec_step.ctypes.data,
                       rec_theta.ctypes.data, rec_x.ctypes.data, fail.ctypes.data)
    return rec_theta, rec_x, fail


def bind_path(lib, model, noise, dt: float, seed: int, x: np.ndarray):
    """steps(out): run len(out) of `sde.simulate_path`'s Euler steps in the
    kernel, drawing from the stream of np.random.PCG64(seed) and updating x
    in place, with the state after step j in out[j]."""
    words = streams([np.random.PCG64(seed)])
    m = model.m
    _check(x, (m,))
    consts = _consts(model.true_theta, noise.sigma.T)
    head = (CODES[model.family], m, *[a.ctypes.data for a in consts], dt,
            words.ctypes.data)

    def steps(out, _keep=(consts, words, x)):
        _check(out, (len(out), m))
        lib.driftfit_path(*head, len(out), x.ctypes.data, out.ctypes.data)

    return steps


def replay(lib, config, times: np.ndarray, xs: np.ndarray, theta: np.ndarray):
    """The CSV replay's SGDCT updates in the kernel, from theta: row i of the
    (rows - 1, k) result is the theta of update i, driven by the increments
    from row i to row i + 1 of (times, xs)."""
    model, noise, sched = config.model, config.noise, config.schedule
    rows, k, m = len(times), model.k, model.m
    times, xs, a_inv, theta = _consts(times, xs, noise.a_inv, theta)
    _check(times, (rows,))
    _check(xs, (rows, m))
    _check(theta, (k,))
    out = np.empty((rows - 1, k))
    lib.driftfit_replay(CODES[model.family], m, a_inv.ctypes.data,
                        float(sched.c_alpha), float(sched.c0), rows, times.ctypes.data,
                        xs.ctypes.data, theta.ctypes.data, out.ctypes.data)
    return out


def csv_lines(lib, block: np.ndarray):
    """The '%.12g' CSV lines of a 2-d block (cast to float64), formatted by
    the kernel into a buffer of CSV_CELL bytes a cell and CSV_SLACK more, as
    a view of it; None where a cell lies outside CSV_RANGE."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("a CSV block must be 2-d")
    buf = np.empty(block.size * CSV_CELL + CSV_SLACK, dtype=np.uint8)
    n = lib.driftfit_csv(block.ctypes.data, *block.shape, buf.ctypes.data)
    return None if n < 0 else buf.data[:n]


def csv_rows(lib, text: bytes, start: int = 0):
    """The float64 rows of the CSV lines text[start:], read by the kernel,
    as many columns as the first line has cells; None where the lines lie
    outside driftfit_parse's grammar."""
    body = np.frombuffer(text, dtype=np.uint8)[start:]
    cols = text.count(b",", start, text.find(b"\n", start)) + 1
    at, size = body.ctypes.data, len(body)
    out = np.empty((lib.driftfit_parse(at, size, cols, None), cols))  # a row a newline
    return None if lib.driftfit_parse(at, size, cols, out.ctypes.data) < 0 else out
