"""Builds, caches, checks and binds the compiled SGDCT kernel `_kernel.c`.

The kernel has three entry points: a span of `engine.run_batch`'s steps
(`bind`), the Euler steps of `sde.simulate_path` (`bind_path`) and the CSV
replay's updates (`replay`).  It runs the models of `models.FAMILIES` that
`covers` accepts, reading their parameters from `true_theta`; the others
run the numpy code, which defines the results.

The kernel draws its normals through an inlined copy of numpy's ziggurat,
on numpy's own tables: `objcopy` makes them global in a private copy of
numpy's `libnpyrandom.a`, which the kernel is linked against.  It is
compiled with the system C compiler at the first call that can use it,
never at import, for the highest x86-64 level the CPU has (`march`).  The
shared library goes into a per-user cache directory, keyed by the hash of
the source, the flags (the level among them), the numpy version and the
platform, so a machine compiles it once, and a home directory shared with
another CPU never loads a kernel built for a level that CPU lacks.

Each process checks it before use (`_mismatch`): CHECK_DRAWS normals from a
fixed PCG64 seed, drawn through the span's own replication loop
(`normals`), must equal `Generator.standard_normal`'s bytes and leave the
same bit-generator state; then a small span and a replay of each body in
BODIES must give the bytes of the numpy code they stand for.  Where it
cannot be built or loaded, or fails that check, every entry point runs
numpy and one RuntimeWarning per process says why.
"""
from __future__ import annotations

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
CHECK_DRAWS = 1 << 16
# the check's span per body: CHECK_REPS replications, full blocks of lanes
# (8 or 4) and a partial one, over CHECK_STEPS steps of which CHECK_BURN_IN
# are burn-in, in two calls; and its replay over CHECK_ROWS rows
CHECK_REPS, CHECK_STEPS, CHECK_BURN_IN, CHECK_ROWS = 19, 40, 5, 30

_lib = None  # the loaded kernel library; False once loading has failed


def cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "driftfit")


def _check_private(path: str) -> None:
    """Refuse a path that another user owns or can write."""
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError("%s is writable by another user" % path)


def _run(argv) -> None:
    """Run a build tool; OSError if it is missing or fails."""
    import subprocess
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode:
        last = (done.stderr.strip().splitlines() or [""])[-1]
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
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    flags = CFLAGS + march()
    key = hashlib.sha256(b"\0".join([
        source, " ".join(flags).encode(), np.__version__.encode(),
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
        _run([CC, *flags, "-I", np.get_include(), "-o", tmp, SOURCE, tables, "-lm"])
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


def _open():
    """The built kernel library, its entry points declared to ctypes."""
    import ctypes
    path = _build()
    _check_private(path)
    lib = ctypes.CDLL(path)
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.driftfit_span.restype = ctypes.c_int
    lib.driftfit_span.argtypes = [ctypes.c_int, i64, ptr, ptr, ptr, dbl, dbl, dbl,
                                  i64, i64, i64, i64, ptr, ptr, ptr]
    lib.driftfit_path.restype = ctypes.c_int
    lib.driftfit_path.argtypes = [ctypes.c_int, i64, ptr, ptr, dbl, ptr, i64, ptr,
                                  ptr]
    lib.driftfit_replay.restype = ctypes.c_int
    lib.driftfit_replay.argtypes = [ctypes.c_int, i64, ptr, dbl, dbl, i64, ptr, ptr,
                                    ptr, ptr]
    return lib


def _bitgens(bit_generators) -> list:
    """The address of each numpy bit generator's bitgen_t, from its capsule."""
    import ctypes
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return [pointer(b.capsule, b"BitGenerator") for b in bit_generators]


def normals(lib, bit_generator, n: int) -> np.ndarray:
    """n standard normals drawn from bit_generator by the kernel's ziggurat,
    through driftfit_span: one burn-in step of family linear with m = 1,
    p = 0, sigma = 1 and dt = 1, over n replications that all draw from
    bit_generator.  x_i ends as -0.0 + xi_i, which is draw i bit for bit
    (from +0.0, a -0.0 draw would end as +0.0).  That holds because the span
    draws replications 0..n-1 in order within one step, whatever its blocks;
    over two or more steps of shared generators, the draws would interleave
    block by block."""
    gens = np.full(n, _bitgens([bit_generator])[0], dtype=np.uintp)
    zero, one, theta, x = np.zeros(1), np.ones(1), np.empty(n), np.full(n, -0.0)
    lib.driftfit_span(CODES["linear"], 1, zero.ctypes.data, one.ctypes.data,
                      one.ctypes.data, 1.0, 1.0, 0.0, 0, 1, 1, n, gens.ctypes.data,
                      theta.ctypes.data, x.ctypes.data)
    return x


def reference_normals(bit_generator, n: int) -> np.ndarray:
    """numpy's own draws, which define the kernel's."""
    return np.random.Generator(bit_generator).standard_normal(n)


def reference_steps(config, gens, theta: np.ndarray, x: np.ndarray):
    """numpy's step loop, which defines the kernel's span."""
    from . import engine
    return engine.numpy_steps(config, gens, theta, x)


def reference_replay(config, times: np.ndarray, xs: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    """numpy's replay updates, which define the kernel's."""
    from . import engine
    return engine.numpy_replay(config, times, xs, theta)


def check_configs() -> list:
    """One run_batch config per body in BODIES, for the load-time check."""
    from .engine import EngineConfig
    from .models import linear_system, mean_reversion, scalar_ou
    from .schedule import ScheduleSpec
    from .sde import IntegratorConfig
    dt = 0.01
    horizon = 1.0 + (CHECK_STEPS - CHECK_BURN_IN) * dt
    return [EngineConfig(model=model, noise=noise, schedule=ScheduleSpec(4.0, 1.0),
                         integrator=IntegratorConfig(dt=dt, burn_in_steps=CHECK_BURN_IN),
                         horizon=horizon, checkpoint_times=np.array([horizon]))
            for model, noise in (scalar_ou(0.8, 1.3), mean_reversion(1.3, -0.4, 0.7),
                                 linear_system([[1.2, 0.3], [-0.2, 0.9]],
                                               [[0.8, 0.0], [0.0, 1.1]]))]


def _check_span(steps, config) -> bytes:
    """The bytes of theta and x after the check's span, run by
    steps(config, gens, theta, x) in two calls."""
    from .engine import seed_split
    rng = np.random.default_rng(CHECK_SEED)
    n, model = CHECK_REPS, config.model
    theta = model.true_theta + rng.uniform(-0.5, 0.5, (n, model.k))
    x = rng.standard_normal((n, model.m))
    gens = [np.random.Generator(np.random.PCG64(seed_split(CHECK_SEED, i)))
            for i in range(n)]
    advance = steps(config, gens, theta, x)
    advance(0, CHECK_STEPS // 2)
    advance(CHECK_STEPS // 2, CHECK_STEPS)
    return theta.tobytes() + x.tobytes()


def _mismatch(lib):
    """Why the kernel differs from numpy, or None if it agrees: first its
    normals, then the span and the replay of each body in BODIES."""
    ours, theirs = np.random.PCG64(CHECK_SEED), np.random.PCG64(CHECK_SEED)
    got = normals(lib, ours, CHECK_DRAWS)
    if got.tobytes() != reference_normals(theirs, CHECK_DRAWS).tobytes():
        return "its normal draws differ from numpy's standard_normal"
    if ours.state != theirs.state:
        return "its normal draws leave another bit-generator state than numpy's"
    rng = np.random.default_rng(CHECK_SEED)
    for config in check_configs():
        model = config.model
        body = "%s with m = %d" % (model.family, model.m)
        kernel = _check_span(lambda *args: _bind(lib, *args), config)
        if kernel != _check_span(reference_steps, config):
            return "its span of body %s differs from numpy's step loop" % body
        times = 1.0 + np.cumsum(rng.uniform(0.005, 0.02, CHECK_ROWS))
        xs = np.cumsum(0.1 * rng.standard_normal((CHECK_ROWS, model.m)), axis=0)
        theta = model.true_theta + rng.uniform(-0.5, 0.5, model.k)
        out = np.empty((CHECK_ROWS - 1, model.k))
        _replay(lib, config, times, xs, theta, out)
        if out.tobytes() != reference_replay(config, times, xs, theta).tobytes():
            return "its replay of body %s differs from numpy's sgdct_step loop" % body
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
    """Whether the kernel runs this model: its drift and gradient are its
    family's, its true drift is the family's drift at model.true_theta itself
    (a partial, as `models.family_model` makes it), _kernel.c has a body for
    its (family, m), and sigma is diagonal."""
    from .models import FAMILIES
    drift, grad = FAMILIES.get(model.family, (None, None))
    true = model.true_drift_fn
    return (drift is not None and (model.drift_fn, model.drift_grad_fn) == (drift, grad)
            and getattr(true, "func", None) is drift
            and getattr(true, "keywords", {}).get("theta") is model.true_theta
            and (model.family, model.m) in BODIES
            and not np.count_nonzero(noise.sigma - np.diag(np.diag(noise.sigma))))


def _covering(model, noise):
    """The kernel library where it runs this model, else None."""
    return load() if covers(model, noise) else None


def _check(a: np.ndarray, shape) -> None:
    if a.shape != shape or a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-ordered float64 of shape %s"
                         % (shape,))


def _consts(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def _entry(lib, name: str, model):
    """call(*args): lib's driftfit_<name> with the model's family and m as its
    first two arguments; it raises ValueError where the kernel returns -1,
    not covering them."""
    fn = getattr(lib, "driftfit_" + name)
    head = (CODES[model.family], model.m)

    def call(*args):
        if fn(*head, *args) < 0:
            raise ValueError("the kernel does not cover model %r" % model.name)

    return call


def bind(config, gens, theta: np.ndarray, x: np.ndarray):
    """advance(lo, hi): run steps [lo, hi) of `run_batch` in the kernel,
    updating theta and x in place; None where the numpy loop must run."""
    lib = _covering(config.model, config.noise)
    return None if lib is None else _bind(lib, config, gens, theta, x)


def _bind(lib, config, gens, theta: np.ndarray, x: np.ndarray):
    """`bind` on the library lib."""
    import ctypes
    model, noise = config.model, config.noise
    span = _entry(lib, "span", model)
    n, k, m = len(gens), model.k, model.m
    _check(theta, (n, k))
    _check(x, (n, m))
    bitgens = (ctypes.c_void_p * n)(*_bitgens(g.bit_generator for g in gens))
    consts = _consts(model.true_theta, noise.sigma.T, noise.a_inv)
    sched, integ = config.schedule, config.integrator
    head = (*[a.ctypes.data for a in consts], integ.dt, float(sched.c_alpha),
            float(sched.c0))
    tail = (integ.burn_in_steps, n, ctypes.addressof(bitgens), theta.ctypes.data,
            x.ctypes.data)

    # the kernel reads these through the addresses in head and tail, so
    # advance holds them for as long as it lives
    def advance(lo: int, hi: int, _keep=(consts, bitgens, gens, theta, x)):
        span(*head, lo, hi - lo, *tail)

    return advance


def bind_path(model, noise, dt: float, rng, x: np.ndarray):
    """steps(out): run len(out) of `sde.simulate_path`'s Euler steps in the
    kernel, drawing from rng and updating x in place, with the state after
    step j in out[j].  None where the numpy loop must run."""
    lib = _covering(model, noise)
    if lib is None:
        return None
    path = _entry(lib, "path", model)
    m = model.m
    _check(x, (m,))
    consts = _consts(model.true_theta, noise.sigma.T)
    head = (*[a.ctypes.data for a in consts], dt, _bitgens([rng.bit_generator])[0])

    def steps(out, _keep=(consts, rng, x)):
        _check(out, (len(out), m))
        path(*head, len(out), x.ctypes.data, out.ctypes.data)

    return steps


def replay(config, times: np.ndarray, xs: np.ndarray, theta: np.ndarray,
           out: np.ndarray):
    """Run the CSV replay's SGDCT updates in the kernel, from theta: update i
    is driven by the increments from row i to row i + 1 of (times, xs), and
    its theta goes to out[i].  True, or None where the numpy loop must run."""
    lib = _covering(config.model, config.noise)
    return None if lib is None else _replay(lib, config, times, xs, theta, out)


def _replay(lib, config, times: np.ndarray, xs: np.ndarray, theta: np.ndarray,
            out: np.ndarray):
    """`replay` on the library lib."""
    model, noise, sched = config.model, config.noise, config.schedule
    run = _entry(lib, "replay", model)
    rows, k, m = len(times), model.k, model.m
    times, xs, a_inv, theta = _consts(times, xs, noise.a_inv, theta)
    _check(times, (rows,))
    _check(xs, (rows, m))
    _check(theta, (k,))
    _check(out, (rows - 1, k))
    run(a_inv.ctypes.data, float(sched.c_alpha), float(sched.c0), rows,
        times.ctypes.data, xs.ctypes.data, theta.ctypes.data, out.ctypes.data)
    return True
