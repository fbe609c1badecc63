"""Builds, caches and binds the compiled span kernel `_kernel.c`.

The kernel is compiled with the system C compiler at the first `run_batch`
that can use it, never at import.  The shared library goes into a per-user
cache directory, keyed by the hash of the source, the flags, the numpy
version and the platform, so a machine compiles it once.  Where it cannot
be built or loaded, `run_batch` runs its numpy step loop and one
RuntimeWarning says why.
"""
from __future__ import annotations

import hashlib
import os
import stat
import warnings

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
CC = "gcc"
# never -ffast-math or -march=native: the kernel must round like numpy
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
FAMILIES = {"linear": 0, "affine": 1}
# numpy sums three or more drift terms in SIMD-lane order, which the kernel
# does not copy, so larger linear systems stay on the numpy loop
MAX_DIM = 2

_span = None  # the loaded kernel function; False once loading has failed


def cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "driftfit")


def _check_private(path: str) -> None:
    """Refuse a path that another user owns or can write."""
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError("%s is writable by another user" % path)


def _build() -> str:
    """Path of the cached shared library, compiling it if it is missing."""
    import subprocess
    import sysconfig
    import tempfile
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(b"\0".join([
        source, " ".join(CFLAGS).encode(), np.__version__.encode(),
        sysconfig.get_platform().encode()])).hexdigest()
    directory = cache_dir()
    os.makedirs(directory, mode=0o700, exist_ok=True)
    _check_private(directory)
    path = os.path.join(directory, "span-%s.so" % key[:24])
    if os.path.exists(path):
        return path
    npyrandom = os.path.join(os.path.dirname(np.__file__), "random", "lib",
                             "libnpyrandom.a")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run([CC, *CFLAGS, "-I", np.get_include(), "-o", tmp,
                               SOURCE, npyrandom, "-lm"],
                              capture_output=True, text=True)
        if done.returncode:
            last = (done.stderr.strip().splitlines() or [""])[-1]
            raise OSError("%s exited with status %d: %s" % (CC, done.returncode, last))
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load():
    """The kernel function, built on first use; None where it is unavailable."""
    global _span
    if _span is None:
        import ctypes
        try:
            path = _build()
            _check_private(path)
            fn = ctypes.CDLL(path).driftfit_span
        except OSError as exc:
            warnings.warn("driftfit: the compiled step kernel is unavailable (%s); "
                          "running the numpy step loop" % exc, RuntimeWarning)
            _span = False
        else:
            i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            fn.restype = ctypes.c_int
            fn.argtypes = [ctypes.c_int, i64, ptr, ptr, ptr, dbl, dbl, dbl, dbl,
                           i64, i64, i64, i64, ptr, ptr, ptr, ptr]
            _span = fn
    return _span or None


def bind(config, gens, theta: np.ndarray, x: np.ndarray, alive: np.ndarray):
    """advance(lo, hi): run steps [lo, hi) of `run_batch` in the kernel,
    updating theta and x in place; None where the numpy loop must run.

    The kernel runs a model only if its drift, gradient and true drift are
    still the callables its factory described, and sigma is diagonal.
    """
    model, noise = config.model, config.noise
    form = model.compiled
    if (form is None
            or not all(a is b for a, b in zip(
                (model.drift_fn, model.drift_grad_fn, model.true_drift_fn),
                form.callables))
            or model.m > MAX_DIM
            or np.count_nonzero(noise.sigma - np.diag(np.diag(noise.sigma)))):
        return None
    fn = load()
    if fn is None:
        return None
    import ctypes
    n, k, m = len(gens), model.k, model.m
    for a, shape, dtype in ((theta, (n, k), np.float64), (x, (n, m), np.float64),
                            (alive, (n,), np.bool_)):
        if a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous:
            raise ValueError("kernel arrays must be C-ordered %s of shape %s"
                             % (np.dtype(dtype), shape))
    bitgens = (ctypes.c_void_p * n)(
        *[g.bit_generator.ctypes.bit_generator.value for g in gens])
    consts = [np.ascontiguousarray(a, dtype=np.float64)
              for a in (form.params, noise.sigma.T, noise.a_inv)]
    sched, integ = config.schedule, config.integrator
    head = (FAMILIES[form.family], m, *[a.ctypes.data for a in consts],
            integ.dt, float(np.sqrt(integ.dt)), float(sched.c_alpha),
            float(sched.c0))
    tail = (integ.burn_in_steps, n, ctypes.addressof(bitgens), alive.ctypes.data,
            theta.ctypes.data, x.ctypes.data)

    # the kernel reads these through the addresses in head and tail, so
    # advance holds them for as long as it lives
    def advance(lo: int, hi: int, _keep=(consts, bitgens, gens, alive, theta, x)):
        if fn(*head, lo, hi - lo, *tail):
            raise ValueError("the kernel does not cover model %r" % model.name)

    return advance
