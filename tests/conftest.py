import contextlib
import shutil

import pytest

from driftfit import _kernel

has_compiler = None not in map(shutil.which, (_kernel.CC, _kernel.OBJCOPY))
# for tests that need the compiled kernel itself, not its numpy fallback
needs_compiler = pytest.mark.skipif(
    not has_compiler, reason="no C compiler or objcopy to build the kernel")


@contextlib.contextmanager
def numpy_loop():
    """Inside it every kernel entry point runs its numpy code, as in a process
    where the kernel failed to load."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_lib", False)
        yield


class Recording:
    """A kernel library whose driftfit_* calls are recorded in `calls`, as
    (entry point, return value), in order."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if not name.startswith("driftfit_"):
            return fn

        def call(*args):
            out = fn(*args)
            self.calls.append((name, out))
            return out

        return call


@contextlib.contextmanager
def kernel_calls():
    """Inside it the kernel, where it loads, is a Recording, and the list of
    its calls is what it yields; where it does not load, that list stays
    empty, and every entry point runs its numpy code."""
    lib = _kernel.load()
    recording = Recording(lib)
    with pytest.MonkeyPatch.context() as mp:
        if lib is not None:
            mp.setattr(_kernel, "_lib", recording)
        yield recording.calls
