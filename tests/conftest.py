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
