import shutil

import pytest

from driftfit import _kernel

# for tests that need the compiled kernel itself, not its numpy fallback
needs_compiler = pytest.mark.skipif(
    None in map(shutil.which, (_kernel.CC, _kernel.OBJCOPY)),
    reason="no C compiler or objcopy to build the kernel")
