"""The golden pins hold with numpy's AVX-512 kernels turned off.

numpy picks CPU-specific kernels at run time, and ``np.exp`` and ``np.log``
give other bits under its AVX-512 kernels than under its AVX2 ones. The
golden schedule digests rest on those bits. So this runs
``tests/test_golden.py`` in a child process whose numpy leaves the host's
AVX-512 dispatch groups off (``NPY_DISABLE_CPU_FEATURES``, a per-process
variable), as on an AVX2-only host, and requires the same pins to hold.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GROUPS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
_UMATH = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
#: the groups numpy dispatches to on this host, the ones worth turning off
ACTIVE = [group for group in GROUPS
          if group in _UMATH.__cpu_dispatch__ and _UMATH.__cpu_features__.get(group)]
TESTS = Path(__file__).resolve().parent


@pytest.mark.skipif(not ACTIVE, reason="numpy dispatches to none of the AVX-512 groups "
                                       f"{', '.join(GROUPS)} on this host: turning them off "
                                       "would rerun the default kernels")
def test_golden_pins_hold_without_avx512_kernels():
    # the child checks that numpy took the variable before it runs the pins
    code = ("import sys, numpy, pytest\n"
            "core = numpy._core if hasattr(numpy, '_core') else numpy.core\n"
            "features = core._multiarray_umath.__cpu_features__\n"
            f"assert not any(features[group] for group in {ACTIVE!r}), 'still dispatched'\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
            f"{str(TESTS / 'test_golden.py')!r}]))\n")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(ACTIVE)}
    child = subprocess.run([sys.executable, "-c", code], cwd=TESTS.parent, env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
