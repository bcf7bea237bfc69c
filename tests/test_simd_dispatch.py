"""The golden pins and a replayed evolution hold with numpy's AVX-512
kernels turned off.

numpy picks CPU-specific kernels at run time, and ``np.exp`` and ``np.log``
give other bits under its AVX-512 kernels than under its AVX2 ones. The
golden schedule digests rest on those bits, and so does a replay: a prompt
carries each rule's fitness, and the request digest hashes the prompt. So
these tests run a child process whose numpy leaves the host's AVX-512
dispatch groups off (``NPY_DISABLE_CPU_FEATURES``, a per-process variable),
as on an AVX2-only host. In it ``tests/test_golden.py`` must pass, and
acceptance test 3's mock cassette, recorded in this process, must replay to
the same journal bytes and the same incumbent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fafsp.rundir import write_journal

from test_acceptance import _record_mock_cassette

GROUPS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
_UMATH = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
#: the groups numpy dispatches to on this host, the ones worth turning off
ACTIVE = [group for group in GROUPS
          if group in _UMATH.__cpu_dispatch__ and _UMATH.__cpu_features__.get(group)]
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

pytestmark = pytest.mark.skipif(
    not ACTIVE, reason="numpy dispatches to none of the AVX-512 groups "
                       f"{', '.join(GROUPS)} on this host: turning them off "
                       "would rerun the default kernels")


def _run_without_avx512(body: str) -> subprocess.CompletedProcess:
    """Run the Python text ``body`` in a child whose numpy has the host's
    AVX-512 groups off; the child checks that numpy took the variable
    first, and imports fafsp and the test modules."""
    code = ("import sys, numpy\n"
            f"sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]\n"
            "core = numpy._core if hasattr(numpy, '_core') else numpy.core\n"
            "features = core._multiarray_umath.__cpu_features__\n"
            f"assert not any(features[group] for group in {ACTIVE!r}), 'still dispatched'\n"
            + body)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(ACTIVE)}
    return subprocess.run([sys.executable, "-c", code], cwd=TESTS.parent, env=env,
                          capture_output=True, text=True, timeout=600)


def test_golden_pins_hold_without_avx512_kernels():
    child = _run_without_avx512(
        "import pytest\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
        f"{str(TESTS / 'test_golden.py')!r}]))\n")
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]


def test_mock_cassette_replays_without_avx512_kernels(tmp_path):
    cassette, here, there = (tmp_path / name for name in
                             ("cassette.jsonl", "journal.jsonl", "child-journal.jsonl"))
    recorded = _record_mock_cassette(cassette)
    write_journal(recorded.journal, here)
    child = _run_without_avx512(
        "import json\n"
        "from fafsp.rundir import write_journal\n"
        "from fafsp.evolve import EvolutionConfig, run_evolution\n"
        "from fafsp.llm import ReplayTransport\n"
        "from test_acceptance import _training_instances\n"
        "result = run_evolution(EvolutionConfig(generations=5, population=4, seed=17), "
        f"ReplayTransport({str(cassette)!r}), _training_instances())\n"
        f"write_journal(result.journal, {str(there)!r})\n"
        "print(json.dumps([result.best.source, repr(result.best.fitness)]))\n")
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert there.read_bytes() == here.read_bytes()
    assert json.loads(child.stdout.splitlines()[-1]) == [recorded.best.source,
                                                         repr(recorded.best.fitness)]
