"""fafsp benchmark: one workload, one closed-loop run, metrics as JSON.

    python3 perfbench/run.py --workload rollout-5x12 --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``. One
process and one thread issue each call after the last returns, with the
BLAS thread pools pinned to 1. Set-up is timed on its own (repeated, median
reported), then fixed passes of the workload run until ``--seconds`` have
gone by. Times are host times rescaled to a reference speed (speed.py);
medians are over passes and percentiles over rollouts.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` sets up once under tracing, runs untraced passes for half the
time and traced passes for the other half, and reports the per-layer
metrics, including the tracing overhead. Either way every rollout's
``schedule_to_text`` is hashed and checked with ``validate_schedule``
outside the timed region, the digests of every pass must agree, and on the
default seed they must equal the ones committed in ``expected.json``. The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from speed import Timeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEFAULT_SEED = 0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Hashes and validates each pass's outputs, after its timed region,
    and keeps the operation counts behind ``failed_frac``."""

    def __init__(self, wl, expected: dict | None):
        self.wl = wl
        self.expected = expected
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.last = None                        # the latest pass's outcome

    def check(self, out, log: list, rollouts: int) -> None:
        from fafsp.sim import schedule_to_text
        from fafsp.validator import validate_schedule

        self.attempted += rollouts + out.ops
        self.failed += out.failed
        validated = {id(sched) for _, sched in out.outputs}     # inside the pass
        digests = []
        for inst, sched in log + out.outputs:
            digests.append(_sha(schedule_to_text(sched).encode()))
            if id(sched) not in validated:
                self.attempted += 1
                self.failed += bool(validate_schedule(inst, sched))
        got = {"schedules": _sha("\n".join(digests).encode())}
        if hasattr(self.wl, "journal_bytes"):
            got["journal"] = _sha(self.wl.journal_bytes(out.journal_entries))
            got["incumbent"] = out.incumbent
        if self.reference is None:
            self.reference = got
            if hasattr(self.wl, "dominance_failures"):
                self.attempted += len(out.oracle)
                self.failed += self.wl.dominance_failures(out.oracle)
        want = self.expected if self.expected is not None else self.reference
        if got != want:
            source = "expected.json" if self.expected is not None else "the first pass"
            message = f"digests {got} differ from {source}'s {want}"
            if message not in self.mismatches:
                self.mismatches.append(message)
            self.failed += rollouts             # a wrong schedule fails its rollout
        self.last = out


class Passes:
    """Host intervals of repeated passes and of their rollouts; rescaled to
    the reference speed (speed.py) when the run is over."""

    def __init__(self):
        self.passes: list[tuple[float, float]] = []
        self.rollouts: list[tuple[float, float]] = []
        self.jobs = 0                       # jobs dispatched over all rollouts

    def seconds(self, timeline: Timeline, rollouts: bool = False):
        t0, t1 = np.array(self.rollouts if rollouts else self.passes).T
        return timeline.rescale(t0, t1), t1 - t0


def run_passes(wl, probe, checker: Checker, seconds: float, trace_marks: list | None = None
               ) -> Passes:
    """Whole passes until `seconds` of wall time are gone (at least two)."""
    passes = Passes()
    start = time.perf_counter()
    while len(passes.passes) < 2 or time.perf_counter() - start < seconds:
        before = probe.rollouts
        probe.timeline.tick()
        if trace_marks is not None:
            first = probe.mark()
            root = probe.open("pass")
        t0 = time.perf_counter()
        out = wl.run_pass(probe)
        t1 = time.perf_counter()
        if trace_marks is not None:
            probe.close(root)
            trace_marks.append(range(first, probe.mark()))
        probe.timeline.tick()
        log, intervals, jobs = probe.take()
        passes.passes.append((t0, t1))
        passes.rollouts += intervals
        passes.jobs += sum(jobs)
        checker.check(out, log, probe.rollouts - before)
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fafsp" / "__init__.py").is_file():
        _fail(f"no fafsp sources under {ROOT / 'src'}; run from a repository checkout")
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, str(ROOT / "src"))

    import fafsp
    from layers import EXACT, per_layer, quantile
    from probe import Probe, TracedProbe, shims
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    checker = Checker(wl, expected)

    print(f"# env: python {platform.python_version()}, numpy {np.__version__}, "
          f"fafsp {fafsp.__version__}, os.cpu_count() {os.cpu_count()}, "
          f"BLAS threads OMP/OPENBLAS/MKL_NUM_THREADS="
          f"{os.environ['OMP_NUM_THREADS']}, {platform.machine()}")
    print(f"# run: workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}, closed loop, 1 process, 1 thread")

    timeline = Timeline()
    metrics: dict[str, tuple[float, int]] = {}
    try:
        if args.trace == 0:
            probe = Probe(timeline)
            setups = []
            with shims(probe):
                for _ in range(SETUP_REPEATS):
                    timeline.tick()
                    t0 = time.perf_counter()
                    wl.setup(probe)
                    setups.append((t0, time.perf_counter()))
                    timeline.tick()
                probe.take()
                passes = run_passes(wl, probe, checker, args.seconds)
            setup_s = timeline.rescale(*np.array(setups).T)
            pass_s, pass_raw = passes.seconds(timeline)
            roll_s, _ = passes.seconds(timeline, rollouts=True)
            roll_ms = (roll_s * 1e3).tolist()
            metrics["setup_s"] = (statistics.median(setup_s), len(setup_s))
            metrics["run_s"] = (statistics.median(pass_s), len(pass_s))
            metrics["jobs_per_s"] = (passes.jobs / roll_s.sum(), len(roll_ms))
            metrics["rollout_ms_p50"] = (statistics.median(roll_ms), len(roll_ms))
            metrics["rollout_ms_p90"] = (quantile(roll_ms, 9), len(roll_ms))
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
            specs = manifest["end_to_end"]
            print(f"# host time, not rescaled: run_s {statistics.median(pass_raw):.6g}")
        else:
            probe, traced = Probe(timeline), TracedProbe(timeline)
            with shims(traced):
                wl.setup(traced)
            setup_range = range(0, traced.mark())
            with shims(probe):
                untraced = run_passes(wl, probe, checker, args.seconds / 2)
            marks: list[range] = []
            with shims(traced):
                run_passes(wl, traced, checker, args.seconds / 2, marks)
            timeline.tick()
            last = checker.last
            metrics, unsteady = per_layer(traced, timeline, setup_range, marks,
                                          untraced.seconds(timeline)[0],
                                          last.journal_entries, last.replay_misses)
            for name in unsteady:
                checker.mismatches.append(f"{name} differs between traced passes")
                checker.failed += 1
            OUT_DIR.mkdir(exist_ok=True)
            traced.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
            specs = manifest["per_layer"]
    finally:
        if hasattr(wl, "close"):
            wl.close()

    factors = timeline.factors()
    print(f"# reference speed: {len(factors)} kernel ticks, host-to-reference factor "
          f"{factors.min():.4g}..{factors.max():.4g}, median {np.median(factors):.4g}")
    print(f"# digests: {json.dumps(checker.reference, sort_keys=True)}")
    print(f"# operations: attempted {checker.attempted}, failed {checker.failed}, "
          f"failed_frac {checker.failed / max(checker.attempted, 1):.6g}")
    for line in checker.mismatches:
        print(f"# MISMATCH: {line}")
    result = {}
    for spec in specs:
        value, count = metrics[spec["name"]]
        exact = " (exact)" if spec["name"] in EXACT else ""
        print(f"{spec['name']:28s} {value:14.6g} {spec['unit']:6s} n={count}{exact}")
        result[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    correct = checker.failed == 0 and not checker.mismatches
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
