"""Rescaling host times to a fixed reference speed.

On a shared host the CPU a process gets runs at changing speed: phases of
a few to tens of seconds in which the same rollout takes 1.5-2x as long,
with wall time equal to CPU time (so it is not preemption). A whole run can
fall inside a slow phase, which no statistic over that run's own samples can
undo. So the benchmark keeps a timeline of a small reference kernel that
does not touch fafsp (interpreter work mixed with small numpy operations,
like a rollout): it is timed at every measured boundary and between
rollouts, at most every ``GAP_S``. Between two ticks, host time is scaled by
``REF_S`` over the mean of their kernel times, and the ticks' own time is
left out. A change to fafsp cannot move the kernel, so it moves rescaled
times as it moves host time; a slow phase moves both and cancels out. Raw
host times are printed as well.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's time at the reference speed (about its fastest on a 2-CPU
#: x86_64 cloud VM); rescaled times read as host seconds at that speed.
REF_S = 0.002
GAP_S = 0.03
_REPS = 1

pc = time.perf_counter


def _kernel() -> float:
    a = np.arange(64, dtype=float)
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(400):
        b = a * 1.0001 + i
        k = int(np.flatnonzero(b > 40 + (i % 7))[0])
        counts[i % 97] = counts.get(i % 97, 0) + k
        acc += float(b[k])
    return acc


def reference_time() -> float:
    """Fastest of a few kernel runs, in seconds."""
    best = float("inf")
    for _ in range(_REPS):
        t0 = pc()
        _kernel()
        best = min(best, pc() - t0)
    return best


class Timeline:
    """Kernel ticks over the run, and the rescaling they imply."""

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []    # (start, end, kernel s)
        self.tick()

    def tick(self) -> None:
        start = pc()
        ref = reference_time()
        self.ticks.append((start, pc(), ref))

    def maybe_tick(self) -> None:
        """Tick if GAP_S has passed since the last one (call between rollouts)."""
        if pc() - self.ticks[-1][1] >= GAP_S:
            self.tick()

    def rescale(self, t0, t1):
        """Rescaled seconds between host times t0 and t1 (scalars or arrays)."""
        starts, ends, refs = (np.array(c) for c in zip(*self.ticks))
        rate = REF_S / np.concatenate(([refs[0]], (refs[:-1] + refs[1:]) / 2, [refs[-1]]))
        far = 1e6
        knots = [starts[0] - far]
        clock = [-far * rate[0]]
        g = 0.0
        for i in range(len(starts)):
            if i:
                g += (starts[i] - ends[i - 1]) * rate[i]
            knots += [starts[i], ends[i]]
            clock += [g, g]                 # flat: kernel time is left out
        knots.append(ends[-1] + far)
        clock.append(g + far * rate[-1])
        return np.interp(t1, knots, clock) - np.interp(t0, knots, clock)

    def factors(self) -> np.ndarray:
        return REF_S / np.array([r for _, _, r in self.ticks])
