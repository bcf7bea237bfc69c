"""How the benchmark calls into fafsp: plainly, or with spans around each layer.

``Probe`` is the untraced path used for the end-to-end metrics: a rollout is
one ``run_dispatch`` call between two ``perf_counter`` reads. ``TracedProbe``
records a span around every call it makes into a public fafsp function and
drives rollouts through sim's public step API (``SimState``,
``feasible_arcs``, ``FeatureView.arc_columns``, ``rank_arc_arrays``,
``apply_arc``, ``advance_clock``, ``extract_schedule``).

Calls that fafsp makes internally (inside ``run_evolution``,
``rank_arc_arrays`` or ``brute_force_optimum``) are reached by ``shims``,
which swaps in timing wrappers at the module attribute the caller looks up
and restores the originals on exit. Nothing under ``src/`` is edited.

Spans live in flat in-memory arrays and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

import fafsp.evolve as evolve
import fafsp.expr as expr
import fafsp.sim as sim
from fafsp.llm import ReplayMiss
from fafsp.rules import rank_arc_arrays
from speed import Timeline

pc = time.perf_counter

# Captured before any shim is installed; every probe dispatches through these.
RUN_DISPATCH = sim.run_dispatch
EVALUATE_FITNESS = evolve.evaluate_fitness


class Probe:
    """Untraced calls. Keeps each rollout's host start and end and output."""

    traced = False

    def __init__(self, timeline: Timeline):
        self.timeline = timeline
        self.intervals: list[tuple[float, float]] = []    # host (start, end) per rollout
        self.jobs: list[int] = []           # jobs dispatched per rollout
        self.rollouts = 0                   # rollouts attempted
        self.log: list = []                 # (instance, schedule) per rollout

    def call(self, name: str, fn, *args, size: int = 0):
        return fn(*args)

    def rollout(self, inst, rule):
        self.rollouts += 1
        self.timeline.maybe_tick()
        t0 = pc()
        sched = RUN_DISPATCH(inst, rule)
        self.intervals.append((t0, pc()))
        self.jobs.append(len(sched.arcs))
        self.log.append((inst, sched))
        return sched

    def take(self) -> tuple[list, list[tuple[float, float]], list[int]]:
        """(outputs, host (start, end), job counts) of the rollouts since the
        last take."""
        out = (self.log, self.intervals, self.jobs)
        self.log, self.intervals, self.jobs = [], [], []
        return out


class TracedProbe(Probe):
    """Spans around every layer call; rollouts go through the public step API.

    A span is (name, start, end, parent span, rollout id, candidate id, size).
    ``size`` is the call's unit of work where one exists: arcs ranked, AST
    node evaluations, prompt bytes, or the id of a rule's canonical text.
    """

    traced = True

    def __init__(self, timeline: Timeline):
        super().__init__(timeline)
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rollout_id = array("i")
        self.candidate_id = array("i")
        self.size = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self._rollout = 0               # id of the rollout in progress, else 0
        self._rollouts_started = 0
        self._candidate = 0             # id of the latest generator call
        self._seen: dict[int, object] = {}  # instances rolled out before, by id
        self.texts: dict[str, int] = {}     # canonical rule text -> id

    # -- span recording ---------------------------------------------------

    def open(self, name: str, size: int = 0) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.rollout_id.append(self._rollout)
        self.candidate_id.append(self._candidate)
        self.size.append(size)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(pc())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = pc()
        self._stack.pop()

    def unwind(self, i: int) -> None:
        """Close span i and every span still open above it (after a raise)."""
        now = pc()
        while self._stack[-1] != i:
            self.t1[self._stack.pop()] = now
        self.t1[i] = now
        self._stack.pop()

    def wrap(self, fn, name: str):
        def shim(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return shim

    def call(self, name: str, fn, *args, size: int = 0):
        i = self.open(name, size)
        try:
            return fn(*args)
        finally:
            self.close(i)

    def new_candidate(self) -> None:
        self._candidate += 1

    def text_id(self, text: str) -> int:
        return self.texts.setdefault(text, len(self.texts))

    def mark(self) -> int:
        """Index of the next span; passes are ranges between marks."""
        return len(self.t0)

    # -- rollouts through the public step API -----------------------------

    def rollout(self, inst, rule):
        self.rollouts += 1
        self._rollouts_started += 1
        self._rollout = self._rollouts_started
        self.timeline.maybe_tick()
        root = self.open("rollout")
        try:
            fresh = id(inst) not in self._seen
            self._seen[id(inst)] = inst
            i = self.open("sim.init_first" if fresh else "sim.init")
            state = sim.SimState(inst)
            self.close(i)
            # advance_clock and feasible_arcs look _arc_arrays up on the state
            state._arc_arrays = self.wrap(state._arc_arrays, "sim.arc_arrays")
            n_jobs = state.t.J
            while state.done_count < n_jobs:
                i = self.open("sim.feasible_arcs")
                arcs = sim.feasible_arcs(state)
                self.close(i)
                if arcs:
                    pairs = np.array(arcs, dtype=np.int64)
                    jobs, machs = pairs[:, 0], pairs[:, 1]
                    fv = _TimedView(state, self)
                    i = self.open("rules.rank_arc_arrays", len(arcs))
                    k = rank_arc_arrays(rule, fv, jobs, machs)
                    self.close(i)
                    i = self.open("sim.apply_arc")
                    sim.apply_arc(state, (jobs[k], machs[k]))
                    self.close(i)
                else:
                    i = self.open("sim.advance_clock")
                    sim.advance_clock(state)
                    self.close(i)
            i = self.open("sim.extract_schedule")
            sched = sim.extract_schedule(state)
            self.close(i)
        finally:
            self.unwind(root)
            self._rollout = 0
        self.intervals.append((self.t0[root], self.t1[root]))
        self.jobs.append(len(sched.arcs))
        self.log.append((inst, sched))
        return sched

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "rollout": np.frombuffer(self.rollout_id, dtype=np.int32),
                "candidate": np.frombuffer(self.candidate_id, dtype=np.int32),
                "size": np.frombuffer(self.size, dtype=np.int64),
                "t0": np.frombuffer(self.t0, dtype=np.float64),
                "t1": np.frombuffer(self.t1, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


class _TimedView(sim.FeatureView):
    """FeatureView whose arc_columns is timed (rank_arc_arrays calls it)."""

    def __init__(self, state, probe: TracedProbe):
        super().__init__(state)
        self._probe = probe

    def arc_columns(self, jobs, machines):
        i = self._probe.open("sim.arc_columns", len(jobs))
        try:
            return super().arc_columns(jobs, machines)
        finally:
            self._probe.close(i)


class CountingTransport:
    """Wraps the replay transport: counts calls and replay misses, and in a
    traced run records an ``llm.send`` span sized by the prompt's bytes."""

    def __init__(self, inner, probe: Probe):
        self.inner = inner
        self.probe = probe
        self.calls = 0
        self.misses = 0

    def send(self, prompt: str, temperature: float, operator: str = "") -> str:
        self.calls += 1
        if self.probe.traced and operator != "Eval":
            self.probe.new_candidate()
        try:
            return self.probe.call("llm.send", self.inner.send, prompt, temperature,
                                   operator, size=len(prompt.encode("utf-8")))
        except ReplayMiss:
            self.misses += 1
            raise


@contextlib.contextmanager
def shims(probe: Probe):
    """Route fafsp's internal calls through the probe for the duration.

    Both probes take over ``run_dispatch`` where ``evaluate_fitness`` and
    ``validate_rule`` look it up, so every rollout of an evolution run is
    timed and its schedule checked. A traced probe also times the layers
    that ``run_evolution``, ``rank_arc_arrays``, ``SimState`` and
    ``brute_force_optimum`` call.
    """
    patches = [(sim, "run_dispatch", probe.rollout),
               (evolve, "run_dispatch", probe.rollout)]
    if probe.traced:
        def fitness(rule, instances):
            key = probe.text_id(expr.to_source(rule.program))
            return probe.call("evolve.evaluate_fitness", EVALUATE_FITNESS, rule,
                              instances, size=key)

        evaluate = expr.evaluate

        def evaluate_shim(program, columns, n):
            return probe.call("expr.evaluate", evaluate, program, columns, n,
                              size=program.n_nodes * n)

        patches += [(evolve, "evaluate_fitness", fitness),
                    (expr, "evaluate", evaluate_shim)]
        patches += [(module, attr, probe.wrap(getattr(module, attr), name))
                    for module, attr, name in (
                        (evolve, "validate_rule", "rules.validate_rule"),
                        (evolve, "render_generator_prompt", "llm.render"),
                        (evolve, "render_evaluator_prompt", "llm.render"),
                        (evolve, "extract_individual", "llm.extract"),
                        (evolve, "extract_critique", "llm.extract"),
                        (expr, "parse", "expr.parse"),
                        (sim, "check_instance", "model.check_instance"),
                        (sim, "_advance", "sim._advance"),
                        (sim.SimState, "clone", "sim.clone"))]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield probe
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)
