"""Event-driven dispatching environment.

Decision epochs open at time zero and whenever a job completes or an order
arrives. Within an epoch the clock is fixed, so the feasible (job, machine)
arcs can only shrink: they are enumerated once per epoch, by masking the
instance's flat array of (job, eligible machine) pairs, and after each
dispatch the job's arcs, and the machine's if it became busy, are masked
out. The active rule ranks the remaining arcs with the columns it reads,
gathered from the current state in one call; when no feasible arc remains
the clock jumps to the next event. Completions are processed before
arrivals that share the same timestamp.

A dispatched job occupies its machine for setup + processing; the setup is
charged at dispatch, so ct = st + setup + pt with st equal to the decision
clock. Rollouts are deterministic: same instance and rule, same schedule.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .model import Instance, Stage, check_instance

NOT_ARRIVED, READY, BLOCKED, RUNNING, DONE = range(5)

_COMPLETION, _ARRIVAL = 0, 1            # completions first at equal times


class DeadlockError(RuntimeError):
    """No events pending while jobs remain; indicates a broken instance."""


class InfeasibleArcError(ValueError):
    pass


class ArcRecord(NamedTuple):
    job: int
    machine: int
    setup: float
    st: float
    ct: float


@dataclass
class Schedule:
    """Realized rollout: chronological arc log plus per-order delivery data."""

    arcs: tuple[ArcRecord, ...]
    ft: dict[int, float]                # order id -> completion time
    tt: dict[int, float]                # order id -> tardiness
    n_jobs: int
    n_orders: int


def total_tardiness(sched: Schedule) -> float:
    """Sum of order tardiness; raises on schedules that are not complete."""
    if len(sched.arcs) != sched.n_jobs or len(sched.tt) != sched.n_orders:
        raise ValueError(f"incomplete schedule: {len(sched.arcs)}/{sched.n_jobs} jobs, "
                         f"{len(sched.tt)}/{sched.n_orders} orders")
    return math.fsum(sched.tt.values())


class _Tables:
    """Static per-instance arrays shared by every rollout of that instance."""

    def __init__(self, inst: Instance):
        violations = check_instance(inst)
        if violations:
            raise ValueError("invalid instance: " + "; ".join(violations))
        J, M = inst.num_jobs, inst.num_machines
        self.J, self.M = J, M
        self.setup = inst.setup
        self.ptmat = np.full((J, M), np.nan)
        self.elig: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * J
        self.n_mach = np.empty(J)
        self.is_assembly = np.zeros(J, dtype=bool)
        self.job_order = np.empty(J, dtype=np.int64)
        self.mean_et = np.empty(J)
        self.succ = np.full(J, -1, dtype=np.int64)      # feeding assembly job
        self.pred_count = np.zeros(J, dtype=np.int64)
        for job in inst.jobs:
            ms = np.array(sorted(job.eligible), dtype=np.int64)
            pts = np.array([job.eligible[m] for m in ms])
            self.elig[job.id] = ms
            self.ptmat[job.id, ms] = pts
            self.n_mach[job.id] = len(ms)
            self.is_assembly[job.id] = job.kind == Stage.ASSEMBLY
            self.job_order[job.id] = job.order_id
            self.mean_et[job.id] = pts.mean()
            self.pred_count[job.id] = len(job.predecessors)

        # every (job, eligible machine) pair, sorted by job and then machine
        self.arc_job = np.repeat(np.arange(J, dtype=np.int64), [len(ms) for ms in self.elig])
        self.arc_mach = np.concatenate(self.elig)

        N = len(inst.orders)
        self.N = N
        self.job_arrival = np.empty(J)
        self.job_due = np.empty(J)
        self.order_arrival = np.empty(N)
        self.order_due = np.empty(N)
        self.order_jobs: list[list[int]] = [[] for _ in range(N)]
        self.order_asm_count = np.zeros(N, dtype=np.int64)
        for o in inst.orders:
            self.order_arrival[o.id] = o.arrival
            self.order_due[o.id] = o.due
            for p in o.products:
                for j in p.processing_job_ids:
                    self.succ[j] = p.assembly_job_id
                self.order_asm_count[o.id] += 1
                self.order_jobs[o.id].extend((*p.processing_job_ids, p.assembly_job_id))
        for o in inst.orders:
            for j in self.order_jobs[o.id]:
                self.job_arrival[j] = o.arrival
                self.job_due[j] = o.due
        self.order_njobs = np.array([len(js) for js in self.order_jobs], dtype=np.int64)
        self.order_init_work = np.array(
            [math.fsum(self.mean_et[j] for j in js) for js in self.order_jobs])


def _tables(inst: Instance) -> _Tables:
    cache = inst.__dict__.get("_sim_tables")
    if cache is None:
        cache = _Tables(inst)
        inst.__dict__["_sim_tables"] = cache
    return cache


class SimState:
    """Mutable rollout state; one rollout per state, states never shared."""

    def __init__(self, inst: Instance):
        t = _tables(inst)
        self.inst = inst
        self.t = t
        self.clock = 0.0
        self.status = np.full(t.J, NOT_ARRIVED, dtype=np.int8)
        self.et = t.mean_et.copy()
        self.pred_remaining = t.pred_count.copy()
        self.order_ops_rem = t.order_njobs.copy()
        self.order_work_rem = t.order_init_work.copy()
        self.order_asm_rem = t.order_asm_count.copy()
        self.order_ft = np.zeros(t.N)
        self.order_tt = np.zeros(t.N)
        self.m_idle = np.zeros(t.M)
        self.m_last = np.full(t.M, -1, dtype=np.int64)
        self.m_busy = np.zeros(t.M)
        self.m_queue = np.zeros(t.M, dtype=np.int64)
        self.job_ct = np.full(t.J, np.nan)
        self.done_count = 0
        self.arc_log: list[ArcRecord] = []
        self.events: list[tuple[float, int, int, int]] = []
        self._seq = 0
        for oid in range(t.N):
            if t.order_arrival[oid] == 0.0:
                self._arrive(oid)
            else:
                self._push(float(t.order_arrival[oid]), _ARRIVAL, oid)

    def _push(self, time: float, prio: int, payload: int):
        heapq.heappush(self.events, (time, prio, self._seq, payload))
        self._seq += 1

    def _arrive(self, oid: int):
        for j in self.t.order_jobs[oid]:
            if self.t.is_assembly[j]:
                self.status[j] = BLOCKED
            else:
                self.status[j] = READY
                self.m_queue[self.t.elig[j]] += 1

    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Feasible arcs now (ready job, idle qualified machine), ordered by
        (job, machine), as parallel job and machine arrays."""
        t = self.t
        ready = self.status == READY
        if not np.count_nonzero(ready):     # about half the epochs of a dynamic rollout
            return t.arc_job[:0], t.arc_mach[:0]
        ok = ready[t.arc_job] & (self.m_idle <= self.clock)[t.arc_mach]
        return t.arc_job[ok], t.arc_mach[ok]

    def clone(self) -> "SimState":
        """Independent copy (used by the exhaustive-search oracle)."""
        other = object.__new__(SimState)
        other.inst, other.t, other.clock = self.inst, self.t, self.clock
        for name in ("status", "et", "pred_remaining", "order_ops_rem",
                     "order_work_rem", "order_asm_rem", "order_ft", "order_tt",
                     "m_idle", "m_last", "m_busy", "m_queue", "job_ct"):
            setattr(other, name, getattr(self, name).copy())
        other.done_count = self.done_count
        other.arc_log = list(self.arc_log)
        other.events = list(self.events)
        other._seq = self._seq
        return other


class FeatureView:
    """Per-arc columns of the rule language's accessors (``expr.ACCESSORS``).

    ``arc_columns`` maps accessor names to per-arc columns for the candidate
    (job, machine) arcs, gathered in one call: bound to a rule's read set
    (``reads``), those columns and the ones they derive from; unbound, every
    accessor.
    """

    def __init__(self, state: SimState, reads: Iterable[str] | None = None):
        self._s = state
        self.now = state.clock
        self._gather = _gatherer(frozenset(_COLUMNS if reads is None else reads))

    def arc_columns(self, jobs: np.ndarray, machines: np.ndarray) -> dict[str, np.ndarray]:
        return self._gather(self._s, self.now, jobs, machines)


#: accessor -> (accessors it is derived from, its per-arc column as a function
#: of the state, the clock, the arc arrays jobs and machs, and the columns
#: gathered so far). The one definition of every column.
_COLUMNS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "due": ((), lambda s, clock, jobs, machs, c: s.t.job_due[jobs]),
    "arrival": ((), lambda s, clock, jobs, machs, c: s.t.job_arrival[jobs]),
    "now": ((), lambda s, clock, jobs, machs, c: np.full(len(jobs), clock)),
    "slack": (("due", "now", "work_rem"),
              lambda s, clock, jobs, machs, c: c["due"] - c["now"] - c["work_rem"]),
    "wait": (("now", "arrival"), lambda s, clock, jobs, machs, c: c["now"] - c["arrival"]),
    "et": ((), lambda s, clock, jobs, machs, c: s.et[jobs]),
    "n_mach": ((), lambda s, clock, jobs, machs, c: s.t.n_mach[jobs]),
    "ops_rem": ((), lambda s, clock, jobs, machs, c:
                s.order_ops_rem[s.t.job_order[jobs]].astype(float)),
    "work_rem": ((), lambda s, clock, jobs, machs, c: s.order_work_rem[s.t.job_order[jobs]]),
    "pt": ((), lambda s, clock, jobs, machs, c: s.t.ptmat[jobs, machs]),
    "setup": ((), lambda s, clock, jobs, machs, c: s.t.setup[s.m_last[machs] + 1, jobs]),
    "avail": ((), lambda s, clock, jobs, machs, c: s.m_idle[machs]),
    "queue": ((), lambda s, clock, jobs, machs, c: s.m_queue[machs].astype(float)),
    "util": ((), lambda s, clock, jobs, machs, c: s.m_busy[machs]),
}


@functools.lru_cache(maxsize=256)
def _gatherer(names: frozenset[str]) -> Callable:
    """Function (state, clock, jobs, machs) -> {accessor: column} over the
    named accessors and those they derive from."""
    unknown = names - _COLUMNS.keys()
    if unknown:
        raise KeyError(sorted(unknown)[0])
    order: dict[str, Callable] = {}

    def visit(name: str) -> None:
        if name not in order:
            bases, fn = _COLUMNS[name]
            for base in bases:
                visit(base)
            order[name] = fn

    for name in _COLUMNS:
        if name in names:
            visit(name)
    steps = tuple(order.items())

    def gather(s: SimState, clock: float, jobs: np.ndarray, machs: np.ndarray) -> dict:
        cols: dict[str, np.ndarray] = {}
        for name, fn in steps:
            cols[name] = fn(s, clock, jobs, machs, cols)
        return cols

    return gather


def feasible_arcs(state: SimState) -> list[tuple[int, int]]:
    """All (ready job, qualified idle machine) pairs, ordered by (job, machine)."""
    jobs, machs = state._arc_arrays()
    return list(zip(jobs.tolist(), machs.tolist()))


def apply_arc(state: SimState, arc: tuple[int, int]) -> SimState:
    """Dispatch a feasible arc: charge setup, occupy the machine, enqueue the
    completion. Mutates and returns the state."""
    j, m = int(arc[0]), int(arc[1])
    if (state.status[j] != READY or np.isnan(state.t.ptmat[j, m])
            or state.m_idle[m] > state.clock):
        raise InfeasibleArcError(f"arc (job {j}, machine {m}) is not feasible now")
    _dispatch(state, j, m)
    return state


def _dispatch(state: SimState, j: int, m: int) -> float:
    """State update of dispatching the feasible arc (j, m); returns its
    completion time."""
    t = state.t
    setup = float(t.setup[state.m_last[m] + 1, j])
    pt = float(t.ptmat[j, m])
    st = state.clock
    ct = st + setup + pt
    old_et = state.et[j]
    state.et[j] = pt
    state.order_work_rem[t.job_order[j]] += pt - old_et
    state.status[j] = RUNNING
    state.m_queue[t.elig[j]] -= 1
    state.m_idle[m] = ct
    state.m_last[m] = j
    state.m_busy[m] += pt
    state.job_ct[j] = ct
    state.arc_log.append(ArcRecord(j, m, setup, st, ct))
    state._push(ct, _COMPLETION, j)
    return ct


def advance_clock(state: SimState) -> SimState:
    """Jump to the next event; only legal once the epoch has no feasible arc."""
    jobs, _ = state._arc_arrays()
    if len(jobs):
        raise InfeasibleArcError("cannot advance: feasible arcs remain")
    return _advance(state)


def _advance(state: SimState) -> SimState:
    if not state.events:
        raise DeadlockError(f"no pending events with {state.done_count}/{state.t.J} jobs done")
    t = state.t
    now = state.events[0][0]
    state.clock = now
    while state.events and state.events[0][0] == now:
        _, prio, _, payload = heapq.heappop(state.events)
        if prio == _COMPLETION:
            j = payload
            state.status[j] = DONE
            state.done_count += 1
            oid = t.job_order[j]
            state.order_ops_rem[oid] -= 1
            state.order_work_rem[oid] -= state.et[j]
            if t.is_assembly[j]:
                state.order_asm_rem[oid] -= 1
                if state.job_ct[j] > state.order_ft[oid]:
                    state.order_ft[oid] = state.job_ct[j]
                if state.order_asm_rem[oid] == 0:
                    state.order_tt[oid] = max(0.0, state.order_ft[oid] - t.order_due[oid])
            else:
                a = t.succ[j]
                state.pred_remaining[a] -= 1
                if state.pred_remaining[a] == 0 and state.status[a] == BLOCKED:
                    state.status[a] = READY
                    state.m_queue[t.elig[a]] += 1
        else:
            state._arrive(payload)
    return state


def extract_schedule(state: SimState) -> Schedule:
    """Schedule of a finished rollout."""
    t = state.t
    if state.done_count < t.J:
        raise ValueError(f"rollout unfinished: {state.done_count}/{t.J} jobs done")
    ft = {oid: float(state.order_ft[oid]) for oid in range(t.N)}
    tt = {oid: float(state.order_tt[oid]) for oid in range(t.N)}
    return Schedule(tuple(state.arc_log), ft, tt, t.J, t.N)


def run_dispatch(inst: Instance, rule) -> Schedule:
    """Roll the instance out to completion under the rule and return the
    realized schedule. Deterministic for a given (instance, rule)."""
    from .rules import rank_arc_arrays

    state = SimState(inst)
    fv = FeatureView(state, rule.reads)
    status, m_idle = state.status, state.m_idle
    while state.done_count < state.t.J:
        jobs, machs = state._arc_arrays()
        clock = fv.now = state.clock
        while len(jobs):
            k = rank_arc_arrays(rule, fv, jobs, machs)
            j, m = int(jobs[k]), int(machs[k])
            if status[j] != READY or m_idle[m] > clock:
                raise InfeasibleArcError(f"arc (job {j}, machine {m}) is not feasible now")
            keep = jobs != j
            if _dispatch(state, j, m) > clock:  # a zero-length dispatch leaves m idle
                keep &= machs != m
            jobs, machs = jobs[keep], machs[keep]
        _advance(state)
    return extract_schedule(state)


def replay_arcs(inst: Instance, arcs: Iterable[tuple[int, int]]) -> Schedule:
    """Re-run a recorded arc sequence through the normal transition function.

    Before each arc the clock advances until the arc is feasible; an arc
    that never becomes feasible ends in DeadlockError."""
    state = SimState(inst)
    t = state.t
    for j, m in arcs:
        eligible = 0 <= j < t.J and 0 <= m < t.M and not np.isnan(t.ptmat[j, m])
        while not (eligible and state.status[j] == READY and state.m_idle[m] <= state.clock):
            _advance(state)
        apply_arc(state, (j, m))
    while state.done_count < state.t.J:
        _advance(state)
    return extract_schedule(state)


# -- schedule file format -----------------------------------------------------
#
# Delimited text, one arc per line in dispatch order, then one line per order:
#   arc,<job>,<machine>,<setup>,<st>,<ct>
#   order,<id>,<ft>,<tt>


def schedule_to_text(sched: Schedule) -> str:
    lines = ["# kind,job,machine,setup,st,ct | kind,order,ft,tt"]
    for a in sched.arcs:
        lines.append(f"arc,{a.job},{a.machine},{a.setup!r},{a.st!r},{a.ct!r}")
    for oid in sorted(sched.ft):
        lines.append(f"order,{oid},{sched.ft[oid]!r},{sched.tt[oid]!r}")
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> Schedule:
    arcs, ft, tt = [], {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if parts[0] == "arc" and len(parts) == 6:
            arcs.append(ArcRecord(int(parts[1]), int(parts[2]), float(parts[3]),
                                  float(parts[4]), float(parts[5])))
        elif parts[0] == "order" and len(parts) == 4:
            ft[int(parts[1])] = float(parts[2])
            tt[int(parts[1])] = float(parts[3])
        else:
            raise ValueError(f"schedule line {ln}: cannot parse {raw!r}")
    return Schedule(tuple(arcs), ft, tt, len(arcs), len(ft))


def save_schedule(sched: Schedule, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(schedule_to_text(sched))


def load_schedule(path) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_text(fh.read())
