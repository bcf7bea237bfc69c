"""Event-driven dispatching environment.

Decision epochs open at time zero and whenever a job completes or an order
arrives. Within an epoch the clock is fixed, so the feasible (job, machine)
arcs can only shrink: they are enumerated once per epoch, by masking the
instance's flat array of (job, eligible machine) pairs, and after each
dispatch the job's arcs, and the machine's if it became busy, are masked
out. The active rule ranks the remaining arcs with features read from the
current state; when no feasible arc remains the clock jumps to the next
event. Completions are processed before arrivals that share the same
timestamp.

A dispatched job occupies its machine for setup + processing; the setup is
charged at dispatch, so ct = st + setup + pt with st equal to the decision
clock. Rollouts are deterministic: same instance and rule, same schedule.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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
        self.job_st = np.full(t.J, np.nan)
        self.job_ct = np.full(t.J, np.nan)
        self.job_setup = np.full(t.J, np.nan)
        self.job_mach = np.full(t.J, -1, dtype=np.int64)
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
                     "m_idle", "m_last", "m_busy", "m_queue",
                     "job_st", "job_ct", "job_setup", "job_mach"):
            setattr(other, name, getattr(self, name).copy())
        other.done_count = self.done_count
        other.arc_log = list(self.arc_log)
        other.events = list(self.events)
        other._seq = self._seq
        return other


class FeatureView:
    """Read view of the nine feature groups plus the derived arc columns.

    Job features: status flags, estimated/realized processing time, number of
    qualified machines, owning order's arrival and due time. Machine
    features: last-idle time, count of ready jobs qualified there, cumulative
    busy minutes. Order-level: unfinished job count and estimated unfinished
    work. ``arc_columns`` maps every accessor name of the rule language to
    its per-arc column for the candidate (job, machine) arcs; a column is
    gathered from the state only when it is first read, so a rule pays for
    the features it uses and no others.
    """

    def __init__(self, state: SimState):
        self._s = state
        self.now = state.clock

    @property
    def status(self) -> np.ndarray:
        return self._s.status

    @property
    def et(self) -> np.ndarray:
        return self._s.et

    @property
    def n_mach(self) -> np.ndarray:
        return self._s.t.n_mach

    @property
    def job_arrival(self) -> np.ndarray:
        return self._s.t.job_arrival

    @property
    def job_due(self) -> np.ndarray:
        return self._s.t.job_due

    @property
    def machine_idle_at(self) -> np.ndarray:
        return self._s.m_idle

    @property
    def machine_queue(self) -> np.ndarray:
        return self._s.m_queue

    @property
    def machine_busy(self) -> np.ndarray:
        return self._s.m_busy

    def pt(self, job: int, machine: int) -> float:
        return float(self._s.t.ptmat[job, machine])

    def setup(self, job: int, machine: int) -> float:
        return float(self._s.t.setup[self._s.m_last[machine] + 1, job])

    def ops_rem(self, job: int) -> int:
        return int(self._s.order_ops_rem[self._s.t.job_order[job]])

    def work_rem(self, job: int) -> float:
        return float(self._s.order_work_rem[self._s.t.job_order[job]])

    def arc_columns(self, jobs: np.ndarray, machines: np.ndarray) -> ArcColumns:
        return ArcColumns(self._s, self.now, np.asarray(jobs, dtype=np.int64),
                          np.asarray(machines, dtype=np.int64))


class ArcColumns(dict):
    """Accessor name -> per-arc column, gathered from the state on first read.

    Indexing works for every accessor name; iteration, ``len`` and ``in``
    see only the columns read so far. Columns not yet read reflect the state
    at the time of the read, so read them before the state next changes.
    """

    __slots__ = ("s", "t", "now", "jobs", "machs")

    def __init__(self, state: SimState, now: float, jobs: np.ndarray, machs: np.ndarray):
        super().__init__()
        self.s, self.t, self.now, self.jobs, self.machs = state, state.t, now, jobs, machs

    def __missing__(self, name: str) -> np.ndarray:
        gather = _GATHER.get(name)
        if gather is None:
            raise KeyError(name)
        col = self[name] = gather(self)
        return col


_GATHER = {
    "due": lambda c: c.t.job_due[c.jobs],
    "arrival": lambda c: c.t.job_arrival[c.jobs],
    "now": lambda c: np.full(len(c.jobs), c.now),
    "slack": lambda c: c["due"] - c["now"] - c["work_rem"],
    "wait": lambda c: c["now"] - c["arrival"],
    "et": lambda c: c.s.et[c.jobs],
    "n_mach": lambda c: c.t.n_mach[c.jobs],
    "ops_rem": lambda c: c.s.order_ops_rem[c.t.job_order[c.jobs]].astype(float),
    "work_rem": lambda c: c.s.order_work_rem[c.t.job_order[c.jobs]],
    "pt": lambda c: c.t.ptmat[c.jobs, c.machs],
    "setup": lambda c: c.t.setup[c.s.m_last[c.machs] + 1, c.jobs],
    "avail": lambda c: c.s.m_idle[c.machs],
    "queue": lambda c: c.s.m_queue[c.machs].astype(float),
    "util": lambda c: c.s.m_busy[c.machs],
}


def init_sim(inst: Instance) -> SimState:
    """Fresh state at time zero with the initial order batch arrived."""
    return SimState(inst)


def compute_features(state: SimState) -> FeatureView:
    return FeatureView(state)


def feasible_arcs(state: SimState) -> list[tuple[int, int]]:
    """All (ready job, qualified idle machine) pairs, ordered by (job, machine)."""
    jobs, machs = state._arc_arrays()
    return list(zip(jobs.tolist(), machs.tolist()))


def apply_arc(state: SimState, arc: tuple[int, int]) -> SimState:
    """Dispatch a feasible arc: charge setup, occupy the machine, enqueue the
    completion. Mutates and returns the state."""
    j, m = int(arc[0]), int(arc[1])
    t = state.t
    if (state.status[j] != READY or np.isnan(t.ptmat[j, m])
            or state.m_idle[m] > state.clock):
        raise InfeasibleArcError(f"arc (job {j}, machine {m}) is not feasible now")
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
    state.job_st[j], state.job_ct[j], state.job_setup[j] = st, ct, setup
    state.job_mach[j] = m
    state.arc_log.append(ArcRecord(j, m, setup, st, ct))
    state._push(ct, _COMPLETION, j)
    return state


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
    while state.done_count < state.t.J:
        jobs, machs = state._arc_arrays()
        while len(jobs):
            k = rank_arc_arrays(rule, FeatureView(state), jobs, machs)
            j, m = int(jobs[k]), int(machs[k])
            apply_arc(state, (j, m))
            keep = jobs != j
            if state.m_idle[m] > state.clock:   # a zero-length dispatch leaves m idle
                keep &= machs != m
            jobs, machs = jobs[keep], machs[keep]
        _advance(state)
    return extract_schedule(state)


def replay_arcs(inst: Instance, arcs: Iterable[tuple[int, int]]) -> Schedule:
    """Re-run a recorded arc sequence through the normal transition function."""
    state = SimState(inst)
    for j, m in arcs:
        while True:
            jobs, machs = state._arc_arrays()
            if ((jobs == j) & (machs == m)).any():
                apply_arc(state, (j, m))
                break
            _advance(state)
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
