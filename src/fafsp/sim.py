"""Event-driven dispatching environment.

Decision epochs open at time zero and whenever a job completes or an order
arrives. A decision enumerates the feasible (job, machine) arcs from the
state, which keeps its ready jobs' pairs as a mask over the instance's
flat array of (job, eligible machine) pairs: the arcs are the ready pairs
whose machine is idle, and an arc is its index into that array from
enumeration through ranking to dispatch. With the mask the state keeps a
ready count and per-machine queue counts, and updates all three only when
a job enters or leaves READY (arrival, kit completion, dispatch), so an
epoch with no ready job costs nothing and the others scan no job status.
The active rule ranks the arcs with the columns it reads, gathered from
the current state by pair index in one call; when no feasible arc remains
the clock jumps to the next event, and after a dispatch that provably
leaves no arc it jumps without enumerating (see ``_rollout``). Completions
are processed before arrivals that share the same timestamp. Every rollout
starts from a copy of the instance's time-zero state, built once with the
instance's static tables and cached on the instance, the engine's one
per-instance cache. One loop steps the rollout, and it takes the arc to
dispatch from a chooser: ``run_dispatch`` ranks the arcs with a rule, and
the oracle replays its optimal arc log through the same loop to build its
schedule. A rollout owns numpy's error state: ``run_dispatch`` sets it
once, around the whole loop, and restores the caller's on return.

The step API (``feasible_arcs``, ``FeatureView.arc_columns``, ``apply_arc``,
``advance_clock``) speaks in (job, machine) arcs; ``_pair_indices``, its one
adapter, maps them to pair indices and refuses an arc it cannot map.

A dispatched job occupies its machine for setup + processing; the setup is
charged at dispatch, so ct = st + setup + pt with st equal to the decision
clock; the arc log is the one record of completion times. An order's
delivery time and tardiness read 0 until its last job, always an assembly,
completes, and are written once then. Rollouts are deterministic: same
instance and rule, same schedule.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .model import (Instance, Stage, _decimal, _key_id, check_instance, read_text,
                    write_text)

NOT_ARRIVED, READY, BLOCKED, RUNNING, DONE = range(5)

_COMPLETION, _ARRIVAL = 0, 1            # completions first at equal times


class DeadlockError(RuntimeError):
    """No events pending while jobs remain; indicates a broken instance."""


class EventTimeError(RuntimeError):
    """The next event is not at a finite time at or after the clock;
    indicates a corrupted event queue."""


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
    """Static per-instance arrays shared by every rollout of that instance.

    Every (job, eligible machine) pair, sorted by job and then machine, is an
    index into the flat ``pair_*`` arrays, job j's pairs being
    ``pair_start[j]:pair_start[j + 1]``. An arc is its pair index from
    enumeration to dispatch, and a static column is one gather by it."""

    def __init__(self, inst: Instance):
        violations = check_instance(inst)
        if violations:
            raise ValueError("invalid instance: " + "; ".join(violations))
        J, M = inst.num_jobs, inst.num_machines
        self.J, self.M = J, M
        # setup[r, j] is setup_flat[r * J + j]; a state keeps each machine's
        # row offset, so the setup column gathers with one flat index
        self.setup_flat = inst.setup.ravel()
        self.is_assembly = [False] * J
        self.job_order_list = [0] * J                       # for scalar reads
        self.succ = [-1] * J                                # feeding assembly job
        self.pred_count = [0] * J
        self.pair_start = [0]
        machs: list[int] = []
        pts: list[float] = []
        for job in sorted(inst.jobs, key=lambda job: job.id):
            ms = sorted(job.eligible)
            machs += ms
            pts += [job.eligible[m] for m in ms]
            self.pair_start.append(len(machs))
            self.is_assembly[job.id] = job.kind == Stage.ASSEMBLY
            self.job_order_list[job.id] = job.order_id
            self.pred_count[job.id] = len(job.predecessors)
        n_mach = np.diff(self.pair_start)
        self.pair_job = np.repeat(np.arange(J), n_mach)
        self.pair_mach = np.array(machs, dtype=np.intp)
        self.pair_job_list, self.pair_mach_list = self.pair_job.tolist(), machs  # scalar reads
        self.pair_order = np.repeat(self.job_order_list, n_mach)
        self.pair_pt = np.array(pts, dtype=float)
        self.pair_n_mach = n_mach.astype(float)[self.pair_job]
        self.incidence = np.zeros((J, M))                   # job -> 0/1 per machine
        self.incidence[self.pair_job, self.pair_mach] = 1.0
        # each job's mean time, one row reduction per machine count: the same
        # pairwise sum as the job's own pts.mean(), which a running sum is not.
        # The counts come from a set: np.unique imports numpy.ma (+1.6 MB RSS)
        self.mean_et = np.empty(J)
        for k in set(n_mach.tolist()):
            has_k = n_mach == k
            self.mean_et[has_k] = self.pair_pt[has_k[self.pair_job]].reshape(-1, k).mean(axis=1)

        N = len(inst.orders)
        self.N = N
        self.order_arrival = np.empty(N)
        self.order_due = np.empty(N)
        self.order_jobs: list[list[int]] = [[] for _ in range(N)]
        for o in inst.orders:
            self.order_arrival[o.id] = o.arrival
            self.order_due[o.id] = o.due
            for p in o.products:
                for j in p.processing_job_ids:
                    self.succ[j] = p.assembly_job_id
                self.order_jobs[o.id].extend((*p.processing_job_ids, p.assembly_job_id))
        self.pair_arrival = self.order_arrival[self.pair_order]
        self.pair_due = self.order_due[self.pair_order]
        self.order_njobs = np.array([len(js) for js in self.order_jobs], dtype=float)
        mean_et = self.mean_et.tolist()
        self.order_init_work = np.array(
            [math.fsum(mean_et[j] for j in js) for js in self.order_jobs])

    @functools.cached_property
    def pair_of(self) -> np.ndarray:
        """pair_of[j, m] is the index of the pair (j, m), or -1 when machine
        m is not eligible for job j. Only the (job, machine) step API reads
        it, through ``_pair_indices``, so a rollout never builds it."""
        out = np.full((self.J, self.M), -1, dtype=np.int64)
        out[self.pair_job, self.pair_mach] = np.arange(len(self.pair_job))
        return out


def _pair_indices(t: _Tables, jobs, machines) -> np.ndarray:
    """The pair indices of the (job, machine) arcs, the step API's one
    adapter; an arc whose ids are out of range or whose machine is not
    eligible for its job raises InfeasibleArcError naming the first one."""
    k = []
    for j, m in zip(np.asarray(jobs).tolist(), np.asarray(machines).tolist(), strict=True):
        if not (0 <= j < t.J and 0 <= m < t.M):
            raise InfeasibleArcError(f"arc (job {j}, machine {m}) is out of range")
        k.append(t.pair_of.item(j, m))
        if k[-1] < 0:
            raise InfeasibleArcError(f"machine {m} is not eligible for job {j}")
    return np.array(k, dtype=np.int64)


def _start_state(inst: Instance) -> "SimState":
    """The instance's state at time zero, before any decision: the jobs of
    the orders that arrive at zero are ready and the later arrivals are on
    the event heap. Built once per instance with the instance's tables
    (``.t``, shared by every copy), cached on the instance and never rolled
    out; every ``SimState(inst)`` copies its lists and arrays."""
    start = inst.__dict__.get("_sim_start")
    if start is None:
        t = _Tables(inst)
        start = object.__new__(SimState)
        start.t = t
        start.clock = 0.0
        start.status = np.full(t.J, NOT_ARRIVED, dtype=np.int8)
        start.et = t.mean_et.copy()
        start.pred_remaining = t.pred_count.copy()
        start.order_ops_rem = t.order_njobs.copy()
        start.order_work_rem = t.order_init_work.copy()
        start.order_ft = np.zeros(t.N)
        start.order_tt = np.zeros(t.N)
        start.m_idle = np.zeros(t.M)
        start.m_row = np.zeros(t.M, dtype=np.int64)   # (last job + 1) * J, a setup row
        start.m_busy = np.zeros(t.M)
        # ready jobs eligible per machine; float counts (exact at these sizes)
        # serve the queue column without a cast, like order_ops_rem
        start.m_queue = np.zeros(t.M)
        start.n_ready = 0
        start.pair_ready = np.zeros(len(t.pair_job), dtype=bool)
        start.done_count = 0
        start.arc_log = []
        start.events = []
        start._seq = 0
        for oid in range(t.N):
            if t.order_arrival[oid] == 0.0:
                start._arrive(oid)
            else:
                start._push(float(t.order_arrival[oid]), _ARRIVAL, oid)
        inst.__dict__["_sim_start"] = start
    return start


#: the arcs of an epoch with no ready job, shared and read-only
_NO_ARCS = np.zeros(0, dtype=np.intp)
_NO_ARCS.flags.writeable = False


class SimState:
    """Mutable rollout state; one rollout per state, states never shared."""

    def __init__(self, inst: Instance):
        self._copy_from(_start_state(inst))

    def _copy_from(self, other: "SimState") -> None:
        """Make this state an independent copy of ``other``: copy every list
        and array attribute and share the rest (the tables and scalars)."""
        for name, value in vars(other).items():
            setattr(self, name, value.copy() if isinstance(value, (list, np.ndarray)) else value)

    def _push(self, time: float, prio: int, payload: int):
        heapq.heappush(self.events, (time, prio, self._seq, payload))
        self._seq += 1

    def _arrive(self, oid: int):
        for j in self.t.order_jobs[oid]:
            if self.t.is_assembly[j]:
                self.status[j] = BLOCKED
            else:
                self.status[j] = READY
                self._set_ready(j, True)

    def _set_ready(self, j: int, ready: bool):
        """Bookkeeping of job j entering (``ready``) or leaving READY: the
        ready count, the job's pairs in the ready-pair mask and the queue
        count of every machine the job is eligible for."""
        t = self.t
        self.pair_ready[t.pair_start[j]:t.pair_start[j + 1]] = ready
        if ready:
            self.n_ready += 1
            self.m_queue += t.incidence[j]
        else:
            self.n_ready -= 1
            self.m_queue -= t.incidence[j]

    def _arc_arrays(self) -> np.ndarray:
        """Feasible arcs now (ready job, idle qualified machine), ordered by
        (job, machine), as their indices into the tables' pair arrays."""
        if not self.n_ready:                # about half the epochs of a dynamic rollout
            return _NO_ARCS
        k = self.pair_ready.nonzero()[0]
        return k[(self.m_idle <= self.clock)[self.t.pair_mach[k]]]

    def clone(self) -> "SimState":
        """Independent copy (used by the oracle's search)."""
        other = object.__new__(SimState)
        other._copy_from(self)
        return other


class FeatureView:
    """Per-arc columns of the rule language's accessors (``expr.ACCESSORS``).

    ``arc_columns`` maps accessor names to per-arc columns for the candidate
    (job, machine) arcs at the state's clock, gathered in one call: bound to
    a rule's read set (``reads``), those columns and the ones they derive
    from; unbound, every accessor. It maps each arc to its pair index and
    gathers as a rollout does.
    """

    def __init__(self, state: SimState, reads: Iterable[str] | None = None):
        self._s = state
        self._gather = _gatherer(frozenset(_COLUMNS if reads is None else reads))

    def arc_columns(self, jobs: np.ndarray, machines: np.ndarray) -> dict[str, np.ndarray]:
        return self._gather(self._s, _pair_indices(self._s.t, jobs, machines))


#: accessor -> (names it is derived from, its per-arc column as a function of
#: the state, the arcs' pair indices k and the columns gathered so far). The
#: one definition of every column. A base column derives from no accessor
#: and comes before every column derived from it. The state columns of a
#: job or a machine gather through the arcs' job or machine ids (``_INDEXES``).
_COLUMNS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "due": ((), lambda s, k, c: s.t.pair_due[k]),
    "arrival": ((), lambda s, k, c: s.t.pair_arrival[k]),
    "now": ((), lambda s, k, c: _filled(len(k), s.clock)),
    "work_rem": ((), lambda s, k, c: s.order_work_rem[s.t.pair_order[k]]),
    "slack": (("due", "now", "work_rem"),
              lambda s, k, c: c["due"] - c["now"] - c["work_rem"]),
    "wait": (("now", "arrival"), lambda s, k, c: c["now"] - c["arrival"]),
    "et": (("job",), lambda s, k, c: s.et[c["job"]]),
    "n_mach": ((), lambda s, k, c: s.t.pair_n_mach[k]),
    "ops_rem": ((), lambda s, k, c: s.order_ops_rem[s.t.pair_order[k]]),
    "pt": ((), lambda s, k, c: s.t.pair_pt[k]),
    "setup": (("job", "mach"), lambda s, k, c: s.t.setup_flat[s.m_row[c["mach"]] + c["job"]]),
    "avail": (("mach",), lambda s, k, c: s.m_idle[c["mach"]]),
    "queue": (("mach",), lambda s, k, c: s.m_queue[c["mach"]]),
    "util": (("mach",), lambda s, k, c: s.m_busy[c["mach"]]),
}

#: the arcs' job and machine ids, gathered only for a column that reads
#: them and left out of the columns returned
_INDEXES: dict[str, tuple[tuple[str, ...], Callable]] = {
    "job": ((), lambda s, k, c: s.t.pair_job[k]),
    "mach": ((), lambda s, k, c: s.t.pair_mach[k]),
}


def _filled(n: int, value: float) -> np.ndarray:
    """np.full(n, value), for less per call."""
    out = np.empty(n)
    out.fill(value)
    return out


@functools.lru_cache(maxsize=256)
def _gatherer(names: frozenset[str]) -> Callable:
    """Function (state, pair indices k) -> {accessor: column} over the named
    accessors and those they derive from."""
    unknown = names - _COLUMNS.keys()
    if unknown:
        raise KeyError(sorted(unknown)[0])
    needed = names.union(*(_COLUMNS[name][0] for name in names))
    steps = tuple((name, fn) for name, (_, fn) in {**_INDEXES, **_COLUMNS}.items()
                  if name in needed)
    indexes = tuple(needed.intersection(_INDEXES))

    def gather(s: SimState, k: np.ndarray) -> dict:
        cols: dict[str, np.ndarray] = {}
        for name, fn in steps:
            cols[name] = fn(s, k, cols)
        for name in indexes:
            del cols[name]
        return cols

    return gather


def feasible_arcs(state: SimState) -> list[tuple[int, int]]:
    """All (ready job, qualified idle machine) pairs, ordered by (job, machine)."""
    k = state._arc_arrays()
    return list(zip(state.t.pair_job[k].tolist(), state.t.pair_mach[k].tolist()))


def apply_arc(state: SimState, arc: tuple[int, int]) -> SimState:
    """Dispatch a feasible arc: charge setup, occupy the machine, enqueue the
    completion. Mutates and returns the state."""
    j, m = int(arc[0]), int(arc[1])
    p = _pair_indices(state.t, (j,), (m,)).item()
    if state.status[j] != READY or state.m_idle[m] > state.clock:
        raise InfeasibleArcError(f"arc (job {j}, machine {m}) is not feasible now")
    _dispatch(state, p)
    return state


def _dispatch(state: SimState, p: int) -> float:
    """State update of dispatching the feasible arc whose pair index is p;
    returns its completion time."""
    t = state.t
    j, m = t.pair_job_list[p], t.pair_mach_list[p]
    setup = t.setup_flat.item(state.m_row.item(m) + j)
    pt = t.pair_pt.item(p)
    st = state.clock
    ct = st + setup + pt
    old_et = state.et.item(j)
    state.et[j] = pt
    state.order_work_rem[t.job_order_list[j]] += pt - old_et
    state.status[j] = RUNNING
    state._set_ready(j, False)
    state.m_idle[m] = ct
    state.m_row[m] = (j + 1) * t.J
    state.m_busy[m] += pt
    state.arc_log.append(ArcRecord(j, m, setup, st, ct))
    state._push(ct, _COMPLETION, j)
    return ct


def advance_clock(state: SimState) -> SimState:
    """Jump to the next event; only legal once the epoch has no feasible arc."""
    if len(state._arc_arrays()):
        raise InfeasibleArcError("cannot advance: feasible arcs remain")
    return _advance(state)


def _advance(state: SimState) -> SimState:
    if not state.events:
        raise DeadlockError(f"no pending events with {state.done_count}/{state.t.J} jobs done")
    t = state.t
    now = state.events[0][0]
    if not state.clock <= now < math.inf:       # equal is legal: zero-length dispatches
        raise EventTimeError(f"next event at {now} is not a finite time at or after "
                             f"the clock, {state.clock}")
    state.clock = now
    while state.events and state.events[0][0] == now:
        _, prio, _, payload = heapq.heappop(state.events)
        if prio == _COMPLETION:
            j = payload
            state.status[j] = DONE
            state.done_count += 1
            oid = t.job_order_list[j]
            state.order_ops_rem[oid] -= 1
            state.order_work_rem[oid] -= state.et.item(j)
            if t.is_assembly[j]:
                # kits precede assemblies: an order's last job is an assembly
                if state.order_ops_rem.item(oid) == 0:
                    state.order_ft[oid] = now
                    state.order_tt[oid] = max(0.0, now - t.order_due[oid])
            else:
                a = t.succ[j]
                state.pred_remaining[a] -= 1
                if state.pred_remaining[a] == 0:     # its kit is complete
                    state.status[a] = READY
                    state._set_ready(a, True)
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


def _rollout(state: SimState, choose: Callable[[np.ndarray], int]) -> Schedule:
    """Run the state to completion and return its schedule.

    The one epoch loop: each step enumerates the feasible arcs k, as pair
    indices in (job, machine) order, and dispatches arc (j, m), the pair
    ``k[choose(k)]``; when there is none the clock advances. A dispatch for
    a positive time removes exactly the arcs that share j (the job has left
    READY) or m (the machine is busy until after the clock), and adds none.
    So when every arc shared j or m the clock advances without enumerating.
    Two O(1) tests, taken before the dispatch, find that case: the arcs are
    sorted by job, so they are all j's when the first and last are the same
    job (this covers a single arc); and m is idle, so every ready job
    eligible on m is an arc, and they are all on m when m's queue count
    equals the number of arcs. A zero-length dispatch leaves its machine
    idle and is followed by an enumeration."""
    t = state.t
    n_jobs, pair_job, pair_mach = t.J, t.pair_job_list, t.pair_mach_list
    while state.done_count < n_jobs:
        k = state._arc_arrays()
        n = len(k)
        if n:
            p = k.item(choose(k))
            m = pair_mach[p]
            covered = pair_job[k.item(0)] == pair_job[k.item(-1)] or state.m_queue.item(m) == n
            if _dispatch(state, p) > state.clock and covered:
                _advance(state)
        else:
            _advance(state)
    return extract_schedule(state)


def run_dispatch(inst: Instance, rule) -> Schedule:
    """Roll the instance out to completion under the rule and return the
    realized schedule. Deterministic for a given (instance, rule).

    The rollout runs inside one ``np.errstate(all="ignore")``, which scores
    the rule's programs quietly (see ``expr.scores``) and restores the
    caller's error state on return and on a raise."""
    from .expr import scores
    from .rules import rank_columns

    state = SimState(inst)
    gather, t = _gatherer(rule.reads), state.t

    def choose(k: np.ndarray) -> int:
        n = len(k)
        if n == 1:
            return 0
        return rank_columns(rule, gather(state, k), n, scores,
                            t.pair_job_list, t.pair_mach_list, k)

    with np.errstate(all="ignore"):
        return _rollout(state, choose)


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
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            if parts[0] == "arc" and len(parts) == 6:
                arcs.append(ArcRecord(_key_id(parts[1]), _key_id(parts[2]),
                                      *map(_decimal, parts[3:])))
                continue
            if parts[0] != "order" or len(parts) != 4:
                raise ValueError
            oid, times = _key_id(parts[1]), tuple(map(_decimal, parts[2:]))
        except ValueError:
            raise ValueError(f"schedule line {ln}: cannot parse {raw!r}") from None
        if oid in ft:
            raise ValueError(f"schedule line {ln}: order {oid} is listed twice")
        ft[oid], tt[oid] = times
    return Schedule(tuple(arcs), ft, tt, len(arcs), len(ft))


def save_schedule(sched: Schedule, path) -> None:
    write_text(path, schedule_to_text(sched))


def load_schedule(path) -> Schedule:
    """The schedule file's arc log and order lines; text that is not UTF-8 or
    a line that does not parse or holds a time that is not finite raises
    ValueError naming the file."""
    text = read_text(path)
    try:
        return schedule_from_text(text)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
