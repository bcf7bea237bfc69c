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
Each decision is one call of the rule's chooser (``build_chooser``), code
generated once per rule from the column table (``_COLUMNS``, source text)
and the rule's programs: it gathers the columns the rule reads by pair
index, runs the programs inline and takes the arg-min. It is the one
ranking: the step API's ``rules.rank_arc_arrays`` maps its arcs to pair
indices and calls the same chooser. When no feasible arc remains the clock
jumps to the next event, and after a dispatch that provably leaves no arc
it jumps without enumerating (see ``_rollout``).

A dispatch of arc (j, m) that takes time changes, for the arcs it leaves
feasible, only the columns that read the machines' queue counts and the
orders' remaining work (``_DISPATCH_VARIANT``: ``queue`` on j's machines,
``work_rem`` and ``slack`` on its order's arcs). Every other column of a
surviving arc keeps its bits: it reads the state of the arc's own job or
machine, which only their own dispatch changes, or the clock, or counts
that change at completions, or static data. So a rule whose programs read
neither, through what they derive from (``_closure``), is
dispatch-invariant: its chooser ranks an epoch's arcs once and the loop
dispatches down that ranking (see ``_rollout``). EDD, FIFO and MOPNR with
either machine rule qualify; LWKR and MWKR do not. Any other rule, and
any index chooser, takes one arc per enumeration.

Completions are processed before arrivals that share the same timestamp.
Every rollout starts from a copy of the instance's time-zero state, built
once with the instance's static tables and cached on the instance, the
engine's one per-instance cache. One loop steps the rollout, and it takes
the arc to dispatch from a chooser: ``run_dispatch`` uses the rule's, and
the oracle replays its optimal arc log through the same loop to build its
schedule. A rollout owns numpy's error state: ``run_dispatch`` sets it
once, around the whole loop, and restores the caller's on return. The
engine owns ``RuleInvalid``, which a non-finite score raises, and imports
no rule module: ``fafsp.rules`` depends on this module, not the reverse.

The step API (``feasible_arcs``, ``FeatureView.arc_columns``, ``apply_arc``,
``advance_clock``, ``rules.rank_arc_arrays``) speaks in (job, machine) arcs;
``_pair_indices``, its one adapter, maps them to pair indices by a search
of the job's pairs and refuses an arc it cannot map.

A dispatched job occupies its machine for setup + processing; the setup is
charged at dispatch, so ct = st + setup + pt with st equal to the decision
clock; the arc log is the one record of completion times. An order's
delivery time and tardiness read 0 until its last job, always an assembly,
completes, and are written once then. Rollouts are deterministic: same
instance and rule, same schedule.

A step's cost is its numpy calls, so the transition keeps three pieces of
bookkeeping in step with ``status``, ``m_idle`` and the clock instead of
deriving them at each decision: the ready-pair mask, the queue counts and
the idle-machine mask ``m_free`` (``m_idle <= clock``). A dispatch that
takes time clears its machine's flag, and the completion sets it again
unless the machine was taken once more at that clock; a completion event
carries its arc's pair index so the transition finds the machine. The
state keeps numpy arrays only where a feature column gathers by index
(``et``, the per-order and per-machine arrays, the two masks) or a row is
added at once (``m_queue``); job statuses, kit counts and delivery times
are read and written one element at a time and are plain Python lists,
whose scalar access costs a fraction of a numpy scalar's. A scalar update
of an array is written ``a[i] = a.item(i) + x``, the same IEEE sum as
``a[i] += x`` without its numpy scalar.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .expr import _FLOAT64, Program, _define
from .model import (Instance, Stage, _decimal, _key_id, check_instance, read_text,
                    write_text)

NOT_ARRIVED, READY, BLOCKED, RUNNING, DONE = range(5)

_COMPLETION, _ARRIVAL = 0, 1            # completions first at equal times


class DeadlockError(RuntimeError):
    """No events pending while jobs remain; indicates a broken instance."""


class EventTimeError(RuntimeError):
    """The next event is not at a finite time at or after the clock;
    indicates a corrupted event queue."""


class RuleInvalid(RuntimeError):
    """An expression produced a non-finite priority for some arc."""


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


def total_tardiness(sched: Schedule) -> float:
    """Sum of order tardiness."""
    return math.fsum(sched.tt.values())


_BY_ID = operator.attrgetter("id")


class _Tables:
    """Static per-instance arrays shared by every rollout of that instance.

    Every (job, eligible machine) pair, sorted by job and then machine, is an
    index into the flat ``pair_*`` arrays, job j's pairs being
    ``pair_start[j]:pair_start[j + 1]``. An arc is its pair index from
    enumeration to dispatch, and a static column is one gather by it."""

    def __init__(self, inst: Instance):
        if "_checked" not in inst.__dict__:          # the reader checked what it built
            violations = check_instance(inst)
            if violations:
                raise ValueError("invalid instance: " + "; ".join(violations))
        J, M = inst.num_jobs, inst.num_machines
        self.J, self.M = J, M
        # setup[r, j] is setup_flat[r * J + j]; a state keeps each machine's
        # row offset, so the setup column gathers with one flat index
        self.setup_flat = inst.setup.ravel()
        jobs = sorted(inst.jobs, key=_BY_ID)
        assembly = Stage.ASSEMBLY
        self.is_assembly = [job.kind == assembly for job in jobs]
        # each job's order and feeding assembly job, and each assembly job's
        # kit size, from the orders' nesting
        orders = sorted(inst.orders, key=_BY_ID)
        self.N = len(orders)
        self.job_order_list = job_order = [0] * J       # for scalar reads
        self.succ = succ = [-1] * J                     # feeding assembly job
        self.pred_count = pred_count = [0] * J
        for o in orders:
            oid = o.id
            for p in o.products:
                a, kit = p.assembly_job_id, p.processing_job_ids
                job_order[a] = oid
                pred_count[a] = len(kit)
                for j in kit:
                    job_order[j] = oid
                    succ[j] = a
        eligible = [job.eligible for job in jobs]
        counts = list(map(len, eligible))
        self.pair_start = list(itertools.accumulate(counts, initial=0))
        n_mach = np.array(counts)
        self.pair_job = np.repeat(np.arange(J), n_mach)
        # the jobs' machines and times as each job lists them, then sorted by
        # (job, machine): one stable sort, which keeps pairs already in order
        n_pairs = self.pair_start[-1]
        machs = np.fromiter(itertools.chain.from_iterable(eligible), np.intp, n_pairs)
        pts = np.fromiter(itertools.chain.from_iterable(map(dict.values, eligible)), float,
                          n_pairs)
        by_pair = np.argsort(self.pair_job * M + machs, kind="stable")
        self.pair_mach = machs[by_pair]
        self.pair_pt = pts[by_pair]
        self.pair_job_list = self.pair_job.tolist()                # scalar reads
        self.pair_mach_list = self.pair_mach.tolist()
        self.pair_order = np.repeat(self.job_order_list, n_mach)
        self.pair_n_mach = np.repeat(n_mach.astype(float), n_mach)
        self.incidence = np.zeros((J, M))                   # job -> 0/1 per machine
        self.incidence[self.pair_job, self.pair_mach] = 1.0
        self.incidence_rows = list(self.incidence)          # row views, made once
        # each job's mean time, one row reduction per machine count: the same
        # pairwise sum as the job's own pts.mean(), which a running sum is not.
        # The counts come from a set: np.unique imports numpy.ma (+1.6 MB RSS)
        self.mean_et = np.empty(J)
        for k in set(counts):
            self.mean_et[n_mach == k] = (
                self.pair_pt[self.pair_n_mach == k].reshape(-1, k).mean(axis=1))

        self.order_arrival = np.array([o.arrival for o in orders], dtype=float)
        self.order_due = np.array([o.due for o in orders], dtype=float)
        self.order_jobs = [o.job_ids() for o in orders]
        self.pair_arrival = self.order_arrival[self.pair_order]
        self.pair_due = self.order_due[self.pair_order]
        self.order_njobs = np.array([len(js) for js in self.order_jobs], dtype=float)
        mean_et = self.mean_et.tolist()
        self.order_init_work = np.array(
            [math.fsum(map(mean_et.__getitem__, js)) for js in self.order_jobs])


def _pair_indices(t: _Tables, jobs, machines) -> np.ndarray:
    """The pair indices of the (job, machine) arcs, the step API's one
    adapter; an arc whose ids are out of range or whose machine is not
    eligible for its job raises InfeasibleArcError naming the first one."""
    k = []
    for j, m in zip(np.asarray(jobs).tolist(), np.asarray(machines).tolist(), strict=True):
        if not (0 <= j < t.J and 0 <= m < t.M):
            raise InfeasibleArcError(f"arc (job {j}, machine {m}) is out of range")
        end = t.pair_start[j + 1]           # job j's pairs, sorted by machine, end here
        p = bisect.bisect_left(t.pair_mach_list, m, t.pair_start[j], end)
        if p == end or t.pair_mach_list[p] != m:
            raise InfeasibleArcError(f"machine {m} is not eligible for job {j}")
        k.append(p)
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
        start.status = [NOT_ARRIVED] * t.J
        start.et = t.mean_et.copy()
        start.pred_remaining = t.pred_count.copy()
        start.order_ops_rem = t.order_njobs.copy()
        start.order_work_rem = t.order_init_work.copy()
        start.order_ft = [0.0] * t.N
        start.order_tt = [0.0] * t.N
        start.m_idle = np.zeros(t.M)
        start.m_free = np.ones(t.M, dtype=bool)       # m_idle <= clock, per machine
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
            self.m_queue += t.incidence_rows[j]
        else:
            self.n_ready -= 1
            self.m_queue -= t.incidence_rows[j]

    def _arc_arrays(self) -> np.ndarray:
        """Feasible arcs now (ready job, idle qualified machine), ordered by
        (job, machine), as their indices into the tables' pair arrays."""
        if not self.n_ready:                # about half the epochs of a dynamic rollout
            return _NO_ARCS
        k = self.pair_ready.nonzero()[0]
        return k[self.m_free[self.t.pair_mach[k]]]

    def clone(self) -> "SimState":
        """Independent copy (used by the oracle's search)."""
        other = object.__new__(SimState)
        other._copy_from(self)
        return other


class FeatureView:
    """Per-arc columns of every accessor of the rule language
    (``expr.ACCESSORS``) for candidate (job, machine) arcs at the state's
    clock: ``arc_columns`` maps each arc to its pair index and gathers with
    the lines a rollout's chooser runs (``_gather_lines``)."""

    def __init__(self, state: SimState):
        self._s = state

    def arc_columns(self, jobs: np.ndarray, machines: np.ndarray) -> dict[str, np.ndarray]:
        return _gather_all(self._s, _pair_indices(self._s.t, jobs, machines))


#: accessor -> (names it is derived from, its per-arc column as source text).
#: The one definition of every column. The text reads the state ``s``, its
#: tables ``t``, the arcs' pair indices ``k``, their count ``n`` and the
#: columns it derives from, as locals named after them. A base column
#: derives from no accessor and comes before every column derived from it.
#: The state columns of a job, a machine or an order gather through the
#: arcs' job, machine or order ids (``_INDEXES``).
_COLUMNS: dict[str, tuple[tuple[str, ...], str]] = {
    "due": ((), "t.pair_due[k]"),
    "arrival": ((), "t.pair_arrival[k]"),
    "now": ((), "_filled(n, s.clock)"),
    "work_rem": (("order",), "s.order_work_rem[order]"),
    "slack": (("due", "now", "work_rem"), "due - now - work_rem"),
    "wait": (("now", "arrival"), "now - arrival"),
    "et": (("job",), "s.et[job]"),
    "n_mach": ((), "t.pair_n_mach[k]"),
    "ops_rem": (("order",), "s.order_ops_rem[order]"),
    "pt": ((), "t.pair_pt[k]"),
    "setup": (("job", "mach"), "t.setup_flat[s.m_row[mach] + job]"),
    "avail": (("mach",), "s.m_idle[mach]"),
    "queue": (("mach",), "s.m_queue[mach]"),
    "util": (("mach",), "s.m_busy[mach]"),
}

#: the dispatch-variant columns of the table: a dispatch for a positive time
#: changes these, and no other column, for the arcs it leaves at its clock
_DISPATCH_VARIANT = frozenset({"queue", "work_rem"})

#: the arcs' job, machine and order ids, gathered only for a column that
#: reads them and left out of the columns ``arc_columns`` returns; a rule
#: that reads both ``work_rem`` and ``ops_rem`` gathers the order ids once
_INDEXES: dict[str, tuple[tuple[str, ...], str]] = {
    "job": ((), "t.pair_job[k]"),
    "mach": ((), "t.pair_mach[k]"),
    "order": ((), "t.pair_order[k]"),
}


def _filled(n: int, value: float) -> np.ndarray:
    """np.full(n, value), for less per call."""
    out = np.empty(n)
    out.fill(value)
    return out


#: every name of the two tables, in table order
_TABLE = {**_INDEXES, **_COLUMNS}


def _closure(names: frozenset[str]) -> list[str]:
    """The named accessors and everything they derive from, transitively
    (``slack`` needs ``work_rem``, which needs ``order``), in table order.
    The tables list every name after the names it derives from, so one pass
    from the end closes the set."""
    needed = set(names)
    for name in reversed(_TABLE):
        if name in needed:
            needed.update(_TABLE[name][0])
    return [name for name in _TABLE if name in needed]


def _gather_lines(names: frozenset[str]) -> list[str]:
    """The lines that gather the named accessors' columns and everything they
    derive from (``_closure``) into locals named after them, in table order."""
    return [f"{name} = {_TABLE[name][1]}" for name in _closure(names)]


#: the step API's gather: function (state, pair indices k) -> {accessor:
#: column} over every accessor
_gather_all = _define("gather", "s, k",
                      ["t = s.t", "n = len(k)", *_gather_lines(frozenset(_COLUMNS))],
                      "{" + ", ".join(f"{name!r}: {name}" for name in _COLUMNS) + "}",
                      {"_filled": _filled})


def build_chooser(program: Program, tie_break: Program | None = None) -> Callable:
    """The chooser of the rule that ranks arcs by ``program``, and arcs
    tied on it by ``tie_break``, generated once per rule: a function
    (state, rule) -> choose. ``choose(k)`` takes a decision's arcs k, pair
    indices in (job, machine) order, and returns the index of the arc the
    rule dispatches in one call: it gathers the columns the rule reads,
    runs the programs' code inline and takes the arg-min. It is the
    package's one ranking: the step API's ``rules.rank_arc_arrays`` calls
    it too, and there is no second arg-min. A single arc is chosen
    unscored, the first minimum wins, a builtin ranks by the tie-break
    among the arcs tied on the program's key, and a single-key rule scores
    as ``expr.evaluate`` does and raises RuleInvalid naming the first arc
    whose score is not finite.

    A dispatch-invariant rule, one that reads no ``_DISPATCH_VARIANT``
    column even through what it derives from, returns the epoch's ranking
    instead of an index when it has two arcs or more: the indices of all
    of k, best first, whose head is the index above. A single-key rule
    checks its scores as above and sorts them stably; a builtin sorts by
    (key, tie key, arc order) only when both keys are finite, and returns
    the one index otherwise. The generated text holds only column-table
    text, generated names and namespace constants; the rule's name reaches
    it at run time, through ``rule``."""
    reads = program.reads | (tie_break.reads if tie_break else frozenset())
    ranks = _DISPATCH_VARIANT.isdisjoint(_closure(reads))
    lines = _gather_lines(reads)
    code, key, namespace = program.inline()
    lines += code
    if tie_break is None:
        lines += [f"score = {key}" if program.reads else f"score = _filled(n, float({key}))",
                  "if score.dtype is not _FLOAT64:",
                  "    score = score.astype(float)",
                  "i = score.argmin()",                # the first minimum, or the first NaN
                  # argmax gives the first +inf or NaN too, for less than max
                  "if -_INF < score.item(i) and score.item(score.argmax()) < _INF:",
                  "    return score.argsort(kind='stable')" if ranks else "    return i",
                  "raise _non_finite(rule, score, k, t)"]
    else:
        code, tie_key, tie_namespace = tie_break.inline("tie_")
        namespace.update(tie_namespace)
        lines += code
        if ranks:
            finite = " and ".join(f"-_INF < {x}.item({x}.argmin()) and "
                                  f"{x}.item({x}.argmax()) < _INF" for x in (key, tie_key))
            lines += [f"if {finite}:", f"    return _lexsort(({tie_key}, {key}))"]
        lines += [f"ties = ({key} == {key}[{key}.argmin()]).nonzero()[0]",
                  f"return ties[{tie_key}[ties].argmin()]"]
    namespace.update(_filled=_filled, _non_finite=_non_finite, _FLOAT64=_FLOAT64, _INF=math.inf,
                     _lexsort=np.lexsort)
    choose = ["n = len(k)", "if n == 1:", "    return 0", *lines]
    return _define("bind", "s, rule", ["t = s.t", "def choose(k):",
                                       *(f"    {line}" for line in choose)],
                   "choose", namespace)


def _non_finite(rule, score: np.ndarray, k: np.ndarray, t: _Tables) -> RuleInvalid:
    """RuleInvalid naming the first of the arcs k whose score is not finite."""
    i = np.isfinite(score).argmin()
    p = k.item(i)
    return RuleInvalid(f"rule {rule.name!r}: non-finite score {score[i]} "
                       f"for arc (job {t.pair_job_list[p]}, machine {t.pair_mach_list[p]})")


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
    oid = t.job_order_list[j]
    work = state.order_work_rem
    work[oid] = work.item(oid) + (pt - state.et.item(j))
    state.et[j] = pt
    state.status[j] = RUNNING
    state._set_ready(j, False)
    state.m_idle[m] = ct
    if ct > st:                         # a zero-length dispatch leaves m idle
        state.m_free[m] = False
    state.m_row[m] = (j + 1) * t.J
    state.m_busy[m] = state.m_busy.item(m) + pt
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    state.arc_log.append(tuple.__new__(ArcRecord, (j, m, setup, st, ct)))
    heapq.heappush(state.events, (ct, _COMPLETION, state._seq, p))
    state._seq += 1
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
    events, ops, work = state.events, state.order_ops_rem, state.order_work_rem
    while events and events[0][0] == now:
        _, prio, _, payload = heapq.heappop(events)
        if prio == _COMPLETION:
            j, m = t.pair_job_list[payload], t.pair_mach_list[payload]
            # m is idle unless a later dispatch at this clock took it again
            state.m_free[m] = state.m_idle.item(m) <= now
            state.status[j] = DONE
            state.done_count += 1
            oid = t.job_order_list[j]
            left = ops.item(oid) - 1
            ops[oid] = left
            work[oid] = work.item(oid) - state.et.item(j)
            if t.is_assembly[j]:
                # kits precede assemblies: an order's last job is an assembly
                if left == 0:
                    state.order_ft[oid] = now
                    state.order_tt[oid] = max(0.0, now - t.order_due.item(oid))
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
    return Schedule(tuple(state.arc_log), dict(enumerate(state.order_ft)),
                    dict(enumerate(state.order_tt)))


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
    idle and is followed by an enumeration.

    The chooser of a dispatch-invariant rule returns the epoch's ranking
    instead (``build_chooser``). Such a dispatch changes no score the rule
    reads for the arcs it leaves (``_DISPATCH_VARIANT``), and it removes
    arcs without reordering the rest, so the rule's next pick is the first
    arc of the ranking still feasible. The loop walks the ranking, skipping
    an arc whose job or machine a dispatch of the walk took, and advances
    the clock once the walk ends: every arc was then dispatched or taken. A
    zero-length dispatch changes its machine's ``setup`` and ``avail`` and
    leaves the machine idle, so the walk stops there and the loop
    enumerates and ranks again."""
    t = state.t
    n_jobs, pair_job, pair_mach = t.J, t.pair_job_list, t.pair_mach_list
    status, m_free = state.status, state.m_free
    while state.done_count < n_jobs:
        k = state._arc_arrays()
        n = len(k)
        if not n:
            _advance(state)
            continue
        pick = choose(k)
        if type(pick) is np.ndarray:             # a ranking
            clock = state.clock
            for p in k[pick].tolist():
                if status[pair_job[p]] != READY or not m_free.item(pair_mach[p]):
                    continue                     # taken by a dispatch of this walk
                if _dispatch(state, p) == clock:
                    break
            else:
                _advance(state)
        else:
            p = k.item(pick)
            m = pair_mach[p]
            covered = pair_job[k.item(0)] == pair_job[k.item(-1)] or state.m_queue.item(m) == n
            if _dispatch(state, p) > state.clock and covered:
                _advance(state)
    return extract_schedule(state)


def run_dispatch(inst: Instance, rule) -> Schedule:
    """Roll the instance out to completion under the rule and return the
    realized schedule. Deterministic for a given (instance, rule).

    Each decision is one call of the rule's generated chooser
    (``RuleSpec.chooser``, built by ``build_chooser``). The rollout runs inside
    one ``np.errstate(all="ignore")``, which scores the rule's programs
    quietly and restores the caller's error state on return and on a
    raise."""
    state = SimState(inst)
    choose = rule.chooser(state, rule)
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
    return Schedule(tuple(arcs), ft, tt)


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
