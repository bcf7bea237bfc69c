"""Rule-agnostic feasibility checks and a desk-scale optimal oracle.

``validate_schedule`` re-derives every structural requirement of a realized
schedule straight from the instance data: each job runs exactly once on a
qualified machine, machine sequences do not overlap and charge the true
changeover, assembly starts only after its full kit, nothing starts before
its order arrives, and the per-order delivery/tardiness bookkeeping is
arithmetically consistent. It never looks at features or rules, so it is an
independent check on the engine.

``brute_force_optimum`` searches the non-delay dispatch sequences of a tiny
instance through the very same transition function the engine uses and
returns the minimum-tardiness schedule among them. It is a branch and bound
that returns exactly what enumerating every sequence would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance
from .sim import (DONE, RUNNING, ArcRecord, Schedule, SimState, _advance, _dispatch,
                  _rollout, _start_state)

TOL = 1e-6

#: largest instance ``brute_force_optimum`` searches
MAX_JOBS, MAX_MACHINES = 8, 4

MACHINE_OVERLAP = "MachineOverlap"
PRECEDENCE = "Precedence"
ARRIVAL_BREACH = "ArrivalBreach"
SETUP_MISMATCH = "SetupMismatch"
DELIVERY_MISMATCH = "DeliveryMismatch"
TARDINESS_MISMATCH = "TardinessMismatch"
UNASSIGNED = "Unassigned"


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self):
        return f"{self.kind}: {self.message}"


def validate_schedule(inst: Instance, sched: Schedule) -> list[Violation]:
    """All violations of the realized schedule (empty list = feasible).
    Each check is written as ``not <holds>``, so a NaN time fails it."""
    out: list[Violation] = []
    known = {job.id for job in inst.jobs}
    by_job: dict[int, ArcRecord] = {}
    per_machine: dict[int, list[ArcRecord]] = {}        # in dispatch order
    for a in sched.arcs:
        if a.job not in known:
            out.append(Violation(UNASSIGNED, f"job {a.job} is not in the instance"))
            continue
        per_machine.setdefault(a.machine, []).append(a)
        if a.job in by_job:
            out.append(Violation(UNASSIGNED, f"job {a.job} dispatched more than once"))
        else:
            by_job[a.job] = a

    for job in inst.jobs:
        a = by_job.get(job.id)
        if a is None:
            out.append(Violation(UNASSIGNED, f"job {job.id} never dispatched"))
            continue
        if a.machine not in job.eligible:
            out.append(Violation(UNASSIGNED,
                                 f"job {job.id} ran on unqualified machine {a.machine}"))
            continue
        pt = job.eligible[a.machine]
        if not abs(a.ct - (a.st + a.setup + pt)) <= TOL:
            out.append(Violation(SETUP_MISMATCH,
                                 f"job {job.id}: ct {a.ct} != st + setup + pt "
                                 f"{a.st + a.setup + pt}"))

    # machine sequences: ordering, overlap, true-predecessor setups
    for m, seq in per_machine.items():
        # a stable sort: zero-length arcs that tie on (st, ct) keep their
        # dispatch order, which fixes each one's true predecessor
        seq.sort(key=lambda a: (a.st, a.ct))
        prev: ArcRecord | None = None
        for a in seq:
            if prev is not None and not a.st >= prev.ct - TOL:
                out.append(Violation(MACHINE_OVERLAP,
                                     f"machine {m}: job {a.job} starts at {a.st} "
                                     f"before job {prev.job} ends at {prev.ct}"))
            expected = inst.setup_time(prev.job if prev is not None else None, a.job)
            if not abs(a.setup - expected) <= TOL:
                out.append(Violation(SETUP_MISMATCH,
                                     f"machine {m}: job {a.job} charged setup {a.setup}, "
                                     f"changeover table says {expected}"))
            prev = a

    # kit precedence and arrival, in job order; each job's order arrival
    # and each assembly job's kit come from the orders' nesting
    arrival_of, kit_of = {}, {}
    for o in inst.orders:
        arrival_of.update(dict.fromkeys(o.job_ids(), o.arrival))
        kit_of.update((p.assembly_job_id, p.processing_job_ids) for p in o.products)
    for job in inst.jobs:
        a = by_job.get(job.id)
        if a is None:
            continue
        arrival = arrival_of[job.id]
        if not a.st >= arrival - TOL:
            out.append(Violation(ARRIVAL_BREACH,
                                 f"job {job.id} starts at {a.st} before order arrival {arrival}"))
        for p in kit_of.get(job.id, ()):
            pa = by_job.get(p)
            if pa is not None and not a.st >= pa.ct - TOL:
                out.append(Violation(PRECEDENCE,
                                     f"assembly job {job.id} starts at {a.st} before "
                                     f"kit part {p} ends at {pa.ct}"))

    # delivery and tardiness bookkeeping
    for o in inst.orders:
        asm_cts = [by_job[p.assembly_job_id].ct for p in o.products
                   if p.assembly_job_id in by_job]
        if o.id not in sched.ft:
            out.append(Violation(DELIVERY_MISMATCH, f"order {o.id} has no delivery time"))
            continue
        if len(asm_cts) == len(o.products):
            ft = max(asm_cts)
            if not abs(sched.ft[o.id] - ft) <= TOL:
                out.append(Violation(DELIVERY_MISMATCH,
                                     f"order {o.id}: recorded delivery {sched.ft[o.id]} != "
                                     f"latest assembly completion {ft}"))
        tt = max(0.0, sched.ft[o.id] - o.due)
        if not abs(sched.tt.get(o.id, math.nan) - tt) <= TOL:
            out.append(Violation(TARDINESS_MISMATCH,
                                 f"order {o.id}: recorded tardiness {sched.tt.get(o.id)} != "
                                 f"max(0, ft - due) = {tt}"))
    for oid in sorted((sched.ft.keys() | sched.tt.keys()) - {o.id for o in inst.orders}):
        out.append(Violation(DELIVERY_MISMATCH, f"order {oid} is not in the instance"))
    return out


class OracleLimitError(ValueError):
    pass


def _state_key(state: SimState) -> tuple:
    # everything the future depends on: job statuses, machine occupancy and
    # setup rows (last jobs), delivery times (0 until delivered: no partial
    # maximum, as a delivery comes at or after the clock), and the clock.
    # bytes(status) is the bytes of an int8 status array; delivery times are
    # never -0.0 or NaN, so a tuple of them partitions as their bytes do
    return (state.clock, bytes(state.status), state.m_idle.tobytes(),
            state.m_row.tobytes(), tuple(state.order_ft))


def _tardiness_bound(inst: Instance):
    """Function state -> lower bound on the total tardiness of every
    completion of that state.

    The bound is the tardiness the state has already fixed plus, for each
    order with assemblies left, max(0, finish_lb - due). finish_lb is the
    latest finish of the order's remaining assemblies over their kits'
    critical paths: minimum processing times, no setups, no machine
    contention. A running
    job finishes at its arc's completion time. A processing job not yet
    started starts no earlier than max(clock, arrival), and an assembly no
    earlier than the clock and its parts' finish. The order's delivered
    products need no term of their own: they finished by the clock, and
    every remaining assembly finishes at or after it."""
    t = _start_state(inst).t
    pt_min = np.minimum.reduceat(t.pair_pt, t.pair_start[:-1]).tolist()
    arrival = t.order_arrival[t.job_order_list].tolist()
    due = t.order_due.tolist()
    kits = [[(p.assembly_job_id, p.processing_job_ids) for p in o.products]
            for o in sorted(inst.orders, key=lambda o: o.id)]

    def bound(state: SimState) -> float:
        clock = state.clock
        status, ct = state.status, {a.job: a.ct for a in state.arc_log}
        lb = math.fsum(state.order_tt)
        for o, kit in enumerate(kits):
            finish = -math.inf
            for a, parts in kit:
                if status[a] == DONE:
                    continue
                if status[a] == RUNNING:
                    fa = ct[a]
                else:
                    start = clock
                    for p in parts:
                        fp = ct[p] if status[p] >= RUNNING else (
                            max(clock, arrival[p]) + pt_min[p])
                        if fp > start:
                            start = fp
                    fa = start + pt_min[a]
                if fa > finish:
                    finish = fa
            if finish > due[o]:
                lb += finish - due[o]
        return lb

    return bound


def brute_force_optimum(inst: Instance, max_states: int = 2_000_000) -> tuple[float, Schedule]:
    """Minimum total tardiness over every non-delay dispatch sequence.

    Non-delay means a machine is never kept idle while some feasible arc
    exists, which is exactly the set of schedules any dispatching rule can
    reach; deliberate idling is out of scope. Ties between optimal sequences
    break on the lexicographically smallest arc log.

    The search is a depth-first branch and bound that returns what
    enumerating every sequence would, value and arc log alike:

    - A node is pruned when its bound (``_tardiness_bound``) is strictly
      above the incumbent, the least total tardiness of a leaf or memoised
      subtree reached so far, by a relative margin of 1e-9 that covers
      rounding. A path that could tie the optimum is never cut, so the
      tie-break survives.
    - Children go in (job, machine) order and every complete log has one arc
      per job, so leaves are reached in lexicographic order of their logs.
      A log holds each arc as its pair index (``sim._Tables``), which
      orders arcs as (job, machine) does.
      The first zero-tardiness leaf is therefore the answer, and the search
      stops there.
    - Every subtree's result is memoised on the state, pruned or not. The
      state fixes the tardiness so far, and the incumbent only falls, so
      what a pruning left out would be pruned again on every later visit.

    ``max_states`` bounds the number of nodes expanded. The schedule is the
    optimal arc log replayed through the engine's epoch loop, and the value
    is its exact total tardiness (``total_tardiness``): each leaf is valued
    by the exact sum of its order tardiness.
    """
    if inst.num_jobs > MAX_JOBS:
        raise OracleLimitError(f"{inst.num_jobs} jobs exceeds the limit of {MAX_JOBS}")
    if inst.num_machines > MAX_MACHINES:
        raise OracleLimitError(f"{inst.num_machines} machines exceeds the limit of {MAX_MACHINES}")

    bound = _tardiness_bound(inst)
    memo: dict[tuple, tuple[float, tuple]] = {}
    visited = 0
    incumbent = math.inf

    def dfs(state: SimState) -> tuple[float, tuple]:
        """(least total tardiness of a completion, its suffix arc log);
        owns its state."""
        nonlocal visited, incumbent
        if state.done_count == state.t.J:
            total = math.fsum(state.order_tt)
            incumbent = min(incumbent, total)
            return total, ()
        key = _state_key(state)
        hit = memo.get(key)
        if hit is not None:
            incumbent = min(incumbent, hit[0])
            return hit
        if bound(state) > incumbent + 1e-9 * (1.0 + incumbent):
            return math.inf, ()
        visited += 1
        if visited > max_states:
            raise OracleLimitError(f"search exceeded {max_states} states")

        k = state._arc_arrays()
        if len(k) == 0:
            _advance(state)
            best = dfs(state)
        else:
            best = (math.inf, ())
            for p in k.tolist():
                if incumbent == 0.0:
                    break
                child = state.clone()
                _dispatch(child, p)
                sub, log = dfs(child)
                cand = (sub, (p,) + log)
                if cand < best:
                    best = cand
        memo[key] = best
        return best

    value, log = dfs(SimState(inst))
    arcs = iter(log)

    def logged(k: np.ndarray) -> int:
        # the log is non-delay, so its next arc is among the epoch's arcs
        return int(np.flatnonzero(k == next(arcs))[0])

    return value, _rollout(SimState(inst), logged)
