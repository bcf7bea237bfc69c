"""Engine semantics: epochs, arc application, event ordering, rollouts."""

import contextlib
import copy
import dataclasses
import itertools
import math
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fafsp import sim, validator
from fafsp.expr import ACCESSORS, Acc, Cmp, Program, parse
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.model import Stage
from fafsp.rules import BUILTIN_IDS, RuleInvalid, RuleSpec, rank_arc_arrays
from fafsp.sim import (_ARRIVAL, BLOCKED, DONE, READY, DeadlockError, EventTimeError,
                       FeatureView, InfeasibleArcError, SimState, _advance, _dispatch,
                       _rollout, advance_clock, apply_arc, extract_schedule,
                       feasible_arcs, run_dispatch, schedule_from_text,
                       schedule_to_text, total_tardiness)
from fafsp.validator import validate_schedule

from helpers import (first_pick, make_instance, minimal_instance, pick_arc, reference_rank,
                     tiny_dynamic_instance, tree_walk)
from test_expr import programs
from test_golden import RULES

EDD = RuleSpec.builtin("EDD")


def test_forced_sequence_rollout():
    inst = minimal_instance(due=10.0, proc_pt=5.0, asm_pt=3.0)
    sched = run_dispatch(inst, EDD)
    assert sched.ft[0] == pytest.approx(8.0)
    assert sched.tt[0] == pytest.approx(0.0)
    assert total_tardiness(sched) == pytest.approx(0.0)


def test_forced_sequence_tardy():
    inst = minimal_instance(due=6.0, proc_pt=5.0, asm_pt=3.0)
    sched = run_dispatch(inst, EDD)
    assert sched.tt[0] == pytest.approx(2.0)


def test_setup_charged_from_true_predecessor():
    # two processing jobs on one machine; changeover j0 -> j1 costs 1 minute
    inst = make_instance(
        "pa",
        [(0, 100, [([{0: 5.0}, {0: 5.0}], {1: 0.0})])],
        setup=1.0)
    sched = run_dispatch(inst, EDD)
    first, second = sched.arcs[0], sched.arcs[1]
    assert first.setup == 0.0                      # fresh machine
    assert first.ct == pytest.approx(5.0)
    assert second.setup == pytest.approx(1.0)
    assert second.st == pytest.approx(5.0)
    assert second.ct == pytest.approx(11.0)        # st + setup + pt


def test_init_all_arrived_no_events():
    state = SimState(minimal_instance())
    assert state.events == []
    assert feasible_arcs(state) == [(0, 0)]


def test_init_event_count_matches_dynamic_orders():
    inst = generate_instance(ScenarioConfig(m1=1, m2=2, phi=1.0, alpha=4, mu=1.0,
                                            n_init=2, seed=21))
    state = SimState(inst)
    assert len(state.events) == 4


def test_n_init_zero_first_epoch_advances():
    inst = generate_instance(ScenarioConfig(m1=1, m2=1, phi=1.0, alpha=2, mu=1.0,
                                            n_init=0, seed=3))
    state = SimState(inst)
    assert feasible_arcs(state) == []
    advance_clock(state)
    assert state.clock > 0
    assert feasible_arcs(state)


def test_assembly_blocked_until_kit_complete():
    inst = make_instance("ppa", [(0, 100, [([{0: 2.0}, {1: 4.0}], {2: 1.0})])])
    state = SimState(inst)
    assert (2, 2) not in feasible_arcs(state)
    apply_arc(state, (0, 0))
    apply_arc(state, (1, 1))
    advance_clock(state)                     # t=2: first kit part done
    assert state.status[2] == BLOCKED
    assert feasible_arcs(state) == []
    advance_clock(state)                     # t=4: kit complete
    assert state.status[2] == READY
    assert feasible_arcs(state) == [(2, 2)]


def test_one_job_two_idle_machines_two_arcs():
    inst = make_instance("ppa", [(0, 100, [([{0: 2.0, 1: 3.0}], {2: 1.0})])])
    state = SimState(inst)
    assert feasible_arcs(state) == [(0, 0), (0, 1)]


def test_apply_arc_rejects_infeasible():
    inst = make_instance("ppa", [(0, 100, [([{0: 2.0, 1: 3.0}], {2: 1.0})])])
    state = SimState(inst)
    with pytest.raises(InfeasibleArcError):
        apply_arc(state, (0, 2))             # ready job, idle machine it is not eligible for
    apply_arc(state, (0, 0))
    with pytest.raises(InfeasibleArcError):
        apply_arc(state, (0, 1))             # same job again
    with pytest.raises(InfeasibleArcError):
        apply_arc(state, (1, 2))             # blocked assembly


# 4 jobs on 3 machines: job 0 runs on the last machine and the last job on
# machine 0, so a negative id that wrapped around would name an eligible pair
WRAPPING = make_instance("app", [(1, 100, [([{2: 2.0}], {0: 1.0})]),
                                 (0, 100, [([{1: 1.0}], {0: 1.0})])])
OUT_OF_RANGE = [(-1, 0), (4, 0), (0, -1), (0, 3)]


@pytest.mark.parametrize("arc", OUT_OF_RANGE)
def test_apply_arc_rejects_out_of_range_ids(arc):
    # at t=1 job 0 is ready on the last machine and the last job on machine 0,
    # so a wrapped id would name a feasible arc
    assert (WRAPPING.num_jobs, WRAPPING.num_machines) == (4, 3)
    state = SimState(WRAPPING)
    apply_arc(state, (2, 1))
    advance_clock(state)
    assert feasible_arcs(state) == [(0, 2), (3, 0)]
    with pytest.raises(InfeasibleArcError):
        apply_arc(state, arc)
    assert len(state.arc_log) == 1 and feasible_arcs(state) == [(0, 2), (3, 0)]


@pytest.mark.parametrize("arc", OUT_OF_RANGE)
def test_arc_columns_rejects_out_of_range_ids(arc):
    view = FeatureView(SimState(WRAPPING))
    with pytest.raises(InfeasibleArcError, match=fr"arc \(job {arc[0]}, machine {arc[1]}\) "
                                                 "is out of range"):
        view.arc_columns(np.array([0, arc[0]]), np.array([2, arc[1]]))
    # a lone arc is mapped too, though the chooser ranks it unscored
    with pytest.raises(InfeasibleArcError, match=fr"arc \(job {arc[0]}, machine {arc[1]}\) "
                                                 "is out of range"):
        rank_arc_arrays(EDD, view, np.array([arc[0]]), np.array([arc[1]]))


def test_advance_requires_exhausted_epoch():
    state = SimState(minimal_instance())
    with pytest.raises(InfeasibleArcError):
        advance_clock(state)


def test_features_mean_et_and_idle_machine():
    inst = make_instance("ppa", [(0, 100, [([{0: 4.0, 1: 6.0}], {2: 1.0})])])
    state = SimState(inst)
    cols = FeatureView(state).arc_columns(np.array([0]), np.array([1]))
    assert cols["et"][0] == pytest.approx(5.0)     # mean of {4, 6}
    assert cols["avail"][0] == 0.0                 # machine 1 idle since t=0
    assert cols["util"][0] == 0.0
    assert cols["n_mach"][0] == 2


def test_queue_counts_consistent_with_feasible_arcs():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=2, mu=1.0,
                                            n_init=3, seed=8))
    state = SimState(inst)
    arcs = feasible_arcs(state)
    for m in range(inst.num_machines):
        ready_eligible = sum(1 for (j, mm) in arcs if mm == m)
        if state.m_idle[m] <= state.clock:
            assert state.m_queue[m] == ready_eligible


def test_realized_et_after_dispatch():
    inst = make_instance("ppa", [(0, 100, [([{0: 4.0, 1: 6.0}], {2: 1.0})])])
    state = SimState(inst)
    apply_arc(state, (0, 1))
    assert state.et[0] == pytest.approx(6.0)


def test_hand_traced_edd_timeline():
    # two orders sharing one processing machine and one assembly line
    inst = make_instance("pa", [
        (0, 5.0, [([{0: 4.0}], {1: 2.0})]),      # order 0, due 5
        (0, 8.0, [([{0: 3.0}], {1: 1.0})]),      # order 1, due 8
    ])
    sched = run_dispatch(inst, EDD)
    assert [(a.job, a.machine, a.st, a.ct) for a in sched.arcs] == [
        (0, 0, 0.0, 4.0),        # order 0 first (earlier due)
        (1, 1, 4.0, 6.0),        # its assembly
        (2, 0, 4.0, 7.0),        # order 1 processing
        (3, 1, 7.0, 8.0),        # order 1 assembly
    ]
    assert sched.ft[0] == pytest.approx(6.0)
    assert sched.tt[0] == pytest.approx(1.0)
    assert sched.ft[1] == pytest.approx(8.0)
    assert sched.tt[1] == pytest.approx(0.0)


def test_completions_processed_before_arrivals_at_same_time():
    # order 1 arrives exactly when order 0's processing job completes; the
    # freed machine must be usable by the arriving job in the same epoch
    inst = make_instance("pa", [
        (0, 100.0, [([{0: 5.0}], {1: 1.0})]),
        (5.0, 100.0, [([{0: 2.0}], {1: 1.0})]),
    ])
    state = SimState(inst)
    apply_arc(state, (0, 0))
    advance_clock(state)
    assert state.clock == 5.0
    arcs = feasible_arcs(state)
    assert (2, 0) in arcs                    # arriving job sees the freed machine


def test_deadlock_detected_when_events_vanish():
    state = SimState(minimal_instance())
    apply_arc(state, (0, 0))
    state.events.clear()            # simulate a broken model
    with pytest.raises(DeadlockError):
        advance_clock(state)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_advance_rejects_an_event_that_is_not_ahead(bad):
    state = SimState(minimal_instance())
    apply_arc(state, (0, 0))
    advance_clock(state)                     # t=5: job 0 done, events now empty
    state._push(state.clock + bad, _ARRIVAL, 0)
    with pytest.raises(EventTimeError):
        _advance(state)
    assert state.clock == 5.0


def test_rollouts_deterministic():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.6, alpha=4, mu=2.0,
                                            n_init=2, seed=13))
    s1 = run_dispatch(inst, EDD)
    s2 = run_dispatch(inst, EDD)
    assert s1.arcs == s2.arcs
    assert s1.ft == s2.ft and s1.tt == s2.tt


def test_rollouts_validate_clean_across_rules():
    rules = [RuleSpec.builtin(r) for r in ("EDD", "LWKR+SPT", "MWKR+EET")]
    for seed in range(15):
        inst = generate_instance(ScenarioConfig(
            m1=1 + seed % 2, m2=2, phi=0.5 + 0.25 * (seed % 3), alpha=3,
            mu=1.0 + seed % 3, n_init=2, seed=seed))
        for rule in rules:
            sched = run_dispatch(inst, rule)
            assert validate_schedule(inst, sched) == []


def test_total_tardiness_equals_recomputation():
    for seed in range(20):
        inst = generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=3,
                                                mu=2.0, n_init=2, seed=seed))
        sched = run_dispatch(inst, EDD)
        by_job = {a.job: a for a in sched.arcs}
        recomputed = 0.0
        for o in inst.orders:
            ft = max(by_job[p.assembly_job_id].ct for p in o.products)
            recomputed += max(0.0, ft - o.due)
        assert total_tardiness(sched) == pytest.approx(recomputed, abs=1e-9)


def test_extract_schedule_refuses_an_unfinished_rollout():
    state = SimState(minimal_instance())
    apply_arc(state, (0, 0))
    with pytest.raises(ValueError, match="^rollout unfinished: 0/2 jobs done$"):
        extract_schedule(state)


def test_job_tuple_permutation_is_harmless():
    # job ids must be dense but the tuple order is free
    inst = generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=2, mu=2.0,
                                            n_init=2, seed=11))
    shuffled = dataclasses.replace(inst, jobs=tuple(reversed(inst.jobs)))
    assert run_dispatch(inst, EDD).arcs == run_dispatch(shuffled, EDD).arcs


def test_schedule_text_round_trip():
    inst = generate_instance(ScenarioConfig(m1=1, m2=2, phi=1.0, alpha=2, mu=1.0,
                                            n_init=2, seed=33))
    sched = run_dispatch(inst, EDD)
    again = schedule_from_text(schedule_to_text(sched))
    assert again.arcs == sched.arcs
    assert again.ft == sched.ft and again.tt == sched.tt


def test_schedule_text_reads_signs_and_exponents():
    sched = schedule_from_text("arc,0,1,0,+1e0,-2.5E+1\norder,3,1e-3,0\n")
    assert sched.arcs[0] == (0, 1, 0.0, 1.0, -25.0)
    assert (sched.ft, sched.tt) == ({3: 0.001}, {3: 0.0})


def test_unbound_view_gathers_every_accessor():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=2, mu=1.0,
                                            n_init=3, seed=8))
    state = SimState(inst)
    k = state._arc_arrays()
    cols = FeatureView(state).arc_columns(state.t.pair_job[k], state.t.pair_mach[k])
    assert set(cols) == set(ACCESSORS)
    for name in ACCESSORS:
        assert cols[name].shape == (len(k),) and cols[name].dtype == float


# -- the rollout tables against a per-job build --------------------------------

def _reference_tables(inst):
    """Every attribute of the tables, built one job and one order at a time
    with the job's own numpy reductions, each pair's order read off the
    order that lists the job: arrays, lists and counts by name."""
    jobs = sorted(inst.jobs, key=lambda j: j.id)
    orders = sorted(inst.orders, key=lambda o: o.id)
    J, M, N = len(jobs), inst.num_machines, len(orders)
    order_of = {j: o for o in orders for j in o.job_ids()}
    per_job = {name: [] for name in ("pair_job", "pair_mach", "pair_pt", "pair_order",
                                     "pair_arrival", "pair_due", "pair_n_mach")}
    pair_start, mean_et = [0], np.empty(J)
    incidence = np.zeros((J, M))
    succ, kit_size = [-1] * J, [0] * J
    for o in orders:
        for p in o.products:
            kit_size[p.assembly_job_id] = len(p.processing_job_ids)
            for j in p.processing_job_ids:
                succ[j] = p.assembly_job_id
    for job in jobs:
        ms = np.array(sorted(job.eligible), dtype=np.int64)
        pts = np.array([job.eligible[m] for m in ms], dtype=float)
        o = order_of[job.id]
        per_job["pair_job"].append(np.full(len(ms), job.id, dtype=np.int64))
        per_job["pair_mach"].append(ms)
        per_job["pair_pt"].append(pts)
        per_job["pair_order"].append(np.full(len(ms), o.id, dtype=np.int64))
        per_job["pair_arrival"].append(np.full(len(ms), o.arrival))
        per_job["pair_due"].append(np.full(len(ms), o.due))
        per_job["pair_n_mach"].append(np.full(len(ms), float(len(ms))))
        pair_start.append(pair_start[-1] + len(ms))
        mean_et[job.id] = pts.mean()
        incidence[job.id, ms] = 1.0
    ref = {name: np.concatenate(parts) for name, parts in per_job.items()}
    ref.update(
        J=J, M=M, N=N, setup_flat=inst.setup.reshape(-1), pair_start=pair_start,
        pair_job_list=ref["pair_job"].tolist(), pair_mach_list=ref["pair_mach"].tolist(),
        mean_et=mean_et, incidence=incidence, incidence_rows=list(incidence),
        is_assembly=[job.kind == Stage.ASSEMBLY for job in jobs],
        job_order_list=[order_of[job.id].id for job in jobs], succ=succ,
        pred_count=kit_size,
        order_jobs=[o.job_ids() for o in orders],
        order_njobs=np.array([float(len(o.job_ids())) for o in orders]),
        order_arrival=np.array([o.arrival for o in orders]),
        order_due=np.array([o.due for o in orders]),
        order_init_work=np.array([math.fsum(mean_et[j] for j in o.job_ids()) for o in orders]))
    return ref


def _assert_tables_equal(t, ref):
    """Every attribute of the tables ``t`` has the reference's type and value,
    an array its dtype, shape and bytes; there is no attribute beyond them."""
    assert sorted(vars(t)) == sorted(ref)
    for name, want in ref.items():
        got = getattr(t, name)
        assert type(got) is type(want), name
        if isinstance(want, list) and want and isinstance(want[0], np.ndarray):
            got, want = np.array(got), np.array(want)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name
    # the row views share the incidence table's memory
    assert all(np.shares_memory(row, t.incidence) for row in t.incidence_rows)


@pytest.mark.parametrize("phi", [0.7, 1.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_tables_equal_a_per_job_build_bit_for_bit(phi, seed):
    inst = generate_instance(ScenarioConfig(m1=5, m2=12, phi=phi, alpha=20, mu=2.0,
                                            seed=seed))
    # numpy's pairwise mean groups 8 or more values unlike a running sum
    assert max(len(j.eligible) for j in inst.jobs) >= 8
    _assert_tables_equal(SimState(inst).t, _reference_tables(inst))


@pytest.mark.parametrize("seed", [0, 1])
def test_tables_do_not_depend_on_the_order_of_jobs_orders_and_machines(seed):
    inst = generate_instance(ScenarioConfig(m1=3, m2=6, phi=0.5, alpha=10, mu=2.0,
                                            seed=seed))
    rng = random.Random(seed)
    # each job lists its eligible machines in a random order
    jobs = [dataclasses.replace(j, eligible=dict(rng.sample(list(j.eligible.items()),
                                                            len(j.eligible))))
            for j in inst.jobs]
    assert any(list(j.eligible) != sorted(j.eligible) for j in jobs)
    orders, machines = list(inst.orders), list(inst.machines)
    for items in (jobs, orders, machines):
        rng.shuffle(items)
    shuffled = dataclasses.replace(inst, jobs=tuple(jobs), orders=tuple(orders),
                                   machines=tuple(machines))
    assert [o.id for o in shuffled.orders] != sorted(o.id for o in shuffled.orders)
    ref = _reference_tables(inst)
    _assert_tables_equal(SimState(shuffled).t, ref)
    _assert_tables_equal(SimState(inst).t, ref)
    assert run_dispatch(shuffled, EDD).arcs == run_dispatch(inst, EDD).arcs


def test_a_rollout_caches_one_state_and_builds_no_job_by_machine_index():
    inst = generate_instance(ScenarioConfig(m1=3, m2=4, phi=0.7, alpha=10, mu=2.0, seed=5))
    run_dispatch(inst, EDD)
    assert [name for name in inst.__dict__ if name.startswith("_sim")] == ["_sim_start"]
    t = inst.__dict__["_sim_start"].t
    assert [name for name, value in vars(t).items()
            if isinstance(value, np.ndarray) and value.ndim == 2] == ["incidence"]


# -- the per-epoch kernel against re-enumeration after every arc ---------------

#: the columns a same-clock dispatch of positive length may change for the
#: arcs it leaves feasible, written out here; the engine's variant set, closed
#: over what each column derives from, must be these
VARIANT_COLUMNS = {"queue", "work_rem", "slack"}


def _invariant(reads):
    """Whether a rule reading ``reads`` reads no dispatch-variant column."""
    return VARIANT_COLUMNS.isdisjoint(reads)


#: two rules that read dispatch-variant columns, which a rollout ranks at
#: every decision, then four that read none, which it ranks once an epoch
#: (the expression reads every invariant accessor)
KERNEL_RULES = (RuleSpec.builtin("MWKR+EET"),
                RuleSpec.expression("slack + 0.5*pt*queue - 0.1*util + ops_rem"
                                    " + if(wait > et, setup, n_mach)"),
                EDD, RuleSpec.builtin("FIFO+EET"), RuleSpec.builtin("MOPNR+SPT"),
                RuleSpec.expression("due + 0.5*pt - 0.1*util + ops_rem"
                                    " + if(wait > et, setup, n_mach) + 0.01*arrival*avail - now"))


def _python_arcs(inst, state):
    """Feasible arcs from the instance data, by a plain loop."""
    return [(j.id, m) for j in sorted(inst.jobs, key=lambda j: j.id)
            if state.status[j.id] == READY
            for m in sorted(j.eligible) if state.m_idle[m] <= state.clock]


def _arcs_of(state, k):
    """The (job, machine) arcs of the pair indices k."""
    return list(zip(state.t.pair_job[k].tolist(), state.t.pair_mach[k].tolist()))


def _ranked(state, rule):
    """Chooser that ranks the arcs k with the rule through the (job,
    machine) step API, as a traced rollout does."""
    fv = FeatureView(state)
    return lambda k: rank_arc_arrays(rule, fv, state.t.pair_job[k], state.t.pair_mach[k])


def _check_ready_bookkeeping(inst, state):
    """The state's ready count, ready-pair mask, machine queue counts,
    remaining-job counts and order deliveries against a recomputation from
    the job statuses and the arc log."""
    jobs = sorted(inst.jobs, key=lambda j: j.id)
    orders = sorted(inst.orders, key=lambda o: o.id)
    ready = [j for j in jobs if state.status[j.id] == READY]
    left = {j.id for j in jobs if state.status[j.id] != DONE}
    assert state.n_ready == len(ready)
    assert state.pair_ready.tolist() == [state.status[j.id] == READY
                                         for j in jobs for _ in j.eligible]
    assert state.m_queue.dtype == state.order_ops_rem.dtype == float
    _check_idle_mask(state)
    assert state.m_queue.tolist() == [sum(m in j.eligible for j in ready)
                                      for m in range(inst.num_machines)]
    assert state.order_ops_rem.tolist() == [
        sum(j in left for p in o.products for j in (*p.processing_job_ids, p.assembly_job_id))
        for o in orders]
    assert isinstance(state.pred_remaining, list)
    kit = {p.assembly_job_id: p.processing_job_ids for o in orders for p in o.products}
    assert state.pred_remaining == [len(left.intersection(kit.get(j.id, ()))) for j in jobs]
    # an order is undelivered (0) until every job of it is done, and then
    # delivered at its latest assembly completion
    ct = {a.job: a.ct for a in state.arc_log}
    for o in orders:
        asm = [p.assembly_job_id for p in o.products]
        done = left.isdisjoint([*asm, *(j for p in o.products for j in p.processing_job_ids)])
        assert state.order_ft[o.id] == (max(ct[a] for a in asm) if done else 0.0), o.id
        assert state.order_tt[o.id] == max(0.0, state.order_ft[o.id] - o.due), o.id


def _check_idle_mask(state):
    """The idle-machine mask the transition keeps against the idle times."""
    assert state.m_free.dtype == bool
    assert state.m_free.tolist() == (state.m_idle <= state.clock).tolist()


def _reference_dispatch(inst, rule, state=None):
    """Rollout, from a fresh state or the given one, that enumerates the arcs
    afresh before every decision and checks the ready bookkeeping at every
    step."""
    state = SimState(inst) if state is None else state
    while state.done_count < state.t.J:
        _check_ready_bookkeeping(inst, state)
        arcs = feasible_arcs(state)
        assert arcs == _python_arcs(inst, state)
        if arcs:
            apply_arc(state, pick_arc(rule, FeatureView(state), arcs))
        else:
            advance_clock(state)
    _check_ready_bookkeeping(inst, state)
    return extract_schedule(state)


@st.composite
def hand_built_instances(draw):
    """Small instances whose processing times and setups are often zero, so
    some dispatches take no time and leave their machine idle."""
    n_proc, n_asm = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    times = st.sampled_from([0.0, 0.0, 1.0, 2.5])

    def eligible(machines):
        ms = draw(st.lists(st.sampled_from(machines), min_size=1, unique=True))
        return {m: draw(times) for m in ms}

    orders = []
    for _ in range(draw(st.integers(1, 3))):
        arrival = draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]))
        due = arrival + draw(st.sampled_from([0.0, 1.0, 4.0]))
        products = [([eligible(range(n_proc)) for _ in range(draw(st.integers(1, 3)))],
                     eligible(range(n_proc, n_proc + n_asm)))
                    for _ in range(draw(st.integers(1, 2)))]
        orders.append((arrival, due, products))
    n_jobs = sum(len(kit) + 1 for _, _, products in orders for kit, _ in products)
    setup = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0]),
                          min_size=n_jobs * n_jobs, max_size=n_jobs * n_jobs))
    matrix = [[0.0] * n_jobs] + [setup[i:i + n_jobs] for i in range(0, len(setup), n_jobs)]
    return make_instance("p" * n_proc + "a" * n_asm, orders, setup=matrix)


generated_instances = st.builds(
    lambda m1, m2, phi, alpha, mu, n_init, seed: generate_instance(ScenarioConfig(
        m1=m1, m2=m2, phi=phi, alpha=alpha, mu=mu, n_init=n_init, seed=seed)),
    m1=st.integers(1, 2), m2=st.integers(1, 4), phi=st.sampled_from([0.5, 0.8, 1.0]),
    alpha=st.integers(1, 4), mu=st.sampled_from([1.0, 2.0, 4.0]),
    n_init=st.integers(0, 2), seed=st.integers(0, 10_000))

# job 0 takes no time on machine 0, so job 2 still starts there at time 0,
# in the same epoch and before job 0's completion releases assembly job 1
ZERO_LENGTH = make_instance("pa", [(0.0, 5.0, [([{0: 0.0}], {1: 0.0})]),
                                   (0.0, 9.0, [([{0: 3.0}], {1: 1.0})])])
# at time 0 jobs 0 and 2 are ready and eligible only on machine 0: two arcs
# of two jobs that share the machine
SHARED_MACHINE = make_instance("pa", [(0.0, 5.0, [([{0: 2.0}], {1: 1.0})]),
                                      (0.0, 9.0, [([{0: 3.0}], {1: 1.0})])])
# at time 0 job 0 is the only ready job and is eligible on machines 0 and 1:
# two arcs of one job
SHARED_JOB = make_instance("ppa", [(0.0, 100.0, [([{0: 2.0, 1: 3.0}], {2: 1.0})])])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances))
@example(inst=ZERO_LENGTH)
@example(inst=SHARED_MACHINE)
@example(inst=SHARED_JOB)
def test_epoch_kernel_matches_reenumeration(inst):
    for rule in KERNEL_RULES:
        got = schedule_to_text(run_dispatch(inst, rule))
        assert got == schedule_to_text(_reference_dispatch(inst, rule))


@pytest.mark.parametrize("source", sorted(ACCESSORS))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances))
@example(inst=ZERO_LENGTH)
@example(inst=SHARED_MACHINE)
@example(inst=SHARED_JOB)
def test_a_one_accessor_rule_rolls_out_as_the_reference(source, inst):
    # eleven of the fourteen rank once an epoch and walk their ranking,
    # ties in arc order; queue, work_rem and slack rank at every decision
    rule = RuleSpec.expression(source)
    got = schedule_to_text(run_dispatch(inst, rule))
    assert got == schedule_to_text(_reference_dispatch(inst, rule))


def test_the_variant_set_closes_to_the_variant_columns():
    assert {name for name in ACCESSORS
            if not sim._DISPATCH_VARIANT.isdisjoint(sim._closure(frozenset({name})))
            } == VARIANT_COLUMNS


def test_the_invariant_builtins_rank_once_an_epoch():
    # at time 0 of SHARED_MACHINE two arcs: a walking rule's chooser returns
    # its ranking of both, any other rule's the index of one
    state = SimState(SHARED_MACHINE)
    k = state._arc_arrays()
    walking = set()
    for rid in BUILTIN_IDS:
        rule = RuleSpec.builtin(rid)
        pick = rule.chooser(state, rule)(k)
        if isinstance(pick, np.ndarray):
            assert sorted(pick.tolist()) == [0, 1], rid
            walking.add(rid)
        else:
            assert pick in (0, 1), rid
    assert walking == {"EDD", "FIFO+SPT", "FIFO+EET", "MOPNR+SPT", "MOPNR+EET"}


def test_a_walking_rollout_skips_enumerations():
    # EDD walks its ranking through each epoch; the same rule behind the
    # step API's index chooser takes one arc per enumeration
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0,
                                            n_init=2, seed=0))
    schedules, calls = [], []
    for walks in (True, False):
        state = SimState(inst)
        calls.append(0)
        enumerate_arcs = state._arc_arrays

        def counting():
            calls[-1] += 1
            return enumerate_arcs()

        state._arc_arrays = counting
        choose = EDD.chooser(state, EDD) if walks else _ranked(state, EDD)
        with np.errstate(all="ignore"):
            schedules.append(schedule_to_text(_rollout(state, choose)))
    assert schedules[0] == schedules[1]
    # the 67 jobs take 80 enumerations one arc at a time (as pinned in
    # test_single_arc_step_skips_enumerations) and 70 down EDD's rankings
    assert calls == [70, 80]


# -- the columns a same-clock dispatch changes for the arcs it leaves ------------

def _columns_a_dispatch_changes(inst, seed):
    """The columns that changed for a surviving arc at some dispatch of a
    random non-delay rollout that took time and left arcs, through the step
    API's columns before and after it; asserts that every other column kept
    its bits and that the arcs left are exactly the survivors."""
    state, rng, changed = SimState(inst), random.Random(seed), set()
    view = FeatureView(state)
    while state.done_count < state.t.J:
        arcs = feasible_arcs(state)
        if not arcs:
            advance_clock(state)
            continue
        j, m = arcs[rng.randrange(len(arcs))]
        before = view.arc_columns(*zip(*arcs))
        apply_arc(state, (j, m))
        kept = [i for i, (a, b) in enumerate(arcs) if a != j and b != m]
        if state.arc_log[-1].ct == state.clock or not kept:
            continue
        left = [arcs[i] for i in kept]
        assert feasible_arcs(state) == left
        after = view.arc_columns(*zip(*left))
        for name in ACCESSORS:
            if before[name][kept].tobytes() != after[name].tobytes():
                assert name in VARIANT_COLUMNS, name
                changed.add(name)
    return changed


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances),
       seed=st.integers(0, 2**16))
@example(inst=SHARED_MACHINE, seed=0)
def test_a_dispatch_changes_only_the_variant_columns_of_the_arcs_it_leaves(inst, seed):
    _columns_a_dispatch_changes(inst, seed)


def test_every_variant_column_changes_at_some_dispatch():
    changed = set()
    for seed in range(3):
        inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0,
                                                n_init=2, seed=seed))
        changed |= _columns_a_dispatch_changes(inst, seed)
    assert changed == VARIANT_COLUMNS


def test_zero_length_dispatch_leaves_machine_idle():
    sched = run_dispatch(ZERO_LENGTH, EDD)
    assert [(a.job, a.machine, a.st, a.ct) for a in sched.arcs] == [
        (0, 0, 0.0, 0.0), (2, 0, 0.0, 3.0), (1, 1, 0.0, 0.0), (3, 1, 3.0, 4.0)]
    assert validate_schedule(ZERO_LENGTH, sched) == []


def test_a_zero_length_completion_leaves_a_machine_taken_again_busy():
    # job 0 takes no time on machine 0, and job 2 then takes machine 0 for 3
    # at the same clock: job 0's completion, at time 0, must not free it
    state = SimState(ZERO_LENGTH)
    apply_arc(state, (0, 0))
    assert state.m_free.tolist() == [True, True]
    assert feasible_arcs(state) == [(2, 0)]
    apply_arc(state, (2, 0))
    assert state.m_free.tolist() == [False, True]
    advance_clock(state)
    assert (state.clock, state.status[0]) == (0.0, DONE)
    assert state.m_free.tolist() == [False, True]
    assert feasible_arcs(state) == [(1, 1)]
    apply_arc(state, (1, 1))                # takes no time either
    assert feasible_arcs(state) == []
    advance_clock(state)                    # job 1's completion, at time 0
    assert state.m_free.tolist() == [False, True]
    advance_clock(state)                    # job 2 completes at 3
    assert (state.clock, state.m_free.tolist()) == (3.0, [True, True])


@contextlib.contextmanager
def _idle_mask_checked_after_every_advance():
    """Check the idle mask after every advance of the engine and the oracle."""
    def checked(state):
        _advance(state)
        _check_idle_mask(state)
        return state

    with mock.patch.object(sim, "_advance", checked), \
            mock.patch.object(validator, "_advance", checked):
        yield


@pytest.mark.parametrize("inst", [ZERO_LENGTH, SHARED_MACHINE,
                                  *map(tiny_dynamic_instance, range(3))])
def test_the_oracles_cloned_states_keep_the_idle_mask(inst):
    # the oracle enumerates in every state it visits, clones among them
    enumerate_arcs, states = SimState._arc_arrays, []

    def checked(state):
        _check_idle_mask(state)
        states.append(state)
        return enumerate_arcs(state)

    with _idle_mask_checked_after_every_advance(), \
            mock.patch.object(SimState, "_arc_arrays", checked):
        value, sched = validator.brute_force_optimum(inst)
    assert validate_schedule(inst, sched) == [] and value == total_tardiness(sched)
    assert len({id(state) for state in states}) > 1


@pytest.mark.parametrize("seed", range(4))
def test_clones_keep_their_own_ready_bookkeeping(seed):
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0,
                                            n_init=2, seed=seed))
    state = SimState(inst)
    # walk past half the jobs to an epoch with arcs of two different jobs
    while state.done_count < inst.num_jobs // 2 or len({j for j, _ in feasible_arcs(state)}) < 2:
        arcs = feasible_arcs(state)
        if arcs:
            apply_arc(state, arcs[0])
        else:
            advance_clock(state)
    other = state.clone()
    arcs = feasible_arcs(state)
    apply_arc(state, arcs[0])
    apply_arc(other, arcs[-1])
    # the first copy runs to the end before the second starts, and the
    # reference checks every count at every step, so a count array or list
    # that the clone shares with its original fails here
    for copy in (state, other):
        _reference_dispatch(inst, EDD, copy)


def test_rollouts_leave_the_start_state_as_built():
    cfg = ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0, n_init=2, seed=5)
    inst = generate_instance(cfg)
    for rule in [RULES[rid] for rid in (*BUILTIN_IDS, "wide")]:
        run_dispatch(inst, rule)
    start, fresh = sim._start_state(inst), sim._start_state(generate_instance(cfg))
    assert start is not fresh and start.events
    for name, value in vars(fresh).items():
        if isinstance(value, np.ndarray):
            assert getattr(start, name).tobytes() == value.tobytes(), name
        elif name != "t":
            assert getattr(start, name) == value, name
    a, b = SimState(inst), SimState(inst)
    copied = [name for name, value in vars(start).items()
              if isinstance(value, (list, np.ndarray))]
    for name in copied:
        fields = [getattr(s, name) for s in (start, a, b)]
        assert len({id(f) for f in fields}) == 3, name
        if isinstance(fields[0], np.ndarray):
            assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(fields, 2))
    assert set(vars(a)) - set(copied) == {"t", "clock", "n_ready", "done_count", "_seq"}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances),
       seed=st.integers(0, 2**16))
@example(inst=ZERO_LENGTH, seed=0)
def test_enumeration_matches_python_loop_at_every_step(inst, seed):
    # the epoch loop enumerates before every decision, after zero-length
    # dispatches too; check each enumeration and the bookkeeping it reads,
    # and the idle mask after every advance
    state = SimState(inst)
    enumerate_arcs = state._arc_arrays
    steps = []

    def checked():
        k = enumerate_arcs()
        assert _arcs_of(state, k) == _python_arcs(inst, state)
        _check_ready_bookkeeping(inst, state)
        steps.append(len(k))
        return k

    state._arc_arrays = checked
    rng = random.Random(seed)
    with _idle_mask_checked_after_every_advance():
        sched = _rollout(state, lambda k: rng.randrange(len(k)))
    assert len(sched.arcs) == sum(n > 0 for n in steps) == inst.num_jobs


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances),
       seed=st.integers(0, 2**16))
@example(inst=ZERO_LENGTH, seed=0)
def test_every_non_delay_rollout_validates_clean(inst, seed):
    # the validator is the engine's independent check, so it must accept any
    # non-delay dispatch sequence, not only the rule-ranked ones
    rng = random.Random(seed)
    sched = _rollout(SimState(inst), lambda k: rng.randrange(len(k)))
    assert validate_schedule(inst, sched) == []
    assert total_tardiness(sched) == math.fsum(sched.tt.values())


# -- the step past a dispatch that leaves no arc, against re-enumeration ----------

def _reenumerating_rollout(state, choose):
    """_rollout without its step after a dispatch that leaves no arc:
    enumerates the arcs again after every dispatch."""
    while state.done_count < state.t.J:
        k = state._arc_arrays()
        if len(k):
            p = k.item(choose(k))
            _dispatch(state, p)
        else:
            _advance(state)
    return extract_schedule(state)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances),
       seed=st.integers(0, 2**16))
@example(inst=ZERO_LENGTH, seed=0)
@example(inst=ZERO_LENGTH, seed=1)
@example(inst=SHARED_MACHINE, seed=0)
@example(inst=SHARED_MACHINE, seed=1)
@example(inst=SHARED_JOB, seed=0)
@example(inst=SHARED_JOB, seed=1)
def test_single_arc_step_matches_reenumeration(inst, seed):
    # the same seed makes the same choices: the skipped enumerations are
    # the ones that would have found no arc, so the chooser sees the same
    # arc sets in the same order. The examples are a zero-length arc, and
    # decisions whose arcs all share the machine or all share the job
    logs = []
    for rollout in (_rollout, _reenumerating_rollout):
        rng = random.Random(seed)
        logs.append(schedule_to_text(rollout(SimState(inst), lambda k: rng.randrange(len(k)))))
    assert logs[0] == logs[1]


def _edd_steps(inst, monkeypatch):
    """The arc set of each enumeration and the clock of each advance of an
    EDD rollout, in order."""
    state = SimState(inst)
    steps = []
    enumerate_arcs = state._arc_arrays

    def logged():
        k = enumerate_arcs()
        steps.append(_arcs_of(state, k))
        return k

    state._arc_arrays = logged
    monkeypatch.setattr(sim, "_advance",
                        lambda s: steps.append(f"advance from {s.clock}") or _advance(s))
    _rollout(state, _ranked(state, EDD))
    return steps


def test_single_zero_length_arc_is_followed_by_an_enumeration(monkeypatch):
    # under EDD, job 1 is the only arc at time 0 and takes no time: its
    # machine stays idle, so the loop enumerates again before it advances;
    # jobs 2 and 3 are single arcs that take time, and the loop advances
    # right after dispatching them. At time 0 job 0 and job 2 share machine
    # 0, but job 0 takes no time, so the loop enumerates again
    assert _edd_steps(ZERO_LENGTH, monkeypatch) == [
        [(0, 0), (2, 0)], [(2, 0)], "advance from 0.0",
        [(1, 1)], [], "advance from 0.0",
        [], "advance from 0.0",
        [(3, 1)], "advance from 3.0"]


def test_arcs_that_share_the_machine_are_followed_by_an_advance(monkeypatch):
    # at time 0 both arcs are on machine 0, whose queue count is 2, so the
    # clock advances right after job 0 takes the machine. At time 2 the arcs
    # (1, 1) and (2, 0) share neither job nor machine, and the loop
    # enumerates again after dispatching job 1
    assert _edd_steps(SHARED_MACHINE, monkeypatch) == [
        [(0, 0), (2, 0)], "advance from 0.0",
        [(1, 1), (2, 0)], [(2, 0)], "advance from 2.0",
        [], "advance from 3.0",
        [(3, 1)], "advance from 5.0"]


def test_arcs_that_share_the_job_are_followed_by_an_advance(monkeypatch):
    # at time 0 both arcs are job 0's, on two machines, so the clock
    # advances right after job 0 is dispatched to one of them
    assert _edd_steps(SHARED_JOB, monkeypatch) == [
        [(0, 0), (0, 1)], "advance from 0.0",
        [(1, 2)], "advance from 2.0"]


def test_single_arc_step_skips_enumerations():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0,
                                            n_init=2, seed=0))
    schedules, calls = [], []
    for rollout in (_rollout, _reenumerating_rollout):
        state = SimState(inst)
        calls.append(0)
        enumerate_arcs = state._arc_arrays

        def counting():
            calls[-1] += 1
            return enumerate_arcs()

        state._arc_arrays = counting
        schedules.append(schedule_to_text(rollout(state, _ranked(state, EDD))))
    assert schedules[0] == schedules[1]
    # 57 of the 67 decisions take time and have arcs that all share the
    # chosen job (10, of which 8 are single arcs) or all share its machine
    # (47); no enumeration follows them
    assert calls == [80, 137]


# -- the (job, machine) adapter against the pair-index gather -----------------------

BASES = {"slack": {"due", "now", "work_rem"}, "wait": {"now", "arrival"}}


class _Capture:
    """Stand-in program for ``sim.build_chooser``: its code hands the columns the
    chooser gathered, named as ``names``, to ``seen`` and scores every arc 0."""

    def __init__(self, reads, names):
        self.reads = frozenset(reads)
        self.names = sorted(names)
        self.seen = []

    def inline(self, prefix=""):
        columns = ", ".join(f"{name!r}: {name}" for name in self.names)
        return [f"v0 = _seen({{{columns}}}, n)"], "v0", {"_seen": self._seen}

    def _seen(self, columns, n):
        self.seen.append(columns)
        return np.zeros(n) if self.reads else np.zeros(())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances),
       seed=st.integers(0, 2**16), reads=st.sets(st.sampled_from(sorted(ACCESSORS))))
@example(inst=ZERO_LENGTH, seed=0, reads=set())
def test_arc_columns_equal_the_pair_gather(inst, seed, reads):
    # at every decision of a random non-delay rollout, the step API's
    # arc_columns gives every accessor's column as floats, one entry per
    # arc; at a decision of two arcs or more, the columns a rule's generated
    # chooser gathers by pair index from the same column table, for a rule
    # that reads every accessor and for one that reads the drawn set, are
    # those columns, bit for bit
    state = SimState(inst)
    view = FeatureView(state)
    names = reads.union(*(BASES.get(name, set()) for name in reads))
    captures = [_Capture(ACCESSORS, ACCESSORS), _Capture(reads, names)]
    choosers = [sim.build_chooser(capture)(state, None) for capture in captures]
    rng = random.Random(seed)
    decisions = []

    def checked(k):
        got = view.arc_columns(state.t.pair_job[k], state.t.pair_mach[k])
        assert set(got) == set(ACCESSORS)
        for col in got.values():
            assert col.dtype == float and col.shape == (len(k),)
        for choose, capture in zip(choosers, captures):
            # every score is 0: the first arc, or every arc in arc order
            # from a rule that reads no dispatch-variant column
            pick = choose(k)
            if len(k) > 1 and _invariant(capture.reads):
                assert pick.tolist() == list(range(len(k)))
            else:
                assert pick == 0
            assert len(capture.seen) == (len(k) > 1)    # a single arc is chosen unscored
            for want in capture.seen:
                assert set(want) == set(capture.names)
                for name, col in want.items():
                    assert col.dtype == float
                    assert col.tobytes() == got[name].tobytes(), name
            capture.seen.clear()
        decisions.append(len(k))
        return rng.randrange(len(k))

    _rollout(state, checked)
    assert len(decisions) >= 1


def test_arc_columns_rejects_a_pair_that_is_not_eligible():
    state = SimState(SHARED_JOB)
    with pytest.raises(InfeasibleArcError, match="machine 2 is not eligible for job 0"):
        FeatureView(state).arc_columns(np.array([0, 0]), np.array([1, 2]))
    # a lone arc is mapped too, though the chooser ranks it unscored
    with pytest.raises(InfeasibleArcError, match="machine 2 is not eligible for job 0"):
        rank_arc_arrays(EDD, FeatureView(state), np.array([0]), np.array([2]))


# -- a chooser gathers what its rule reads, closed over the column table --------

def test_the_column_table_lists_each_name_after_what_it_derives_from():
    names = [*sim._INDEXES, *sim._COLUMNS]
    for name, (bases, _) in {**sim._INDEXES, **sim._COLUMNS}.items():
        assert all(names.index(base) < names.index(name) for base in bases), name


def test_work_rem_and_ops_rem_share_one_order_gather():
    lines = sim._gather_lines(frozenset({"slack", "ops_rem"}))
    assert [line.partition(" = ")[0] for line in lines] == [
        "order", "due", "now", "work_rem", "slack", "ops_rem"]


CLOSURE_INSTANCE = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0,
                                                    n_init=2, seed=0))


@pytest.mark.parametrize("source", [*sorted(ACCESSORS), "slack + ops_rem", "slack * work_rem"])
def test_a_one_accessor_chooser_ranks_as_the_reference(source):
    # the chooser gathers only what the rule reads and what that derives
    # from, transitively (slack needs work_rem, which needs the order ids);
    # at every decision of two arcs or more of a random non-delay rollout it
    # ranks as the reference does over the step API's columns, which the
    # step API gathers for every accessor
    rule = RuleSpec.expression(source)
    state = SimState(CLOSURE_INSTANCE)
    choose = rule.chooser(state, rule)
    view = FeatureView(state)
    rng = random.Random(0)
    ranked = []

    def checked(k):
        if len(k) > 1:
            jobs, machs = state.t.pair_job[k].tolist(), state.t.pair_mach[k].tolist()
            columns = view.arc_columns(jobs, machs)
            want = reference_rank(rule, columns, jobs, machs)
            pick = choose(k)
            assert first_pick(pick) == want
            if _invariant(rule.program.reads):
                # the whole ranking: the arcs by score, ties in arc order
                score = tree_walk(rule.program.root, columns, len(k)).astype(float).tolist()
                assert pick.tolist() == sorted(range(len(k)), key=score.__getitem__)
            ranked.append(want)
        return rng.randrange(len(k))

    with np.errstate(all="ignore"):
        _rollout(state, checked)
    assert len(ranked) >= 20


# for a rule whose score overflows on a long processing time: at time 0 the
# arcs are (0, 0), (0, 1) and (2, 0), pairs 0, 1 and 3, and only (2, 0) takes
# 9 minutes, so the third arc is named, not the third pair
OVERFLOW = make_instance("ppa", [(0.0, 100.0, [([{0: 1.0, 1: 2.0}], {2: 1.0})]),
                                 (0.0, 50.0, [([{0: 9.0}], {2: 1.0})])])


#: rules whose scores the chooser must keep: overflows, a rule that reads no
#: column, a comparison at the top (only a Program built from nodes has one)
#: and the nine builtins, which rank by two keys
CHOOSER_RULES = [*map(RuleSpec.expression, ["exp(100*pt)", "due + exp(1000*(wait - 2))",
                                            "slack + 1/exp(1000*(et - pt))", "2.5"]),
                 RuleSpec("comparison", "due < now + pt",
                          Program(Cmp("<", Acc("due"), parse("now + pt").root), 4)),
                 *map(RuleSpec.builtin, BUILTIN_IDS)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances),
       rule=st.one_of(st.sampled_from(CHOOSER_RULES), programs.map(RuleSpec.expression)))
@example(inst=OVERFLOW, rule=CHOOSER_RULES[0])
def test_both_paths_give_the_same_schedule_or_name_the_same_arc(inst, rule):
    # run_dispatch ranks with the rule's generated chooser, the reference
    # rollout with the tree walk and a first minimum taken in Python, which
    # share no scoring or arg-min code with it; a rule either gives the same
    # schedule on both or is rejected on both with the same message, naming
    # the same (job, machine) arc
    def outcome(rollout):
        try:
            return schedule_to_text(rollout(inst, rule))
        except RuleInvalid as e:
            return str(e)

    got = outcome(run_dispatch)
    assert got == outcome(_reference_dispatch)
    if inst is OVERFLOW and rule is CHOOSER_RULES[0]:
        assert got == "rule 'expression': non-finite score inf for arc (job 2, machine 0)"


@pytest.mark.parametrize("rule", [EDD, KERNEL_RULES[1]], ids=["builtin", "expression"])
def test_a_rolled_out_rule_pickles_and_copies(rule):
    # the chooser a rollout generates is kept on the rule; a pickled or
    # copied rule goes without it and builds its own
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0,
                                            n_init=2, seed=5))
    want = schedule_to_text(run_dispatch(inst, rule))
    for again in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
        assert again == rule
        assert schedule_to_text(run_dispatch(inst, again)) == want


# -- numpy's error state: set once per rollout, the caller's restored ------------

ERRSTATE_INSTANCE = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=2.0,
                                                     n_init=2, seed=4))


@pytest.mark.parametrize("source", ["due + 1/(pt - pt)",          # protected x/0
                                    "due + 1/exp(1000*pt)"])      # exp overflows, 1/inf is 0
def test_run_dispatch_ignores_a_raising_error_state(source):
    rule = RuleSpec.expression(source)
    want = schedule_to_text(run_dispatch(ERRSTATE_INSTANCE, rule))
    assert want == schedule_to_text(run_dispatch(ERRSTATE_INSTANCE, RuleSpec.expression("due")))
    with np.errstate(all="raise"):
        before = np.geterr()
        assert schedule_to_text(run_dispatch(ERRSTATE_INSTANCE, rule)) == want
        assert np.geterr() == before
    assert np.geterr() != before


def test_overflowing_rule_is_rejected_in_any_error_state():
    rule = RuleSpec.expression("exp(1000*pt)")
    with pytest.raises(RuleInvalid, match="non-finite score inf") as quiet:
        run_dispatch(ERRSTATE_INSTANCE, rule)
    with np.errstate(all="raise"):
        before = np.geterr()
        with pytest.raises(RuleInvalid) as raising:
            run_dispatch(ERRSTATE_INSTANCE, rule)
        assert np.geterr() == before
    assert str(raising.value) == str(quiet.value)


def test_the_rule_name_reaches_the_chooser_only_at_run_time():
    # a name that would break the generated source, were it pasted into it
    rule = RuleSpec("x'\"\n{p}", "exp(1000*pt)", parse("exp(1000*pt)"))
    with pytest.raises(RuleInvalid) as e:
        run_dispatch(ERRSTATE_INSTANCE, rule)
    assert str(e.value).startswith(f"rule {rule.name!r}: non-finite score inf for arc (job ")


# -- replaying an arc log through the epoch loop ----------------------------------

@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=st.one_of(hand_built_instances(), generated_instances))
@example(inst=ZERO_LENGTH)
def test_replay_reproduces_rollout(inst):
    sched = run_dispatch(inst, KERNEL_RULES[1])
    arcs = iter(sim._pair_indices(SimState(inst).t, [a.job for a in sched.arcs],
                                  [a.machine for a in sched.arcs]).tolist())

    def logged(k):
        return int(np.flatnonzero(k == next(arcs))[0])

    again = _rollout(SimState(inst), logged)
    assert schedule_to_text(again) == schedule_to_text(sched)
