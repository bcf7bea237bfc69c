"""Independent schedule checks and the branch-and-bound non-delay oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.rules import BUILTIN_IDS, RuleSpec
from fafsp.sim import (ArcRecord, Schedule, SimState, _rollout, advance_clock, apply_arc,
                       feasible_arcs, run_dispatch, total_tardiness)
from fafsp.validator import (ARRIVAL_BREACH, DELIVERY_MISMATCH, MACHINE_OVERLAP,
                             PRECEDENCE, SETUP_MISMATCH, TARDINESS_MISMATCH,
                             UNASSIGNED, OracleLimitError, _tardiness_bound,
                             brute_force_optimum, validate_schedule)

from helpers import (make_instance, minimal_instance, tiny_dynamic_instance,
                     tiny_oracle_instance)


def _two_stage_instance():
    return make_instance("pa", [(0, 10.0, [([{0: 5.0}], {1: 3.0})])])


def _sched(arcs, ft, tt, n_jobs=2, n_orders=1):
    return Schedule(tuple(arcs), ft, tt, n_jobs, n_orders)


def test_clean_rollout_validates():
    inst = _two_stage_instance()
    sched = run_dispatch(inst, RuleSpec.builtin("EDD"))
    assert validate_schedule(inst, sched) == []


def test_assembly_starting_early_is_precedence():
    inst = _two_stage_instance()
    sched = _sched([ArcRecord(0, 0, 0.0, 0.0, 5.0), ArcRecord(1, 1, 0.0, 4.0, 7.0)],
                   {0: 7.0}, {0: 0.0})
    kinds = {v.kind for v in validate_schedule(inst, sched)}
    assert kinds == {PRECEDENCE}


def test_overlap_on_machine_detected():
    inst = make_instance("pa", [(0, 50.0, [([{0: 4.0}, {0: 4.0}], {1: 1.0})])])
    sched = _sched([ArcRecord(0, 0, 0.0, 0.0, 4.0), ArcRecord(1, 0, 0.0, 2.0, 6.0),
                    ArcRecord(2, 1, 0.0, 6.0, 7.0)],
                   {0: 7.0}, {0: 0.0}, n_jobs=3)
    kinds = {v.kind for v in validate_schedule(inst, sched)}
    assert MACHINE_OVERLAP in kinds


def test_wrong_setup_detected():
    inst = make_instance("pa", [(0, 50.0, [([{0: 4.0}, {0: 4.0}], {1: 1.0})])],
                         setup=1.0)
    sched = _sched([ArcRecord(0, 0, 0.0, 0.0, 4.0), ArcRecord(1, 0, 0.0, 4.0, 8.0),
                    ArcRecord(2, 1, 0.0, 8.0, 9.0)],
                   {0: 9.0}, {0: 0.0}, n_jobs=3)
    kinds = {v.kind for v in validate_schedule(inst, sched)}
    assert SETUP_MISMATCH in kinds           # job 1 should charge 1.0 after job 0


def test_arrival_breach_detected():
    inst = make_instance("pa", [(3.0, 50.0, [([{0: 5.0}], {1: 3.0})])])
    sched = _sched([ArcRecord(0, 0, 0.0, 0.0, 5.0), ArcRecord(1, 1, 0.0, 5.0, 8.0)],
                   {0: 8.0}, {0: 0.0})
    kinds = {v.kind for v in validate_schedule(inst, sched)}
    assert ARRIVAL_BREACH in kinds


def test_orders_out_of_id_order_are_found_by_id():
    # the orders tuple need not be in id order: the rollout and the
    # validator both find a job's order by its id, not by its place
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=6, mu=2.0,
                                            n_init=1, seed=3))
    flipped = dataclasses.replace(inst, orders=tuple(reversed(inst.orders)))
    sched = run_dispatch(flipped, RuleSpec.builtin("EDD"))
    assert sched.arcs == run_dispatch(inst, RuleSpec.builtin("EDD")).arcs
    assert validate_schedule(flipped, sched) == []
    # a job of the last order to arrive, moved to time zero, is a breach
    late = max(inst.orders, key=lambda o: o.arrival)
    assert late.arrival > 0
    j = late.products[0].assembly_job_id
    moved = [a._replace(st=0.0, ct=a.ct - a.st) if a.job == j else a for a in sched.arcs]
    breaches = [v.message for v in validate_schedule(flipped, _sched(moved, sched.ft, sched.tt))
                if v.kind == ARRIVAL_BREACH]
    assert breaches == [f"job {j} starts at 0.0 before order arrival {late.arrival}"]


def test_delivery_and_tardiness_mismatches():
    inst = _two_stage_instance()
    sched = _sched([ArcRecord(0, 0, 0.0, 0.0, 5.0), ArcRecord(1, 1, 0.0, 5.0, 8.0)],
                   {0: 9.0}, {0: 5.0})
    kinds = {v.kind for v in validate_schedule(inst, sched)}
    assert DELIVERY_MISMATCH in kinds        # recorded ft 9 != latest assembly ct 8
    assert TARDINESS_MISMATCH in kinds       # tt 5 != max(0, 9 - 10)


def test_order_unknown_to_the_instance_is_a_delivery_mismatch():
    inst = generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=2, mu=4.0,
                                            n_init=2, seed=11))
    sched = run_dispatch(inst, RuleSpec.builtin("EDD"))
    assert validate_schedule(inst, sched) == []
    for ft, tt in (({99: 1000.0}, {99: 5000.0}), ({}, {99: 5000.0})):
        forged = Schedule(sched.arcs, {**sched.ft, **ft}, {**sched.tt, **tt},
                          sched.n_jobs, sched.n_orders + 1)
        assert [(v.kind, v.message) for v in validate_schedule(inst, forged)] == [
            (DELIVERY_MISMATCH, "order 99 is not in the instance")]


def test_unassigned_and_unqualified():
    inst = _two_stage_instance()
    missing = _sched([ArcRecord(0, 0, 0.0, 0.0, 5.0)], {0: 5.0}, {0: 0.0})
    assert any(v.kind == UNASSIGNED for v in validate_schedule(inst, missing))
    wrong = _sched([ArcRecord(0, 1, 0.0, 0.0, 5.0), ArcRecord(1, 1, 0.0, 5.0, 8.0)],
                   {0: 8.0}, {0: 0.0})
    assert any(v.kind == UNASSIGNED and "unqualified" in v.message
               for v in validate_schedule(inst, wrong))


@pytest.mark.parametrize("arc", [0, 1])
@pytest.mark.parametrize("field", ["setup", "st", "ct"])
def test_nan_arc_time_is_a_violation(arc, field):
    arcs = [ArcRecord(0, 0, 0.0, 0.0, 5.0), ArcRecord(1, 1, 0.0, 5.0, 8.0)]
    arcs[arc] = arcs[arc]._replace(**{field: math.nan})
    kinds = {v.kind for v in validate_schedule(_two_stage_instance(),
                                               _sched(arcs, {0: 8.0}, {0: 0.0}))}
    assert SETUP_MISMATCH in kinds           # ct != st + setup + pt fails on NaN


@pytest.mark.parametrize("field, kind", [("ft", DELIVERY_MISMATCH),
                                         ("tt", TARDINESS_MISMATCH)])
def test_nan_order_time_is_a_violation(field, kind):
    times = {"ft": {0: 8.0}, "tt": {0: 0.0}}
    times[field][0] = math.nan
    sched = _sched([ArcRecord(0, 0, 0.0, 0.0, 5.0), ArcRecord(1, 1, 0.0, 5.0, 8.0)],
                   times["ft"], times["tt"])
    assert kind in {v.kind for v in validate_schedule(_two_stage_instance(), sched)}


@pytest.mark.parametrize("job", [99, -1, 2])
def test_arc_of_unknown_job_is_unassigned(job):
    inst = _two_stage_instance()
    sched = _sched([ArcRecord(0, 0, 0.0, 0.0, 5.0), ArcRecord(job, 1, 0.0, 5.0, 5.0),
                    ArcRecord(1, 1, 0.0, 5.0, 8.0)], {0: 8.0}, {0: 0.0})
    # the stray arc is reported and left out of the machine-sequence checks,
    # so job 1 is still checked against job 0's changeover, not the stray's
    assert [str(v) for v in validate_schedule(inst, sched)] == [
        f"{UNASSIGNED}: job {job} is not in the instance"]


def test_zero_length_ties_are_checked_in_dispatch_order():
    # all times zero and a changeover of 1.0 from assembly job 1 to assembly
    # job 3: dispatched 3 then 1 on machine 1, both correctly charge 0.0
    setup = np.zeros((5, 4))
    setup[1 + 1, 3] = 1.0
    inst = make_instance("pa", [(0.0, 0.0, [([{0: 0.0}], {1: 0.0})]),
                                (0.0, 0.0, [([{0: 0.0}], {1: 0.0})])], setup=setup)
    sched = _rollout(SimState(inst), lambda k: len(k) - 1)
    assert [a.job for a in sched.arcs if a.machine == 1] == [3, 1]
    assert validate_schedule(inst, sched) == []


def test_validator_clean_on_random_rollouts():
    rules = [RuleSpec.builtin(r) for r in ("EDD", "FIFO+EET", "MWKR+SPT")]
    for seed in range(30):
        inst = generate_instance(ScenarioConfig(
            m1=1 + seed % 2, m2=2 + seed % 2, phi=0.6, alpha=3, mu=2.0,
            n_init=2, seed=1000 + seed))
        for rule in rules:
            assert validate_schedule(inst, run_dispatch(inst, rule)) == []


def test_forced_sequence_oracle_matches_any_rule():
    inst = minimal_instance(due=6.0)
    opt, osched = brute_force_optimum(inst)
    for rid in ("EDD", "FIFO+SPT"):
        assert opt == pytest.approx(
            total_tardiness(run_dispatch(inst, RuleSpec.builtin(rid))))
    assert validate_schedule(inst, osched) == []


def test_two_job_due_date_ordering_case():
    # PT {3, 4} on one machine, due {3, 7}: due-date order is on time,
    # the reverse is 4 late; the oracle must find zero
    inst = make_instance("pa", [
        (0, 3.0, [([{0: 3.0}], {1: 0.0})]),
        (0, 7.0, [([{0: 4.0}], {1: 0.0})]),
    ])
    opt, osched = brute_force_optimum(inst)
    assert opt == pytest.approx(0.0)
    assert validate_schedule(inst, osched) == []
    first_proc = [a for a in osched.arcs if a.machine == 0][0]
    assert first_proc.job == 0


def test_oracle_dominates_builtins_on_tiny_instances():
    for k in range(10):
        inst = tiny_oracle_instance(6000 + k)
        opt, osched = brute_force_optimum(inst)
        assert validate_schedule(inst, osched) == []
        for rid in BUILTIN_IDS:
            tt = total_tardiness(run_dispatch(inst, RuleSpec.builtin(rid)))
            assert opt <= tt + 1e-9


def test_oracle_respects_limits():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.8, alpha=5, mu=1.0,
                                            n_init=5, seed=1))
    with pytest.raises(OracleLimitError):
        brute_force_optimum(inst)


def test_oracle_tie_break_is_lexicographic():
    # two identical jobs on one machine: both orders are optimal, the log
    # must start with the smaller job id
    inst = make_instance("pa", [
        (0, 50.0, [([{0: 2.0}], {1: 1.0})]),
        (0, 50.0, [([{0: 2.0}], {1: 1.0})]),
    ])
    _, osched = brute_force_optimum(inst)
    assert osched.arcs[0].job == 0


def test_small_state_budget_raises():
    inst = tiny_oracle_instance(7000)
    with pytest.raises(OracleLimitError, match="exceeded 5 states"):
        brute_force_optimum(inst, max_states=5)


# -- branch and bound against the exhaustive search ----------------------------

def _exhaustive_optimum(inst):
    """Reference: the oracle's former search over every non-delay sequence,
    memoised on the state. Returns (value, arc log)."""
    memo = {}

    def dfs(state):
        if state.done_count == state.t.J:
            return math.fsum(state.order_tt), ()
        # the bytes an int8 status array and a float64 delivery array hold
        key = (state.clock, np.array(state.status, dtype=np.int8).tobytes(),
               state.m_idle.tobytes(), state.m_row.tobytes(),
               np.array(state.order_ft).tobytes())
        if key in memo:
            return memo[key]
        arcs = feasible_arcs(state)
        if not arcs:
            advance_clock(state)
            best = dfs(state)
        else:
            best = None
            for arc in arcs:
                sub, log = dfs(apply_arc(state.clone(), arc))
                cand = (sub, (arc,) + log)
                if best is None or cand < best:
                    best = cand
        memo[key] = best
        return best

    return dfs(SimState(inst))


# decimal times, so that sums which tie in exact arithmetic can differ in
# their last bit, and zero-length jobs
TIMES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.7, 1.3, 2.0]


@st.composite
def tiny_instances(draw):
    n_p, n_a = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    proc_ms, asm_ms = list(range(n_p)), list(range(n_p, n_p + n_a))

    def eligible(machines):
        ms = draw(st.lists(st.sampled_from(machines), min_size=1,
                           max_size=len(machines), unique=True))
        return {m: draw(st.sampled_from(TIMES)) for m in ms}

    budget = draw(st.integers(2, 7))            # jobs
    orders = []
    while budget >= 2 and (not orders or draw(st.booleans())):
        arrival = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
        due = arrival + draw(st.sampled_from([0.0, 0.3, 0.6, 1.0, 2.5]))
        products = []
        while budget >= 2 and (not products or draw(st.booleans())):
            parts = draw(st.integers(1, min(3, budget - 1)))
            products.append(([eligible(proc_ms) for _ in range(parts)], eligible(asm_ms)))
            budget -= parts + 1
        orders.append((arrival, due, products))
    setup = draw(st.sampled_from([None, 0.1, 0.2, 0.5]))
    return make_instance("p" * n_p + "a" * n_a, orders, setup=setup)


def _arcs(sched):
    return tuple((a.job, a.machine) for a in sched.arcs)


# the optimum is 3 in exact arithmetic; a running fold of differences of
# tardiness sums values one optimal path at 2.9999999999999996, but every
# schedule's exact total is 3.0
ROUNDING_TIE = make_instance("ppa", [
    (0.3, 0.4, [([{0: 0.7}], {2: 1.3})]),
    (0.0, 0.3, [([{1: 0.0}], {2: 0.0})]),
    (0.0, 0.0, [([{0: 0.0, 1: 0.1}, {0: 0.4, 1: 0.3}], {2: 0.0})]),
], setup=0.2)

# orders 2 and 3 are twins; the search first finds the sequences that start
# with order 2's part, totalling 3.6, then those that start with order 3's,
# totalling 3.5999999999999996. Along the latter the bound, summed order by
# order, rounds up to 3.6000000000000005, so a prune with no margin above
# the incumbent would cut the optimum
BOUND_ROUNDS_UP = make_instance("ppaa", [
    (1.0, 1.0, [([{1: 0.4}], {3: 2.0})]),
    (1.0, 1.3, [([{1: 0.0}], {3: 0.4})]),
    (0.3, 0.3, [([{0: 0.4}], {2: 0.1})]),
    (0.3, 0.6, [([{0: 0.4}], {2: 0.1})]),
])


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=tiny_instances())
@example(inst=ROUNDING_TIE)
@example(inst=BOUND_ROUNDS_UP)
def test_branch_and_bound_matches_exhaustive_search(inst):
    value, sched = brute_force_optimum(inst)
    assert value == total_tardiness(sched)
    assert (value, _arcs(sched)) == _exhaustive_optimum(inst)


def _states_along(inst, rule):
    """Every decision state of the rule's rollout, and the rollout's total
    tardiness."""
    sched = run_dispatch(inst, rule)
    state, states = SimState(inst), []
    for a in sched.arcs:
        while (a.job, a.machine) not in feasible_arcs(state):
            advance_clock(state)
        states.append(state.clone())
        apply_arc(state, (a.job, a.machine))
    return states, total_tardiness(sched)


@settings(max_examples=60, deadline=None)
@given(inst=tiny_instances(), rid=st.sampled_from(BUILTIN_IDS))
def test_tardiness_bound_is_a_lower_bound(inst, rid):
    bound = _tardiness_bound(inst)
    states, total = _states_along(inst, RuleSpec.builtin(rid))
    for state in states:
        assert bound(state) <= total + 1e-9
    assert bound(states[0]) <= brute_force_optimum(inst)[0] + 1e-9


def test_tardiness_bound_counts_late_delivered_products():
    # product 0 is delivered at 6, one unit after the order's due date; the
    # other product's parts are done by 5, but its assembly cannot start
    # before the clock
    inst = make_instance("pa", [(0.0, 5.0, [([{0: 4.0}], {1: 2.0}),
                                            ([{0: 1.0}], {1: 0.0})])])
    state = SimState(inst)
    apply_arc(state, (0, 0))
    advance_clock(state)                      # t = 4: job 0 done
    apply_arc(state, (1, 1))                  # assembly 0 ends at 6
    apply_arc(state, (2, 0))
    advance_clock(state)                      # t = 5: job 2 done
    advance_clock(state)                      # t = 6: assembly 0 done
    assert state.order_ft[0] == 0.0           # not delivered: assembly 1 is left
    assert _tardiness_bound(inst)(state) == 1.0


def test_tardiness_bound_reads_a_running_part_from_the_arc_log():
    # at t = 0 the part runs until 4, so the assembly ends at 6 at the
    # earliest, 6 after the due date
    inst = make_instance("pa", [(0.0, 0.0, [([{0: 4.0}], {1: 2.0})])])
    state = apply_arc(SimState(inst), (0, 0))
    assert _tardiness_bound(inst)(state) == 6.0


def test_tardiness_bound_is_exact_once_everything_runs():
    inst = tiny_oracle_instance(7000)
    states, total = _states_along(inst, RuleSpec.builtin("EDD"))
    state = states[-1]
    apply_arc(state, _arcs(run_dispatch(inst, RuleSpec.builtin("EDD")))[-1])
    assert _tardiness_bound(inst)(state) == pytest.approx(total, abs=1e-12)


def test_search_stays_small():
    # the nodes the search expands: a smaller memo, no stop at the first
    # zero-tardiness leaf (6002's optimum is 0) or a bound that ignores
    # arrivals (the late order's tardiness is at least 1 from the start)
    # needs more
    late_order = make_instance("ppa", [
        (0.0, 2.0, [([{0: 1.5}, {1: 1.0}], {2: 2.0}), ([{0: 1.0, 1: 0.5}], {2: 1.0})]),
        (4.0, 4.0, [([{1: 1.0}], {2: 1.0})]),
    ])
    for inst, nodes in ((tiny_oracle_instance(7037), 2097), (tiny_dynamic_instance(2), 381),
                        (tiny_oracle_instance(6002), 16), (late_order, 37)):
        brute_force_optimum(inst, max_states=nodes)
