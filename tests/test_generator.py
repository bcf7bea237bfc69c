"""Scenario generator: sampling laws, arrival model, structural validity."""

import re
import tracemalloc

import numpy as np
import pytest

from fafsp.generator import (MAX_ORDERS, MAX_STAGE_MACHINES, ScenarioConfig,
                             generate_instance, order_lower_bound, sample_due_date,
                             sample_product_count, schedule_arrivals)
from fafsp.model import MAX_JOBS, Stage, check_instance, instance_to_doc

from helpers import make_instance

import json


def test_product_count_distribution():
    rng = np.random.default_rng(1)
    draws = np.array([sample_product_count(rng) for _ in range(100_000)])
    assert abs((draws == 1).mean() - 0.5) < 0.01
    assert abs((draws == 2).mean() - 0.25) < 0.01
    assert abs(draws.mean() - 2.0) < 0.05       # sum n / 2^n = 2
    assert draws.min() >= 1


def test_order_lower_bound_hand_case():
    # one processing machine with serial load 10; assembly loads {6, 8}
    inst = make_instance("paa", [(0, 100, [([{0: 4.0}, {0: 6.0}], {1: 6.0, 2: 8.0})])])
    jobs = [inst.job(j) for j in inst.orders[0].job_ids()]
    assert order_lower_bound(jobs, inst.machines) == pytest.approx(16.0)


def test_order_lower_bound_zero_assembly():
    inst = make_instance("ppa", [(0, 100, [([{0: 7.0}, {1: 3.0}], {2: 0.0})])])
    jobs = [inst.job(j) for j in inst.orders[0].job_ids()]
    assert order_lower_bound(jobs, inst.machines) == pytest.approx(7.0)


def test_order_lower_bound_requires_both_stages():
    inst = make_instance("pa", [(0, 100, [([{0: 7.0}], {1: 1.0})])])
    only_proc = [inst.jobs[0]]
    with pytest.raises(ValueError):
        order_lower_bound(only_proc, inst.machines)


def test_due_date_zero_width_interval():
    rng = np.random.default_rng(2)
    assert sample_due_date(16.0, 0.0, 0.0, 50.0, rng) == pytest.approx(66.0)


def test_due_date_interval_bounds():
    rng = np.random.default_rng(3)
    lo, hi = 100 * (1 - 0.2 - 0.2), 100 * (1 - 0.2 + 0.2)
    for _ in range(10_000):
        offset = sample_due_date(100.0, 0.2, 0.4, 0.0, rng)
        assert lo <= offset <= hi


def test_arrivals_deterministic_and_shaped():
    loads = [10.0, 12.0, 8.0, 11.0, 9.0, 10.0]
    a1 = schedule_arrivals(loads, 3, 1.0, np.random.default_rng(7))
    a2 = schedule_arrivals(loads, 3, 1.0, np.random.default_rng(7))
    assert a1 == a2
    assert a1[:3] == [0.0, 0.0, 0.0]
    assert all(b >= a for a, b in zip(a1, a1[1:]))
    assert sum(1 for t in a1 if t == 0.0) == 3


def test_doubling_mu_halves_mean_gap():
    loads = [10.0] * 6
    gaps = {}
    for mu in (1.0, 2.0):
        total = 0.0
        for rep in range(1000):
            rng = np.random.default_rng(10_000 + rep)
            at = schedule_arrivals(loads, 2, mu, rng)
            total += at[-1] - at[1]
        gaps[mu] = total / 1000
    assert abs(gaps[2.0] / gaps[1.0] - 0.5) < 0.05


def test_generated_instance_counts_and_validity():
    cfg = ScenarioConfig(m1=3, m2=6, phi=0.5, alpha=20, mu=1.0, seed=7)
    inst = generate_instance(cfg)
    assert len(inst.orders) == 25                       # n_init defaults to 5
    assert sorted(m.id for m in inst.machines) == list(range(9))
    assert check_instance(inst) == []


def test_full_flexibility_saturates_eligibility():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=1.0, alpha=2, mu=1.0,
                                            n_init=2, seed=5))
    per_stage = {s: {m.id for m in inst.machines_of(s)} for s in Stage}
    for job in inst.jobs:
        assert set(job.eligible) == per_stage[job.kind]


def test_seed_repeat_is_byte_identical():
    cfg = ScenarioConfig(m1=2, m2=2, phi=0.6, alpha=3, mu=2.0, n_init=2, seed=11)
    a = json.dumps(instance_to_doc(generate_instance(cfg)), sort_keys=True)
    b = json.dumps(instance_to_doc(generate_instance(cfg)), sort_keys=True)
    assert a == b


def test_all_seeds_valid_and_arrival_structure():
    for seed in range(50):
        cfg = ScenarioConfig(m1=1 + seed % 3, m2=2 + seed % 4, phi=0.5, alpha=3,
                             mu=1.0 + (seed % 3), n_init=2, seed=seed)
        inst = generate_instance(cfg)
        assert check_instance(inst) == []
        arrivals = [o.arrival for o in inst.orders]
        assert arrivals == sorted(arrivals)
        assert sum(1 for a in arrivals if a == 0.0) == cfg.n_init


def test_due_offsets_within_window():
    for seed in range(20):
        cfg = ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=4, mu=2.0, n_init=2,
                             T=0.2, R=0.4, seed=seed)
        inst = generate_instance(cfg)
        for o in inst.orders:
            jobs = [inst.job(j) for j in o.job_ids()]
            L = order_lower_bound(jobs, inst.machines)
            offset = o.due - o.arrival
            assert L * (1 - 0.2 - 0.2) - 1e-9 <= offset <= L * (1 - 0.2 + 0.2) + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(m1=0, m2=1, phi=0.5, alpha=1, mu=1.0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(m1=1, m2=1, phi=0.0, alpha=1, mu=1.0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(m1=1, m2=1, phi=0.5, alpha=1, mu=0.0).validate()
    with pytest.warns(UserWarning):
        ScenarioConfig(m1=1, m2=1, phi=0.5, alpha=1, mu=1.0, T=0.9, R=0.9).validate()
    for t, r in ((-0.1, 0.4), (1.5, 0.4), (0.2, -0.1), (0.2, 1.1)):
        with pytest.raises(ValueError, match=r"^T and R must lie in \[0, 1\]$"):
            ScenarioConfig(m1=1, m2=1, phi=0.5, alpha=1, mu=1.0, T=t, R=r).validate()


@pytest.mark.parametrize("fields, message", [
    ({"m1": 10**9}, "m1 and m2 must lie in 1..100, not 1000000000 and 2"),
    ({"m2": MAX_STAGE_MACHINES + 1}, "m1 and m2 must lie in 1..100, not 1 and 101"),
    ({"alpha": 10**12}, f"alpha + n_init must lie in 1..{MAX_ORDERS}, not 1000000000005"),
    ({"alpha": MAX_ORDERS - 4},
     f"alpha + n_init must lie in 1..{MAX_ORDERS}, not {MAX_ORDERS + 1}"),
    # the order skeleton of seed 19 at the order cap holds 5,155 jobs
    ({"alpha": MAX_ORDERS - 5, "seed": 19}, f"seed 19: 5155 jobs exceed the cap of {MAX_JOBS}"),
], ids=["m1-huge", "m2-over", "orders-huge", "orders-over", "jobs-over"])
def test_scenario_caps_refuse_before_allocation(fields, message):
    cfg = ScenarioConfig(**{"m1": 1, "m2": 2, "phi": 0.7, "alpha": 1, "mu": 1.0, **fields})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_instance(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the machines, the job records or the 8(J+1)J-byte setup matrix would take more
    assert peak < 8 * MAX_JOBS ** 2 / 100


def test_scenario_caps_admit_values_at_the_cap():
    ScenarioConfig(m1=MAX_STAGE_MACHINES, m2=MAX_STAGE_MACHINES, phi=0.5,
                   alpha=MAX_ORDERS - 5, mu=1.0).validate()


def test_n_init_zero_first_arrival_positive():
    inst = generate_instance(ScenarioConfig(m1=1, m2=1, phi=1.0, alpha=3, mu=1.0,
                                            n_init=0, seed=2))
    assert all(o.arrival > 0 for o in inst.orders)
