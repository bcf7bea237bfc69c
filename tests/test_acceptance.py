"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The last criterion needs live endpoint credentials and is skipped
without them.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from fafsp.bench import compute_ari, run_benchmark
from fafsp.evolve import EvolutionConfig, run_evolution
from fafsp.generator import ScenarioConfig, generate_instance, sample_product_count
from fafsp.llm import (LiveTransport, RecordingTransport, ReplayTransport,
                       ScriptedTransport)
from fafsp.expr import parse
from fafsp.rules import BUILTIN_IDS, RuleSpec, builtin_source, validate_rule
from fafsp.sim import FeatureView, SimState, feasible_arcs, run_dispatch, total_tardiness
from fafsp.validator import brute_force_optimum, validate_schedule

from helpers import tiny_oracle_instance

ALL_BUILTINS = [RuleSpec.builtin(r) for r in BUILTIN_IDS]


def test_1_feasibility_suite():
    """1,000 generated instances x 9 builtin rules: every rollout validates."""
    t0 = time.time()
    combos = list(itertools.product(
        [(1, 2), (2, 3), (2, 4), (3, 6)],     # (m1, m2)
        [0.5, 0.8, 1.0],                      # phi
        [2, 4, 6],                            # alpha
        [1.0, 2.0, 4.0],                      # mu
        [2, 3]))                              # n_init
    rollouts = 0
    for i in range(1000):
        (m1, m2), phi, alpha, mu, n_init = combos[i % len(combos)]
        inst = generate_instance(ScenarioConfig(m1=m1, m2=m2, phi=phi, alpha=alpha,
                                                mu=mu, n_init=n_init, seed=100_000 + i))
        for rule in ALL_BUILTINS:
            sched = run_dispatch(inst, rule)
            violations = validate_schedule(inst, sched)
            assert violations == [], (i, rule.name, violations[:3])
            rollouts += 1
    elapsed = time.time() - t0
    assert rollouts == 9000
    assert elapsed < 300, f"feasibility suite took {elapsed:.0f}s (limit 300s)"
    print(f"\nACCEPTANCE 1 PASS: 9000/9000 rollouts feasible in {elapsed:.0f}s")


def test_2_oracle_dominance():
    """50 tiny instances: exhaustive optimum <= every builtin, oracle valid."""
    t0 = time.time()
    for k in range(50):
        inst = tiny_oracle_instance(7000 + 37 * k)
        assert inst.num_jobs <= 8 and inst.num_machines <= 3
        assert all(o.arrival == 0.0 for o in inst.orders)
        optimum, osched = brute_force_optimum(inst)
        assert validate_schedule(inst, osched) == []
        for rule in ALL_BUILTINS:
            tt = total_tardiness(run_dispatch(inst, rule))
            assert optimum <= tt + 1e-9, (k, rule.name, optimum, tt)
    elapsed = time.time() - t0
    assert elapsed < 120, f"oracle suite took {elapsed:.0f}s (limit 120s)"
    print(f"\nACCEPTANCE 2 PASS: oracle dominates 9 rules on 50 instances in {elapsed:.0f}s")


def _mock_responses():
    """Deterministic response script: mostly valid, with invalid candidates
    and one malformed critique sprinkled in to exercise the retry paths."""
    pool = ["due - now + 2*pt", "due + pt*3", "due*0.5 + work_rem",
            "slack + pt + setup", "due - 0.1*queue + pt", "due*2.0 + setup",
            "min(due, arrival + work_rem) + pt", "if(slack < 0, due, slack) + pt",
            "due + setup + 0.5*et", "wait*0.2 + due + pt"]
    crit = ("Advantages: reacts to urgency quickly.\n"
            "Limitations: ignores congestion buildup.\n"
            "Suggestions: weigh machine queues and setups.\n")
    bad_crit = "Advantages: a.\nLimitations: b.\n"
    counters = {"gen": 0, "eval": 0}

    def respond(prompt, temperature, operator):
        if operator == "Eval":
            counters["eval"] += 1
            return bad_crit if counters["eval"] == 3 else crit
        counters["gen"] += 1
        n = counters["gen"]
        if n in (7, 13):                       # unparsable candidates
            return "I cannot help with that."
        if n == 16:                            # parses but overflows
            return "Description: diverges.\n```\nexp(exp(exp(et*et + 9)))\n```"
        src = pool[n % len(pool)]
        return f"Description: variant {n}.\n```\n{src}\n```"

    return respond


def _training_instances():
    return [generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=2,
                                             mu=4.0, n_init=2, seed=s))
            for s in (11, 12)]


def _record_mock_cassette(path):
    cfg = EvolutionConfig(generations=5, population=4, seed=17)
    transport = RecordingTransport(ScriptedTransport(_mock_responses()), path)
    return run_evolution(cfg, transport, _training_instances())


def test_3_determinism(tmp_path):
    """Same (seed, cassette, config): bit-identical journals, schedules, reports."""
    cassette = tmp_path / "cassette.jsonl"
    _record_mock_cassette(cassette)
    cfg = EvolutionConfig(generations=5, population=4, seed=17)
    insts = _training_instances()
    r1 = run_evolution(cfg, ReplayTransport(cassette), insts)
    r2 = run_evolution(cfg, ReplayTransport(cassette), insts)
    assert json.dumps(r1.journal, sort_keys=True) == json.dumps(r2.journal, sort_keys=True)
    assert r1.best.source == r2.best.source
    assert r1.history == r2.history and r1.per_instance == r2.per_instance

    inst = insts[0]
    from fafsp.sim import schedule_to_text
    assert schedule_to_text(run_dispatch(inst, ALL_BUILTINS[0])) == \
        schedule_to_text(run_dispatch(inst, ALL_BUILTINS[0]))

    scenarios = [ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=2, mu=2.0, n_init=2, seed=70)]
    rules = ALL_BUILTINS[:3]
    assert run_benchmark(scenarios, rules, 3).to_text() == \
        run_benchmark(scenarios, rules, 3).to_text()
    print("\nACCEPTANCE 3 PASS: journals, schedules and reports bit-identical")


def test_4_generator_statistics():
    """Product-count law, due-date windows, arrival structure."""
    rng = np.random.default_rng(99)
    draws = np.array([sample_product_count(rng) for _ in range(10_000)])
    edges = list(range(1, 8))                      # bins 1..7 plus >= 8 tail
    observed = [int((draws == n).sum()) for n in edges] + [int((draws >= 8).sum())]
    expected = [10_000 * 0.5 ** n for n in edges] + [10_000 * 0.5 ** 7]
    chi = stats.chisquare(observed, expected)
    assert chi.pvalue > 0.01, f"chi-square p = {chi.pvalue}"

    from fafsp.generator import order_lower_bound
    for seed in range(30):
        cfg = ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=4, mu=2.0, n_init=3,
                             T=0.2, R=0.4, seed=seed)
        inst = generate_instance(cfg)
        arrivals = [o.arrival for o in inst.orders]
        assert arrivals == sorted(arrivals)
        assert sum(1 for a in arrivals if a == 0.0) == cfg.n_init
        for o in inst.orders:
            jobs = [inst.job(j) for j in o.job_ids()]
            L = order_lower_bound(jobs, inst.machines)
            offset = o.due - o.arrival
            lo, hi = L * (1 - cfg.T - cfg.R / 2), L * (1 - cfg.T + cfg.R / 2)
            assert lo - 1e-9 <= offset <= hi + 1e-9
    print(f"\nACCEPTANCE 4 PASS: chi-square p={chi.pvalue:.3f}, windows and arrivals clean")


def test_5_dsl_equivalence():
    """builtin_source encodings replay the builtin's arc log exactly."""
    encoded = {rid: RuleSpec.expression(builtin_source(rid)) for rid in BUILTIN_IDS}
    for i in range(100):
        inst = generate_instance(ScenarioConfig(
            m1=1 + i % 2, m2=2 + i % 2, phi=0.5 + 0.3 * (i % 2), alpha=3,
            mu=1.0 + (i % 3), n_init=2, seed=200_000 + i))
        for rid in BUILTIN_IDS:
            a = run_dispatch(inst, RuleSpec.builtin(rid)).arcs
            b = run_dispatch(inst, encoded[rid]).arcs
            assert a == b, (i, rid)
    print("\nACCEPTANCE 5 PASS: 9 encodings x 100 instances, arc logs identical")


def test_6_ari_reproduction():
    """Published grid averages reproduce the published ARI cells to 0.02 pp."""
    averages = {
        "EDD": (7259.65, 16.99), "FIFO+SPT": (6192.79, 29.19),
        "FIFO+EET": (6722.40, 23.13), "MOPNR+SPT": (7222.52, 17.41),
        "MOPNR+EET": (7511.79, 14.11), "LWKR+SPT": (5968.40, 31.75),
        "LWKR+EET": (6553.49, 25.06), "MWKR+SPT": (8177.12, 6.50),
        "MWKR+EET": (8745.54, 0.00), "evolved": (4997.32, 42.86),
    }
    worst = max(v for v, _ in averages.values())
    for name, (value, expected_pct) in averages.items():
        got = 100 * compute_ari(value, worst)
        assert abs(got - expected_pct) <= 0.02, (name, got, expected_pct)
    print("\nACCEPTANCE 6 PASS: all 10 ARI cells within 0.02 percentage points")


def test_7_mock_evolution(tmp_path):
    """K=5, P=4 replayed cassette: monotone incumbent, only valid individuals,
    exact temperature ladder."""
    t0 = time.time()
    cassette = tmp_path / "cassette.jsonl"
    recorded = _record_mock_cassette(cassette)
    cfg = EvolutionConfig(generations=5, population=4, seed=17)
    result = run_evolution(cfg, ReplayTransport(cassette), _training_instances())
    assert result.best.source == recorded.best.source

    fits = [f for _, f in result.history]
    assert all(b <= a + 1e-12 for a, b in zip(fits, fits[1:])), "incumbent regressed"

    for ind in result.population + [result.best]:
        assert math.isfinite(ind.fitness)
        assert validate_rule(ind.spec)

    expected = [f"{cfg.u_low + p * (cfg.u_up - cfg.u_low) / cfg.population:.6f}"
                for p in range(1, cfg.population + 1)]
    init_temps = [e["temperature"] for e in result.journal if e["operator"] == "Init"]
    assert init_temps == expected, (init_temps, expected)    # one Init call per slot

    elapsed = time.time() - t0
    assert elapsed < 120, f"mock evolution took {elapsed:.0f}s (limit 120s)"
    print(f"\nACCEPTANCE 7 PASS: {result.samples} samples, best {result.best.fitness:.3f}, "
          f"temperatures {expected}")


def test_8_load_monotonicity():
    """Mean EDD tardiness strictly increases with the load factor."""
    edd = RuleSpec.builtin("EDD")
    means = []
    for mu in (1.0, 2.0, 4.0):
        vals = [total_tardiness(run_dispatch(
            generate_instance(ScenarioConfig(m1=3, m2=6, phi=0.5, alpha=20,
                                             mu=mu, seed=1000 + s)), edd))
            for s in range(20)]
        means.append(math.fsum(vals) / len(vals))
    assert means[0] < means[1] < means[2], means
    print(f"\nACCEPTANCE 8 PASS: EDD tardiness {means[0]:.1f} < {means[1]:.1f} < {means[2]:.1f}")


def test_9_latency():
    """Ranking a 2,000-arc epoch stays under 10 ms for every rule kind."""
    from fafsp.rules import rank_arcs

    inst = generate_instance(ScenarioConfig(m1=2, m2=20, phi=1.0, alpha=0, mu=1.0,
                                            n_init=16, seed=424))
    state = SimState(inst)
    fv = FeatureView(state)
    arcs = feasible_arcs(state)
    assert len(arcs) >= 2000

    big_src = " + ".join([
        "0.11*due", "0.13*arrival", "0.17*slack", "0.19*wait", "0.23*et",
        "0.29*n_mach", "0.31*ops_rem", "0.37*work_rem", "0.41*pt", "0.43*setup",
        "0.47*avail", "0.53*queue", "0.59*util", "max(pt, setup)",
        "min(due, work_rem)", "if(slack < 0, due + pt, slack - setup)",
        "sqrt(abs(slack))", "log(1 + wait)", "exp(0 - pt)",
        "0.61*due", "0.67*pt", "0.71*slack", "0.73*queue", "0.79*work_rem",
        "0.83*setup", "0.89*et", "0.97*wait"])
    assert parse(big_src).n_nodes >= 100
    rules = ALL_BUILTINS + [RuleSpec.expression(big_src, name="wide")]
    worst_ms = 0.0
    for rule in rules:
        rank_arcs(rule, fv, arcs)                    # warm-up
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            rank_arcs(rule, fv, arcs)
            best = min(best, time.perf_counter() - t0)
        worst_ms = max(worst_ms, best * 1000)
        assert best < 0.010, f"{rule.name}: {best * 1000:.2f} ms"
    print(f"\nACCEPTANCE 9 PASS: worst rule ranked {len(arcs)} arcs in {worst_ms:.2f} ms")


HAVE_CREDS = all(os.environ.get(v) for v in
                 ("FAFSP_LLM_BASE_URL", "FAFSP_LLM_API_KEY", "FAFSP_LLM_MODEL"))


@pytest.mark.skipif(not HAVE_CREDS, reason="live endpoint credentials not configured")
def test_10_live_smoke():
    """One generation against the real endpoint (network-gated)."""
    cfg = EvolutionConfig(generations=1, population=2, seed=1)
    result = run_evolution(cfg, LiveTransport.from_env(), _training_instances())
    assert result.elite.critique is not None
    produced = [i for i in result.population if i.operator not in ("EliteCopy", "Copy")]
    assert produced, "no valid candidate came back from the live endpoint"
    print(f"\nACCEPTANCE 10 PASS: live run produced {len(produced)} valid candidate(s)")
