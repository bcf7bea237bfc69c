"""Evolution loop: initialization sweep, strategies, incumbent, determinism."""

import json
import math

import numpy as np
import pytest

from fafsp.evolve import (DEFAULT_STRATEGIES, EvolutionConfig, RuleIndividual,
                          Strategy, _critique_of, _Run, config_from_doc,
                          evaluate_fitness, run_evolution, summarize_features,
                          tournament_select)
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.llm import (Critique, RecordingTransport, ReplayMiss, ReplayTransport,
                       ScriptedTransport)
from fafsp.rules import RuleSpec, builtin_source

from helpers import make_instance, minimal_instance

CRIT = "Advantages: reacts to urgency.\nLimitations: myopic.\nSuggestions: weigh congestion.\n"
BAD_CRIT = "Advantages: a.\nLimitations: b.\n"                  # no suggestions


def gen_response(src, desc="test rule"):
    return f"Description: {desc}\n```\n{src}\n```"


class Capture:
    """Scripted transport that also records every call."""

    def __init__(self, responses):
        self.queue = list(responses)
        self.calls = []            # (operator, temperature)

    def send(self, prompt, temperature, operator=""):
        self.calls.append((operator, temperature))
        if not self.queue:
            raise AssertionError("test transport exhausted")
        return self.queue.pop(0)


def training_instances():
    return [generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=2,
                                             mu=4.0, n_init=2, seed=s))
            for s in (11, 12)]


def forced_instance(proc_pt, asm_pt, due):
    return minimal_instance(due=due, proc_pt=proc_pt, asm_pt=asm_pt)


# -- fitness -------------------------------------------------------------------


def test_fitness_trivially_early_is_zero():
    inst = forced_instance(5.0, 3.0, due=100.0)
    assert evaluate_fitness(RuleSpec.builtin("EDD"), [inst]) == 0.0


def test_fitness_is_mean_over_instances():
    # forced sequences finish at 20 and 25; dues 10 and 5 give 10 and 20 late
    a = forced_instance(15.0, 5.0, due=10.0)
    b = forced_instance(20.0, 5.0, due=5.0)
    assert evaluate_fitness(RuleSpec.builtin("EDD"), [a, b]) == pytest.approx(15.0)


def test_fitness_order_invariant():
    insts = training_instances()
    rule = RuleSpec.expression("due + pt")
    assert evaluate_fitness(rule, insts) == evaluate_fitness(rule, insts[::-1])


# -- feature digest --------------------------------------------------------------


def test_summarize_features_permutation_invariant():
    insts = training_instances()
    assert summarize_features(insts) == summarize_features(insts[::-1])


def test_summarize_features_hand_values():
    inst = make_instance("pa", [
        (0.0, 8.0, [([{0: 4.0}], {1: 2.0})]),
        (6.0, 18.0, [([{0: 6.0}], {1: 3.0})]),
    ])
    text = summarize_features([inst], mu=2.0)
    assert "machines: 1.000 assembly, 1.000 processing" in text
    assert "flexibility (share of same-stage machines a job can use): 1.000" in text
    # processing times {4, 2, 6, 3}: mean 3.75
    assert "mean 3.750" in text
    assert "mean inter-arrival gap: 6.000" in text
    # tightness: order0 (8-0)/max(4+2, 2)=8/6; order1 (18-6)/max(6+3, 3)=12/9
    expected = ((8 / 6) + (12 / 9)) / 2
    assert f"due-date tightness (due - arrival over order lower bound): {expected:.3f}" in text
    assert "load factor: 2.000" in text


def test_summarize_features_unknown_mu():
    assert "load factor: unknown" in summarize_features(training_instances())


# -- tournament -------------------------------------------------------------------


def _pop(fitnesses):
    return [RuleIndividual("d", "due", RuleSpec.expression("due"), f, uid=i)
            for i, f in enumerate(fitnesses)]


def test_tournament_saturation():
    pop = _pop([5.0, 3.0, 9.0])
    rng = np.random.default_rng(0)
    for _ in range(10):
        (winner,) = tournament_select(pop, 1, 50, rng)
        assert winner.fitness == 3.0


def test_tournament_seeded_trace():
    # rng(14) draws indices [0, 2] first: fitness 5 beats 9
    pop = _pop([5.0, 3.0, 9.0])
    (winner,) = tournament_select(pop, 1, 2, np.random.default_rng(14))
    assert winner.fitness == 5.0


def test_tournament_k1_is_uniform_draw():
    pop = _pop([5.0, 3.0, 9.0])
    rng = np.random.default_rng(7)
    expect = np.random.default_rng(7).integers(0, 3, size=1)[0]
    (winner,) = tournament_select(pop, 1, 1, rng)
    assert winner.uid == expect


def test_tournament_returns_j_parents_with_replacement():
    pop = _pop([1.0, 2.0])
    parents = tournament_select(pop, 3, 2, np.random.default_rng(1))
    assert len(parents) == 3


# -- evaluator critique ------------------------------------------------------------


def _critique_run(responses):
    t = Capture(responses)
    return _Run(EvolutionConfig(), t, [minimal_instance()]), t


def test_critique_of_parses_the_evaluator_reply():
    pop = _pop([5.0, 3.0])
    run, t = _critique_run([CRIT])
    c = _critique_of(run, pop[0], pop, generation=1)
    assert isinstance(c, Critique)
    assert t.calls == [("Eval", run.u0)]
    assert [e["operator"] for e in run.journal] == ["Eval"]


def test_critique_of_single_member_population():
    pop = _pop([5.0])
    run, _ = _critique_run([CRIT])
    assert _critique_of(run, pop[0], pop, generation=1) is not None


def test_critique_of_malformed_reply_keeps_fitness():
    pop = _pop([5.0, 3.0])
    run, _ = _critique_run([BAD_CRIT])
    assert _critique_of(run, pop[0], pop, generation=1) is None
    assert pop[0].fitness == 5.0
    assert pop[0].critique is None


# -- initialization ---------------------------------------------------------------


def test_init_population_temperature_sweep_and_u0():
    insts = [forced_instance(5.0, 3.0, due=100.0)]       # every rule scores 0
    cfg = EvolutionConfig(generations=0, population=4, seed=1)
    t = Capture([CRIT] + [gen_response(s) for s in
                          ("due + pt", "due + 2*pt", "due + 3*pt", "due + 4*pt")])
    result = run_evolution(cfg, t, insts)           # generations=0: init only
    pop, u0 = result.population, result.u0
    assert len(pop) == 4
    expected = [cfg.u_low + p * (cfg.u_up - cfg.u_low) / cfg.population
                for p in range(1, 5)]
    gen_calls = [temp for op, temp in t.calls if op == "Init"]
    assert gen_calls == expected
    assert [ind.temperature for ind in pop] == expected
    # all fitness tie at 0: the scan updates on <=, so the last slot wins
    assert u0 == expected[-1]


def test_init_population_all_invalid_falls_back_to_elite():
    insts = [forced_instance(5.0, 3.0, due=100.0)]
    cfg = EvolutionConfig(generations=0, population=3, retry_budget=2, seed=1)
    t = Capture([CRIT] + ["no code here"] * 6)
    result = run_evolution(cfg, t, insts)           # generations=0: init only
    pop, u0 = result.population, result.u0
    assert len(pop) == 3
    assert all(ind.operator == "EliteCopy" for ind in pop)
    assert all(ind.source == builtin_source("EDD") for ind in pop)
    assert u0 == cfg.u_low
    # 1 evaluator call + 2 attempts for each of 3 slots
    assert len(t.calls) == 1 + 6


def test_init_population_u0_tracks_best_candidate():
    insts = training_instances()
    cfg = EvolutionConfig(generations=0, population=4, seed=1)
    # slot 2 produces the strongest rule (1.616 < EDD 2.024)
    t = Capture([CRIT] + [gen_response(s) for s in
                          ("0 - due", "due - now + 2*pt", "slack + pt + setup",
                           "due*2.0 + setup")])
    result = run_evolution(cfg, t, insts)           # generations=0: init only
    pop, u0 = result.population, result.u0
    fits = [ind.fitness for ind in pop]
    assert min(fits) == pytest.approx(1.616211778921738)
    assert u0 == pop[1].temperature


# -- generations ------------------------------------------------------------------


def test_generation_round_robin_and_critique_calls():
    insts = training_instances()
    cfg = EvolutionConfig(generations=1, population=4, seed=3)
    responses = [CRIT]                                        # elite critique
    responses += [gen_response("due + pt")] * 4               # init slots
    responses += [CRIT, gen_response("due + 2*pt"),           # C1 (critique+gen)
                  gen_response("due*0.5 + work_rem"),         # C2
                  CRIT, gen_response("due - 0.1*queue + pt"),  # M1
                  gen_response("due*2.0 + setup")]            # M2
    t = Capture(responses)
    result = run_evolution(cfg, t, insts)
    ops = [op for op, _ in t.calls]
    assert ops[:5] == ["Eval", "Init", "Init", "Init", "Init"]
    assert ops[5:] == ["Eval", "C1", "C2", "Eval", "M1", "M2"]
    assert [ind.operator for ind in result.population] == ["C1", "C2", "M1", "M2"]
    # every generation call runs at the evolution temperature
    gen_temps = {temp for op, temp in t.calls[5:] if op in ("C1", "C2", "M1", "M2")}
    assert gen_temps == {result.u0}


def test_invalid_candidates_retried_then_copied():
    insts = training_instances()
    strategies = (Strategy("C2", 2, False),)
    cfg = EvolutionConfig(generations=1, population=2, retry_budget=3,
                          strategies=strategies, seed=5)
    responses = [CRIT] + [gen_response("due + pt")] * 2       # init
    responses += ["garbage", "also garbage", gen_response("due + 2*pt")]  # slot 1
    responses += ["bad"] * 3                                  # slot 2 exhausts
    t = Capture(responses)
    result = run_evolution(cfg, t, insts)
    assert result.population[0].operator == "C2"
    assert result.population[1].operator == "Copy"
    assert result.population[1].fitness == pytest.approx(
        evaluate_fitness(RuleSpec.expression("due + pt"), insts))


def test_deeply_nested_reply_does_not_abort_run():
    # such a reply used to escape the parser as RecursionError and end the run
    insts = training_instances()
    deep = "(" * 300 + "due" + ")" * 300
    strategies = (Strategy("C2", 2, False),)
    cfg = EvolutionConfig(generations=1, population=2, retry_budget=3,
                          strategies=strategies, seed=5)
    responses = [CRIT] + [gen_response("due + pt")] * 2       # init
    responses += [gen_response(deep), gen_response("due + 2*pt")]  # slot 1
    responses += [gen_response(deep)] * 3                     # slot 2 exhausts
    result = run_evolution(cfg, ScriptedTransport(responses), insts)
    assert [i.operator for i in result.population] == ["C2", "Copy"]
    assert result.population[0].source == "due + 2*pt"


def test_malformed_critique_gets_one_fresh_evaluator_call():
    insts = training_instances()
    strategies = (Strategy("M1", 1, True),)
    cfg = EvolutionConfig(generations=1, population=2, strategies=strategies, seed=5)
    responses = [CRIT] + [gen_response("due + pt")] * 2          # init
    responses += [BAD_CRIT, CRIT, gen_response("due + 2*pt")]    # slot 1: retry works
    responses += [BAD_CRIT, BAD_CRIT, gen_response("due*2.0 + setup")]  # slot 2: gives up
    t = Capture(responses)
    result = run_evolution(cfg, t, insts)
    evals = [op for op, _ in t.calls if op == "Eval"]
    assert len(evals) == 1 + 2 + 2          # elite + two per M1 slot
    assert [i.operator for i in result.population] == ["M1", "M1"]


def test_incumbent_only_improves_strictly():
    insts = training_instances()
    cfg = EvolutionConfig(generations=1, population=4, seed=3)
    responses = [CRIT]
    responses += [gen_response("due - now + 2*pt")] * 4       # strong init (1.616)
    responses += [CRIT, gen_response("0 - due"),              # all offspring worse
                  gen_response("slack + pt + setup"),
                  CRIT, gen_response("0 - due"),
                  gen_response("slack + pt + setup")]
    t = Capture(responses)
    result = run_evolution(cfg, t, insts)
    assert result.best.fitness == pytest.approx(1.616211778921738)
    assert result.best.operator == "Init"
    # population was still replaced wholesale
    assert {ind.operator for ind in result.population} == {"C1", "C2", "M1", "M2"}
    fits = [f for _, f in result.history]
    assert all(b <= a + 1e-12 for a, b in zip(fits, fits[1:]))


def test_k0_returns_best_of_initialization():
    insts = training_instances()
    cfg = EvolutionConfig(generations=0, population=2, seed=1)
    t = Capture([CRIT, gen_response("due - now + 2*pt"), gen_response("0 - due")])
    result = run_evolution(cfg, t, insts)
    assert result.best.source == "due - now + 2*pt"
    assert result.samples == 3
    assert result.error is None


def test_sample_budget_stops_mid_generation():
    insts = training_instances()
    cfg = EvolutionConfig(generations=5, population=4, sample_budget=7, seed=3)
    responses = [CRIT] + [gen_response("due + pt")] * 4
    responses += [CRIT, gen_response("due + 2*pt")] + [gen_response("x")] * 10
    t = Capture(responses)
    result = run_evolution(cfg, t, insts)
    assert result.samples == 7
    assert len(result.population) == 4                 # previous population intact
    assert all(math.isfinite(ind.fitness) for ind in result.population)


def test_elite_is_baseline_when_everything_fails():
    insts = training_instances()
    cfg = EvolutionConfig(generations=0, population=2, retry_budget=1, seed=1)
    t = Capture([CRIT, "junk", "junk"])
    result = run_evolution(cfg, t, insts)
    assert result.best.source == builtin_source("EDD")
    assert result.elite.fitness == pytest.approx(2.023656283873049)


def test_record_replay_bit_determinism(tmp_path):
    insts = training_instances()
    cfg = EvolutionConfig(generations=2, population=4, seed=9)
    pool = ["due + pt", "due - now + 2*pt", "due*0.5 + work_rem",
            "due + pt*3", "due - 0.1*queue + pt", "due*2.0 + setup",
            "min(due, arrival + work_rem) + pt", "if(slack < 0, due, slack) + pt"]
    responses = [CRIT]
    responses += [gen_response(s) for s in pool[:4]]
    for _ in range(2):
        responses += [CRIT, gen_response(pool[4]), gen_response(pool[5]),
                      CRIT, gen_response(pool[6]), gen_response(pool[7])]
    cassette = tmp_path / "c.jsonl"
    rec = RecordingTransport(ScriptedTransport(responses), cassette)
    first = run_evolution(cfg, rec, insts)

    r1 = run_evolution(cfg, ReplayTransport(cassette), insts)
    r2 = run_evolution(cfg, ReplayTransport(cassette), insts)
    j1 = json.dumps(r1.journal, sort_keys=True)
    j2 = json.dumps(r2.journal, sort_keys=True)
    assert j1 == j2
    assert json.dumps(first.journal, sort_keys=True) == j1
    assert r1.best.source == r2.best.source == first.best.source
    assert r1.history == r2.history
    assert r1.u0 == r2.u0


def test_config_round_trip_and_validation():
    doc = {"generations": 3, "population": 4, "u_low": 0.3, "u_up": 1.5,
           "tournament_k": 2, "retry_budget": 2, "seed": 5,
           "strategies": [{"operator": "C1", "parents": 2, "critique": True},
                          {"operator": "M2", "parents": 1, "critique": False}]}
    cfg = config_from_doc(doc)
    assert cfg.strategies[0] == Strategy("C1", 2, True)
    with pytest.raises(ValueError):
        config_from_doc({"population": 1})
    with pytest.raises(ValueError):
        config_from_doc({"u_low": 2.0, "u_up": 1.0})


@pytest.mark.parametrize("strategy", [
    Strategy("C1", 1, True),            # C1 takes two parents
    Strategy("M2", 2, False),           # M2 takes one
    Strategy("X9", 1, False),           # no such operator
    Strategy("C2", 2, True),            # C2's prompt drops the critique
    Strategy("M2", 1, True),            # so does M2's
])
def test_strategy_disagreeing_with_operator_table_rejected_before_any_call(strategy):
    cfg = EvolutionConfig(generations=1, population=2, strategies=(strategy,))
    with pytest.raises(ValueError):
        cfg.validate()
    t = Capture([])
    with pytest.raises(ValueError):
        run_evolution(cfg, t, training_instances())
    assert t.calls == []
    doc = {"strategies": [{"operator": strategy.operator, "parents": strategy.parents,
                           "critique": strategy.critique}]}
    with pytest.raises(ValueError):
        config_from_doc(doc)


def test_default_strategy_table():
    assert [s.operator for s in DEFAULT_STRATEGIES] == ["C1", "C2", "M1", "M2"]
    assert [s.parents for s in DEFAULT_STRATEGIES] == [2, 2, 1, 1]
    assert [s.critique for s in DEFAULT_STRATEGIES] == [True, False, True, False]


# -- config errors -----------------------------------------------------------------


@pytest.mark.parametrize("doc, key", [
    ({"strategies": [{"operator": "C1", "critique": True}]}, "parents"),
    ({"strategies": [{"operator": "C1", "parents": 2, "critique": True, "x": 1}]}, "'x'"),
    ({"strategies": ["C1"]}, "operator"),
    ({"bogus": 1}, "bogus"),
    ({"strategies": "C1"}, "strategies"),
    ({"training_instances": "a.json"}, "training_instances"),
    ({"training_instances": [1]}, "training_instances"),
    ({"generations": "3"}, "generations"),
    ({"population": 2.5}, "population"),
    ({"generations": True}, "generations"),
    ({"sample_budget": 1.0}, "sample_budget"),
    ({"u_low": "0.1"}, "u_low"),
    ({"u_up": float("nan")}, "u_up"),
    ({"u0": float("inf")}, "u0"),
    ({"mu": [2.0]}, "mu"),
    ({"strategies": [{"operator": ["C1"], "parents": 2, "critique": True}]}, "operator"),
    ({"strategies": [{"operator": "C1", "parents": 2.0, "critique": True}]}, "parent"),
    ({"strategies": [{"operator": "C1", "parents": 2, "critique": "yes"}]}, "critique"),
    ([{"generations": 1}], "object"),
])
def test_bad_config_is_a_value_error_naming_the_key(doc, key):
    with pytest.raises(ValueError, match=key):
        config_from_doc(doc)


def test_wrongly_typed_config_rejected_before_any_call():
    t = Capture([])
    with pytest.raises(ValueError, match="population"):
        run_evolution(EvolutionConfig(generations=1, population=2.5), t,
                      training_instances())
    assert t.calls == []


def test_integer_valued_floats_accepted_where_a_number_is_due():
    cfg = config_from_doc({"u_low": 0, "u_up": 2, "u0": 1, "mu": 3})
    assert (cfg.u_low, cfg.u_up, cfg.u0, cfg.mu) == (0, 2, 1, 3)


# -- a transport failure keeps what was paid for -------------------------------------


def test_transport_failure_keeps_the_partial_run():
    insts = training_instances()
    cfg = EvolutionConfig(generations=2, population=2, seed=3)
    # elite critique, two init slots, then generation 1's C1 critique and
    # candidate; its C2 slot finds the transport dry
    responses = [CRIT, gen_response("due + pt"), gen_response("due - now + 2*pt"),
                 CRIT, gen_response("due*2.0 + setup")]
    result = run_evolution(cfg, ScriptedTransport(responses), insts)
    assert result.error == "scripted transport ran out of responses"
    assert result.samples == len(result.journal) == 5
    assert [e["operator"] for e in result.journal] == ["Eval", "Init", "Init", "Eval", "C1"]
    assert [i.operator for i in result.population] == ["Init", "Init"]
    assert result.best.fitness == pytest.approx(1.616211778921738)
    assert result.per_instance and result.history


def test_replay_miss_still_propagates(tmp_path):
    cassette = tmp_path / "empty.jsonl"
    cassette.write_text("", encoding="utf-8")
    cfg = EvolutionConfig(generations=0, population=2, seed=1)
    with pytest.raises(ReplayMiss):
        run_evolution(cfg, ReplayTransport(cassette), training_instances())
