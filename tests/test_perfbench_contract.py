"""The benchmark's traced path must keep working and dispatch what fafsp does.

``perfbench/probe.py`` drives rollouts through sim's public step API and
swaps timing shims in at fafsp's module attributes by name. A refactor that
deletes or renames one of those names breaks the benchmark without failing
any other test. This runs the traced rollout, the oracle and an evolution
under the shims and requires every schedule, value, journal and incumbent to
equal the untraced one, byte for byte.
"""

import json
import sys
from pathlib import Path

import pytest

from fafsp.evolve import EvolutionConfig, run_evolution
from fafsp.generator import generate_instance
from fafsp.llm import ScriptedTransport
from fafsp.rules import RuleInvalid, RuleSpec
from fafsp.sim import run_dispatch, schedule_to_text
from fafsp.validator import brute_force_optimum

from helpers import tiny_oracle_instance
from test_acceptance import _mock_responses, _training_instances
from test_golden import RULES, SCENARIOS

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from probe import TracedProbe, shims  # noqa: E402
from speed import Timeline  # noqa: E402


@pytest.mark.parametrize("rule", [RULES["MWKR+EET"], RULES["small"], RULES["wide"]],
                         ids=lambda r: r.name)
def test_traced_rollout_matches_untraced(rule):
    instances = [generate_instance(cfg) for cfg in SCENARIOS.values()]
    expected = [schedule_to_text(run_dispatch(inst, rule)) for inst in instances]
    probe = TracedProbe(Timeline())
    with shims(probe):
        traced = [schedule_to_text(probe.rollout(inst, rule)) for inst in instances]
    assert traced == expected


def test_traced_rollout_names_the_same_non_finite_arc():
    # a score that overflows is rejected on both paths with the same message
    rule = RuleSpec.expression("exp(1000*pt)")
    inst = generate_instance(next(iter(SCENARIOS.values())))
    with pytest.raises(RuleInvalid) as plain:
        run_dispatch(inst, rule)
    probe = TracedProbe(Timeline())
    with shims(probe), pytest.raises(RuleInvalid) as traced:
        probe.rollout(inst, rule)
    assert str(traced.value) == str(plain.value)
    assert "non-finite score inf for arc (job " in str(plain.value)


def test_oracle_under_shims_matches_untraced():
    inst = tiny_oracle_instance(7037)
    value, sched = brute_force_optimum(inst)
    probe = TracedProbe(Timeline())
    with shims(probe):
        traced_value, traced_sched = brute_force_optimum(inst)
    assert repr(traced_value) == repr(value)
    assert schedule_to_text(traced_sched) == schedule_to_text(sched)
    assert "sim.clone" in probe.names           # the shims reach inside the search


def test_evolution_under_shims_matches_untraced():
    cfg = EvolutionConfig(generations=2, population=4, seed=17)
    instances = _training_instances()
    plain = run_evolution(cfg, ScriptedTransport(_mock_responses()), instances)
    probe = TracedProbe(Timeline())
    with shims(probe):
        traced = run_evolution(cfg, ScriptedTransport(_mock_responses()), instances)
    assert json.dumps(traced.journal, sort_keys=True) == json.dumps(plain.journal, sort_keys=True)
    assert traced.best.source == plain.best.source
    assert {"llm.render", "llm.extract", "rules.validate_rule",
            "evolve.evaluate_fitness"} <= set(probe.names)
