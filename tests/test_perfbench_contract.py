"""The benchmark's traced path must keep working and dispatch what fafsp does.

``perfbench/probe.py`` drives rollouts through sim's public step API and
swaps timing shims in at fafsp's module attributes by name. A refactor that
deletes or renames one of those names breaks the benchmark without failing
any other test. This runs the traced rollout and the oracle under the shims
and requires every schedule to equal the untraced one, byte for byte.
"""

import sys
from pathlib import Path

import pytest

from fafsp.generator import generate_instance
from fafsp.sim import run_dispatch, schedule_to_text
from fafsp.validator import brute_force_optimum

from helpers import tiny_oracle_instance
from test_golden import RULES, SCENARIOS

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from probe import TracedProbe, shims  # noqa: E402
from speed import Timeline  # noqa: E402


@pytest.mark.parametrize("rule", [RULES["MWKR+EET"], RULES["small"]], ids=lambda r: r.name)
def test_traced_rollout_matches_untraced(rule):
    instances = [generate_instance(cfg) for cfg in SCENARIOS.values()]
    expected = [schedule_to_text(run_dispatch(inst, rule)) for inst in instances]
    probe = TracedProbe(Timeline())
    with shims(probe):
        traced = [schedule_to_text(probe.rollout(inst, rule)) for inst in instances]
    assert traced == expected


def test_oracle_under_shims_matches_untraced():
    inst = tiny_oracle_instance(7037)
    value, sched = brute_force_optimum(inst)
    probe = TracedProbe(Timeline())
    with shims(probe):
        traced_value, traced_sched = brute_force_optimum(inst)
    assert repr(traced_value) == repr(value)
    assert schedule_to_text(traced_sched) == schedule_to_text(sched)
    assert "sim.clone" in probe.names           # the shims reach inside the search
