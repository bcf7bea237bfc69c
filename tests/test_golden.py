"""Golden schedules: the exact dispatch of fixed rollouts, pinned by digest.

Each digest is the SHA-256 of ``schedule_to_text`` for one (instance, rule)
rollout. Performance work must never change what gets dispatched, so any
kernel change that moves a single arc, start time or float bit fails here.
The oracle is pinned the same way: the ``repr`` of its optimum and the digest
of its schedule, on every instance the tests and demo 04 give it, plus
dynamic and hand-built ones with late arrivals and zero-length jobs. The
generator is pinned by the digest of each instance's canonical file.
"""

import hashlib
import json
from pathlib import Path

from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.model import save_instance
from fafsp.rules import BUILTIN_IDS, RuleSpec
from fafsp.sim import run_dispatch, schedule_to_text
from fafsp.validator import brute_force_optimum

from helpers import make_instance, tiny_dynamic_instance, tiny_oracle_instance

GOLDEN = Path(__file__).parent / "data" / "golden_schedules.json"
GOLDEN_ORACLE = Path(__file__).parent / "data" / "golden_oracle.json"
GOLDEN_INSTANCES = Path(__file__).parent / "data" / "golden_instances.json"

SCENARIOS = {
    "2-3-0.7-4-2.0": ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=4, mu=2.0, n_init=2, seed=11),
    "1-4-1.0-3-4.0": ScenarioConfig(m1=1, m2=4, phi=1.0, alpha=3, mu=4.0, n_init=1, seed=12),
    "3-5-0.5-5-1.0": ScenarioConfig(m1=3, m2=5, phi=0.5, alpha=5, mu=1.0, n_init=3, seed=13),
}

# acceptance test 9's 100+-node rule
WIDE = " + ".join([
    "0.11*due", "0.13*arrival", "0.17*slack", "0.19*wait", "0.23*et",
    "0.29*n_mach", "0.31*ops_rem", "0.37*work_rem", "0.41*pt", "0.43*setup",
    "0.47*avail", "0.53*queue", "0.59*util", "max(pt, setup)",
    "min(due, work_rem)", "if(slack < 0, due + pt, slack - setup)",
    "sqrt(abs(slack))", "log(1 + wait)", "exp(0 - pt)",
    "0.61*due", "0.67*pt", "0.71*slack", "0.73*queue", "0.79*work_rem",
    "0.83*setup", "0.89*et", "0.97*wait"])

# divides by zero and takes sqrt/log of non-positive values on every arc,
# so its schedule pins the protected operators' exact results
PROTECTED = "due / (queue - queue) + log(0 - slack) + sqrt(0 - wait) + 0.5*pt"

RULES = {**{rid: RuleSpec.builtin(rid) for rid in BUILTIN_IDS},
         "wide": RuleSpec.expression(WIDE, name="wide"),
         "small": RuleSpec.expression("due - now + 2*pt + setup + 0.2*queue*pt"),
         "protected": RuleSpec.expression(PROTECTED, name="protected")}


def golden_digests() -> dict[str, str]:
    """'<scenario>/<rule>' -> SHA-256 of the rollout's schedule text."""
    out = {}
    for sname, cfg in SCENARIOS.items():
        inst = generate_instance(cfg)
        for rname, rule in RULES.items():
            text = schedule_to_text(run_dispatch(inst, rule))
            out[f"{sname}/{rname}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_golden_schedule_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_digests()
    assert set(got) == set(want)
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"schedules changed: {changed}"



# -- the oracle ---------------------------------------------------------------

# arrivals that coincide with completions, zero-length jobs (a zero-length
# dispatch leaves its machine idle), setups and decimal times
HAND_BUILT = {
    "zero-pt": lambda: make_instance("ppa", [
        (0.0, 3.0, [([{0: 2.0}, {1: 0.0}], {2: 1.0})]),
        (2.0, 4.0, [([{0: 0.0, 1: 1.5}], {2: 0.0})]),
        (2.0, 2.5, [([{1: 1.0}], {2: 0.5})]),
    ], setup=0.5),
    "equal-times": lambda: make_instance("ppaa", [
        (0.0, 2.0, [([{0: 1.0}, {1: 1.0}], {2: 1.0, 3: 2.0})]),
        (1.0, 3.0, [([{0: 1.0, 1: 2.0}], {2: 1.0})]),
        (2.0, 2.0, [([{1: 0.0}], {3: 0.0})]),
    ]),
    "zero-order-late": lambda: make_instance("pa", [
        (0.0, 1.0, [([{0: 1.5}], {1: 0.5})]),
        (1.5, 1.5, [([{0: 0.0}], {1: 0.0})]),
        (1.5, 2.0, [([{0: 0.5}], {1: 0.0})]),
    ]),
    "decimal": lambda: make_instance("ppa", [
        (0.0, 0.3, [([{0: 0.1}, {1: 0.2}], {2: 0.1})]),
        (0.1, 0.4, [([{0: 0.2, 1: 0.1}], {2: 0.2})]),
        (0.3, 0.6, [([{0: 0.3}], {2: 0.1})]),
    ], setup=0.1),
    "setups": lambda: make_instance("pa", [
        (0.0, 4.0, [([{0: 1.0}], {1: 1.0}), ([{0: 2.0}], {1: 0.0})]),
        (1.0, 3.0, [([{0: 0.0}, {0: 1.0}], {1: 0.5})]),
    ], setup=1.0),
}


def oracle_instances() -> dict:
    """'<set>/<seed or name>' -> instance."""
    out = {f"acceptance2/{7000 + 37 * k}": tiny_oracle_instance(7000 + 37 * k)
           for k in range(50)}
    out.update({f"validator/{6000 + k}": tiny_oracle_instance(6000 + k) for k in range(10)})
    out.update({f"demo04/{s}": tiny_oracle_instance(s) for s in (101, 202, 303, 404)})
    out.update({f"dynamic/{s}": tiny_dynamic_instance(s) for s in range(1, 6)})
    out.update({f"dynamic-mixed/{s}": tiny_dynamic_instance(s, alpha=1, n_init=1)
                for s in range(1, 4)})
    out.update({f"hand/{name}": build() for name, build in HAND_BUILT.items()})
    return out


def golden_oracle() -> dict[str, dict[str, str]]:
    """name -> the optimum's repr and the SHA-256 of its schedule text."""
    out = {}
    for name, inst in oracle_instances().items():
        value, sched = brute_force_optimum(inst)
        text = schedule_to_text(sched)
        out[name] = {"value": repr(value),
                     "schedule": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return out


def test_golden_oracle():
    want = json.loads(GOLDEN_ORACLE.read_text(encoding="utf-8"))
    got = golden_oracle()
    assert set(got) == set(want)
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"oracle results changed: {changed}"


# both grid parks, phi 0.5 / 0.7 / 1.0, alpha 0..50, n_init 0 and 5, and off-default T, R
INSTANCE_SCENARIOS = {
    f"{c.m1}-{c.m2}-{c.phi}-{c.alpha}-{c.mu}-n{c.n_init}-s{c.seed}": c for c in (
        ScenarioConfig(m1=3, m2=6, phi=0.5, alpha=0, mu=1.0, seed=0),
        ScenarioConfig(m1=3, m2=6, phi=0.7, alpha=10, mu=2.0, seed=1),
        ScenarioConfig(m1=3, m2=6, phi=1.0, alpha=50, mu=4.0, seed=2),
        ScenarioConfig(m1=3, m2=6, phi=0.5, alpha=20, mu=2.0, n_init=0, seed=3),
        ScenarioConfig(m1=3, m2=6, phi=1.0, alpha=5, mu=1.0, n_init=0, seed=4),
        ScenarioConfig(m1=3, m2=6, phi=0.7, alpha=30, mu=1.0, T=0.5, R=0.8, seed=5),
        ScenarioConfig(m1=5, m2=12, phi=0.5, alpha=0, mu=1.0, seed=6),
        ScenarioConfig(m1=5, m2=12, phi=0.7, alpha=50, mu=4.0, seed=7),
        ScenarioConfig(m1=5, m2=12, phi=1.0, alpha=30, mu=2.0, seed=8),
        ScenarioConfig(m1=5, m2=12, phi=0.7, alpha=10, mu=1.0, n_init=0, seed=9),
        ScenarioConfig(m1=5, m2=12, phi=1.0, alpha=50, mu=4.0, n_init=0, seed=10),
        ScenarioConfig(m1=5, m2=12, phi=0.5, alpha=50, mu=2.0, T=0.4, R=0.2, seed=11),
    )}


def golden_instances(tmp_path) -> dict[str, str]:
    """'<m1>-<m2>-<phi>-<alpha>-<mu>-n<n_init>-s<seed>' -> SHA-256 of the
    instance file ``save_instance`` writes."""
    out = {}
    for name, cfg in INSTANCE_SCENARIOS.items():
        path = tmp_path / f"{name}.json"
        save_instance(generate_instance(cfg), path)
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_golden_instances(tmp_path):
    want = json.loads(GOLDEN_INSTANCES.read_text(encoding="utf-8"))
    got = golden_instances(tmp_path)
    assert set(got) == set(want)
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"generated instances changed: {changed}"
