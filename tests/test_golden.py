"""Golden schedules: the exact dispatch of fixed rollouts, pinned by digest.

Each digest is the SHA-256 of ``schedule_to_text`` for one (instance, rule)
rollout. Performance work must never change what gets dispatched, so any
kernel change that moves a single arc, start time or float bit fails here.
"""

import hashlib
import json
from pathlib import Path

from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.rules import BUILTIN_IDS, RuleSpec
from fafsp.sim import run_dispatch, schedule_to_text

GOLDEN = Path(__file__).parent / "data" / "golden_schedules.json"

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

