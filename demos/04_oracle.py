"""Independent checks: constraint validation and the optimal oracle.

The validator re-derives feasibility straight from the instance data and
never looks at rules or features. The oracle searches the non-delay dispatch
sequences of a tiny instance by branch and bound, through the same
transition function the engine uses, so any rule's rollout is bounded below
by it.
"""

from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.rules import BUILTIN_IDS, RuleSpec
from fafsp.sim import ArcRecord, Schedule, run_dispatch, total_tardiness
from fafsp.validator import brute_force_optimum, validate_schedule


def tiny_instance(seed):
    s = seed
    while True:
        inst = generate_instance(ScenarioConfig(m1=1, m2=2, phi=1.0, alpha=0,
                                                mu=1.0, n_init=2, seed=s))
        if inst.num_jobs <= 8:
            return inst
        s += 100_000


# -- 1. the validator catches hand-made mistakes ----------------------------------

inst = tiny_instance(3)
good = run_dispatch(inst, RuleSpec.builtin("EDD"))
print("clean rollout violations:", validate_schedule(inst, good))

# shift the last assembly job to start one minute early
arcs = list(good.arcs)
last = arcs[-1]
arcs[-1] = ArcRecord(last.job, last.machine, last.setup, last.st - 1.0, last.ct - 1.0)
broken = Schedule(tuple(arcs), good.ft, good.tt)
print("tampered rollout:")
for v in validate_schedule(inst, broken)[:3]:
    print("  ", v)

# -- 2. the oracle bounds every rule ----------------------------------------------

print(f"\n{'seed':>6s} {'jobs':>5s} {'optimum':>9s} {'best rule':>10s} {'worst rule':>11s}")
for seed in (101, 202, 303, 404):
    inst = tiny_instance(seed)
    optimum, osched = brute_force_optimum(inst)
    assert validate_schedule(inst, osched) == []
    by_rule = {rid: total_tardiness(run_dispatch(inst, RuleSpec.builtin(rid)))
               for rid in BUILTIN_IDS}
    print(f"{seed:6d} {inst.num_jobs:5d} {optimum:9.3f} "
          f"{min(by_rule.values()):10.3f} {max(by_rule.values()):11.3f}")

print("\nthe optimum never exceeds any rule: rules can only pick among the")
print("same non-delay sequences the oracle enumerates.")
