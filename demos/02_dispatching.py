"""Rolling out dispatching rules and validating the schedules they produce.

The engine is event-driven: at time zero and after every completion or
arrival it ranks all feasible (job, machine) pairs with the active rule and
dispatches until nothing is feasible, then jumps to the next event.
"""

import numpy as np

from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.rules import BUILTIN_IDS, RuleSpec
from fafsp.sim import FeatureView, SimState, feasible_arcs, run_dispatch, total_tardiness
from fafsp.validator import validate_schedule

inst = generate_instance(ScenarioConfig(m1=2, m2=4, phi=0.6, alpha=8, mu=2.0,
                                        n_init=3, seed=21))
print(f"instance: {len(inst.orders)} orders, {inst.num_jobs} jobs\n")

# -- 1. what the first decision epoch looks like --------------------------------

# a rule sees one column per accessor, with one entry per feasible arc
state = SimState(inst)
arcs = feasible_arcs(state)
jobs, machs = np.array(arcs).T
cols = FeatureView(state).arc_columns(jobs, machs)
print(f"at t=0 there are {len(arcs)} feasible arcs; first five: {arcs[:5]}")
j, m = arcs[0]
print(f"arc (job {j}, machine {m}): pt={cols['pt'][0]:.2f}, setup={cols['setup'][0]:.2f}, "
      f"order work remaining={cols['work_rem'][0]:.2f}\n")

# -- 2. all nine classical rules on the same instance ----------------------------

print(f"{'rule':12s} {'tardiness':>10s}  feasible?")
for rid in BUILTIN_IDS:
    sched = run_dispatch(inst, RuleSpec.builtin(rid))
    violations = validate_schedule(inst, sched)
    print(f"{rid:12s} {total_tardiness(sched):10.2f}  {'yes' if not violations else violations}")

# -- 3. schedules carry the full story -------------------------------------------

sched = run_dispatch(inst, RuleSpec.builtin("EDD"))
late = {o: tt for o, tt in sched.tt.items() if tt > 0}
print(f"\nEDD: {len(sched.arcs)} dispatches, {len(late)} late orders: "
      + ", ".join(f"order {o} by {tt:.1f} min" for o, tt in sorted(late.items())))
first = sched.arcs[0]
print(f"first dispatch: job {first.job} on machine {first.machine} "
      f"[{first.st:.1f}, {first.ct:.1f}] (setup {first.setup:.2f})")
