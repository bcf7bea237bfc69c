"""Evolving dispatching rules offline with a recorded cassette.

The evolution loop talks to two experts: a generator that writes candidate
expressions and an evaluator that reviews an evaluated rule against the
population's best and worst members. Every request is keyed by a digest of
(prompt, temperature), so a recorded cassette replays the whole run
bit-identically with zero network traffic. Here a scripted stand-in plays
the experts so the demo runs anywhere; point LiveTransport at a real
endpoint (FAFSP_LLM_BASE_URL / _API_KEY / _MODEL) for the real thing.
"""

import json
import tempfile
from pathlib import Path

from fafsp.evolve import EvolutionConfig, run_evolution
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.llm import RecordingTransport, ReplayTransport, ScriptedTransport
from fafsp.rundir import journal_to_convergence

# -- 1. training instances and a scripted pair of experts -------------------------

instances = [generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=2,
                                              mu=4.0, n_init=2, seed=s))
             for s in (11, 12)]

CANDIDATES = ["due - now + 2*pt", "due + pt*3", "due*0.5 + work_rem",
              "slack + pt + setup", "due - 0.1*queue + pt", "due*2.0 + setup",
              "min(due, arrival + work_rem) + pt", "if(slack < 0, due, slack) + pt"]
CRITIQUE = ("Advantages: reacts to urgency quickly.\n"
            "Limitations: ignores congestion buildup.\n"
            "Suggestions: weigh machine queues and setup families.\n")
counter = {"n": 0}


def scripted_expert(prompt, temperature, operator):
    if operator == "Eval":
        return CRITIQUE
    counter["n"] += 1
    src = CANDIDATES[counter["n"] % len(CANDIDATES)]
    return f"Description: scripted variant {counter['n']}.\n```\n{src}\n```"


# -- 2. record a full run ----------------------------------------------------------

tmp = tempfile.TemporaryDirectory()
cassette = Path(tmp.name) / "cassette.jsonl"
cfg = EvolutionConfig(generations=3, population=4, seed=17)
recorded = run_evolution(cfg, RecordingTransport(ScriptedTransport(scripted_expert),
                                                 cassette), instances)
print(f"recorded run: {recorded.samples} expert calls, "
      f"elite fitness {recorded.elite.fitness:.3f} -> best {recorded.best.fitness:.3f}")
print(f"best rule ({recorded.best.operator}): {recorded.best.source}")

# the initialization sweeps the generator across a temperature ladder and
# keeps the temperature that produced the best rule as the evolution
# temperature for all later generations
print(f"evolution temperature u0 = {recorded.u0}")

# -- 3. replay is bit-deterministic --------------------------------------------------

r1 = run_evolution(cfg, ReplayTransport(cassette), instances)
r2 = run_evolution(cfg, ReplayTransport(cassette), instances)
same = (json.dumps(r1.journal, sort_keys=True) == json.dumps(r2.journal, sort_keys=True)
        and r1.best.source == r2.best.source)
print(f"\ntwo replays bit-identical: {same}")
tmp.cleanup()

# -- 4. the convergence trace --------------------------------------------------------

# one row per expert call, from the journal; no call produced the elite, so
# the curve starts from its fitness at sample 0
print("\nsamples -> best fitness so far:")
last, elite = None, r1.elite.fitness
for samples, best in [(0, elite)] + journal_to_convergence(r1.journal, elite):
    if best != last:
        print(f"  {samples:3d} -> {best:.3f}")
        last = best
