"""The three benchmark workloads.

A workload picks its scenarios from the workload seed when it is built
(untimed: ``sized`` searches for instances of the stated size), makes its
inputs in ``setup`` (timed as set-up) and does one fixed unit of work per
``run_pass``; run.py repeats passes for the measured time. Every pass does
the same work in the same order, so outputs, digests and exact counts
repeat pass after pass. Only generated instances, rules and the recorded
cassette reach fafsp.
"""

from __future__ import annotations

import itertools
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fafsp.bench import write_journal
from fafsp.evolve import EvolutionConfig, run_evolution
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.llm import RecordingTransport, ReplayTransport, ScriptedTransport
from fafsp.rules import BUILTIN_IDS, RuleSpec
from fafsp.sim import run_dispatch, total_tardiness
from fafsp.validator import brute_force_optimum, validate_schedule

from probe import CountingTransport, Probe

OUT_DIR = Path(__file__).resolve().parent / "out"

SMALL_RULE = "due - now + 2*pt + setup + 0.2*queue*pt"
# The 100+-node "wide" rule of acceptance test 9.
WIDE_RULE = " + ".join([
    "0.11*due", "0.13*arrival", "0.17*slack", "0.19*wait", "0.23*et",
    "0.29*n_mach", "0.31*ops_rem", "0.37*work_rem", "0.41*pt", "0.43*setup",
    "0.47*avail", "0.53*queue", "0.59*util", "max(pt, setup)",
    "min(due, work_rem)", "if(slack < 0, due + pt, slack - setup)",
    "sqrt(abs(slack))", "log(1 + wait)", "exp(0 - pt)",
    "0.61*due", "0.67*pt", "0.71*slack", "0.73*queue", "0.79*work_rem",
    "0.83*setup", "0.89*et", "0.97*wait"])


@dataclass
class Pass:
    """What one pass produced, checked after its timed region ends."""

    ops: int = 0                        # operations attempted, rollouts excluded
    failed: int = 0                     # operations that raised or did not validate
    outputs: list = field(default_factory=list)     # extra (instance, schedule)
    oracle: list = field(default_factory=list)      # (instance, optimum)
    incumbent: str = ""
    journal_entries: list = field(default_factory=list)
    replay_misses: int = 0


def _report(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    """n instance seeds drawn from the workload seed; stream keeps workloads apart."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 1_000_000, size=n)]


def sized(cfg: ScenarioConfig, lo: int, hi: int) -> ScenarioConfig:
    """cfg with the first seed among cfg.seed, cfg.seed + 100_000, ... whose
    instance has lo..hi jobs. The job count sets a rollout's work, so fixing
    its range keeps every seed's inputs the same size."""
    while not lo <= generate_instance(cfg).num_jobs <= hi:
        cfg = replace(cfg, seed=cfg.seed + 100_000)
    return cfg


class Rollout5x12:
    """run_dispatch on large 5-12 grid instances under four rules."""

    name = "rollout-5x12"
    COMBOS = [(0.5, 2.0), (0.5, 4.0), (0.7, 2.0), (0.7, 4.0)] * 3   # (phi, mu)
    JOBS = (470, 520)                   # about the mean of alpha = 50

    def __init__(self, seed: int):
        self.configs = [sized(ScenarioConfig(m1=5, m2=12, phi=phi, alpha=50, mu=mu, seed=s),
                              *self.JOBS)
                        for (phi, mu), s in zip(self.COMBOS, _seeds(seed, 1, len(self.COMBOS)))]

    def setup(self, probe: Probe) -> None:
        self.rules = [RuleSpec.builtin("EDD"), RuleSpec.builtin("MOPNR+SPT"),
                      RuleSpec.expression(SMALL_RULE, name="small"),
                      RuleSpec.expression(WIDE_RULE, name="wide")]
        self.instances = [probe.call("generator.generate_instance", generate_instance, cfg)
                          for cfg in self.configs]
        for inst in self.instances:         # builds the instance's tables
            probe.rollout(inst, self.rules[0])
        probe.take()

    def run_pass(self, probe: Probe) -> Pass:
        out = Pass()
        for inst in self.instances:
            for rule in self.rules:
                try:
                    probe.rollout(inst, rule)
                except Exception:
                    _report(f"rollout of {rule.name}")
                    out.failed += 1
        return out


class SuiteSmall:
    """Acceptance test 1's shape on fresh instances, then the exhaustive oracle."""

    name = "suite-small"
    # Every 6th of acceptance test 1's 216 combos: each (m1, m2) pair nine
    # times, with phi, alpha, mu and n_init cycling.
    COMBOS = list(itertools.product(
        [(1, 2), (2, 3), (2, 4), (3, 6)],     # (m1, m2)
        [0.5, 0.8, 1.0],                      # phi
        [2, 4, 6],                            # alpha
        [1.0, 2.0, 4.0],                      # mu
        [2, 3]))[::6]                         # n_init
    ORACLE_INSTANCES = 3
    ORACLE_JOBS = 8                     # the oracle's limit; sets its search size

    def __init__(self, seed: int):
        seeds = _seeds(seed, 2, len(self.COMBOS) + self.ORACLE_INSTANCES)
        self.configs = []
        for ((m1, m2), phi, alpha, mu, n_init), s in zip(self.COMBOS, seeds):
            mean_jobs = 9 * (alpha + n_init)            # 2 products of 4.5 jobs per order
            self.configs.append(sized(
                ScenarioConfig(m1=m1, m2=m2, phi=phi, alpha=alpha, mu=mu, n_init=n_init,
                               seed=s),
                round(0.92 * mean_jobs), round(1.08 * mean_jobs)))
        # all-at-zero instances, found as tests/helpers.tiny_oracle_instance does
        self.oracle_configs = [
            sized(ScenarioConfig(m1=1, m2=2, phi=1.0, alpha=0, mu=1.0, n_init=2, seed=s),
                  self.ORACLE_JOBS, self.ORACLE_JOBS)
            for s in seeds[len(self.COMBOS):]]

    def setup(self, probe: Probe) -> None:
        self.rules = [RuleSpec.builtin(r) for r in BUILTIN_IDS]
        # warm-up: one instance of each size class through the first rule
        for cfg in (self.configs[0], self.oracle_configs[0]):
            probe.rollout(probe.call("generator.generate_instance", generate_instance, cfg),
                          self.rules[0])
        probe.take()

    def run_pass(self, probe: Probe) -> Pass:
        out = Pass()
        for cfg in self.configs:
            inst = probe.call("generator.generate_instance", generate_instance, cfg)
            for rule in self.rules:
                out.ops += 1
                try:
                    sched = probe.rollout(inst, rule)
                    if probe.call("validator.validate_schedule", validate_schedule,
                                  inst, sched):
                        out.failed += 1
                except Exception:
                    _report(f"suite rollout of {rule.name}")
                    out.failed += 1
        for cfg in self.oracle_configs:
            inst = probe.call("generator.generate_instance", generate_instance, cfg)
            out.ops += 2
            try:
                value, sched = probe.call("validator.brute_force_optimum",
                                          brute_force_optimum, inst)
            except Exception:
                _report("brute_force_optimum")
                out.failed += 2
                continue
            if probe.call("validator.validate_schedule", validate_schedule, inst, sched):
                out.failed += 1
            out.outputs.append((inst, sched))
            out.oracle.append((inst, value))
        return out

    def dominance_failures(self, oracle: list) -> int:
        """Oracle optima that some builtin beats (checked once, untimed)."""
        return sum(1 for inst, value in oracle
                   if any(value > total_tardiness(run_dispatch(inst, r)) + 1e-9
                          for r in self.rules))


class ScriptedExpert:
    """Deterministic stand-in for both experts, in the manner of acceptance
    test 7. Generator replies are mostly distinct rules: a template, with a
    coefficient that moves with the sample index and the workload seed, some
    of them 20-100 AST nodes. Every fourth reply re-proposes an earlier rule.
    Samples 6, 13 and 14 are unparsable and 15 overflows, so one slot is
    retried and one falls back to a parent copy; the third critique is
    malformed and earns a fresh evaluator call."""

    CRITIQUE = ("Advantages: reacts to urgency quickly.\n"
                "Limitations: ignores congestion buildup.\n"
                "Suggestions: weigh machine queues and setups.\n")
    BAD_CRITIQUE = "Advantages: a.\nLimitations: b.\n"
    TEMPLATES = (
        "due - now + {c}*pt + setup",
        "slack + {c}*pt*queue",
        " + ".join(["0.11*due", "0.13*arrival", "{c}*slack", "0.19*wait",
                    "0.23*et", "0.29*n_mach", "0.31*ops_rem", "0.37*work_rem",
                    "0.41*pt", "0.43*setup", "0.47*avail", "0.53*queue",
                    "0.59*util", "max(pt, setup)", "min(due, work_rem)",
                    "if(slack < 0, due + pt, slack - setup)", "sqrt(abs(slack))",
                    "log(1 + wait)", "exp(0 - pt)", "0.61*due", "0.73*queue",
                    "0.79*work_rem", "0.97*wait"]),
        "min(due, arrival + work_rem) + {c}*pt",
        " + ".join(["{c}*due", "0.11*arrival", "0.17*slack", "0.19*wait",
                    "0.23*et", "0.29*n_mach", "0.31*ops_rem", "0.37*work_rem",
                    "0.41*pt", "0.43*setup", "0.47*avail", "0.53*queue",
                    "0.59*util", "max(pt, setup)", "min(due, work_rem)",
                    "if(slack < 0, due + pt, slack - setup)", "sqrt(abs(slack))",
                    "log(1 + wait)", "exp(0 - pt)", "0.67*pt", "0.71*slack",
                    "0.83*setup", "0.89*et"]),
        "if(slack < 0, due, slack) + {c}*pt",
    )
    UNPARSABLE = (6, 13, 14)
    OVERFLOW = 15

    def __init__(self):
        self.gen = 0
        self.eval = 0
        self.proposed: list[str] = []

    def __call__(self, prompt: str, temperature: float, operator: str) -> str:
        if operator == "Eval":
            self.eval += 1
            return self.BAD_CRITIQUE if self.eval == 3 else self.CRITIQUE
        self.gen += 1
        n = self.gen
        if n in self.UNPARSABLE:
            return "I cannot help with that."
        if n == self.OVERFLOW:
            return "Description: diverges.\n```\nexp(exp(exp(et*et + 9)))\n```"
        if n % 4 == 0:
            src = self.proposed[(n // 4) % len(self.proposed)]
        else:
            coeff = round(0.2 + 0.05 * n, 6)
            src = self.TEMPLATES[n % len(self.TEMPLATES)].format(c=coeff)
            self.proposed.append(src)
        return f"Description: variant {n}.\n```\n{src}\n```"


class EvolveReplay:
    """run_evolution replaying a cassette recorded in set-up."""

    name = "evolve-replay"
    TRAINING = 8                        # training rollouts outnumber smoke tests

    JOBS = (216, 234)                   # about the mean of alpha = 20

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = [sized(ScenarioConfig(m1=3, m2=6, phi=0.5, alpha=20, mu=2.0, seed=s),
                              *self.JOBS)
                        for s in _seeds(seed, 3, self.TRAINING)]
        self.cassette = OUT_DIR / f"cassette-{os.getpid()}.jsonl"
        self.journal_path = OUT_DIR / f"journal-{os.getpid()}.jsonl"

    def setup(self, probe: Probe) -> None:
        self.instances = [probe.call("generator.generate_instance", generate_instance, cfg)
                          for cfg in self.configs]
        self.cfg = EvolutionConfig(generations=3, population=4, seed=self.seed)
        OUT_DIR.mkdir(exist_ok=True)
        self.cassette.unlink(missing_ok=True)
        transport = RecordingTransport(ScriptedTransport(ScriptedExpert()),
                                       self.cassette)
        run_evolution(self.cfg, transport, self.instances)
        probe.take()

    def run_pass(self, probe: Probe) -> Pass:
        out = Pass(ops=1)
        transport = CountingTransport(ReplayTransport(self.cassette), probe)
        try:
            result = run_evolution(self.cfg, transport, self.instances)
        except Exception:
            _report("run_evolution")
            out.failed += 1
        else:
            out.journal_entries = result.journal
            out.incumbent = result.best.source
        out.ops += transport.calls
        out.failed += transport.misses
        out.replay_misses = transport.misses
        return out

    def journal_bytes(self, entries: list) -> bytes:
        """The bytes `fafsp evolve` writes as journal.jsonl."""
        write_journal(entries, self.journal_path)
        data = self.journal_path.read_bytes()
        self.journal_path.unlink()
        return data

    def close(self) -> None:
        self.cassette.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Rollout5x12, SuiteSmall, EvolveReplay)}
