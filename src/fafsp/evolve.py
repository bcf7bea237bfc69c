"""Population-based rule design driven by the two language-model experts.

Initialization evaluates the EDD seed rule, asks the evaluator expert for a
critique of it, then sweeps the generator across an increasing temperature
ladder to fill the population; the temperature that produced the best rule
becomes the evolution temperature. Each later generation cycles the
strategy list (dominance-fusion crossover, exploratory crossover, directed
optimization, parameter tuning), selects parents by tournament, optionally
refreshes the lead parent's critique, and replaces the population wholesale
with the offspring while a separately tracked incumbent keeps the best rule
ever evaluated. Under a replay transport the whole run is bit-deterministic.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .llm import (CRITIQUE_REQUIRED, PARENT_COUNT, Critique, MissingBlock,
                  MissingSection, MultipleBlocks, ParentRule, PromptBundle,
                  TransportError, extract_critique, extract_individual,
                  render_evaluator_prompt, render_generator_prompt, request_digest)
from .model import Instance, Stage, load_instance
from .generator import order_lower_bound
from .rules import RuleInvalid, RuleSpec, builtin_source, validate_rule
from .sim import run_dispatch, total_tardiness


@dataclass
class Strategy:
    operator: str
    parents: int
    critique: bool


DEFAULT_STRATEGIES = (Strategy("C1", 2, True), Strategy("C2", 2, False),
                      Strategy("M1", 1, True), Strategy("M2", 1, False))


@dataclass
class RuleIndividual:
    description: str
    source: str
    spec: RuleSpec
    fitness: float
    critique: Critique | None = None
    generation: int = 0
    operator: str = ""
    parent_uids: tuple[int, ...] = ()
    temperature: float = 0.0
    uid: int = -1

    def as_parent(self) -> ParentRule:
        return ParentRule(self.description, self.source, self.fitness)


@dataclass
class EvolutionConfig:
    generations: int = 20
    population: int = 4
    u_low: float = 0.3
    u_up: float = 1.5
    u0: float | None = None          # fixed evolution temperature; None = from init
    tournament_k: int = 2
    retry_budget: int = 3            # attempts per offspring slot
    sample_budget: int | None = None  # total LLM calls; None = unlimited
    seed: int = 0
    mu: float | None = None          # scenario load factor, if known
    training_instances: tuple[str, ...] = ()
    strategies: tuple[Strategy, ...] = DEFAULT_STRATEGIES

    def validate(self) -> None:
        for name, (integer, low) in _NUMERIC.items():
            value = getattr(self, name)
            if value is None and name in ("sample_budget", "u0", "mu"):
                continue
            if not _is_number(value, integer) or low is not None and value < low:
                kind = "an integer" if integer else "a finite number"
                raise ValueError(f"{name} must be {kind}{'' if low is None else f' >= {low}'}"
                                 f", not {value!r}")
        if not self.u_low < self.u_up:
            raise ValueError("need u_low < u_up")
        if not self.strategies:
            raise ValueError("strategy list must be non-empty")
        if not all(isinstance(p, (str, os.PathLike)) for p in self.training_instances):
            raise ValueError("training_instances must be file paths")
        for s in self.strategies:
            if not (isinstance(s, Strategy) and isinstance(s.operator, str)
                    and s.operator in PARENT_COUNT):
                raise ValueError(f"unknown strategy {s!r}; operators are {sorted(PARENT_COUNT)}")
            if not _is_number(s.parents, True) or s.parents != PARENT_COUNT[s.operator]:
                raise ValueError(f"operator {s.operator} takes {PARENT_COUNT[s.operator]} "
                                 f"parent(s), not {s.parents!r}")
            uses = CRITIQUE_REQUIRED[s.operator]     # C2 and M2 prompts drop a critique
            if not isinstance(s.critique, bool) or s.critique and not uses:
                raise ValueError(f"critique of {s.operator} must be "
                                 f"{'true or false' if uses else 'false'}, not {s.critique!r}")


#: numeric config field -> (integer?, smallest value or None)
_NUMERIC = {"generations": (True, 0), "population": (True, 2), "tournament_k": (True, 1),
            "retry_budget": (True, 1), "sample_budget": (True, None), "seed": (True, None),
            "u_low": (False, None), "u_up": (False, None), "u0": (False, None),
            "mu": (False, None)}


def _is_number(v, integer: bool) -> bool:
    """An integer, or else a real that is finite as a float; not a bool."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral if integer else numbers.Real):
        return False
    return integer or abs(v) <= sys.float_info.max      # exact, so a huge int fails


def config_from_doc(doc: dict) -> EvolutionConfig:
    """Config from a parsed JSON object; ValueError, naming the key, on an
    unknown key or a value of the wrong shape or type."""
    if not isinstance(doc, dict):
        raise ValueError("an evolution config must be a JSON object")
    known = [f.name for f in fields(EvolutionConfig)]
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown evolution config key {key!r}; choose from {known}")
    doc = dict(doc)
    for key in ("strategies", "training_instances"):
        if key in doc:
            if not isinstance(doc[key], list):
                raise ValueError(f"{key} must be a list, not {doc[key]!r}")
            doc[key] = tuple(doc[key])
    keys = {"operator", "parents", "critique"}
    for s in doc.get("strategies", ()):
        if not isinstance(s, dict) or s.keys() != keys:
            raise ValueError(f"a strategy needs exactly the keys {sorted(keys)}, got {s!r}")
    if "strategies" in doc:
        doc["strategies"] = tuple(Strategy(**s) for s in doc["strategies"])
    cfg = EvolutionConfig(**doc)
    cfg.validate()
    return cfg


def load_evolution_config(path) -> EvolutionConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_doc(json.load(fh))


def evaluate_fitness(rule: RuleSpec, instances: Sequence[Instance]) -> float:
    """Mean total tardiness over the instances; exact summation, so the
    result does not depend on evaluation order."""
    values = [total_tardiness(run_dispatch(inst, rule)) for inst in instances]
    return math.fsum(values) / len(values)


def summarize_features(instances: Sequence[Instance], mu: float | None = None) -> str:
    """Fixed statistical digest of a training set (the c^f prompt block).

    Pooled over all instances, so permuting the list changes nothing.
    """
    if not instances:
        raise ValueError("need at least one instance")
    n_asm = [len(x.machines_of(Stage.ASSEMBLY)) for x in instances]
    n_proc = [len(x.machines_of(Stage.PROCESSING)) for x in instances]
    pts: list[float] = []
    flex: list[float] = []
    for x in instances:
        per_stage = {s: len(x.machines_of(s)) for s in Stage}
        for job in x.jobs:
            pts.extend(job.eligible.values())
            flex.append(len(job.eligible) / per_stage[job.kind])
    gaps: list[float] = []
    tightness: list[float] = []
    orders = 0
    jobs = 0
    for x in instances:
        arrivals = sorted(o.arrival for o in x.orders)
        gaps.extend(b - a for a, b in zip(arrivals, arrivals[1:]))
        orders += len(x.orders)
        jobs += x.num_jobs
        for o in x.orders:
            js = [x.job(j) for j in o.job_ids()]
            tightness.append((o.due - o.arrival) / order_lower_bound(js, x.machines))

    def mean(v):
        return math.fsum(v) / len(v) if v else 0.0

    pt_mean = mean(pts)
    pt_sd = math.sqrt(mean([(p - pt_mean) ** 2 for p in pts]))
    lines = [
        f"instances: {len(instances)}; orders per instance: {orders / len(instances):.3f}; "
        f"jobs per order: {jobs / orders:.3f}",
        f"machines: {mean(n_asm):.3f} assembly, {mean(n_proc):.3f} processing",
        f"flexibility (share of same-stage machines a job can use): {mean(flex):.3f}",
        f"processing time per job: mean {pt_mean:.3f}, sd {pt_sd:.3f} minutes",
        f"mean inter-arrival gap: {mean(gaps):.3f} minutes",
        f"due-date tightness (due - arrival over order lower bound): {mean(tightness):.3f}",
        f"load factor: {'unknown' if mu is None else format(mu, '.3f')}",
    ]
    return "\n".join(lines)


def tournament_select(population: Sequence[RuleIndividual], j: int, k: int,
                      rng: np.random.Generator) -> list[RuleIndividual]:
    """j independent size-k tournaments with replacement; lowest fitness wins,
    ties go to the earlier population slot. Parents may repeat."""
    chosen = []
    for _ in range(j):
        idxs = rng.integers(0, len(population), size=k)
        best = min(idxs.tolist(), key=lambda i: (population[i].fitness, i))
        chosen.append(population[best])
    return chosen


class _BudgetExhausted(Exception):
    pass


class _Run:
    """Mutable context of one evolution run: counters, journal, incumbent."""

    def __init__(self, cfg: EvolutionConfig, transport, instances: Sequence[Instance]):
        cfg.validate()
        if not instances:
            raise ValueError("no training instances")
        self.cfg = cfg
        self.transport = transport
        self.instances = list(instances)
        self.rng = np.random.default_rng(cfg.seed)
        self.samples = 0
        self.journal: list[dict] = []
        self.transcripts: list[dict] = []
        self.history: list[tuple[int, float]] = []
        self.features = summarize_features(self.instances, cfg.mu)
        self.population: list[RuleIndividual] = []
        self.incumbent: RuleIndividual | None = None
        self.elite: RuleIndividual | None = None
        self.u0 = cfg.u_low
        self._uid = 0

    def next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def call(self, prompt: str, temperature: float, operator: str, generation: int) -> tuple[str, dict]:
        if self.cfg.sample_budget is not None and self.samples >= self.cfg.sample_budget:
            raise _BudgetExhausted
        response = self.transport.send(prompt, temperature, operator)
        self.samples += 1
        digest = request_digest(prompt, temperature)
        entry = {"generation": generation, "operator": operator,
                 "digest": digest, "temperature": f"{temperature:.6f}",
                 "fitness": None}
        self.journal.append(entry)
        self.transcripts.append({"digest": digest, "operator": operator,
                                 "temperature": f"{temperature:.6f}",
                                 "prompt": prompt, "response": response})
        return response, entry

    def admit(self, indiv: RuleIndividual) -> None:
        if self.incumbent is None or indiv.fitness < self.incumbent.fitness:
            self.incumbent = indiv
        self.history.append((self.samples, self.incumbent.fitness))


def _critique_of(run: _Run, candidate: RuleIndividual,
                 population: Sequence[RuleIndividual], generation: int) -> Critique | None:
    best = min(population, key=lambda r: r.fitness)
    worst = max(population, key=lambda r: r.fitness)
    bundle = PromptBundle(role="Evaluator", operator="Eval", features=run.features,
                          parents=(candidate.as_parent(),),
                          temperature=run.u0, best=best.as_parent(),
                          worst=worst.as_parent())
    prompt = render_evaluator_prompt(bundle)
    response, _ = run.call(prompt, run.u0, "Eval", generation)
    try:
        return extract_critique(response)
    except MissingSection:
        return None


def _generate_candidate(run: _Run, operator: str, parents: list[RuleIndividual],
                        critique: Critique | None, temperature: float,
                        generation: int) -> RuleIndividual | None:
    """One slot: prompt, extract, validate, evaluate; None if every attempt fails."""
    bundle = PromptBundle(role="Generator", operator=operator, features=run.features,
                          parents=tuple(p.as_parent() for p in parents),
                          temperature=temperature, critique=critique)
    prompt = render_generator_prompt(bundle)
    for _ in range(run.cfg.retry_budget):
        response, entry = run.call(prompt, temperature, operator, generation)
        try:
            description, source = extract_individual(response)
            spec = RuleSpec.expression(source, name=f"g{generation}-{run.next_uid()}")
        except (MissingBlock, MultipleBlocks, ValueError):
            continue
        if not validate_rule(spec):
            continue
        try:
            fitness = evaluate_fitness(spec, run.instances)
        except RuleInvalid:
            continue
        entry["fitness"] = fitness
        indiv = RuleIndividual(description, source, spec, fitness, None,
                               generation, operator,
                               tuple(p.uid for p in parents), temperature,
                               uid=run.next_uid())
        run.admit(indiv)
        return indiv
    return None


def _init_population(run: _Run) -> None:
    cfg = run.cfg
    elite_src = builtin_source("EDD")
    elite_spec = RuleSpec.expression(elite_src, name="EDD")
    elite_fit = evaluate_fitness(elite_spec, run.instances)
    elite = RuleIndividual(
        "Earliest due date first; ties go to the machine that finishes the job soonest.",
        elite_src, elite_spec, elite_fit, None, 0, "Elite", (), cfg.u_low,
        uid=run.next_uid())
    run.elite = elite
    run.admit(elite)
    elite.critique = _critique_of(run, elite, [elite], generation=0)

    best_fit, u0 = elite.fitness, cfg.u_low
    for p in range(1, cfg.population + 1):
        u = cfg.u_low + p * (cfg.u_up - cfg.u_low) / cfg.population
        indiv = _generate_candidate(run, "Init", [elite], elite.critique, u, 0)
        if indiv is None:
            indiv = replace(elite, generation=0, operator="EliteCopy",
                            parent_uids=(elite.uid,), temperature=cfg.u_low,
                            uid=run.next_uid())
            run.admit(indiv)
        run.population.append(indiv)
        if indiv.fitness <= best_fit:
            best_fit, u0 = indiv.fitness, indiv.temperature
    run.u0 = cfg.u0 if cfg.u0 is not None else u0


def _evolve_generation(run: _Run, generation: int) -> list[RuleIndividual]:
    cfg = run.cfg
    population = run.population
    offspring: list[RuleIndividual] = []
    for slot in range(cfg.population):
        strat = cfg.strategies[slot % len(cfg.strategies)]
        parents = tournament_select(population, strat.parents, cfg.tournament_k, run.rng)
        critique = None
        if strat.critique:
            critique = _critique_of(run, parents[0], population, generation)
            if critique is None:        # one fresh evaluator retry
                critique = _critique_of(run, parents[0], population, generation)
            parents[0].critique = critique
        indiv = _generate_candidate(run, strat.operator, parents, critique,
                                    run.u0, generation)
        if indiv is None:
            indiv = replace(parents[0], generation=generation, operator="Copy",
                            parent_uids=(parents[0].uid,), temperature=run.u0,
                            uid=run.next_uid())
            run.admit(indiv)
        offspring.append(indiv)
    run.population = offspring
    return offspring


@dataclass
class EvolutionResult:
    best: RuleIndividual
    elite: RuleIndividual
    population: list[RuleIndividual]
    u0: float
    samples: int
    history: list[tuple[int, float]]
    journal: list[dict]
    transcripts: list[dict]
    per_instance: list[float]      # incumbent's tardiness on each training instance
    error: str | None = None        # the TransportError that cut the run short


def _resolve_instances(cfg: EvolutionConfig,
                       instances: Sequence[Instance] | None) -> list[Instance]:
    if instances is not None:
        return list(instances)
    return [load_instance(p) for p in cfg.training_instances]


def run_evolution(cfg: EvolutionConfig, transport,
                  instances: Sequence[Instance] | None = None) -> EvolutionResult:
    """Full run: initialization plus up to ``generations`` rounds, stopping
    early when the LLM sample budget runs out or the transport fails. What
    was already admitted is kept, and a generation cut short leaves the
    previous population whole; a transport failure's text is in ``error``."""
    run = _Run(cfg, transport, _resolve_instances(cfg, instances))
    error = None
    try:
        _init_population(run)
        for g in range(1, cfg.generations + 1):
            _evolve_generation(run, g)
    except _BudgetExhausted:
        pass
    except TransportError as e:
        error = str(e)
    best = run.incumbent if run.incumbent is not None else run.elite
    per_instance = [total_tardiness(run_dispatch(x, best.spec)) for x in run.instances]
    return EvolutionResult(best, run.elite, run.population, run.u0, run.samples,
                           run.history, run.journal, run.transcripts, per_instance, error)
