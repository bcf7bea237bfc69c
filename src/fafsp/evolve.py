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

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .expr import NodeLimitExceeded, ParseError, UnknownAccessor
from .llm import (CRITIQUE_REQUIRED, PARENT_COUNT, Critique, MissingBlock,
                  MissingSection, MultipleBlocks, TransportError, extract_critique,
                  extract_individual, render_evaluator_prompt, render_generator_prompt,
                  request_digest)
from .model import Instance, Stage, check_fields, load_instance, load_json, read_document
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
    """One evaluated rule; prompts read its description, source and fitness."""

    description: str
    spec: RuleSpec
    fitness: float
    critique: Critique | None = None
    generation: int = 0
    operator: str = ""
    parent_uids: tuple[int, ...] = ()
    temperature: float = 0.0
    uid: int = -1

    @property
    def source(self) -> str:
        return self.spec.source


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
    training_instances: tuple[str | os.PathLike, ...] = ()
    strategies: tuple[Strategy, ...] = DEFAULT_STRATEGIES

    def validate(self) -> None:
        check_fields(self, "config")
        for name, low in (("generations", 0), ("population", 2), ("tournament_k", 1),
                          ("retry_budget", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, not {getattr(self, name)!r}")
        if not self.u_low < self.u_up:
            raise ValueError("need u_low < u_up")
        if not self.strategies:
            raise ValueError("strategy list must be non-empty")
        for s in self.strategies:
            if not isinstance(s, Strategy) or s.operator not in PARENT_COUNT:
                raise ValueError(f"unknown strategy {s!r}; operators are {sorted(PARENT_COUNT)}")
            if s.parents != PARENT_COUNT[s.operator]:
                raise ValueError(f"operator {s.operator} takes {PARENT_COUNT[s.operator]} "
                                 f"parent(s), not {s.parents!r}")
            if s.critique and not CRITIQUE_REQUIRED[s.operator]:
                # C2 and M2 prompts drop a critique
                raise ValueError(f"critique of {s.operator} must be false, not true")


def load_evolution_config(path) -> EvolutionConfig:
    return read_document(EvolutionConfig, load_json(path), f"{path}: config")


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
    gaps: list[float] = []
    tightness: list[float] = []
    orders = 0
    jobs = 0
    for x in instances:
        per_stage = {s: len(x.machines_of(s)) for s in Stage}
        for job in x.jobs:
            pts.extend(job.eligible.values())
            flex.append(len(job.eligible) / per_stage[job.kind])
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


def load_training(cfg: EvolutionConfig,
                  instances: Sequence[Instance] | None = None) -> list[Instance]:
    """The run's training instances: ``instances`` if given, else the
    config's files, opened only once the config validates. ValueError if
    there are none."""
    cfg.validate()          # before a training path is opened
    out = (list(instances) if instances is not None
           else [load_instance(p) for p in cfg.training_instances])
    if not out:
        raise ValueError("no training instances")
    return out


class _Run:
    """Mutable context of one evolution run: counters, journal, incumbent."""

    def __init__(self, cfg: EvolutionConfig, transport, instances: Sequence[Instance] | None):
        self.instances = load_training(cfg, instances)
        self.cfg = cfg
        self.transport = transport
        self.rng = np.random.default_rng(cfg.seed)
        self.samples = 0
        self.journal: list[dict] = []
        self.history: list[tuple[int, float]] = []
        self.outcomes: list[tuple[int, str]] = []
        self.features = summarize_features(self.instances, cfg.mu)
        self.population: list[RuleIndividual] = []
        self.incumbent: RuleIndividual | None = None
        self.elite: RuleIndividual | None = None
        self.u0 = cfg.u_low
        self.uids = itertools.count(1)

    def call(self, prompt: str, temperature: float, operator: str, generation: int) -> tuple[str, int]:
        """The reply and the index of its journal entry."""
        if self.cfg.sample_budget is not None and self.samples >= self.cfg.sample_budget:
            raise _BudgetExhausted
        response = self.transport.send(prompt, temperature, operator)
        self.samples += 1
        self.journal.append({"generation": generation, "operator": operator,
                             "digest": request_digest(prompt, temperature),
                             "temperature": f"{temperature:.6f}", "fitness": None})
        return response, len(self.journal) - 1

    def admit(self, indiv: RuleIndividual) -> None:
        if self.incumbent is None or indiv.fitness < self.incumbent.fitness:
            self.incumbent = indiv
        self.history.append((self.samples, self.incumbent.fitness))


def _critique_of(run: _Run, candidate: RuleIndividual,
                 population: Sequence[RuleIndividual], generation: int) -> Critique | None:
    best = min(population, key=lambda r: r.fitness)
    worst = max(population, key=lambda r: r.fitness)
    prompt = render_evaluator_prompt(run.features, candidate, best, worst)
    response, _ = run.call(prompt, run.u0, "Eval", generation)
    try:
        return extract_critique(response)
    except MissingSection:
        return None


#: exception class -> the outcome of a slot attempt it rejects, subclasses
#: before their bases; any other exception is an ``engine_error``
_REJECTIONS = ((MissingBlock, "no_block"), (MultipleBlocks, "multi_block"),
               (UnknownAccessor, "unknown_accessor"), (ParseError, "parse_error"),
               (NodeLimitExceeded, "node_limit"), (RuleInvalid, "rule_invalid"))


def _rejection(error: Exception) -> str:
    return next((name for cls, name in _REJECTIONS if isinstance(error, cls)), "engine_error")


def _fill_slot(run: _Run, operator: str, parents: list[RuleIndividual],
               critique: Critique | None, temperature: float, generation: int,
               fallback: tuple[str, float]) -> RuleIndividual:
    """One population slot: up to ``retry_budget`` attempts to prompt,
    extract, validate and evaluate a rule, else a copy of ``parents[0]`` with
    the fallback (operator, temperature); the result is admitted. Appends
    (journal index, outcome) per attempt, and ``copy_fallback`` at the last
    attempt's index for a copy, to ``run.outcomes``. Only ``run.call`` raises."""
    prompt = render_generator_prompt(operator, run.features, parents, critique)
    for _ in range(run.cfg.retry_budget):
        response, index = run.call(prompt, temperature, operator, generation)
        try:
            description, source = extract_individual(response)
            spec = RuleSpec.expression(source, name=f"g{generation}-{next(run.uids)}")
            if not validate_rule(spec):
                run.outcomes.append((index, "smoke_invalid"))
                continue
            fitness = evaluate_fitness(spec, run.instances)
        except Exception as error:
            run.outcomes.append((index, _rejection(error)))
            continue
        run.outcomes.append((index, "ok"))
        run.journal[index]["fitness"] = fitness
        indiv = RuleIndividual(description, spec, fitness, None,
                               generation, operator,
                               tuple(p.uid for p in parents), temperature,
                               uid=next(run.uids))
        break
    else:
        run.outcomes.append((index, "copy_fallback"))
        indiv = replace(parents[0], generation=generation, operator=fallback[0],
                        parent_uids=(parents[0].uid,), temperature=fallback[1],
                        uid=next(run.uids))
    run.admit(indiv)
    return indiv


def _init_population(run: _Run) -> None:
    cfg = run.cfg
    elite_spec = RuleSpec.expression(builtin_source("EDD"), name="EDD")
    elite_fit = evaluate_fitness(elite_spec, run.instances)
    elite = RuleIndividual(
        "Earliest due date first; ties go to the machine that finishes the job soonest.",
        elite_spec, elite_fit, None, 0, "Elite", (), cfg.u_low,
        uid=next(run.uids))
    run.elite = elite
    run.admit(elite)
    elite.critique = _critique_of(run, elite, [elite], generation=0)

    best_fit, u0 = elite.fitness, cfg.u_low
    for p in range(1, cfg.population + 1):
        u = cfg.u_low + p * (cfg.u_up - cfg.u_low) / cfg.population
        indiv = _fill_slot(run, "Init", [elite], elite.critique, u, 0,
                           ("EliteCopy", cfg.u_low))
        run.population.append(indiv)
        if indiv.fitness <= best_fit:
            best_fit, u0 = indiv.fitness, indiv.temperature
    run.u0 = cfg.u0 if cfg.u0 is not None else u0


def _evolve_generation(run: _Run, generation: int) -> None:
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
        offspring.append(_fill_slot(run, strat.operator, parents, critique,
                                    run.u0, generation, ("Copy", run.u0)))
    run.population = offspring


@dataclass
class EvolutionResult:
    best: RuleIndividual
    elite: RuleIndividual
    population: list[RuleIndividual]
    u0: float
    samples: int
    history: list[tuple[int, float]]
    journal: list[dict]
    outcomes: list[tuple[int, str]]  # (journal index, outcome) per slot attempt and copy
    per_instance: list[float]      # incumbent's tardiness on each training instance
    error: str | None = None        # the TransportError that cut the run short


def run_evolution(cfg: EvolutionConfig, transport,
                  instances: Sequence[Instance] | None = None) -> EvolutionResult:
    """Full run: initialization plus up to ``generations`` rounds, stopping
    early when the LLM sample budget runs out or the transport fails. What
    was already admitted is kept, and a generation cut short leaves the
    previous population whole; a transport failure's text is in ``error``."""
    run = _Run(cfg, transport, instances)
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
                           run.history, run.journal, run.outcomes,
                           per_instance, error)
