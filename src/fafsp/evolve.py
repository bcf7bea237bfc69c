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
from .llm import (OPERATORS, Critique, MissingBlock, MissingSection, MultipleBlocks,
                  TransportError, extract_critique, extract_individual,
                  render_evaluator_prompt, render_generator_prompt, request_digest)
from .model import Instance, Stage, check_fields, load_instance, load_json, read_document
from .generator import order_lower_bound
from .rules import RuleInvalid, RuleSpec, builtin_source, validate_rule
from .sim import run_dispatch, total_tardiness


@dataclass
class RuleIndividual:
    """One evaluated rule; prompts read its description, source and fitness."""

    description: str
    spec: RuleSpec
    fitness: float
    critique: Critique | None = None
    operator: str = ""
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
    strategies: tuple[str, ...] = ("C1", "C2", "M1", "M2")    # names in llm.OPERATORS

    def validate(self) -> None:
        check_fields(self, "config")
        for name, low in (("generations", 0), ("population", 2), ("tournament_k", 1),
                          ("retry_budget", 1), ("seed", 0), ("sample_budget", 0),
                          ("u_low", 0), ("u0", 0)):
            if (value := getattr(self, name)) is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, not {value!r}")
        if self.mu is not None and self.mu <= 0:
            raise ValueError(f"mu must be > 0, not {self.mu!r}")
        if not self.u_low < self.u_up:
            raise ValueError("need u_low < u_up")
        if not self.strategies:
            raise ValueError("strategy list must be non-empty")
        for s in self.strategies:
            if s not in OPERATORS:
                raise ValueError(f"unknown strategy {s!r}; operators are {sorted(OPERATORS)}")


def load_evolution_config(path) -> EvolutionConfig:
    return read_document(EvolutionConfig, load_json(path), f"{path}: config")


def evaluate_fitness(rule: RuleSpec, instances: Sequence[Instance]) -> float:
    """Mean total tardiness over the instances; exact summation, so the
    result does not depend on evaluation order."""
    values = [total_tardiness(run_dispatch(inst, rule)) for inst in instances]
    return math.fsum(values) / len(values)


def summarize_features(instances: Sequence[Instance], mu: float | None = None) -> str:
    """Fixed statistical digest of a training set (the c^f prompt block).

    Pooled over all instances, so permuting the list changes nothing. An
    order whose lower bound is zero (its times are all zero) has no
    due-date tightness and is left out of that mean. Any set of valid
    instances is described: a mean or deviation whose plain sum or square
    would pass the largest float is taken in scaled terms.
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
            bound = order_lower_bound([x.job(j) for j in o.job_ids()], x.machines)
            if bound > 0:
                tightness.append((o.due - o.arrival) / bound)

    def mean(v):
        try:
            return math.fsum(v) / len(v) if v else 0.0
        except OverflowError:       # the sum passes the largest float; the mean does not
            return math.fsum(x / len(v) for x in v)

    pt_mean = mean(pts)
    try:
        pt_sd = math.sqrt(mean([(p - pt_mean) ** 2 for p in pts]))
    except OverflowError:           # a squared deviation passes the largest float
        top = max(pts)
        pt_sd = top * math.sqrt(mean([((p - pt_mean) / top) ** 2 for p in pts]))
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
                  instances: Sequence[Instance] | None = None) -> tuple[list[Instance], str]:
    """The run's training instances, ``instances`` if given, else the
    config's files, opened only once the config validates, and their
    feature digest (``summarize_features``). ValueError if there are none.
    ``fafsp evolve`` calls it before it touches the run directory."""
    cfg.validate()          # before a training path is opened
    out = (list(instances) if instances is not None
           else [load_instance(p) for p in cfg.training_instances])
    if not out:
        raise ValueError("no training instances")
    return out, summarize_features(out, cfg.mu)


class _Run:
    """Mutable context of one evolution run: journal, outcomes, incumbent."""

    def __init__(self, cfg: EvolutionConfig, transport, instances: Sequence[Instance] | None):
        self.instances, self.features = load_training(cfg, instances)
        self.cfg = cfg
        self.transport = transport
        self.rng = np.random.default_rng(cfg.seed)
        self.journal: list[dict] = []       # one entry per LLM call
        self.outcomes: list[tuple[int, str]] = []
        self.population: list[RuleIndividual] = []
        self.incumbent: RuleIndividual | None = None
        self.elite: RuleIndividual | None = None
        self.u0 = cfg.u_low
        self.uids = itertools.count(1)

    def call(self, prompt: str, temperature: float, operator: str, generation: int) -> tuple[str, int]:
        """The reply and the index of its journal entry."""
        if self.cfg.sample_budget is not None and len(self.journal) >= self.cfg.sample_budget:
            raise _BudgetExhausted
        response = self.transport.send(prompt, temperature, operator)
        self.journal.append({"generation": generation, "operator": operator,
                             "digest": request_digest(prompt, temperature),
                             "temperature": f"{temperature:.6f}", "fitness": None})
        return response, len(self.journal) - 1

    def admit(self, indiv: RuleIndividual) -> None:
        if self.incumbent is None or indiv.fitness < self.incumbent.fitness:
            self.incumbent = indiv


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
        indiv = RuleIndividual(description, spec, fitness, None, operator, temperature,
                               uid=next(run.uids))
        break
    else:
        run.outcomes.append((index, "copy_fallback"))
        indiv = replace(parents[0], operator=fallback[0], temperature=fallback[1],
                        uid=next(run.uids))
    run.admit(indiv)
    return indiv


def _init_population(run: _Run) -> None:
    cfg = run.cfg
    elite_spec = RuleSpec.expression(builtin_source("EDD"), name="EDD")
    elite_fit = evaluate_fitness(elite_spec, run.instances)
    elite = RuleIndividual(
        "Earliest due date first; ties go to the machine that finishes the job soonest.",
        elite_spec, elite_fit, None, "Elite", cfg.u_low, uid=next(run.uids))
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
        name = cfg.strategies[slot % len(cfg.strategies)]
        op = OPERATORS[name]
        parents = tournament_select(population, op.parents, cfg.tournament_k, run.rng)
        critique = None
        if op.critique:
            critique = _critique_of(run, parents[0], population, generation)
            if critique is None:        # one fresh evaluator retry
                critique = _critique_of(run, parents[0], population, generation)
            parents[0].critique = critique
        offspring.append(_fill_slot(run, name, parents, critique,
                                    run.u0, generation, ("Copy", run.u0)))
    run.population = offspring


@dataclass
class EvolutionResult:
    best: RuleIndividual
    elite: RuleIndividual
    population: list[RuleIndividual]
    u0: float
    journal: list[dict]            # one entry per LLM call
    outcomes: list[tuple[int, str]]  # (journal index, outcome) per slot attempt and copy
    per_instance: list[float]      # incumbent's tardiness on each training instance
    error: str | None = None        # the TransportError that cut the run short

    @property
    def samples(self) -> int:
        return len(self.journal)


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
    best = run.incumbent            # the elite is admitted before the first call
    per_instance = [total_tardiness(run_dispatch(x, best.spec)) for x in run.instances]
    return EvolutionResult(best, run.elite, run.population, run.u0, run.journal,
                           run.outcomes, per_instance, error)
