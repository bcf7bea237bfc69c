"""Benchmark grids and relative-improvement tables.

A benchmark evaluates a set of rules over replicated instances of each
scenario and reports per-scenario mean tardiness plus aggregate rows: the
grand average per rule, its improvement relative to the worst rule's
average (ARI), and the resulting rank. Exact summation keeps every number
independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .generator import ScenarioConfig, generate_instance
from .model import check_fields, load_json, read_document
from .rules import RuleSpec
from .rundir import write_journal  # noqa: F401 -- perfbench/workloads.py imports it from here
from .sim import run_dispatch, total_tardiness


def compute_ari(value: float, worst: float) -> float:
    """Relative improvement over the worst method: (worst - value) / worst."""
    if worst <= 0:
        raise ValueError(f"worst must be positive, got {worst}")
    return (worst - value) / worst


def scenario_label(cfg: ScenarioConfig) -> str:
    return f"{cfg.m1}-{cfg.m2}-{cfg.phi:g}-{cfg.alpha}-{cfg.mu:g}"


def default_grid() -> list[ScenarioConfig]:
    """24-scenario sweep over machine configuration, flexibility, order count
    and load factor."""
    grid = []
    for m1, m2 in ((3, 6), (5, 12)):
        for phi in (0.5, 0.7):
            for alpha in (20, 50):
                for mu in (1.0, 2.0, 4.0):
                    grid.append(ScenarioConfig(m1=m1, m2=m2, phi=phi, alpha=alpha, mu=mu))
    return grid


@dataclass
class BenchReport:
    scenarios: list[str]
    rules: list[str]
    mean: dict[tuple[str, str], float]          # (scenario, rule) -> mean tardiness
    avg: dict[str, float]                       # rule -> grand average
    ari: dict[str, float]                       # rule -> ARI on the Avg row
    rank: dict[str, int]                        # 1 = best average

    def to_text(self) -> str:
        width = max(12, *(len(r) + 2 for r in self.rules))
        head = "scenario".ljust(24) + "".join(r.rjust(width) for r in self.rules)
        lines = [head]
        for s in self.scenarios:
            cells = "".join(f"{self.mean[(s, r)]:.2f}".rjust(width) for r in self.rules)
            lines.append(s.ljust(24) + cells)
        lines.append("Avg.".ljust(24)
                     + "".join(f"{self.avg[r]:.2f}".rjust(width) for r in self.rules))
        lines.append("ARI".ljust(24)
                     + "".join(f"{100 * self.ari[r]:.2f}%".rjust(width) for r in self.rules))
        lines.append("Rank".ljust(24)
                     + "".join(str(self.rank[r]).rjust(width) for r in self.rules))
        return "\n".join(lines) + "\n"


def run_benchmark(scenarios: Sequence[ScenarioConfig], rules: Sequence[RuleSpec],
                  replications: int) -> BenchReport:
    """Evaluate every rule on every replicated instance of every scenario.

    Replication k of a scenario regenerates it with seed + k, so the whole
    report is a pure function of (scenarios, rules, replications).
    """
    _Grid(tuple(scenarios), replications).validate()
    if not rules:
        raise ValueError("the rule list is empty")
    labels = [scenario_label(s) for s in scenarios]
    rule_names = [r.name for r in rules]
    mean: dict[tuple[str, str], float] = {}
    per_rule_means: dict[str, list[float]] = {r: [] for r in rule_names}

    for cfg, label in zip(scenarios, labels):
        instances = [generate_instance(replace(cfg, seed=cfg.seed + k))
                     for k in range(replications)]
        for rule in rules:
            values = [total_tardiness(run_dispatch(x, rule)) for x in instances]
            m = math.fsum(values) / len(values)
            mean[(label, rule.name)] = m
            per_rule_means[rule.name].append(m)

    avg = {r: math.fsum(per_rule_means[r]) / len(labels) for r in rule_names}
    worst = max(avg.values())
    ari = {r: compute_ari(avg[r], worst) if worst > 0 else 0.0 for r in rule_names}
    order = sorted(rule_names, key=lambda r: (avg[r], rule_names.index(r)))
    rank = {r: i + 1 for i, r in enumerate(order)}
    return BenchReport(labels, rule_names, mean, avg, ari, rank)


@dataclass
class _Grid:
    """A grid file: {"scenarios": [scenario objects], "replications": n}."""

    scenarios: tuple[ScenarioConfig, ...]
    replications: int = 20

    def validate(self) -> None:
        check_fields(self, "grid")
        if not self.scenarios:
            raise ValueError("scenarios must be a non-empty list")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, not {self.replications!r}")


def load_grid(path) -> tuple[list[ScenarioConfig], int]:
    """The grid file's scenarios and replication count (20 if absent)."""
    grid = read_document(_Grid, load_json(path), f"{path}: grid")
    return list(grid.scenarios), grid.replications
