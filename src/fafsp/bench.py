"""Benchmark grids, relative-improvement tables and trace exports.

A benchmark evaluates a set of rules over replicated instances of each
scenario and reports per-scenario mean/sd tardiness plus aggregate rows:
the grand average per rule, its improvement relative to the worst rule's
average (ARI), and the resulting rank. Exact summation keeps every number
independent of evaluation order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .generator import ScenarioConfig, generate_instance
from .model import (_finite, check_fields, json_lines, load_json, read_document,
                    read_json_lines, read_text, write_text)
from .rules import RuleSpec
from .sim import Schedule, load_schedule, run_dispatch, total_tardiness


def compute_ari(value: float, worst: float) -> float:
    """Relative improvement over the worst method: (worst - value) / worst."""
    if worst <= 0:
        raise ValueError(f"worst must be positive, got {worst}")
    return (worst - value) / worst


def scenario_label(cfg: ScenarioConfig) -> str:
    return f"{cfg.m1}-{cfg.m2}-{cfg.phi:g}-{cfg.alpha}-{cfg.mu:g}"


def default_grid(seed: int = 0, n_init: int = 5) -> list[ScenarioConfig]:
    """24-scenario sweep over machine configuration, flexibility, order count
    and load factor."""
    grid = []
    for m1, m2 in ((3, 6), (5, 12)):
        for phi in (0.5, 0.7):
            for alpha in (20, 50):
                for mu in (1.0, 2.0, 4.0):
                    grid.append(ScenarioConfig(m1=m1, m2=m2, phi=phi, alpha=alpha,
                                               mu=mu, n_init=n_init, seed=seed))
    return grid


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    m = math.fsum(values) / len(values)
    var = math.fsum((v - m) ** 2 for v in values) / len(values)
    return m, math.sqrt(var)


@dataclass
class BenchReport:
    scenarios: list[str]
    rules: list[str]
    mean: dict[tuple[str, str], float]          # (scenario, rule) -> mean tardiness
    sd: dict[tuple[str, str], float]
    scenario_ari: dict[tuple[str, str], float]  # vs the scenario's worst rule
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
    sd: dict[tuple[str, str], float] = {}
    scenario_ari: dict[tuple[str, str], float] = {}
    per_rule_means: dict[str, list[float]] = {r: [] for r in rule_names}

    for cfg, label in zip(scenarios, labels):
        instances = [generate_instance(replace(cfg, seed=cfg.seed + k))
                     for k in range(replications)]
        for rule in rules:
            values = [total_tardiness(run_dispatch(x, rule)) for x in instances]
            m, s = _mean_sd(values)
            mean[(label, rule.name)] = m
            sd[(label, rule.name)] = s
            per_rule_means[rule.name].append(m)
        worst_here = max(mean[(label, r)] for r in rule_names)
        for r in rule_names:
            scenario_ari[(label, r)] = (compute_ari(mean[(label, r)], worst_here)
                                        if worst_here > 0 else 0.0)

    avg = {r: math.fsum(per_rule_means[r]) / len(labels) for r in rule_names}
    worst = max(avg.values())
    ari = {r: compute_ari(avg[r], worst) if worst > 0 else 0.0 for r in rule_names}
    order = sorted(rule_names, key=lambda r: (avg[r], rule_names.index(r)))
    rank = {r: i + 1 for i, r in enumerate(order)}
    return BenchReport(labels, rule_names, mean, sd, scenario_ari, avg, ari, rank)


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


# -- run directory and trace export --------------------------------------------


def write_journal(entries: Sequence[dict], path) -> None:
    write_text(path, json_lines(entries))


def read_journal(path) -> list[dict]:
    """The journal's entries. A line that is not a JSON object, or whose
    fitness is neither a finite number nor null, raises ValueError naming
    the file and the line."""
    entries = []
    for ln, entry in read_json_lines(path):
        fit = entry.get("fitness")
        if fit is not None and not _finite(fit):
            raise ValueError(f"{path} line {ln}: fitness must be a finite number "
                             f"or null, not {fit!r}")
        entries.append(entry)
    return entries


def journal_to_convergence(entries: Sequence[dict]) -> list[tuple[int, float | None]]:
    """(sample index, best fitness so far) with one row per LLM call."""
    rows = []
    best: float | None = None
    for i, e in enumerate(entries, start=1):
        fit = e.get("fitness")
        if fit is not None and (best is None or fit < best):
            best = fit
        rows.append((i, best))
    return rows


def write_convergence(rows: Sequence[tuple[int, float | None]], path) -> None:
    write_text(path, "sample,best_fitness\n" + "".join(
        f"{i},{'' if best is None else repr(best)}\n" for i, best in rows))


def write_per_instance(values: Sequence[float], path) -> None:
    write_text(path, "instance,tardiness\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(values)))


def write_gantt(sched: Schedule, path) -> None:
    """Machine-major arc log, ready for Gantt plotting."""
    rows = sorted(sched.arcs, key=lambda a: (a.machine, a.st, a.job))
    write_text(path, "machine,job,setup,st,ct\n" + "".join(
        f"{a.machine},{a.job},{a.setup!r},{a.st!r},{a.ct!r}\n" for a in rows))


def export_traces(run_dir, out_dir) -> list[str]:
    """Turn a run directory (journal, per-instance table, schedules) into
    plot-ready delimited files; re-exporting is byte-identical. A run
    directory that does not exist raises FileNotFoundError and writes
    nothing."""
    run_dir, out_dir = Path(run_dir), Path(out_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"{run_dir}: no such run directory")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    journal_path = run_dir / "journal.jsonl"
    entries = read_journal(journal_path) if journal_path.exists() else []
    write_convergence(journal_to_convergence(entries), out_dir / "convergence.csv")
    written.append("convergence.csv")

    per_path = run_dir / "per_instance.csv"
    out_per = out_dir / "tardiness.csv"
    if per_path.exists():
        write_text(out_per, read_text(per_path))
    else:
        write_per_instance([], out_per)
    written.append("tardiness.csv")

    sched_dir = run_dir / "schedules"
    if sched_dir.is_dir():
        for name in sorted(os.listdir(sched_dir)):
            sched = load_schedule(sched_dir / name)
            out_name = f"gantt_{Path(name).stem}.csv"
            write_gantt(sched, out_dir / out_name)
            written.append(out_name)
    return written
