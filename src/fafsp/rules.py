"""Dispatching-rule interface: nine classical builtins plus expression rules.

Builtins pair a job-selection metric with a machine-assignment metric, each
a program of :mod:`fafsp.expr`, and rank arcs by the lexicographic (job
score, machine score) composite; EDD by itself uses earliest-end-time
machine assignment. Expression rules are single programs. Every program is
evaluated vectorized over all candidate arcs. Lower score dispatches first;
remaining ties break on (job id, machine id), so ranking is a total order
and rollouts are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr
from .expr import Program

BUILTIN_IDS = ("EDD",
               "FIFO+SPT", "FIFO+EET",
               "MOPNR+SPT", "MOPNR+EET",
               "LWKR+SPT", "LWKR+EET",
               "MWKR+SPT", "MWKR+EET")

#: scalar emulation factor used by builtin_source; the encoding is faithful
#: as long as machine scores stay below SCALE times the smallest job-score
#: gap a decision hinges on.
SCALE = 1_000_000


#: job-selection and machine-assignment metrics, as expression text
_JOB_TEXT = {"EDD": "due", "FIFO": "arrival", "MOPNR": "-ops_rem",
             "LWKR": "work_rem", "MWKR": "-work_rem"}
_MACHINE_TEXT = {"SPT": "pt", "EET": "max(avail, now) + setup + pt"}  # EET: earliest end time


def _builtin_texts(rule_id: str) -> tuple[str, str]:
    select, _, assign = rule_id.partition("+")
    return _JOB_TEXT[select], _MACHINE_TEXT[assign or "EET"]


#: builtin id -> (job program, machine program), ranked lexicographically
BUILTINS = {rid: tuple(expr.parse(text) for text in _builtin_texts(rid))
            for rid in BUILTIN_IDS}


class RuleInvalid(RuntimeError):
    """An expression produced a non-finite priority for some arc."""


@dataclass(frozen=True)
class RuleSpec:
    kind: str                       # "builtin" | "expression"
    name: str
    source: str | None = None
    program: Program | None = None

    @property
    def reads(self) -> frozenset[str]:
        """Accessor names the rule reads."""
        if self.kind == "builtin":
            job, machine = BUILTINS[self.name]
            return job.reads | machine.reads
        return self.program.reads

    @staticmethod
    def builtin(rule_id: str) -> "RuleSpec":
        if rule_id not in BUILTIN_IDS:
            raise ValueError(f"unknown builtin rule {rule_id!r}; choose from {BUILTIN_IDS}")
        return RuleSpec("builtin", rule_id)

    @staticmethod
    def expression(source: str, name: str = "expression") -> "RuleSpec":
        return RuleSpec("expression", name, source, expr.parse(source))


def rank_arc_arrays(rule: RuleSpec, fv, jobs: np.ndarray, machs: np.ndarray) -> int:
    """Index of the dispatched arc among the candidates (vectorized path).

    The arcs must be in (job, machine) order. ``argmin`` returns the first
    of tied arcs, which is then the one with the smallest (job id, machine
    id): an expression ranks by its score, a builtin by the machine key
    among the arcs tied on the job key.
    """
    n = len(jobs)
    if n == 0:
        raise ValueError("no arcs to rank")
    if n == 1:
        return 0
    cols = fv.arc_columns(jobs, machs)
    if rule.kind == "builtin":
        job, machine = BUILTINS[rule.name]
        job_key = job.fn(cols)
        ties = np.flatnonzero(job_key == job_key.min())
        return int(ties[machine.fn(cols)[ties].argmin()])
    scores = expr.evaluate(rule.program, cols, n)
    finite = np.isfinite(scores)
    if not finite.all():
        k = int(finite.argmin())                # the first non-finite score
        raise RuleInvalid(f"rule {rule.name!r}: non-finite score {scores[k]} "
                          f"for arc (job {jobs[k]}, machine {machs[k]})")
    return int(scores.argmin())


def rank_arcs(rule: RuleSpec, fv, arcs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Best arc under the rule: argmin by (score, job id, machine id)."""
    arcs = sorted(arcs)
    jobs = np.fromiter((a[0] for a in arcs), dtype=np.int64, count=len(arcs))
    machs = np.fromiter((a[1] for a in arcs), dtype=np.int64, count=len(arcs))
    k = rank_arc_arrays(rule, fv, jobs, machs)
    return (int(jobs[k]), int(machs[k]))


def builtin_source(rule_id: str) -> str:
    """Expression encoding the builtin's decisions as a single scalar:
    job score is scaled by SCALE so it dominates the machine score."""
    if rule_id not in BUILTIN_IDS:
        raise ValueError(f"unknown builtin rule {rule_id!r}")
    job, machine = _builtin_texts(rule_id)
    return f"{job}*{SCALE} + {machine}"


_SMOKE: list | None = None


def smoke_instances() -> list:
    """Three small fixed instances used to vet candidate rules."""
    global _SMOKE
    if _SMOKE is None:
        from .generator import ScenarioConfig, generate_instance
        _SMOKE = [generate_instance(ScenarioConfig(
            m1=1, m2=2, phi=1.0, alpha=2, mu=1.0, n_init=2, seed=s))
            for s in (9001, 9002, 9003)]
    return _SMOKE


def validate_rule(rule, instances=None) -> bool:
    """True iff the rule parses and dispatches the smoke instances to
    completion without a non-finite priority. Termination itself is
    structural (finitely many jobs, non-delay dispatching), so no separate
    step budget is needed."""
    from .sim import run_dispatch

    if isinstance(rule, str):
        try:
            rule = RuleSpec.expression(rule)
        except ValueError:          # covers ParseError and friends
            return False
    for inst in instances if instances is not None else smoke_instances():
        try:
            run_dispatch(inst, rule)
        except RuleInvalid:
            return False
    return True


# -- rule file format ---------------------------------------------------------
#
#   # name: <short name>
#   # description: <free text, one line>
#   # fitness: <float or ->
#   <expression>


@dataclass
class RuleFile:
    name: str
    description: str
    fitness: float | None
    spec: RuleSpec


def save_rule_file(path, spec: RuleSpec, description: str = "",
                   fitness: float | None = None) -> None:
    if spec.kind == "builtin":
        source = builtin_source(spec.name)
    else:
        source = spec.source
    fit = "-" if fitness is None else repr(float(fitness))
    text = (f"# name: {spec.name}\n# description: {description}\n"
            f"# fitness: {fit}\n{source}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_rule_file(path) -> RuleFile:
    name, description, fitness = "rule", "", None
    body: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if stripped.startswith("#"):
                head = stripped.lstrip("#").strip()
                for key in ("name", "description", "fitness"):
                    if head.startswith(key + ":"):
                        value = head[len(key) + 1:].strip()
                        if key == "name":
                            name = value
                        elif key == "description":
                            description = value
                        elif value != "-":
                            fitness = float(value)
            elif stripped:
                body.append(stripped)
    if not body:
        raise ValueError(f"{path}: no expression line")
    return RuleFile(name, description, fitness,
                    RuleSpec.expression(" ".join(body), name=name))
