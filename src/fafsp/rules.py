"""Dispatching rules: nine classical builtins plus expression rules.

A rule ranks arcs by its program, lowest first. A builtin pairs a
job-selection metric (the program) with a machine-assignment metric (the
tie-break), each a program of :mod:`fafsp.expr`, and ranks arcs by the
lexicographic (job score, machine score) composite; EDD by itself uses
earliest-end-time machine assignment. Every program is evaluated vectorized
over all candidate arcs. Remaining ties break on (job id, machine id), so
ranking is a total order and rollouts are reproducible.

This module imports the engine, :mod:`fafsp.sim`, and re-exports its
``RuleInvalid``; the engine imports nothing from here.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr, sim
from .expr import Program
from .generator import ScenarioConfig, generate_instance
from .model import _decimal, read_text, write_text
from .sim import RuleInvalid, _pair_indices, build_chooser

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


@dataclass(frozen=True)
class RuleSpec:
    """Arcs rank by ``program``, lowest first, and arcs tied on it by
    ``tie_break``, which only builtins set."""

    name: str
    source: str
    program: Program
    tie_break: Program | None = None

    @functools.cached_property
    def chooser(self) -> Callable:
        """The rule's chooser, code generated once per rule and kept on it
        (``sim.build_chooser``): ``chooser(state, rule)`` is the function
        from a decision's arcs, as pair indices, to the index of the arc
        the rule dispatches in a rollout of ``state``."""
        return build_chooser(self.program, self.tie_break)

    def __reduce__(self):               # the generated chooser does not pickle
        return RuleSpec, (self.name, self.source, self.program, self.tie_break)

    @staticmethod
    def builtin(rule_id: str) -> "RuleSpec":
        if rule_id not in BUILTIN_IDS:
            raise ValueError(f"unknown builtin rule {rule_id!r}; choose from {BUILTIN_IDS}")
        return BUILTINS[rule_id]

    @staticmethod
    def expression(source: str, name: str = "expression") -> "RuleSpec":
        return RuleSpec(name, source, expr.parse(source))


def rank_arc_arrays(rule: RuleSpec, fv, jobs: np.ndarray, machs: np.ndarray) -> int:
    """Index of the dispatched arc among the candidate (job, machine) arcs,
    which must be in (job, machine) order, at the state of the FeatureView
    ``fv``: the step API's ranking. It maps every arc to its pair index
    (``sim._pair_indices``, which raises InfeasibleArcError for an arc it
    cannot map) and calls the rule's generated chooser
    (``RuleSpec.chooser``), as a rollout does, under the same quiet numpy
    error state: the same arc, or the same RuleInvalid naming the same arc.
    The chooser of a dispatch-invariant rule returns a ranking, whose head
    is that arc.
    """
    if len(jobs) == 0:
        raise ValueError("no arcs to rank")
    state = fv._s
    k = _pair_indices(state.t, jobs, machs)
    with np.errstate(all="ignore"):
        pick = rule.chooser(state, rule)(k)
    return int(pick[0] if type(pick) is np.ndarray else pick)


def builtin_source(rule_id: str) -> str:
    """Expression encoding the builtin's decisions as a single scalar:
    job score is scaled by SCALE so it dominates the machine score."""
    return RuleSpec.builtin(rule_id).source


def _builtin(rule_id: str) -> RuleSpec:
    select, _, assign = rule_id.partition("+")
    job, machine = _JOB_TEXT[select], _MACHINE_TEXT[assign or "EET"]
    return RuleSpec(rule_id, f"{job}*{SCALE} + {machine}", expr.parse(job), expr.parse(machine))


#: builtin id -> its rule, ranked lexicographically by (job, machine) key
BUILTINS = {rid: _builtin(rid) for rid in BUILTIN_IDS}


@functools.cache
def smoke_instances() -> list:
    """Three small fixed instances used to vet candidate rules."""
    return [generate_instance(ScenarioConfig(
        m1=1, m2=2, phi=1.0, alpha=2, mu=1.0, n_init=2, seed=s))
        for s in (9001, 9002, 9003)]


def validate_rule(rule) -> bool:
    """True iff the rule parses and dispatches the smoke instances to
    completion without a non-finite priority. Termination itself is
    structural (finitely many jobs, non-delay dispatching), so no separate
    step budget is needed."""
    if isinstance(rule, str):
        try:
            rule = RuleSpec.expression(rule)
        except ValueError:          # covers ParseError and friends
            return False
    for inst in smoke_instances():
        try:
            sim.run_dispatch(inst, rule)    # looked up per call, so it can be patched
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
    description: str
    fitness: float | None
    spec: RuleSpec


#: the line ends that load_rule_file splits on, after universal newlines
_LINE_BREAK = re.compile(r"\r\n?|\n")


def save_rule_file(path, spec: RuleSpec, description: str = "",
                   fitness: float | None = None) -> None:
    """Write the rule file; a line break in the name or description (CR,
    LF or CRLF, the ends the reader splits on) is written as a space, so
    each stays on its header line."""
    fit = "-" if fitness is None else repr(float(fitness))
    name, description = (_LINE_BREAK.sub(" ", text) for text in (spec.name, description))
    write_text(path, f"# name: {name}\n# description: {description}\n"
                     f"# fitness: {fit}\n{spec.source}\n")


def load_rule_file(path) -> RuleFile:
    """The rule file's header fields and rule; text that is not UTF-8 or a
    fitness that is not a finite number raises ValueError naming the file."""
    name, description, fitness = "rule", "", None
    body: list[str] = []
    for ln, line in enumerate(read_text(path).split("\n"), start=1):
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
                        try:
                            fitness = _decimal(value)
                        except ValueError:
                            raise ValueError(f"{path} line {ln}: fitness {value!r} "
                                             "is not a number") from None
        elif stripped:
            body.append(stripped)
    if not body:
        raise ValueError(f"{path}: no expression line")
    return RuleFile(description, fitness, RuleSpec.expression(" ".join(body), name=name))
