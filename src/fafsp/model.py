"""Problem data model for the dual-kitting flexible assembly flow shop.

An instance nests orders -> products -> jobs. Every product owns a set of
processing jobs plus exactly one assembly job; the assembly job may start
only after all of its product's processing jobs are finished, and an order
is delivered once all of its assembly jobs are finished. Machines belong to
one of two stages and a job is qualified on a machine iff it carries a
processing-time entry for it. Sequence-dependent setup times live in one
matrix whose first row is the virtual "nothing processed yet" predecessor.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import re
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
import numpy as np


#: caps on outside input, each stated with the memory it implies. MAX_JOBS
#: bounds the jobs of an instance file: its dense (J+1) x J float setup
#: matrix takes 8(J+1)J bytes, about 200 MB at the cap
MAX_JOBS = 5_000


class Stage(str, Enum):
    PROCESSING = "processing"
    ASSEMBLY = "assembly"


class DocumentError(ValueError):
    """An outside JSON document that is malformed; the message names the file
    and the JSON path of the offending value."""


@dataclass(frozen=True)
class Machine:
    id: int
    stage: Stage


@dataclass(frozen=True)
class Product:
    id: int
    assembly_job_id: int
    processing_job_ids: tuple[int, ...]


@dataclass(frozen=True)
class Order:
    id: int
    arrival: float
    due: float
    products: tuple[Product, ...]

    def job_ids(self) -> list[int]:
        out: list[int] = []
        for p in self.products:
            out.extend(p.processing_job_ids)
            out.append(p.assembly_job_id)
        return out


@dataclass(frozen=True)
class Job:
    """One processing or assembly task.

    ``eligible`` maps machine id to processing time in minutes; a machine is
    qualified iff it has an entry. ``predecessors`` is empty for processing
    jobs and equals the product's processing jobs for assembly jobs.
    """

    id: int
    kind: Stage
    order_id: int
    product_id: int
    predecessors: frozenset[int]
    eligible: dict[int, float]


@dataclass
class Instance:
    """Immutable-by-convention problem instance; safe to share between rollouts."""

    machines: tuple[Machine, ...]
    orders: tuple[Order, ...]
    jobs: tuple[Job, ...]
    # setup[0, j] is the virtual predecessor row (all zeros); setup[1 + j1, j2]
    # is the changeover from job j1 to job j2, in minutes.
    setup: np.ndarray

    _job_index: dict[int, Job] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._job_index = {j.id: j for j in self.jobs}

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    def job(self, job_id: int) -> Job:
        return self._job_index[job_id]

    def machines_of(self, stage: Stage) -> list[Machine]:
        return [m for m in self.machines if m.stage == stage]

    def setup_time(self, prev_job_id: int | None, job_id: int) -> float:
        """Changeover before ``job_id`` when ``prev_job_id`` ran last (None = fresh machine)."""
        row = 0 if prev_job_id is None else prev_job_id + 1
        return float(self.setup[row, job_id])


def _machine_faults(jobs, stage_of: dict) -> list[str]:
    """Each job's faults in its eligible machines and processing times, in
    job order, one machine at a time."""
    out = []
    for j in jobs:
        if not j.eligible:
            out.append(f"job {j.id}: no eligible machine")
        for m, pt in j.eligible.items():
            if m not in stage_of:
                out.append(f"job {j.id}: unknown machine {m}")
            elif stage_of[m] != j.kind:
                out.append(f"stage mismatch job {j.id} machine {m}")
            if pt < 0 or not math.isfinite(pt):
                out.append(f"job {j.id}: processing time {pt} on machine {m}")
    return out


def check_instance(inst: Instance) -> list[str]:
    """Return a list of human-readable invariant violations (empty = valid).

    The checks take one pass over the orders and one over the jobs, each
    gathering two kinds of violation, listed nesting first, then kits, then
    machines. A job's eligible machines and times are first tested at once
    and only read one by one, to name each fault, when that test fails."""
    out: list[str] = []
    machines, orders, jobs = inst.machines, inst.orders, inst.jobs

    mach_ids = [m.id for m in machines]
    if sorted(mach_ids) != list(range(len(mach_ids))):
        out.append(f"machine ids not dense 0..{len(mach_ids) - 1}: {sorted(mach_ids)}")
    for stage in Stage:
        if not any(m.stage == stage for m in machines):
            out.append(f"no {stage.value} machine")
    stage_of = {m.id: m.stage for m in machines}

    if not orders:
        out.append("no orders")
    order_ids = [o.id for o in orders]
    if sorted(order_ids) != list(range(len(order_ids))):
        out.append(f"order ids not dense 0..{len(order_ids) - 1}")

    job_ids = [j.id for j in jobs]
    if sorted(job_ids) != list(range(len(job_ids))):
        out.append(f"job ids not dense 0..{len(job_ids) - 1}")
    index = inst._job_index                         # job id -> job
    isfinite = math.isfinite
    PROCESSING, ASSEMBLY = Stage.PROCESSING, Stage.ASSEMBLY     # an enum member read is slow

    # orders -> products -> jobs must partition the job set, each product
    # listing its kit and then its assembly job; each job's kind and
    # predecessors must fit its place, and those faults are listed later
    kits: list[str] = []
    seen: dict[int, tuple[int, int]] = {}
    for o in orders:
        oid, arrival, due = o.id, o.arrival, o.due
        if not isfinite(arrival):
            out.append(f"order {oid}: arrival {arrival} is not finite")
        if not isfinite(due):
            out.append(f"order {oid}: due {due} is not finite")
        if arrival < 0:
            out.append(f"order {oid}: arrival < 0")
        if due < arrival:
            out.append(f"order {oid}: due {due} before arrival {arrival}")
        if not o.products:
            out.append(f"order {oid}: no products")
        for p in o.products:
            pid, kit, a = p.id, p.processing_job_ids, p.assembly_job_id
            if not kit:
                out.append(f"assembly without kit: product {pid} (order {oid})")
            owner = (oid, pid)
            asm = index.get(a)
            if asm is not None:
                if asm.kind != ASSEMBLY:
                    kits.append(f"product {pid}: assembly_job {a} is a {asm.kind.value} job")
                if asm.predecessors != frozenset(kit):
                    kits.append(f"job {a}: predecessors differ from product {pid} kit")
            for j in kit:
                job = index.get(j)
                if job is None:
                    out.append(f"order {oid}: unknown job {j}")
                    continue
                if j in seen:
                    out.append(f"job {j} claimed by two products ({seen[j][1]} and {pid})")
                else:
                    seen[j] = owner
                if job.kind != PROCESSING:
                    kits.append(f"product {pid}: kit job {j} is a {job.kind.value} job")
                if job.predecessors:
                    kits.append(f"processing job {j} has predecessors")
            if asm is None:
                out.append(f"order {oid}: unknown job {a}")
            elif a in seen:
                out.append(f"job {a} claimed by two products ({seen[a][1]} and {pid})")
            else:
                seen[a] = owner

    # each job's nesting ids, and whether all its eligible machines are of
    # its stage; its processing times are tested with all the others' and
    # its longest one feeds the horizon below
    proc_ids, asm_ids = ({m for m, s in stage_of.items() if s == stage}
                         for stage in (PROCESSING, ASSEMBLY))
    fits, times, longest = True, [], []
    for j in jobs:
        jid, kind, eligible = j.id, j.kind, j.eligible
        owner = seen.get(jid)
        if owner is None:
            out.append(f"job {jid} belongs to no product")
        elif j.order_id != owner[0] or j.product_id != owner[1]:
            out.append(f"job {jid}: order/product ids {j.order_id}/{j.product_id} "
                       f"disagree with nesting {owner[0]}/{owner[1]}")
        if not eligible:
            fits = False
            continue
        times += eligible.values()
        longest.append(max(eligible.values()))
        fits = fits and eligible.keys() <= (proc_ids if kind == PROCESSING else
                                            asm_ids if kind == ASSEMBLY else set())
    out += kits
    # a NaN or infinite time makes the sum NaN or infinite, and a negative
    # one is the least unless there is a NaN
    if not (fits and min(times, default=0.0) >= 0 and isfinite(sum(times))):
        out += _machine_faults(jobs, stage_of)

    n = len(jobs)
    setup = inst.setup
    if setup.shape != (n + 1, n):
        out.append(f"setup shape {setup.shape} != {(n + 1, n)}")
    else:
        if np.any(setup[0] != 0):
            out.append("setup: virtual row not all zero")
        # NaN spreads through both reductions: with both finite, every
        # entry is, and the minimum says whether one is negative
        into = setup.max(axis=0)                        # the largest setup into each job
        least = setup.min(initial=0.0)
        finite = isfinite(least) and np.isfinite(into).all()
        if (least < 0) if finite else np.any(setup < 0):
            out.append("setup < 0")
        if not finite:
            i, j = np.argwhere(~np.isfinite(setup))[0]
            out.append(f"setup[{i}, {j}] = {setup[i, j]} is not finite")

    if not out:
        # no completion time passes the horizon, and no sum of order
        # tardiness passes (orders + 1) x horizon: both must be finite
        into = into.tolist()
        horizon = max(o.arrival for o in orders) + sum(
            [top + into[jid] for top, jid in zip(longest, job_ids)])
        if not isfinite((len(orders) + 1) * horizon):
            out.append(f"horizon {horizon} times {len(orders) + 1} (orders + 1) is not finite")
    return out


# -- instance file format ---------------------------------------------------
#
# UTF-8 JSON with top-level keys machines / orders / jobs / setup. Canonical
# form sorts every list by id and every mapping by key, so saving the same
# instance twice yields byte-identical files. ``setup`` is either the dense
# (J+1) x J matrix (first row = virtual predecessor) or
# {"default": x, "overrides": [[j1, j2, value], ...]} with job ids only.


def instance_to_doc(inst: Instance) -> dict:
    """Plain-dict form of an instance (canonical ordering)."""
    return {
        "machines": [{"id": m.id, "stage": m.stage.value}
                     for m in sorted(inst.machines, key=lambda m: m.id)],
        "orders": [
            {
                "id": o.id,
                "arrival": float(o.arrival),
                "due": float(o.due),
                "products": [
                    {
                        "id": p.id,
                        "assembly_job": p.assembly_job_id,
                        "processing_jobs": sorted(p.processing_job_ids),
                    }
                    for p in sorted(o.products, key=lambda p: p.id)
                ],
            }
            for o in sorted(inst.orders, key=lambda o: o.id)
        ],
        "jobs": [
            {
                "id": j.id,
                "kind": j.kind.value,
                "eligible": {str(m): float(pt) for m, pt in sorted(j.eligible.items())},
            }
            for j in sorted(inst.jobs, key=lambda j: j.id)
        ],
        "setup": [[float(v) for v in row] for row in inst.setup],
    }


def _key_id(key: str) -> int:
    """An id written as text (a JSON object key, a schedule field): exactly
    the plain text of an integer."""
    value = int(key)
    if str(value) != key:
        raise ValueError("expected the plain text of an integer id")
    return value


_DECIMAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _decimal(text: str) -> float:
    """A finite number written as ASCII decimal text: an optional sign,
    digits, an optional fraction and an optional exponent."""
    if not (_DECIMAL.fullmatch(text) and _finite(value := float(text))):
        raise ValueError(f"expected a finite decimal number, not {text!r}")
    return value


@dataclass
class _ProductDoc:
    id: int
    assembly_job: int
    processing_jobs: tuple[int, ...]


@dataclass
class _OrderDoc:
    id: int
    arrival: float
    due: float
    products: tuple[_ProductDoc, ...]


@dataclass
class _JobDoc:
    id: int
    kind: Stage
    eligible: dict[int, float]


@dataclass
class _SetupDoc:
    default: float
    overrides: tuple[tuple[int, int, float], ...] = ()    # [from job, to job, minutes]


@dataclass
class _InstanceDoc:
    machines: tuple[Machine, ...]       # its stage read as text
    orders: tuple[_OrderDoc, ...]
    jobs: tuple[_JobDoc, ...]
    setup: dict | tuple                 # a _SetupDoc, or the dense rows


def _setup_matrix(setup, n: int, path: str) -> np.ndarray:
    """The (n + 1) x n matrix of a document's ``setup``."""
    if isinstance(setup, dict):
        sparse = read_document(_SetupDoc, setup, path)
        matrix = np.full((n + 1, n), float(sparse.default))
        matrix[0] = 0.0
        for k, (j1, j2, minutes) in enumerate(sparse.overrides):
            if not (0 <= j1 < n and 0 <= j2 < n):
                raise DocumentError(f"{path}.overrides[{k}]: job ids must lie in "
                                    f"0..{n - 1}, not {j1} and {j2}")
            matrix[j1 + 1, j2] = minutes
        return matrix
    # JSON numbers parse to int or float: a C-speed type scan clears a row,
    # where a _read per value would take seconds; check_instance reports a
    # NaN or infinite entry and a wrong shape
    if not all(isinstance(row, list) and set(map(type, row)) <= {int, float} for row in setup):
        _read(tuple[tuple[float, ...], ...], setup, path)   # raises, naming the value
    try:
        return np.array(setup, dtype=float)
    except (OverflowError, ValueError):             # an integer past the float range; ragged rows
        raise DocumentError(f"{path} must be {n + 1} rows of {n} finite numbers") from None


def instance_from_doc(doc, label: str = "instance") -> Instance:
    """Build and fully check an Instance from its parsed JSON form; a
    malformed document raises DocumentError naming ``label`` and the JSON
    path, as ``read_document`` does, or listing check_instance's violations.
    The instance is marked checked (``_checked``), so the rollout engine,
    which checks every instance it builds tables for, does not check it twice."""
    jobs = doc.get("jobs") if isinstance(doc, dict) else None
    if isinstance(jobs, list) and len(jobs) > MAX_JOBS:   # before any record or the setup matrix
        raise DocumentError(f"{label}.jobs: {len(jobs)} jobs exceed the cap of {MAX_JOBS}")
    read = read_document(_InstanceDoc, doc, label)
    owner = {}                          # job id -> (order id, product id, predecessors)
    for o in read.orders:
        for p in o.products:
            owner[p.assembly_job] = (o.id, p.id, frozenset(p.processing_jobs))
            owner.update((j, (o.id, p.id, frozenset())) for j in p.processing_jobs)
    orders = [Order(o.id, o.arrival, o.due, tuple(
        Product(p.id, p.assembly_job, p.processing_jobs) for p in o.products)) for o in read.orders]
    # a job that no product claims has no owner, and check_instance names it
    jobs = [Job(j.id, Stage(j.kind), *owner.get(j.id, (-1, -1, frozenset())), j.eligible)
            for j in read.jobs]
    inst = Instance(tuple(Machine(m.id, Stage(m.stage)) for m in read.machines),
                    tuple(sorted(orders, key=lambda o: o.id)),
                    tuple(sorted(jobs, key=lambda j: j.id)),
                    _setup_matrix(read.setup, len(jobs), f"{label}.setup"))
    if violations := check_instance(inst):
        raise DocumentError(f"{label}: " + "; ".join(violations))
    inst.__dict__["_checked"] = True    # a rollout's tables need not check it again
    return inst


def save_instance(inst: Instance, path) -> None:
    """Write the canonical JSON form; refuses instances that fail check_instance."""
    violations = check_instance(inst)
    if violations:
        raise ValueError("refusing to save invalid instance: " + "; ".join(violations))
    write_text(path, json.dumps(instance_to_doc(inst), sort_keys=True, indent=2) + "\n")


def read_text(path, error: type[ValueError] = ValueError, label=None) -> str:
    """The UTF-8 text of the file, with universal newlines; text that is not
    UTF-8 raises ``error`` naming ``label`` (the path by default). Every
    outside file is read here."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise error(f"{label or path}: not UTF-8 text ({e.reason})") from None


def write_text(path, text: str, append: bool = False) -> None:
    """Write ``text`` to the file as UTF-8 with LF line ends, replacing it,
    or adding to its end when ``append``. Every output file is written here."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_json(path):
    """The parsed JSON file; malformed JSON raises DocumentError naming the
    file, line and column, and text that is not UTF-8, nesting too deep for
    the parser or any other ValueError of the parser raises it naming the file."""
    text = read_text(path, DocumentError)
    try:
        return json.loads(text)
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deep") from None
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:             # e.g. an integer literal past the digit limit
        raise DocumentError(f"{path}: {e}") from e


def read_json_lines(path, error: type[ValueError] = ValueError,
                    label=None) -> list[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file.
    Lines split at line feeds only, as file iteration splits them, so a
    U+2028 or U+0085 inside a string stays in its line. A line that is not
    a JSON object raises ``error`` naming ``label`` (the path by default)
    and the line."""
    where = label or path
    out = []
    for ln, line in enumerate(read_text(path, error, label).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except RecursionError:
            raise error(f"{where} line {ln}: JSON nested too deep") from None
        except ValueError as e:
            raise error(f"{where} line {ln}: {e}") from None
        if not isinstance(obj, dict):
            raise error(f"{where} line {ln}: not a JSON object")
        out.append((ln, obj))
    return out


def json_lines(records) -> str:
    """The JSON-lines text of ``records``: one object per line, keys sorted.
    Every JSON-lines file is encoded here."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


# -- outside documents -------------------------------------------------------
#
# Instance, scenario, evolution-config and grid documents are JSON objects
# read into dataclasses. Each field's annotation says what its value must
# be; range and cross-field checks stay in each dataclass's validate(), and
# an instance's in check_instance.


def _finite(v) -> bool:
    """A real that is finite as a float; not a bool. Exact: a huge int fails."""
    return ((type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool))
            and abs(v) <= sys.float_info.max)


#: annotation -> (test, what a value must be)
_LEAVES = {bool: (lambda v: isinstance(v, bool), "true or false"),
           int: (lambda v: type(v) is int                 # the common case, first
                 or isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
           float: (_finite, "a finite number"),
           str: (lambda v: isinstance(v, str), "a string"),
           os.PathLike: (lambda v: isinstance(v, os.PathLike), "a path"),
           type(None): (lambda v: v is None, "null"),
           Stage: (lambda v, stages=tuple(Stage): v in stages, '"processing" or "assembly"'),
           tuple: (lambda v: isinstance(v, (list, tuple)), "a list"),
           dict: (lambda v: isinstance(v, dict), "an object")}

_hints = functools.cache(typing.get_type_hints)     # annotations resolved once per class


@functools.cache
def _shape(tp):
    """(origin, arguments, _LEAVES entries) of an annotation; no entries for
    a dataclass."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    return origin, args, None if is_dataclass(tp) else [
        _LEAVES[t] for t in ((origin,) if origin in (tuple, dict) else args or (tp,))]


def _read(tp, value, path: str | None):
    """``value`` checked against the annotation ``tp``: a union of _LEAVES,
    tuple[X, ...] or tuple[X, Y, ...] read from a list, dict[int, X] read
    from an object keyed by the plain text of integers, or a dataclass read
    from an object. ``path`` names the value in a DocumentError; with None,
    no path is formatted and the error names none (see ``read_document``)."""
    if (leaf := _LEAVES.get(tp)) and leaf[0](value):     # the common case, first
        return value
    origin, args, leaves = _shape(tp)
    if leaves is None:
        return _read_object(tp, value, path)
    if not any(test(value) for test, _ in leaves):
        raise DocumentError(f"{path} must be {' or '.join(w for _, w in leaves)}, "
                            f"not {json.dumps(value, default=repr):.60}")
    if origin is dict:
        out, leaf = {}, _LEAVES.get(args[1])
        for key, v in value.items():
            try:
                k = _key_id(key)
            except ValueError:
                raise DocumentError(f"{path} key {json.dumps(key):.60} must be "
                                    f"the plain text of an integer") from None
            out[k] = v if leaf and leaf[0](v) else _read(
                args[1], v, None if path is None else f'{path}["{key}"]')
        return out
    if origin is tuple:
        items = (args[0],) * len(value) if args[1:] == (Ellipsis,) else args
        if len(items) != len(value):
            raise DocumentError(f"{path} must be a list of {len(items)} items, not {len(value)}")
        return tuple(_read(t, v, None if path is None else f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(items, value)))
    return value


def _read_object(cls, doc, label: str | None):
    """The dataclass ``cls`` read from ``doc``, as ``_read`` reads a value."""
    hints = _hints(cls)
    if isinstance(doc, cls):                        # built in Python
        doc = vars(doc)
    if not isinstance(doc, dict):
        raise DocumentError(f"{label} must be an object with keys {', '.join(hints)}, "
                            f"not {json.dumps(doc, default=repr):.60}")
    if unknown := [key for key in doc if key not in hints]:
        raise DocumentError(f"{label}: unknown key {unknown[0]!r}; choose from {', '.join(hints)}")
    if len(doc) < len(hints) and (missing := [f.name for f in fields(cls) if f.name not in doc
                                              and f.default is f.default_factory is MISSING]):
        raise DocumentError(f"{label} is missing key {missing[0]!r}")
    obj = cls(**{key: _read(hints[key], value, None if label is None else f"{label}.{key}")
                 for key, value in doc.items()})
    try:
        getattr(obj, "validate", lambda: None)()
    except ValueError as e:
        raise DocumentError(f"{label}: {e}") from None
    return obj


def read_document(cls, doc, label: str):
    """The dataclass ``cls`` built from a parsed JSON object and validated,
    its values kept as they are (an int stays an int). ``label`` names the
    document, as in ``grid.json: grid``. An unknown or missing key, a wrongly
    typed value or a ValueError from ``validate()`` raises DocumentError
    naming the label and the JSON path, as in
    ``grid.json: grid.scenarios[3].phi must be a finite number, not true``.
    A document is read once without formatting any path; only one that
    fails is read again, with its paths, to name the value at fault."""
    try:
        return _read_object(cls, doc, None)
    except DocumentError:
        return _read_object(cls, doc, label)        # raises again, naming the path


def check_fields(obj, label: str) -> None:
    """DocumentError unless each field of the dataclass ``obj`` holds what
    ``read_document`` accepts; validate() holds objects built in Python to it."""
    for name, tp in _hints(type(obj)).items():
        _read(tp, getattr(obj, name), f"{label}.{name}")


def load_instance(path) -> Instance:
    return instance_from_doc(load_json(path), f"{path}: instance")
