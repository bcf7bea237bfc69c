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


def check_instance(inst: Instance) -> list[str]:
    """Return a list of human-readable invariant violations (empty = valid)."""
    out: list[str] = []

    mach_ids = [m.id for m in inst.machines]
    if sorted(mach_ids) != list(range(len(mach_ids))):
        out.append(f"machine ids not dense 0..{len(mach_ids) - 1}: {sorted(mach_ids)}")
    for stage in Stage:
        if not any(m.stage == stage for m in inst.machines):
            out.append(f"no {stage.value} machine")
    stage_of = {m.id: m.stage for m in inst.machines}

    if not inst.orders:
        out.append("no orders")
    order_ids = [o.id for o in inst.orders]
    if sorted(order_ids) != list(range(len(order_ids))):
        out.append(f"order ids not dense 0..{len(order_ids) - 1}")

    job_ids = [j.id for j in inst.jobs]
    if sorted(job_ids) != list(range(len(job_ids))):
        out.append(f"job ids not dense 0..{len(job_ids) - 1}")
    known_jobs = set(job_ids)

    # orders -> products -> jobs must partition the job set
    seen: dict[int, tuple[int, int]] = {}
    for o in inst.orders:
        for name, value in (("arrival", o.arrival), ("due", o.due)):
            if not math.isfinite(value):
                out.append(f"order {o.id}: {name} {value} is not finite")
        if o.arrival < 0:
            out.append(f"order {o.id}: arrival < 0")
        if o.due < o.arrival:
            out.append(f"order {o.id}: due {o.due} before arrival {o.arrival}")
        if not o.products:
            out.append(f"order {o.id}: no products")
        for p in o.products:
            if not p.processing_job_ids:
                out.append(f"assembly without kit: product {p.id} (order {o.id})")
            for j in (*p.processing_job_ids, p.assembly_job_id):
                if j not in known_jobs:
                    out.append(f"order {o.id}: unknown job {j}")
                elif j in seen:
                    out.append(f"job {j} claimed by two products ({seen[j][1]} and {p.id})")
                else:
                    seen[j] = (o.id, p.id)

    for j in inst.jobs:
        if j.id not in seen:
            out.append(f"job {j.id} belongs to no product")
            continue
        oid, pid = seen[j.id]
        if (j.order_id, j.product_id) != (oid, pid):
            out.append(f"job {j.id}: order/product ids {j.order_id}/{j.product_id} "
                       f"disagree with nesting {oid}/{pid}")

    for o in inst.orders:
        for p in o.products:
            asm = inst._job_index.get(p.assembly_job_id)
            if asm is not None and asm.kind != Stage.ASSEMBLY:
                out.append(f"product {p.id}: assembly_job {p.assembly_job_id} is a {asm.kind.value} job")
            if asm is not None and asm.predecessors != frozenset(p.processing_job_ids):
                out.append(f"job {p.assembly_job_id}: predecessors differ from product {p.id} kit")
            for jid in p.processing_job_ids:
                job = inst._job_index.get(jid)
                if job is not None and job.kind != Stage.PROCESSING:
                    out.append(f"product {p.id}: kit job {jid} is a {job.kind.value} job")
                if job is not None and job.predecessors:
                    out.append(f"processing job {jid} has predecessors")

    for j in inst.jobs:
        if not j.eligible:
            out.append(f"job {j.id}: no eligible machine")
        for m, pt in j.eligible.items():
            if m not in stage_of:
                out.append(f"job {j.id}: unknown machine {m}")
            elif stage_of[m] != j.kind:
                out.append(f"stage mismatch job {j.id} machine {m}")
            if pt < 0 or not math.isfinite(pt):
                out.append(f"job {j.id}: processing time {pt} on machine {m}")

    n = len(inst.jobs)
    if inst.setup.shape != (n + 1, n):
        out.append(f"setup shape {inst.setup.shape} != {(n + 1, n)}")
    else:
        if np.any(inst.setup[0] != 0):
            out.append("setup: virtual row not all zero")
        if np.any(inst.setup < 0):
            out.append("setup < 0")
        if not np.isfinite(inst.setup).all():
            i, j = np.argwhere(~np.isfinite(inst.setup))[0]
            out.append(f"setup[{i}, {j}] = {inst.setup[i, j]} is not finite")

    if not out:
        # no completion time passes the horizon, and no sum of order
        # tardiness passes (orders + 1) x horizon: both must be finite
        into = inst.setup.max(axis=0).tolist()             # the largest setup into each job
        horizon = max(o.arrival for o in inst.orders) + sum(
            max(j.eligible.values()) + into[j.id] for j in inst.jobs)
        if not math.isfinite((len(inst.orders) + 1) * horizon):
            out.append(f"horizon {horizon} times {len(inst.orders) + 1} (orders + 1) is not finite")
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
    path, as ``read_document`` does, or listing check_instance's violations."""
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
           int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
                 "an integer"),
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


def _read(tp, value, path: str):
    """``value`` checked against the annotation ``tp``: a union of _LEAVES,
    tuple[X, ...] or tuple[X, Y, ...] read from a list, dict[int, X] read
    from an object keyed by the plain text of integers, or a dataclass read
    from an object."""
    if (leaf := _LEAVES.get(tp)) and leaf[0](value):     # the common case, first
        return value
    origin, args, leaves = _shape(tp)
    if leaves is None:
        return read_document(tp, value, path)
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
            out[k] = v if leaf and leaf[0](v) else _read(args[1], v, f'{path}["{key}"]')
        return out
    if origin is tuple:
        items = (args[0],) * len(value) if args[1:] == (Ellipsis,) else args
        if len(items) != len(value):
            raise DocumentError(f"{path} must be a list of {len(items)} items, not {len(value)}")
        return tuple(_read(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    return value


def read_document(cls, doc, label: str):
    """The dataclass ``cls`` built from a parsed JSON object and validated,
    its values kept as they are (an int stays an int). ``label`` names the
    document, as in ``grid.json: grid``. An unknown or missing key, a wrongly
    typed value or a ValueError from ``validate()`` raises DocumentError
    naming the label and the JSON path, as in
    ``grid.json: grid.scenarios[3].phi must be a finite number, not true``."""
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
    obj = cls(**{key: _read(hints[key], value, f"{label}.{key}") for key, value in doc.items()})
    try:
        getattr(obj, "validate", lambda: None)()
    except ValueError as e:
        raise DocumentError(f"{label}: {e}") from None
    return obj


def check_fields(obj, label: str) -> None:
    """DocumentError unless each field of the dataclass ``obj`` holds what
    ``read_document`` accepts; validate() holds objects built in Python to it."""
    for name, tp in _hints(type(obj)).items():
        _read(tp, getattr(obj, name), f"{label}.{name}")


def load_instance(path) -> Instance:
    return instance_from_doc(load_json(path), f"{path}: instance")
