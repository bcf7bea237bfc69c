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


class InstanceFormatError(DocumentError):
    """Raised when an instance file cannot be parsed or cross-linked."""


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


def _require(doc, key: str, where: str):
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: expected an object, not {doc!r:.60}")
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing field '{key}'")
    return doc[key]


def _convert(fn, value, where: str):
    """fn(value); InstanceFormatError naming the field if fn rejects it."""
    try:
        return fn(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise InstanceFormatError(f"{where}: invalid value {value!r:.60} ({e})") from None


def _field(doc, key: str, where: str, fn):
    return _convert(fn, _require(doc, key, where), f"{where}.{key}")


def _number(value) -> float:
    """A time or changeover: a finite number, not a bool or a string."""
    if not _finite(value):
        raise TypeError("expected a finite number")
    return float(value)


def _id(value) -> int:
    """An id: an integer, or a float with an integral value; not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer id")
    if value != int(value):
        raise ValueError("expected an integral id")
    return int(value)


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


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected an object")
    return value


def instance_from_doc(doc: dict) -> Instance:
    """Build and fully check an Instance from its plain-dict form; any
    malformed field raises InstanceFormatError naming it."""
    top = "top level"
    machines = tuple(
        Machine(_field(m, "id", f"machines[{i}]", _id),
                _field(m, "stage", f"machines[{i}]", Stage))
        for i, m in enumerate(_field(doc, "machines", top, _list))
    )

    job_kind: dict[int, Stage] = {}
    job_elig: dict[int, dict[int, float]] = {}
    job_docs = _field(doc, "jobs", top, _list)
    if len(job_docs) > MAX_JOBS:            # before the setup matrix is allocated
        raise InstanceFormatError(f"jobs: {len(job_docs)} jobs exceed the cap of {MAX_JOBS}")
    for i, j in enumerate(job_docs):
        where = f"jobs[{i}]"
        jid = _field(j, "id", where, _id)
        job_kind[jid] = _field(j, "kind", where, Stage)
        job_elig[jid] = {_convert(_key_id, m, f"{where}.eligible"):
                         _convert(_number, pt, f"{where}.eligible[{m!r}]")
                         for m, pt in _field(j, "eligible", where, _object).items()}

    orders = []
    job_owner: dict[int, tuple[int, int, frozenset[int]]] = {}
    for i, o in enumerate(_field(doc, "orders", top, _list)):
        where = f"orders[{i}]"
        oid = _field(o, "id", where, _id)
        products = []
        for k, p in enumerate(_field(o, "products", where, _list)):
            pwhere = f"{where}.products[{k}]"
            pid = _field(p, "id", pwhere, _id)
            asm = _field(p, "assembly_job", pwhere, _id)
            procs = _field(p, "processing_jobs", pwhere,
                           lambda xs: tuple(_id(x) for x in _list(xs)))
            for jid in (*procs, asm):
                if jid not in job_kind:
                    raise InstanceFormatError(f"{pwhere}: dangling job id {jid}")
            products.append(Product(pid, asm, procs))
            job_owner[asm] = (oid, pid, frozenset(procs))
            for jid in procs:
                job_owner[jid] = (oid, pid, frozenset())
        orders.append(Order(oid, _field(o, "arrival", where, _number),
                            _field(o, "due", where, _number), tuple(products)))

    jobs = []
    for jid in sorted(job_kind):
        if jid not in job_owner:
            raise InstanceFormatError(f"jobs: job {jid} referenced by no product")
        oid, pid, preds = job_owner[jid]
        jobs.append(Job(jid, job_kind[jid], oid, pid, preds, job_elig[jid]))

    n = len(jobs)
    raw = _require(doc, "setup", top)
    if isinstance(raw, dict):
        setup = np.full((n + 1, n), _field(raw, "default", "setup", _number), dtype=float)
        setup[0, :] = 0.0
        for k, entry in enumerate(_convert(_list, raw.get("overrides", []), "setup.overrides")):
            where = f"setup.overrides[{k}]"
            if not (isinstance(entry, list) and len(entry) == 3):
                raise InstanceFormatError(f"{where}: expected [from job, to job, minutes], "
                                          f"not {entry!r:.60}")
            j1, j2 = _convert(_id, entry[0], where), _convert(_id, entry[1], where)
            if not (0 <= j1 < n and 0 <= j2 < n):
                raise InstanceFormatError(f"{where}: job ids must lie in 0..{n - 1}, "
                                          f"not {j1} and {j2}")
            setup[j1 + 1, j2] = _convert(_number, entry[2], where)
    else:
        rows = _convert(_list, raw, "setup")
        for i, row in enumerate(rows):
            # JSON numbers parse to int or float: a C-speed type scan clears a
            # row, and check_instance reports a NaN or infinite entry
            if not (isinstance(row, list) and set(map(type, row)) <= {int, float}):
                for j, v in enumerate(_convert(_list, row, f"setup[{i}]")):
                    _convert(_number, v, f"setup[{i}][{j}]")
        setup = _convert(lambda rows: np.asarray(rows, dtype=float), rows, "setup")

    inst = Instance(machines, tuple(sorted(orders, key=lambda o: o.id)),
                    tuple(jobs), setup)
    violations = check_instance(inst)
    if violations:
        raise InstanceFormatError("invalid instance: " + "; ".join(violations))
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


def load_json(path, error: type[ValueError] = DocumentError):
    """The parsed JSON file; malformed JSON raises ``error`` naming the file,
    line and column, and text that is not UTF-8, nesting too deep for the
    parser or any other ValueError of the parser raises it naming the file."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except RecursionError:
        raise error(f"{path}: JSON nested too deep") from None
    except json.JSONDecodeError as e:
        raise error(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:             # e.g. an integer literal past the digit limit
        raise error(f"{path}: {e}") from e


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


# -- config documents --------------------------------------------------------
#
# Scenario, evolution-config and grid documents are JSON objects read into
# dataclasses. Each field's annotation says what its value must be; range and
# cross-field checks stay in each dataclass's validate().


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
           tuple: (lambda v: isinstance(v, (list, tuple)), "a list")}

_hints = functools.cache(typing.get_type_hints)     # annotations resolved once per class


def _read(tp, value, path: str):
    """``value`` checked against the annotation ``tp``: a union of _LEAVES,
    tuple[X, ...] read from a list, or a dataclass read from an object."""
    if is_dataclass(tp):
        return read_document(tp, value, path)
    args, items = typing.get_args(tp), typing.get_origin(tp) is tuple
    leaves = [_LEAVES[t] for t in ((tuple,) if items else args or (tp,))]
    if not any(test(value) for test, _ in leaves):
        raise DocumentError(f"{path} must be {' or '.join(w for _, w in leaves)}, "
                            f"not {json.dumps(value, default=repr):.60}")
    return tuple(_read(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)) if items else value


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
    if missing := [f.name for f in fields(cls)
                   if f.name not in doc and f.default is f.default_factory is MISSING]:
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
    return instance_from_doc(load_json(path, InstanceFormatError))
