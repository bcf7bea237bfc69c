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

import json
import math
from dataclasses import dataclass, field
from enum import Enum
import numpy as np


class Stage(str, Enum):
    PROCESSING = "processing"
    ASSEMBLY = "assembly"


class InstanceFormatError(ValueError):
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

    def order_of_job(self, job_id: int) -> Order:
        return self.orders[self._job_index[job_id].order_id]

    def product_of_job(self, job_id: int) -> Product:
        job = self._job_index[job_id]
        for p in self.orders[job.order_id].products:
            if p.id == job.product_id:
                return p
        raise KeyError(job_id)

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
            if pt < 0 or not np.isfinite(pt):
                out.append(f"job {j.id}: processing time {pt} on machine {m}")

    n = len(inst.jobs)
    if inst.setup.shape != (n + 1, n):
        out.append(f"setup shape {inst.setup.shape} != {(n + 1, n)}")
    else:
        if np.any(inst.setup[0] != 0):
            out.append("setup: virtual row not all zero")
        if np.any(inst.setup < 0):
            out.append("setup < 0")
        bad = np.argwhere(~np.isfinite(inst.setup))
        if len(bad):
            i, j = bad[0]
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


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing field '{key}'")
    return doc[key]


def instance_from_doc(doc: dict) -> Instance:
    """Build and fully check an Instance from its plain-dict form."""
    machines = tuple(
        Machine(int(_require(m, "id", f"machines[{i}]")),
                Stage(_require(m, "stage", f"machines[{i}]")))
        for i, m in enumerate(_require(doc, "machines", "top level"))
    )

    job_kind: dict[int, Stage] = {}
    job_elig: dict[int, dict[int, float]] = {}
    for i, j in enumerate(_require(doc, "jobs", "top level")):
        where = f"jobs[{i}]"
        jid = int(_require(j, "id", where))
        job_kind[jid] = Stage(_require(j, "kind", where))
        job_elig[jid] = {int(m): float(pt) for m, pt in _require(j, "eligible", where).items()}

    orders = []
    job_owner: dict[int, tuple[int, int, frozenset[int]]] = {}
    for i, o in enumerate(_require(doc, "orders", "top level")):
        where = f"orders[{i}]"
        oid = int(_require(o, "id", where))
        products = []
        for k, p in enumerate(_require(o, "products", where)):
            pwhere = f"{where}.products[{k}]"
            pid = int(_require(p, "id", pwhere))
            asm = int(_require(p, "assembly_job", pwhere))
            procs = tuple(int(x) for x in _require(p, "processing_jobs", pwhere))
            for jid in (*procs, asm):
                if jid not in job_kind:
                    raise InstanceFormatError(f"{pwhere}: dangling job id {jid}")
            products.append(Product(pid, asm, procs))
            job_owner[asm] = (oid, pid, frozenset(procs))
            for jid in procs:
                job_owner[jid] = (oid, pid, frozenset())
        orders.append(Order(oid, float(_require(o, "arrival", where)),
                            float(_require(o, "due", where)), tuple(products)))

    jobs = []
    for jid in sorted(job_kind):
        if jid not in job_owner:
            raise InstanceFormatError(f"jobs: job {jid} referenced by no product")
        oid, pid, preds = job_owner[jid]
        jobs.append(Job(jid, job_kind[jid], oid, pid, preds, job_elig[jid]))

    n = len(jobs)
    raw = _require(doc, "setup", "top level")
    if isinstance(raw, dict):
        default = float(_require(raw, "default", "setup"))
        setup = np.full((n + 1, n), default, dtype=float)
        setup[0, :] = 0.0
        for j1, j2, v in raw.get("overrides", []):
            setup[int(j1) + 1, int(j2)] = float(v)
    else:
        setup = np.asarray(raw, dtype=float)

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
    text = json.dumps(instance_to_doc(inst), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_instance(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    return instance_from_doc(doc)


def instances_equal(a: Instance, b: Instance) -> bool:
    """Structural equality (used by round-trip tests)."""
    return (a.machines == b.machines and a.orders == b.orders and a.jobs == b.jobs
            and a.setup.shape == b.setup.shape and np.array_equal(a.setup, b.setup))
