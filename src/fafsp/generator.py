"""Scenario-parameterized random instance generator.

A scenario is (m1 assembly machines, m2 processing machines, flexibility phi,
dynamic order count alpha, load factor mu, due-date tightness T / range R,
n_init orders present at time zero, seed). Product counts are geometric with
mean 2, each product carries 2..5 processing jobs plus one assembly job, and
processing times are work / machine-rate. Arrivals after the initial batch
follow an exponential inter-arrival whose mean tracks the average estimated
completion load of the orders seen so far, scaled down by mu.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import (MAX_JOBS, Instance, Job, Machine, Order, Product, Stage, load_json,
                    read_document)

ASSEMBLY_RATE_MEAN = 8.0
RATE_SD = 2.0
PROCESSING_RATE_MEAN = 0.8 * ASSEMBLY_RATE_MEAN
RATE_FLOOR = 0.5
WORK_LOW, WORK_HIGH = 4.0, 12.0
PROC_JOBS_LOW, PROC_JOBS_HIGH = 2, 5
SETUP_FRACTION = 0.2
#: caps on a scenario: orders average 9 jobs, so MAX_ORDERS orders average
#: about 4,700 jobs, below MAX_JOBS; a rollout's one (job x machine) table,
#: incidence, takes 8 bytes per job and machine, 4 MB per stage at both caps
MAX_ORDERS = int(MAX_JOBS / 9.5)
MAX_STAGE_MACHINES = 100


@dataclass
class ScenarioConfig:
    m1: int                 # assembly machine count
    m2: int                 # processing machine count
    phi: float              # flexibility factor in (0, 1]
    alpha: int              # dynamically arriving orders
    mu: float               # load factor (> 0)
    T: float = 0.2          # due-date tightness
    R: float = 0.4          # due-date range
    n_init: int = 5         # orders already present at t = 0
    seed: int = 0

    def validate(self) -> None:
        if not (1 <= self.m1 <= MAX_STAGE_MACHINES and 1 <= self.m2 <= MAX_STAGE_MACHINES):
            raise ValueError(f"m1 and m2 must lie in 1..{MAX_STAGE_MACHINES}, "
                             f"not {self.m1} and {self.m2}")
        if not (0.0 < self.phi <= 1.0):
            raise ValueError(f"phi must be in (0, 1], got {self.phi}")
        if self.alpha < 0 or self.n_init < 0:
            raise ValueError("alpha and n_init must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed!r}")
        if not 1 <= self.alpha + self.n_init <= MAX_ORDERS:
            raise ValueError(f"alpha + n_init must lie in 1..{MAX_ORDERS}, "
                             f"not {self.alpha + self.n_init}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if not (0.0 <= self.T <= 1.0 and 0.0 <= self.R <= 1.0):
            raise ValueError("T and R must lie in [0, 1]")
        if 1.0 - self.T - self.R / 2.0 < 0.0:
            warnings.warn("1 - T - R/2 < 0: due-date window reaches below zero offset",
                          stacklevel=2)


def scenario_to_doc(cfg: ScenarioConfig) -> dict:
    return asdict(cfg)


def load_scenario(path) -> ScenarioConfig:
    return read_document(ScenarioConfig, load_json(path), f"{path}: scenario")


def sample_product_count(rng: np.random.Generator) -> int:
    """Number of products in an order: P(n) = (1/2)^n, support {1, 2, ...}."""
    return int(rng.geometric(0.5))


def _order_loads(jobs: Iterable[Job], machines: Sequence[Machine]) -> tuple[float, float]:
    """(completion estimate, makespan lower bound) of one order, from each
    machine's serial load: the total processing time of the order's jobs of
    its stage there, added in job order (an ineligible pair adds nothing)."""
    processing, assembly = Stage.PROCESSING, Stage.ASSEMBLY      # an enum member read is slow
    stage = {m.id: m.stage for m in machines}
    load = dict.fromkeys(stage, 0.0)
    for job in jobs:
        kind = job.kind
        for m, pt in job.eligible.items():
            if stage.get(m) == kind:
                load[m] += pt
    proc = [load[m.id] for m in machines if m.stage == processing]
    asm = [load[m.id] for m in machines if m.stage == assembly]
    estimate = max(proc) + min(asm)
    return estimate, max(estimate, max(asm))


def order_lower_bound(jobs: Sequence[Job], machines: Sequence[Machine]) -> float:
    """Makespan lower bound of one order considered in isolation.

    max( worst processing machine's serial load + best assembly machine's
    serial load , worst assembly machine's serial load ).
    """
    if not any(j.kind == Stage.PROCESSING for j in jobs):
        raise ValueError("order has no processing job")
    if not any(j.kind == Stage.ASSEMBLY for j in jobs):
        raise ValueError("order has no assembly job")
    return _order_loads(jobs, machines)[1]


def sample_due_date(lower_bound: float, T: float, R: float, arrival: float,
                    rng: np.random.Generator) -> float:
    """Due time = arrival + uniform offset from [L(1-T-R/2), L(1-T+R/2)].

    The offset is clamped at zero so the due time never precedes the arrival.
    """
    if lower_bound <= 0:
        raise ValueError("lower bound must be positive")
    lo = lower_bound * (1.0 - T - R / 2.0)
    hi = lower_bound * (1.0 - T + R / 2.0)
    offset = rng.uniform(lo, hi) if hi > lo else lo
    return arrival + max(0.0, offset)


def schedule_arrivals(order_loads: Sequence[float], n_init: int, mu: float,
                      rng: np.random.Generator) -> list[float]:
    """Arrival times for orders in creation sequence.

    The first n_init orders arrive at time zero. Each later gap is drawn from
    an exponential whose mean is (average completion load of the orders
    arrived so far) / mu; a larger mu therefore compresses arrivals.
    """
    arrivals = [0.0] * min(n_init, len(order_loads))
    prev = 0.0
    for i in range(len(arrivals), len(order_loads)):
        if i > 0:
            mean_gap = math.fsum(order_loads[:i]) / (i * mu)
        else:
            # nothing has arrived yet: bootstrap from the incoming order so
            # the first dynamic arrival is still strictly positive
            mean_gap = order_loads[i] / mu
        prev += float(rng.exponential(mean_gap)) if mean_gap > 0 else 0.0
        arrivals.append(prev)
    return arrivals


def generate_instance(cfg: ScenarioConfig) -> Instance:
    """Deterministic instance for a scenario; always passes check_instance.

    All randomness flows from cfg.seed through a fixed stream split
    (rates, structure, eligibility, work, setup, arrivals, due dates).
    """
    cfg.validate()
    streams = np.random.SeedSequence(cfg.seed).spawn(7)
    rng_rate, rng_struct, rng_elig, rng_work, rng_setup, rng_arr, rng_due = (
        np.random.default_rng(s) for s in streams)

    machines = tuple(
        [Machine(i, Stage.ASSEMBLY) for i in range(cfg.m1)]
        + [Machine(cfg.m1 + i, Stage.PROCESSING) for i in range(cfg.m2)])

    def draw_rate(mean: float) -> float:
        while True:
            r = float(rng_rate.normal(mean, RATE_SD))
            if r > RATE_FLOOR:
                return r

    rate = [draw_rate(ASSEMBLY_RATE_MEAN if m.stage == Stage.ASSEMBLY else PROCESSING_RATE_MEAN)
            for m in machines]
    stage_ids = {s: [m.id for m in machines if m.stage == s] for s in Stage}

    # order -> product -> job skeleton
    n_orders = cfg.n_init + cfg.alpha
    skeleton: list[list[int]] = []          # products per order: processing-job counts
    for _ in range(n_orders):
        n_products = sample_product_count(rng_struct)
        skeleton.append([int(rng_struct.integers(PROC_JOBS_LOW, PROC_JOBS_HIGH + 1))
                         for _ in range(n_products)])
    n_jobs = sum(n + 1 for prods in skeleton for n in prods)
    if n_jobs > MAX_JOBS:                   # before any job record or the setup matrix
        raise ValueError(f"seed {cfg.seed}: {n_jobs} jobs exceed the cap of {MAX_JOBS}")

    jobs: list[Job] = []
    orders_raw: list[list[Product]] = []
    pid = 0

    # one work draw per job in id order, taken at once: the same doubles as
    # a scalar draw per job. The eligibility stream cannot be batched: a job
    # that picks no machine takes a fallback draw between two jobs' uniforms
    works = rng_work.uniform(WORK_LOW, WORK_HIGH, size=n_jobs).tolist()

    phi = cfg.phi

    def make_job(jid: int, kind: Stage, oid: int, prod: int, preds: frozenset[int]) -> Job:
        cands = stage_ids[kind]
        picked = [m for m, u in zip(cands, rng_elig.random(len(cands)).tolist()) if u < phi]
        if not picked:
            picked = [cands[int(rng_elig.integers(len(cands)))]]
        work = works[jid]
        eligible = {m: work / rate[m] for m in picked}
        return Job(jid, kind, oid, prod, preds, eligible)

    processing, assembly = Stage.PROCESSING, Stage.ASSEMBLY
    no_preds: frozenset[int] = frozenset()
    by_order: list[list[Job]] = []          # each order's jobs, which are made in a row
    jid = 0
    for oid, prods in enumerate(skeleton):
        products = []
        first = jid
        for n_proc in prods:
            proc_ids = tuple(range(jid, jid + n_proc))
            for j in proc_ids:
                jobs.append(make_job(j, processing, oid, pid, no_preds))
            jid += n_proc
            jobs.append(make_job(jid, assembly, oid, pid, frozenset(proc_ids)))
            products.append(Product(pid, jid, proc_ids))
            jid += 1
            pid += 1
        orders_raw.append(products)
        by_order.append(jobs[first:])

    all_pt = [pt for j in jobs for pt in j.eligible.values()]
    mean_pt = math.fsum(all_pt) / len(all_pt)
    setup = rng_setup.uniform(0.0, SETUP_FRACTION * mean_pt, size=(n_jobs + 1, n_jobs))
    setup[0, :] = 0.0

    loads = [_order_loads(js, machines) for js in by_order]
    arrivals = schedule_arrivals([est for est, _ in loads], cfg.n_init, cfg.mu, rng_arr)

    orders = []
    for oid, prods in enumerate(orders_raw):
        due = sample_due_date(loads[oid][1], cfg.T, cfg.R, arrivals[oid], rng_due)
        orders.append(Order(oid, arrivals[oid], due, tuple(prods)))

    return Instance(machines, tuple(orders), tuple(jobs), setup)
