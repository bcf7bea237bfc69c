"""Building, checking and generating problem instances.

An instance nests orders -> products -> jobs: each product needs all of its
processing jobs finished before its single assembly job may start, and an
order is delivered when all of its assembly jobs are done.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from fafsp.model import (Instance, Job, Machine, Order, Product, Stage,
                         check_instance, load_instance, save_instance)
from fafsp.generator import ScenarioConfig, generate_instance

# -- 1. a tiny instance by hand ------------------------------------------------
# machine 0 processes parts, machine 1 assembles; one order with one product
# made of two parts.

machines = (Machine(0, Stage.PROCESSING), Machine(1, Stage.ASSEMBLY))
jobs = (
    Job(0, Stage.PROCESSING, order_id=0, product_id=0, predecessors=frozenset(),
        eligible={0: 4.0}),
    Job(1, Stage.PROCESSING, order_id=0, product_id=0, predecessors=frozenset(),
        eligible={0: 3.0}),
    Job(2, Stage.ASSEMBLY, order_id=0, product_id=0, predecessors=frozenset({0, 1}),
        eligible={1: 2.0}),
)
order = Order(0, arrival=0.0, due=12.0, products=(Product(0, 2, (0, 1)),))
inst = Instance(machines, (order,), jobs, np.zeros((4, 3)))

print("hand-built instance violations:", check_instance(inst))

# -- 2. the file format round-trips byte-identically ----------------------------

with tempfile.TemporaryDirectory() as tmp:
    a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
    save_instance(inst, a)
    save_instance(load_instance(a), b)
    print("canonical save is stable:", a.read_bytes() == b.read_bytes())

# -- 3. scenario-driven generation ----------------------------------------------
# 3 assembly lines, 6 processing machines, half the machines qualified per job,
# 5 orders on the floor at time zero and 20 more arriving dynamically.

cfg = ScenarioConfig(m1=3, m2=6, phi=0.5, alpha=20, mu=1.0, seed=7)
generated = generate_instance(cfg)
print(f"generated: {len(generated.orders)} orders, {generated.num_jobs} jobs, "
      f"{generated.num_machines} machines")
print("generated instance violations:", check_instance(generated))

arrivals = [o.arrival for o in generated.orders]
print(f"orders at t=0: {sum(1 for a in arrivals if a == 0)}, "
      f"last arrival at t={max(arrivals):.1f} min")

# per-order due dates sit inside the tightness window around each order's
# isolated lower bound; higher mu compresses the arrival stream instead
doc = json.loads(json.dumps({"m1": cfg.m1, "m2": cfg.m2, "phi": cfg.phi,
                             "alpha": cfg.alpha, "mu": cfg.mu, "seed": cfg.seed}))
print("scenario doc:", doc)
