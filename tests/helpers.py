"""Hand-construction helpers shared across the test modules."""

import numpy as np

from fafsp.model import Instance, Job, Machine, Order, Product, Stage


def make_instance(machine_stages, orders, setup=None):
    """Build an instance from compact literals.

    machine_stages: string like "pa" or "ppa" (p = processing, a = assembly),
    machine ids follow position. orders: list of (arrival, due, products),
    products: list of (proc_eligibles, asm_eligible) where proc_eligibles is
    a list of {machine: pt} dicts (one per processing job) and asm_eligible a
    single {machine: pt} dict. setup: full (J+1) x J matrix, or a scalar used
    for every real changeover (virtual row stays zero).
    """
    jobs, order_objs = [], []
    jid = pid = 0
    for oid, (arrival, due, prods) in enumerate(orders):
        products = []
        for proc_eligibles, asm_eligible in prods:
            proc_ids = []
            for elig in proc_eligibles:
                jobs.append(Job(jid, Stage.PROCESSING, oid, pid, frozenset(), dict(elig)))
                proc_ids.append(jid)
                jid += 1
            jobs.append(Job(jid, Stage.ASSEMBLY, oid, pid, frozenset(proc_ids),
                            dict(asm_eligible)))
            products.append(Product(pid, jid, tuple(proc_ids)))
            jid += 1
            pid += 1
        order_objs.append(Order(oid, float(arrival), float(due), tuple(products)))
    machines = tuple(Machine(i, Stage.PROCESSING if s == "p" else Stage.ASSEMBLY)
                     for i, s in enumerate(machine_stages))
    n = len(jobs)
    if setup is None:
        matrix = np.zeros((n + 1, n))
    elif np.isscalar(setup):
        matrix = np.full((n + 1, n), float(setup))
        matrix[0, :] = 0.0
    else:
        matrix = np.asarray(setup, dtype=float)
    return Instance(machines, tuple(order_objs), tuple(jobs), matrix)


def minimal_instance(due=10.0, proc_pt=5.0, asm_pt=3.0, arrival=0.0):
    """One order, one product: a processing job feeding an assembly job."""
    return make_instance("pa", [(arrival, due, [([{0: proc_pt}], {1: asm_pt})])])


def pick_arc(rule, fv, arcs):
    """The arc the rule dispatches among arcs listed in (job, machine) order,
    as feasible_arcs lists them."""
    from fafsp.rules import rank_arc_arrays

    jobs = np.array([j for j, _ in arcs], dtype=np.int64)
    machs = np.array([m for _, m in arcs], dtype=np.int64)
    return arcs[rank_arc_arrays(rule, fv, jobs, machs)]


def tiny_oracle_instance(seed, max_jobs=8):
    """Random all-at-time-zero instance small enough for the oracle."""
    from fafsp.generator import ScenarioConfig, generate_instance

    s = seed
    while True:
        inst = generate_instance(ScenarioConfig(
            m1=1, m2=2, phi=1.0, alpha=0, mu=1.0, n_init=2, seed=s))
        if inst.num_jobs <= max_jobs:
            return inst
        s += 100_000


def tiny_dynamic_instance(seed, alpha=2, n_init=0, mu=4.0, T=0.7, max_jobs=8):
    """Random instance with orders arriving after time zero, small enough for
    the oracle; heavy load and tight due dates by default."""
    from fafsp.generator import ScenarioConfig, generate_instance

    s = seed
    while True:
        inst = generate_instance(ScenarioConfig(
            m1=1, m2=2, phi=1.0, alpha=alpha, mu=mu, T=T, n_init=n_init, seed=s))
        if inst.num_jobs <= max_jobs:
            return inst
        s += 100_000
