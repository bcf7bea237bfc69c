"""Hand-construction helpers shared across the test modules."""

import math
from functools import reduce

import numpy as np

from fafsp.expr import Acc, Bin, Call, Cmp, Neg, Num
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
                jobs.append(Job(jid, Stage.PROCESSING, dict(elig)))
                proc_ids.append(jid)
                jid += 1
            jobs.append(Job(jid, Stage.ASSEMBLY, dict(asm_eligible)))
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


def tree_walk(node, columns, n):
    """Reference interpreter: walks the AST on every call."""
    def compare(node):
        return {"<": np.less, "<=": np.less_equal, ">": np.greater,
                ">=": np.greater_equal, "==": np.equal,
                "!=": np.not_equal}[node.op](ev(node.left), ev(node.right))

    def ev(node):
        if isinstance(node, Num):
            return np.full(n, node.value)
        if isinstance(node, Acc):
            return columns[node.name]
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Bin):
            left, right = ev(node.left), ev(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return np.where(right == 0.0, 0.0, left / np.where(right == 0.0, 1.0, right))
        if isinstance(node, Cmp):                   # only a Program built from nodes
            return compare(node)                    # has one at the top
        assert isinstance(node, Call)
        if node.name == "if":
            cond = node.args[0]
            assert isinstance(cond, Cmp)
            return np.where(compare(cond), ev(node.args[1]), ev(node.args[2]))
        args = [ev(a) for a in node.args]
        x = args[0]
        # min and max fold pairwise, left to right: np.minimum.reduce over the
        # stacked arguments drops the sign bit of a NaN that np.minimum keeps
        return {"min": lambda: reduce(np.minimum, args),
                "max": lambda: reduce(np.maximum, args),
                "abs": lambda: np.abs(x),
                "sqrt": lambda: np.where(x < 0.0, 0.0, np.sqrt(np.maximum(x, 0.0))),
                "exp": lambda: np.exp(x),
                "log": lambda: np.where(x <= 0.0, 0.0, np.log(np.where(x <= 0.0, 1.0, x))),
                }[node.name]()

    with np.errstate(all="ignore"):
        return ev(node)


def reference_rank(rule, columns, jobs, machs):
    """Reference ranking, sharing no code with the rule's generated chooser:
    the index of the arc the rule dispatches among the (job, machine) arcs,
    in (job, machine) order, whose columns are ``columns``. A single arc is
    chosen unscored. The program's and tie-break's keys come from the tree
    walk, and the first arc with the least (key, tie key) wins. A rule
    without a tie-break raises RuleInvalid naming the first arc whose score
    is not finite."""
    from fafsp.rules import RuleInvalid

    n = len(jobs)
    if n == 1:
        return 0
    key = tree_walk(rule.program.root, columns, n).astype(float).tolist()
    if rule.tie_break is None:
        for i, score in enumerate(key):
            if not math.isfinite(score):
                raise RuleInvalid(f"rule {rule.name!r}: non-finite score {score} "
                                  f"for arc (job {jobs[i]}, machine {machs[i]})")
        return min(range(n), key=key.__getitem__)
    tie = tree_walk(rule.tie_break.root, columns, n).tolist()
    return min(range(n), key=lambda i: (key[i], tie[i]))


def first_pick(pick):
    """The index a rule's chooser names: the index itself, or the head of
    the ranking a dispatch-invariant rule's chooser returns."""
    return int(pick[0] if isinstance(pick, np.ndarray) else pick)


def pick_arc(rule, fv, arcs):
    """The arc the rule dispatches among arcs listed in (job, machine) order,
    as feasible_arcs lists them, by the reference ranking over the
    FeatureView's columns."""
    jobs = [j for j, _ in arcs]
    machs = [m for _, m in arcs]
    return arcs[reference_rank(rule, fv.arc_columns(jobs, machs), jobs, machs)]


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
