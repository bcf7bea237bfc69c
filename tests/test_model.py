"""Data model: invariants, the instance file format and its round trips."""

import ast
import dataclasses
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fafsp
from fafsp import model
from fafsp.model import (DocumentError, Stage, check_instance,
                         instance_from_doc, instance_to_doc,
                         load_instance, save_instance)
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp import sim
from fafsp.rules import RuleSpec
from fafsp.sim import SimState, run_dispatch

from helpers import make_instance, minimal_instance


def test_minimal_instance_is_valid():
    inst = minimal_instance()
    assert check_instance(inst) == []
    assert inst.num_jobs == 2
    assert inst.num_machines == 2


def test_stage_mismatch_is_reported():
    inst = minimal_instance()
    bad_job = dataclasses.replace(inst.jobs[0], eligible={1: 5.0})  # assembly machine
    inst = dataclasses.replace(inst, jobs=(bad_job, inst.jobs[1]))
    assert any("stage mismatch job 0 machine 1" in v for v in check_instance(inst))


def test_negative_setup_is_reported():
    inst = minimal_instance()
    inst.setup[1, 1] = -0.5
    assert any("setup < 0" in v for v in check_instance(inst))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_setup_is_reported_as_such(value):
    inst = minimal_instance()
    inst.setup[1, 1] = value
    violations = check_instance(inst)
    assert f"setup[1, 1] = {value} is not finite" in violations
    assert "setup < 0" not in violations
    with pytest.raises(ValueError, match="is not finite"):
        SimState(inst)


def test_bad_processing_times_are_reported():
    inst = make_instance("pa", [(0.0, 10.0, [([{0: -1.0}, {0: math.nan}, {0: math.inf}],
                                              {1: 1.0})])])
    violations = check_instance(inst)
    messages = [f"job {j}: processing time {pt} on machine 0"
                for j, pt in enumerate((-1.0, math.nan, math.inf))]
    assert [v for v in violations if "processing time" in v] == messages
    with pytest.raises(ValueError) as e:
        SimState(inst)
    assert all(message in str(e.value) for message in messages)


def test_nonzero_virtual_setup_row_is_reported():
    inst = minimal_instance()
    inst.setup[0, 0] = 1.0
    assert any("virtual row" in v for v in check_instance(inst))


def test_due_before_arrival_is_reported():
    inst = make_instance("pa", [(5.0, 4.0, [([{0: 1.0}], {1: 1.0})])])
    assert any("due" in v and "before arrival" in v for v in check_instance(inst))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["arrival", "due"])
def test_non_finite_order_time_rejected(field, value):
    # a NaN arrival would stall the clock and a NaN due break the ranking,
    # so the instance is refused before any rollout starts
    inst = minimal_instance(**{field: value})
    assert any(f"{field} {value} is not finite" in v for v in check_instance(inst))
    with pytest.raises(ValueError, match="is not finite"):
        SimState(inst)


def test_assembly_without_kit_rejected_on_load():
    doc = instance_to_doc(minimal_instance())
    doc["orders"][0]["products"][0]["processing_jobs"] = []
    del doc["jobs"][0]
    doc["setup"] = [[0.0], [0.0]]
    with pytest.raises(DocumentError, match="assembly without kit"):
        instance_from_doc(doc)


def test_dangling_job_reference_named():
    doc = instance_to_doc(minimal_instance())
    doc["orders"][0]["products"][0]["assembly_job"] = 99
    with pytest.raises(DocumentError, match="order 0: unknown job 99"):
        instance_from_doc(doc)


def _overrides(*entries):
    return {"setup": {"default": 0.5, "overrides": list(entries)}}


@pytest.mark.parametrize("path, value, field", [
    ((), {"machines": [1]}, "machines[0]"),
    (("jobs", 0), {"id": None}, "jobs[0].id"),
    (("orders", 0), {"arrival": None}, "orders[0].arrival"),
    (("orders", 0, "products", 0), {"processing_jobs": 5},
     "orders[0].products[0].processing_jobs"),
    ((), _overrides([0, 1, None]), "setup.overrides[0][2]"),
    (("jobs", 0), {"eligible": [1]}, "jobs[0].eligible"),
    ((), _overrides([0, 9, 1]), "setup.overrides[0]"),
    ((), _overrides([0, -1, 2.5]), "setup.overrides[0]"),
    ((), _overrides([0, 1]), "setup.overrides[0]"),
    (("jobs", 0), {"id": False}, "jobs[0].id"),
    (("orders", 0, "products", 0), {"assembly_job": True},
     "orders[0].products[0].assembly_job"),
    (("orders", 0, "products", 0), {"processing_jobs": [0.7]},
     "orders[0].products[0].processing_jobs[0]"),
    ((), _overrides([0.5, 1, 2.0]), "setup.overrides[0][0]"),
    (("jobs", 0), {"id": 3.0}, "jobs[0].id"),
], ids=["machine-not-object", "job-id-null", "arrival-null", "processing-jobs-int",
        "override-value-null", "eligible-list", "override-index-too-big",
        "override-index-negative", "override-too-short", "job-id-bool",
        "assembly-job-bool", "processing-job-fractional", "override-index-fractional",
        "job-id-integral-float"])
def test_malformed_field_is_named(path, value, field):
    doc = instance_to_doc(minimal_instance())
    target = doc
    for key in path:
        target = target[key]
    target.update(value)
    with pytest.raises(DocumentError) as e:
        instance_from_doc(doc)
    assert re.match(re.escape(f"instance.{field}") + "[ :]", str(e.value)), str(e.value)


@pytest.mark.parametrize("path, value, field", [
    (("orders", 0), {"arrival": True}, "orders[0].arrival"),
    (("orders", 0), {"due": "7.5"}, "orders[0].due"),
    (("orders", 0), {"due": math.nan}, "orders[0].due"),
    (("jobs", 0), {"eligible": {"0": "2.5"}}, 'jobs[0].eligible["0"]'),
    (("jobs", 0), {"eligible": {"0": 10**400}}, 'jobs[0].eligible["0"]'),
    ((), {"setup": [[0.0, 0.0], [0.0, True], [0.0, 0.0]]}, "setup[1][1]"),
    ((), {"setup": [[0.0, 0.0], "row", [0.0, 0.0]]}, "setup[1]"),
    ((), {"setup": {"default": False}}, "setup.default"),
    ((), _overrides([0, 1, "1.5"]), "setup.overrides[0][2]"),
], ids=["arrival-bool", "due-string", "due-nan", "eligible-string", "eligible-huge-int",
        "matrix-bool", "matrix-row-string", "default-bool", "override-string"])
def test_instance_times_must_be_finite_numbers(path, value, field):
    test_malformed_field_is_named(path, value, field)


@pytest.mark.parametrize("key", ["1_0", " 1", "01", "+1", "1.0"])
def test_eligible_key_must_be_plain_integer_text(key):
    doc = instance_to_doc(minimal_instance())
    doc["jobs"][0]["eligible"] = {key: 5.0}
    with pytest.raises(DocumentError) as e:
        instance_from_doc(doc)
    assert str(e.value) == (f"instance.jobs[0].eligible key {json.dumps(key)} "
                            f"must be the plain text of an integer")


@pytest.mark.parametrize("path, where", [
    ((), "instance"), (("machines", 0), "instance.machines[0]"),
    (("orders", 0), "instance.orders[0]"),
    (("orders", 0, "products", 0), "instance.orders[0].products[0]"),
    (("jobs", 0), "instance.jobs[0]"), (("setup",), "instance.setup"),
])
def test_unknown_key_is_refused_at_every_level(path, where):
    doc = instance_to_doc(minimal_instance())
    doc["setup"] = {"default": 0.5}
    target = doc
    for key in path:
        target = target[key]
    target["note"] = "hand-edited"
    with pytest.raises(DocumentError) as e:
        instance_from_doc(doc)
    assert str(e.value).startswith(f"{where}: unknown key 'note'; choose from ")


def test_non_object_document_rejected():
    with pytest.raises(DocumentError, match=r"^instance must be an object with keys machines, "):
        instance_from_doc([])


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"machines": [,]}', encoding="utf-8")
    with pytest.raises(DocumentError, match="line 1"):
        load_instance(path)


def test_non_utf8_file_named(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(DocumentError) as e:
        load_instance(path)
    assert str(e.value).startswith(f"{path}: not UTF-8 text")


class _FileAccess(ast.NodeVisitor):
    """(module, function) of each call that may open a file for reading, and
    of each that opens one for writing. An open() writes when every mode it
    can be given is a literal "w..." or "a...", and may read otherwise; a
    Path read_text or read_bytes reads, write_text or write_bytes writes."""

    def __init__(self, module):
        self.where, self.reads, self.writes = (module, "<module>"), [], []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, (self.where[0], node.name)
        self.generic_visit(node)
        self.where = outer

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        method = isinstance(node.func, ast.Attribute)
        if name == "open":
            # builtin open(path, mode) or path.open(mode)
            args = node.args if method else node.args[1:]
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else None)
            modes = [mode.body, mode.orelse] if isinstance(mode, ast.IfExp) else [mode]
            writes = all(isinstance(m, ast.Constant) and str(m.value)[:1] in ("w", "a")
                         for m in modes)
            (self.writes if writes else self.reads).append(self.where)
        elif method and name in ("read_text", "read_bytes"):
            self.reads.append(self.where)
        elif method and name in ("write_text", "write_bytes"):
            self.writes.append(self.where)
        self.generic_visit(node)


def _file_access():
    """(reads, writes) of every module of the package."""
    reads, writes = [], []
    for path in sorted(Path(fafsp.__file__).parent.glob("*.py")):
        visitor = _FileAccess(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        reads += visitor.reads
        writes += visitor.writes
    return reads, writes


def test_file_access_visitor_sees_every_form():
    visitor = _FileAccess("m.py")
    visitor.visit(ast.parse(
        "def f(p, m):\n"
        "    open(p); open(p, m); p.open(); p.read_text(); p.read_bytes()\n"
        "    open(p, 'a' if m else 'r')\n"
        "    open(p, 'w'); p.open(mode='a'); p.write_text(''); p.write_bytes(b'')\n"))
    assert (visitor.reads, visitor.writes) == ([("m.py", "f")] * 6, [("m.py", "f")] * 4)


def test_only_read_text_opens_a_file_for_reading():
    assert _file_access()[0] == [("model.py", "read_text")]


def test_only_write_text_opens_a_file_for_writing():
    assert _file_access()[1] == [("model.py", "write_text")]


def test_save_rejects_invalid_instance(tmp_path):
    inst = minimal_instance()
    empty = dataclasses.replace(inst, orders=())
    with pytest.raises(ValueError, match="no orders"):
        save_instance(empty, tmp_path / "x.json")


def test_save_load_round_trip(tmp_path):
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=1.0,
                                            n_init=2, seed=3))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert instance_to_doc(again) == instance_to_doc(inst)


def test_a_loaded_instance_is_checked_once_per_rollout_set_up(tmp_path, monkeypatch):
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=1.0,
                                            n_init=2, seed=3))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    calls = []

    def counted(instance):
        calls.append(instance)
        return check_instance(instance)

    monkeypatch.setattr(model, "check_instance", counted)
    monkeypatch.setattr(sim, "check_instance", counted)
    loaded = load_instance(path)
    assert run_dispatch(loaded, RuleSpec.builtin("EDD")).arcs == \
        run_dispatch(inst, RuleSpec.builtin("EDD")).arcs
    # the reader's check for the loaded instance, the tables' for the generated one
    assert calls == [loaded, inst]


def test_an_invalid_instance_built_in_python_is_refused_by_the_engine():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.7, alpha=3, mu=1.0,
                                            n_init=2, seed=3))
    bad = dataclasses.replace(inst, orders=inst.orders[:-1])
    with pytest.raises(ValueError, match="invalid instance: .*belongs to no product"):
        SimState(bad)
    # an instance built from a loaded one is checked again
    loaded = instance_from_doc(instance_to_doc(inst))
    with pytest.raises(ValueError, match="invalid instance: .*belongs to no product"):
        SimState(dataclasses.replace(loaded, orders=loaded.orders[:-1]))


def test_two_saves_byte_identical(tmp_path):
    inst = generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.5, alpha=2, mu=1.0,
                                            n_init=2, seed=4))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(inst, a)
    save_instance(inst, b)
    assert a.read_bytes() == b.read_bytes()


def test_round_trip_on_100_random_instances(tmp_path):
    for seed in range(100):
        inst = generate_instance(ScenarioConfig(
            m1=1 + seed % 2, m2=2 + seed % 3, phi=0.4 + 0.2 * (seed % 4),
            alpha=seed % 3, mu=1.0 + seed % 2, n_init=1 + seed % 2, seed=seed))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert instance_to_doc(load_instance(path)) == instance_to_doc(inst)


def test_setup_default_overrides_form():
    inst = minimal_instance()
    doc = instance_to_doc(inst)
    doc["setup"] = {"default": 0.5, "overrides": [[0, 1, 2.5]]}
    loaded = instance_from_doc(doc)
    assert loaded.setup_time(None, 0) == 0.0          # virtual row stays zero
    assert loaded.setup_time(0, 1) == 2.5
    assert loaded.setup_time(1, 0) == 0.5


def test_job_product_order_partition():
    inst = generate_instance(ScenarioConfig(m1=2, m2=2, phi=0.6, alpha=4, mu=1.0,
                                            n_init=3, seed=9))
    seen = set()
    for o in inst.orders:
        for p in o.products:
            for j in (*p.processing_job_ids, p.assembly_job_id):
                assert j not in seen
                seen.add(j)
    assert seen == {j.id for j in inst.jobs}


def test_instances_are_equal_only_to_themselves_and_build_their_job_index():
    a, b = minimal_instance(), minimal_instance()
    assert a == a and a != b and not (a == b)
    # the job index is built from the jobs, never passed in
    with pytest.raises(TypeError):
        model.Instance(a.machines, a.orders, a.jobs, a.setup, {})
    assert "_job_index" not in repr(a)
    c = dataclasses.replace(a, jobs=a.jobs[::-1])
    assert [c.job(j.id) for j in a.jobs] == list(a.jobs)


def test_accessors_and_setup_lookup():
    inst = minimal_instance()
    inst.setup[1, 1] = 0.75
    assert inst.setup_time(None, 0) == 0.0
    assert inst.setup_time(0, 1) == 0.75
    assert inst.machines_of(Stage.PROCESSING)[0].id == 0


# -- the job cap: refused before the setup matrix -------------------------------

def _kits_doc(n_products):
    """Instance document of one order with n_products kits of one processing
    job and one assembly job, its setup given as a default."""
    return {
        "machines": [{"id": 0, "stage": "processing"}, {"id": 1, "stage": "assembly"}],
        "orders": [{"id": 0, "arrival": 0.0, "due": 10.0, "products": [
            {"id": p, "assembly_job": 2 * p + 1, "processing_jobs": [2 * p]}
            for p in range(n_products)]}],
        "jobs": [{"id": 2 * p + a, "kind": kind, "eligible": {str(a): 1.0}}
                 for p in range(n_products)
                 for a, kind in enumerate(("processing", "assembly"))],
        "setup": {"default": 1.0},
    }


def test_job_count_above_the_cap_is_refused_before_the_setup_matrix():
    doc = _kits_doc(model.MAX_JOBS // 2 + 1)
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError,
                           match=f"^instance.jobs: {model.MAX_JOBS + 2} jobs exceed the cap"):
            instance_from_doc(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (J+1) x J setup matrix alone would take 8(J+1)J bytes, about 200 MB
    assert peak < 8 * model.MAX_JOBS ** 2 / 100


def test_job_cap_admits_an_instance_at_the_cap(monkeypatch):
    monkeypatch.setattr(model, "MAX_JOBS", 4)
    assert instance_from_doc(_kits_doc(2)).num_jobs == 4
    with pytest.raises(DocumentError, match="^instance.jobs: 6 jobs exceed the cap of 4$"):
        instance_from_doc(_kits_doc(3))


# -- check_instance against a reference --------------------------------------

def _reference_check_instance(inst):
    """check_instance as it was written before its passes were merged: one
    pass per kind of check. The rewrite must return this list, in this order."""
    out = []
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
    seen = {}
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
                    out.append(f"job {j} claimed by two products ({seen[j]} and {p.id})")
                else:
                    seen[j] = p.id
    for j in inst.jobs:
        if j.id not in seen:
            out.append(f"job {j.id} belongs to no product")
    for o in inst.orders:
        for p in o.products:
            asm = inst._job_index.get(p.assembly_job_id)
            if asm is not None and asm.kind != Stage.ASSEMBLY:
                out.append(f"product {p.id}: assembly_job {p.assembly_job_id} is a {asm.kind.value} job")
            for jid in p.processing_job_ids:
                job = inst._job_index.get(jid)
                if job is not None and job.kind != Stage.PROCESSING:
                    out.append(f"product {p.id}: kit job {jid} is a {job.kind.value} job")
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
        into = inst.setup.max(axis=0).tolist()
        horizon = max(o.arrival for o in inst.orders) + sum(
            max(j.eligible.values()) + into[j.id] for j in inst.jobs)
        if not math.isfinite((len(inst.orders) + 1) * horizon):
            out.append(f"horizon {horizon} times {len(inst.orders) + 1} (orders + 1) is not finite")
    return out


_BAD = (-1.0, math.nan, math.inf, -math.inf, 1e308)


def _mutate(inst, rng):
    """A copy of ``inst`` with one to three random faults, built in Python."""
    machines, orders, jobs = list(inst.machines), list(inst.orders), list(inst.jobs)
    setup = inst.setup.copy()
    replace = dataclasses.replace
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(14)
        i = rng.randrange(len(jobs)) if jobs else 0
        if kind == 0 and machines:                      # machine id or stage
            k = rng.randrange(len(machines))
            m = machines[k]
            machines[k] = (replace(m, id=rng.choice([m.id + 7, 0, -1])) if rng.random() < 0.5
                           else replace(m, stage=Stage.ASSEMBLY if m.stage == Stage.PROCESSING
                                        else Stage.PROCESSING))
        elif kind == 1:                                 # a stage without machines
            stage = rng.choice(list(Stage))
            machines = [m for m in machines if m.stage != stage]
        elif kind == 2 and orders:                      # order times
            k = rng.randrange(len(orders))
            name = rng.choice(["arrival", "due"])
            orders[k] = replace(orders[k], **{name: rng.choice(_BAD + (-5.0,))})
        elif kind == 3 and orders:                      # an order's id, or no order
            k = rng.randrange(len(orders))
            if rng.random() < 0.5:
                orders[k] = replace(orders[k], id=orders[k].id + rng.choice([1, 50]))
            else:
                del orders[k]
        elif kind == 4 and orders:                      # a product's kit or assembly
            k = rng.randrange(len(orders))
            o = orders[k]
            if not o.products:
                continue
            ps = list(o.products)
            q = rng.randrange(len(ps))
            p = ps[q]
            ps[q] = rng.choice([
                replace(p, processing_job_ids=()),
                replace(p, processing_job_ids=(*p.processing_job_ids, len(jobs) + 3)),
                replace(p, processing_job_ids=(*p.processing_job_ids, rng.randrange(len(jobs)))),
                replace(p, assembly_job_id=p.processing_job_ids[0]) if p.processing_job_ids
                else p,
                replace(p, id=p.id + 1)])
            orders[k] = replace(o, products=tuple(ps) if rng.random() < 0.9 else ())
        elif kind == 5 and jobs:                        # a job's id
            jobs[i] = replace(jobs[i], id=rng.choice([jobs[i].id + 1, len(jobs) + 9, 0]))
        elif kind == 6 and jobs:                        # a job's kind
            j = jobs[i]
            jobs[i] = replace(j, kind=Stage.ASSEMBLY if j.kind == Stage.PROCESSING
                              else Stage.PROCESSING)
        elif kind == 7 and jobs:                        # no eligible machine
            jobs[i] = replace(jobs[i], eligible={})
        elif kind == 8 and jobs:                        # an unknown or other-stage machine
            m = rng.choice([len(machines) + 4, rng.randrange(max(len(machines), 1))])
            jobs[i] = replace(jobs[i], eligible={**jobs[i].eligible, m: 1.0})
        elif kind == 9 and jobs and jobs[i].eligible:   # a bad processing time
            m = rng.choice(list(jobs[i].eligible))
            jobs[i] = replace(jobs[i], eligible={**jobs[i].eligible, m: rng.choice(_BAD)})
        elif kind == 10 and jobs:                       # a job that no product claims
            del jobs[i]
        elif kind == 11:                                # setup shape
            setup = setup[:, :-1] if rng.random() < 0.5 else setup[1:]
        elif kind == 12 and setup.size:                 # a setup entry, the virtual row too
            r = rng.randrange(setup.shape[0]) if rng.random() < 0.8 else 0
            setup[r, rng.randrange(setup.shape[1])] = rng.choice(_BAD + (2.0,))
        elif kind == 13:                                # a horizon past the float range
            where = rng.randrange(3)
            if where == 0:
                setup[1:] = 1e306
            elif where == 1:
                jobs = [replace(j, eligible={m: 1e307 for m in j.eligible}) for j in jobs]
            elif jobs:                                  # each time finite, their sum not
                jobs[i] = replace(jobs[i], eligible={m: 1.5e308 for m in range(len(machines))
                                                     if m in jobs[i].eligible or m < 2})
    return model.Instance(tuple(machines), tuple(orders), tuple(jobs), setup)


@pytest.mark.parametrize("seed", range(8))
def test_check_instance_matches_the_reference_on_mutated_instances(seed):
    rng = random.Random(seed)
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.6, alpha=3, mu=2.0,
                                            n_init=2, seed=seed))
    assert check_instance(inst) == _reference_check_instance(inst) == []
    faults = 0
    for _ in range(60):
        bad = _mutate(inst, rng)
        want = _reference_check_instance(bad)
        assert check_instance(bad) == want
        faults += bool(want)
    assert faults >= 50
