"""Data model: invariants, the instance file format and its round trips."""

import dataclasses
import math

import pytest

from fafsp.model import (InstanceFormatError, Stage, check_instance,
                         instance_from_doc, instance_to_doc, instances_equal,
                         load_instance, save_instance)
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.sim import SimState

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
    with pytest.raises(InstanceFormatError, match="assembly without kit"):
        instance_from_doc(doc)


def test_dangling_job_reference_named():
    doc = instance_to_doc(minimal_instance())
    doc["orders"][0]["products"][0]["assembly_job"] = 99
    with pytest.raises(InstanceFormatError, match="99"):
        instance_from_doc(doc)


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"machines": [,]}', encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="line 1"):
        load_instance(path)


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
    assert instances_equal(inst, again)


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
        assert instances_equal(inst, load_instance(path))


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
    for j in inst.jobs:
        assert inst.order_of_job(j.id).id == j.order_id
        assert inst.product_of_job(j.id).id == j.product_id


def test_accessors_and_setup_lookup():
    inst = minimal_instance()
    inst.setup[1, 1] = 0.75
    assert inst.setup_time(None, 0) == 0.0
    assert inst.setup_time(0, 1) == 0.75
    assert inst.machines_of(Stage.PROCESSING)[0].id == 0
