"""The one reader of outside documents: scenarios, evolution configs, grids
and instances are built or refused with a DocumentError naming the path."""

import copy
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from fafsp.bench import _Grid
from fafsp.cli import main
from fafsp.evolve import EvolutionConfig
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.model import DocumentError, instance_from_doc, instance_to_doc, read_document

from helpers import minimal_instance

SCENARIO = {"m1": 1, "m2": 2, "phi": 0.8, "alpha": 2, "mu": 2.0, "n_init": 2, "seed": 42}

DOCUMENTS = {
    "scenario": (lambda doc: read_document(ScenarioConfig, doc, "scenario"), SCENARIO),
    "config": (lambda doc: read_document(EvolutionConfig, doc, "config"), {
        "generations": 3, "population": 4, "u_low": 0.3, "u_up": 1.5, "u0": None,
        "sample_budget": 10, "mu": 2.0, "training_instances": ["a.json"],
        "strategies": ["C1", "M2"]}),
    "grid": (lambda doc: read_document(_Grid, doc, "grid"),
             {"scenarios": [SCENARIO, {**SCENARIO, "T": 0.3}], "replications": 2}),
    "instance": (instance_from_doc, instance_to_doc(minimal_instance())),
}

JUNK = st.sampled_from([True, False, "x", "1.5", None, [], [1, 2], {}, {"a": 1},
                        math.nan, math.inf, 10**400, -1, 0, 2.5]).map(copy.deepcopy)


def _paths(value, path=()):
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one to three keys dropped or added, or values swapped for junk."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["swap", "drop", "add"]))
        if not path:
            if op == "swap":
                doc = draw(JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if op == "swap":
            parent[path[-1]] = draw(JUNK)
        elif op == "drop":
            del parent[path[-1]]
        elif isinstance(target, dict):
            target[draw(st.sampled_from(["bogus", "0", "id", *target]))] = draw(JUNK)
        elif isinstance(target, list):
            target.append(draw(JUNK))
    return doc


@seed(11)
@settings(max_examples=800, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), kind=st.sampled_from(sorted(DOCUMENTS)))
def test_mutated_documents_raise_only_document_errors(data, kind):
    read, valid = DOCUMENTS[kind]
    doc = data.draw(mutated(valid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # a wide due-date window
        try:
            read(doc)
        except DocumentError as e:
            assert str(e) and "\n" not in str(e)
        else:
            assert '"bogus":' not in json.dumps(doc)    # no document has such a key


@pytest.mark.parametrize("command, doc, message", [
    (["gen", "--scenario"], {**SCENARIO, "m1": "1"},
     'scenario.m1 must be an integer, not "1"'),
    (["evolve", "--transport", "replay", "--config"],
     {"strategies": [{"operator": "C1", "parents": 2, "critique": True}]},
     'config.strategies[0] must be a string, '
     'not {"operator": "C1", "parents": 2, "critique": true}'),
    (["bench", "--rules", "EDD", "--grid"], {"scenarios": [SCENARIO, {**SCENARIO, "phi": True}]},
     "grid.scenarios[1].phi must be a finite number, not true"),
    (["bench", "--rules", "EDD", "--grid"], {"scenarios": [{**SCENARIO, "phi": 1.5}]},
     "grid.scenarios[0]: phi must be in (0, 1], got 1.5"),
    (["run", "--rule", "EDD", "--instance"],
     {**DOCUMENTS["instance"][1], "jobs": [{"id": None, "kind": "processing", "eligible": {}}]},
     "instance.jobs[0].id must be an integer, not null"),
], ids=["scenario", "evolution-config", "grid", "grid-range", "instance"])
def test_cli_document_error_names_file_and_json_path(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def _horizon_doc(pt=None, setup=None):
    """A 17-job, 4-order instance with every processing time ``pt`` or the
    setup ``setup``: each time is finite, the horizon is not."""
    doc = instance_to_doc(generate_instance(ScenarioConfig(m1=1, m2=2, phi=0.7, alpha=1, mu=1.0,
                                                           n_init=3, seed=1)))
    for job in doc["jobs"]:
        job["eligible"] = {m: pt or t for m, t in job["eligible"].items()}
    return {**doc, "setup": setup or doc["setup"]}


@pytest.mark.parametrize("doc", [_horizon_doc(pt=1e308), _horizon_doc(setup={"default": 1e308}),
                                 _horizon_doc(pt=1e307)],
                         ids=["processing-1e308", "setup-1e308", "processing-1e307"])
def test_cli_refuses_an_instance_whose_horizon_is_not_finite(tmp_path, capsys, doc):
    # an event time past the float range, or a tardiness sum of 1e307 per
    # order, ended the rollout in a traceback
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--rule", "EDD", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: instance: horizon ")
    assert err.count("error:") == 1 and "Traceback" not in err and "is not finite" in err
