"""ARI arithmetic, benchmark reports, trace export, CLI surface."""

import json
import os
import re

import pytest

from fafsp import cli
from fafsp.bench import (compute_ari, default_grid, export_traces,
                         journal_to_convergence, read_journal, run_benchmark,
                         scenario_label, write_journal, write_per_instance)
from fafsp.cli import main
from fafsp.generator import ScenarioConfig
from fafsp.rules import RuleSpec
from fafsp.llm import RecordingTransport, ScriptedTransport
from fafsp.model import instance_to_doc, save_instance
from fafsp.sim import run_dispatch, save_schedule

from helpers import minimal_instance


def test_compute_ari_published_style_pair():
    assert compute_ari(7259.65, 8745.54) == pytest.approx(0.1699, abs=2e-4)


def test_compute_ari_trivia():
    assert compute_ari(42.0, 42.0) == 0.0
    assert compute_ari(50.0, 100.0) == 0.5
    with pytest.raises(ValueError):
        compute_ari(10.0, 0.0)
    with pytest.raises(ValueError):
        compute_ari(10.0, -5.0)


def test_run_benchmark_shape_and_aggregates():
    scenarios = [ScenarioConfig(m1=1, m2=2, phi=0.8, alpha=2, mu=2.0, n_init=2, seed=50)]
    rules = [RuleSpec.builtin("EDD"), RuleSpec.builtin("MWKR+EET")]
    report = run_benchmark(scenarios, rules, replications=2)
    label = scenario_label(scenarios[0])
    assert report.scenarios == [label]
    assert set(report.rules) == {"EDD", "MWKR+EET"}
    assert set(report.avg) == {"EDD", "MWKR+EET"}
    worst = max(report.avg, key=report.avg.get)
    assert report.ari[worst] == 0.0
    assert sorted(report.rank.values()) == [1, 2]
    for r in report.rules:
        assert report.mean[(label, r)] >= 0
        assert report.sd[(label, r)] >= 0
        assert 0.0 <= report.scenario_ari[(label, r)] <= 1.0


#: a scenario on which no rule is ever late: one order, a light load
NEVER_LATE = {"m1": 2, "m2": 4, "phi": 1.0, "alpha": 0, "mu": 0.1, "n_init": 1,
              "T": 0, "R": 0, "seed": 3}


def test_run_benchmark_with_no_late_rule_has_zero_ari():
    rules = [RuleSpec.builtin("EDD"), RuleSpec.builtin("FIFO+SPT")]
    report = run_benchmark([ScenarioConfig(**NEVER_LATE)], rules, replications=2)
    assert report.avg == {"EDD": 0.0, "FIFO+SPT": 0.0}
    assert report.ari == {"EDD": 0.0, "FIFO+SPT": 0.0}
    assert set(report.scenario_ari.values()) == {0.0}
    assert report.rank == {"EDD": 1, "FIFO+SPT": 2}


def test_run_benchmark_deterministic():
    scenarios = [ScenarioConfig(m1=1, m2=2, phi=0.6, alpha=2, mu=2.0, n_init=2, seed=60),
                 ScenarioConfig(m1=2, m2=2, phi=0.8, alpha=2, mu=1.0, n_init=2, seed=61)]
    rules = [RuleSpec.builtin("EDD"), RuleSpec.expression("due + pt", name="expr")]
    a = run_benchmark(scenarios, rules, replications=2)
    b = run_benchmark(scenarios, rules, replications=2)
    assert a.mean == b.mean and a.avg == b.avg and a.rank == b.rank
    assert a.to_text() == b.to_text()


def test_default_grid_covers_24_scenarios():
    grid = default_grid()
    assert len(grid) == 24
    assert len({scenario_label(s) for s in grid}) == 24


def test_journal_to_convergence_carries_best():
    entries = [{"fitness": None}, {"fitness": 5.0}, {"fitness": 7.0},
               {"fitness": None}, {"fitness": 3.0}]
    rows = journal_to_convergence(entries)
    assert rows == [(1, None), (2, 5.0), (3, 5.0), (4, 5.0), (5, 3.0)]


def test_export_traces_empty_run(tmp_path):
    run_dir = tmp_path / "run"
    out = tmp_path / "out"
    os.makedirs(run_dir)
    write_journal([], run_dir / "journal.jsonl")
    written = export_traces(run_dir, out)
    assert "convergence.csv" in written
    assert (out / "convergence.csv").read_text() == "sample,best_fitness\n"
    assert (out / "tardiness.csv").read_text() == "instance,tardiness\n"


def test_export_traces_rows_and_idempotence(tmp_path):
    run_dir = tmp_path / "run"
    os.makedirs(run_dir / "schedules")
    entries = [{"generation": 0, "operator": "Init", "digest": "d1",
                "temperature": "0.600000", "fitness": 12.5},
               {"generation": 1, "operator": "C1", "digest": "d2",
                "temperature": "0.600000", "fitness": None}]
    write_journal(entries, run_dir / "journal.jsonl")
    write_per_instance([3.0, 4.5], run_dir / "per_instance.csv")

    from helpers import minimal_instance
    sched = run_dispatch(minimal_instance(), RuleSpec.builtin("EDD"))
    save_schedule(sched, run_dir / "schedules" / "edd.csv")

    out = tmp_path / "out"
    export_traces(run_dir, out)
    conv = (out / "convergence.csv").read_text().splitlines()
    assert len(conv) == 1 + len(entries)        # one row per LLM sample
    first = {p: (out / p).read_bytes() for p in os.listdir(out)}
    export_traces(run_dir, out)
    again = {p: (out / p).read_bytes() for p in os.listdir(out)}
    assert first == again                        # byte-identical re-export
    assert any(p.startswith("gantt_") for p in first)


# -- CLI ---------------------------------------------------------------------


def _write_scenario(path):
    doc = {"m1": 1, "m2": 2, "phi": 0.8, "alpha": 2, "mu": 2.0,
           "T": 0.2, "R": 0.4, "n_init": 2, "seed": 42}
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_cli_gen_run_validate_export(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    out_dir = tmp_path / "insts"
    assert main(["gen", "--scenario", str(scen), "--count", "2",
                 "--out", str(out_dir)]) == 0
    files = sorted(os.listdir(out_dir))
    assert "manifest.json" in files and len(files) == 3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seeds"] == [42, 43]

    inst_path = out_dir / manifest["files"][0]
    sched_path = tmp_path / "sched.csv"
    assert main(["run", "--rule", "EDD", "--instance", str(inst_path),
                 "--out", str(sched_path)]) == 0
    out = capsys.readouterr().out
    assert "total_tardiness:" in out

    assert main(["validate", "--instance", str(inst_path),
                 "--schedule", str(sched_path)]) == 0

    # corrupt the schedule: shift one start time to break machine ordering
    lines = sched_path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("arc,"):
            parts = line.split(",")
            parts[4] = "-5.0"
            lines[i] = ",".join(parts)
            break
    sched_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["validate", "--instance", str(inst_path),
                 "--schedule", str(sched_path)]) == 2


def test_cli_run_accepts_expression_and_rule_file(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    main(["gen", "--scenario", str(scen), "--count", "1", "--out", str(tmp_path / "i")])
    inst = tmp_path / "i" / "inst_42_0.json"
    assert main(["run", "--rule", "due + 2*pt", "--instance", str(inst)]) == 0

    rule_file = tmp_path / "rule.txt"
    rule_file.write_text("# name: r\n# description: d\n# fitness: -\ndue + pt\n")
    assert main(["run", "--rule", str(rule_file), "--instance", str(inst)]) == 0


def test_cli_bench(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "replications": 2,
        "scenarios": [{"m1": 1, "m2": 2, "phi": 0.8, "alpha": 2, "mu": 2.0,
                       "n_init": 2, "seed": 7}],
    }), encoding="utf-8")
    out = tmp_path / "report.txt"
    assert main(["bench", "--grid", str(grid), "--rules", "EDD,FIFO+SPT",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "Avg." in text and "ARI" in text and "Rank" in text


def test_cli_bench_with_no_late_rule(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"replications": 2, "scenarios": [NEVER_LATE]}),
                    encoding="utf-8")
    assert main(["bench", "--grid", str(grid), "--rules", "EDD,FIFO+SPT"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["ARI", "0.00%", "0.00%"]


def _recorded_run(tmp_path):
    """An evolution config on two generated instances and the cassette of
    its run, recorded through the library: (config path, cassette path)."""
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    main(["gen", "--scenario", str(scen), "--count", "2", "--out", str(tmp_path / "tr")])
    inst_files = sorted(str(p) for p in (tmp_path / "tr").glob("inst_*.json"))

    cfg_path = tmp_path / "evo.json"
    cfg_path.write_text(json.dumps({
        "generations": 1, "population": 2, "seed": 4, "retry_budget": 2,
        "training_instances": inst_files,
        "strategies": [{"operator": "C2", "parents": 2, "critique": False}],
    }), encoding="utf-8")

    crit = "Advantages: a.\nLimitations: b.\nSuggestions: c.\n"
    responses = [crit,
                 "Description: r1\n```\ndue + pt\n```",
                 "Description: r2\n```\ndue - now + 2*pt\n```",
                 "Description: r3\n```\ndue*0.5 + work_rem\n```",
                 "Description: r4\n```\ndue + pt*3\n```"]
    cassette = tmp_path / "cassette.jsonl"
    from fafsp.evolve import load_evolution_config, run_evolution
    run_evolution(load_evolution_config(cfg_path),
                  RecordingTransport(ScriptedTransport(responses), cassette))
    return cfg_path, cassette


def _replay(cfg_path, cassette, run_dir) -> int:
    return main(["evolve", "--config", str(cfg_path), "--transport", "replay",
                 "--cassette", str(cassette), "--out", str(run_dir)])


def test_cli_evolve_replay_and_export(tmp_path, capsys):
    cfg_path, cassette = _recorded_run(tmp_path)
    run_dir = tmp_path / "run"
    # a second run into the same directory restarts its transcripts
    for _ in range(2):
        assert _replay(cfg_path, cassette, run_dir) == 0
        # the run's transcripts are the cassette it replayed, byte for byte
        assert (run_dir / "transcripts.jsonl").read_bytes() == cassette.read_bytes()
    assert (run_dir / "best_rule.txt").exists()
    assert (run_dir / "journal.jsonl").exists()
    assert (run_dir / "convergence.csv").exists()

    out_dir = tmp_path / "traces"
    assert main(["export", "--run", str(run_dir), "--out", str(out_dir)]) == 0
    assert (out_dir / "convergence.csv").exists()


def test_cli_replay_miss_keeps_every_reply_served_before_it(tmp_path, capsys):
    cfg_path, cassette = _recorded_run(tmp_path)
    lines = cassette.read_bytes().splitlines(keepends=True)
    assert len(lines) == 5
    run_dir = tmp_path / "run"
    for k in range(len(lines)):
        assert _replay(cfg_path, cassette, run_dir) == 0     # a finished run
        cut = tmp_path / f"cut{k}.jsonl"
        cut.write_bytes(b"".join(lines[:k]))
        assert _replay(cfg_path, cut, run_dir) == 3
        assert "no unconsumed cassette record" in capsys.readouterr().err
        # the cut run's replies, and nothing of the finished run
        assert [p.name for p in run_dir.iterdir()] == ["transcripts.jsonl"]
        assert (run_dir / "transcripts.jsonl").read_bytes() == b"".join(lines[:k])


def test_cli_replays_a_run_from_its_own_transcripts(tmp_path, capsys):
    cfg_path, cassette = _recorded_run(tmp_path)
    run_dir = tmp_path / "run"
    assert _replay(cfg_path, cassette, run_dir) == 0
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    own = run_dir / "transcripts.jsonl"
    assert _replay(cfg_path, own, run_dir) == 0
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == first
    # another seed asks for a reply the run never had: the replay misses,
    # and the only copy of the run's replies stays whole
    assert main(["evolve", "--config", str(cfg_path), "--transport", "replay",
                 "--cassette", str(own), "--out", str(run_dir), "--seed", "5"]) == 3
    assert "no unconsumed cassette record" in capsys.readouterr().err
    assert own.read_bytes() == first["transcripts.jsonl"] == cassette.read_bytes()
    assert [p.name for p in run_dir.iterdir()] == ["transcripts.jsonl"]


def test_cli_evolve_record_transport_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["evolve", "--config", str(tmp_path / "evo.json"), "--transport", "record",
              "--cassette", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "r")])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "invalid choice: 'record'" in err
    assert not (tmp_path / "r").exists()


def _run_files(run_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


def test_cli_evolve_missing_training_file_exits_1(tmp_path, capsys):
    # training files are opened before the run directory is touched, so a
    # finished run there stays whole
    run_dir = tmp_path / "r"
    assert _replay(*_recorded_run(tmp_path), run_dir) == 0
    capsys.readouterr()
    before = _run_files(run_dir)
    cfg_path = tmp_path / "missing.json"
    cfg_path.write_text(json.dumps({"training_instances": [str(tmp_path / "none.json")]}),
                        encoding="utf-8")
    cassette = tmp_path / "empty.jsonl"
    cassette.write_text("", encoding="utf-8")
    assert _replay(cfg_path, cassette, run_dir) == 1
    _assert_one_error_line(capsys, "none.json")
    assert _run_files(run_dir) == before


@pytest.mark.parametrize("case", ["no training instances", "seed in the config", "seed option"])
def test_cli_evolve_failed_start_leaves_an_earlier_run_byte_identical(tmp_path, capsys, case):
    cfg_path, cassette = _recorded_run(tmp_path)
    run_dir = tmp_path / "r"
    assert _replay(cfg_path, cassette, run_dir) == 0
    capsys.readouterr()
    before = _run_files(run_dir)
    assert set(before) >= {"best_rule.txt", "transcripts.jsonl"} and before["transcripts.jsonl"]
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    extra, names = [], ["seed"]
    if case == "no training instances":
        doc["training_instances"] = []
        names = ["no training instances"]
    elif case == "seed in the config":
        doc["seed"] = -1
    else:
        extra = ["--seed", "-3"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evolve", "--config", str(bad), "--transport", "replay",
                 "--cassette", str(cassette), "--out", str(run_dir), *extra]) == 1
    _assert_one_error_line(capsys, *names)
    assert _run_files(run_dir) == before


@pytest.mark.parametrize("case", ["gen scenario", "gen option", "bench option",
                                  "evolve config", "evolve option"])
def test_cli_negative_seed_names_the_seed(tmp_path, capsys, case):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"replications": 2, "scenarios": [
        {"m1": 1, "m2": 2, "phi": 0.8, "alpha": 2, "mu": 2.0, "n_init": 2, "seed": 7}]}),
        encoding="utf-8")
    evo = tmp_path / "evo.json"
    evo.write_text(json.dumps({"seed": -1 if case == "evolve config" else 0}), encoding="utf-8")
    if case == "gen scenario":
        scen.write_text(scen.read_text(encoding="utf-8").replace('"seed": 42', '"seed": -1'),
                        encoding="utf-8")
    argv = {"gen scenario": ["gen", "--scenario", str(scen), "--out", str(tmp_path / "g")],
            "gen option": ["gen", "--scenario", str(scen), "--out", str(tmp_path / "g"),
                           "--seed", "-4"],
            "bench option": ["bench", "--grid", str(grid), "--rules", "EDD", "--seed", "-10"],
            "evolve config": ["evolve", "--config", str(evo), "--transport", "replay",
                              "--cassette", str(tmp_path / "none.jsonl"),
                              "--out", str(tmp_path / "r")],
            "evolve option": ["evolve", "--config", str(evo), "--transport", "replay",
                              "--cassette", str(tmp_path / "none.jsonl"),
                              "--out", str(tmp_path / "r"), "--seed", "-3"]}[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: (.*: )?seed must be >= 0, not -\d+\n", err), err
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "g").exists()


def test_cli_bench_seed_offset_names_the_option_the_file_and_the_scenario(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    scenario = {"m1": 1, "m2": 2, "phi": 0.8, "alpha": 2, "mu": 2.0, "n_init": 2}
    grid.write_text(json.dumps({"replications": 1, "scenarios": [
        {**scenario, "seed": 12}, {**scenario, "seed": 7}]}), encoding="utf-8")
    assert main(["bench", "--grid", str(grid), "--rules", "EDD", "--seed", "-10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {grid}: grid.scenarios[1] with --seed -10: "
                   "seed must be >= 0, not -3\n")


def test_cli_evolve_replay_miss_is_transport_failure(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    main(["gen", "--scenario", str(scen), "--count", "1", "--out", str(tmp_path / "tr")])
    cfg_path = tmp_path / "evo.json"
    cfg_path.write_text(json.dumps({
        "generations": 0, "population": 2, "seed": 4,
        "training_instances": [str(tmp_path / "tr" / "inst_42_0.json")],
    }), encoding="utf-8")
    cassette = tmp_path / "empty.jsonl"
    cassette.write_text("", encoding="utf-8")
    assert main(["evolve", "--config", str(cfg_path), "--transport", "replay",
                 "--cassette", str(cassette), "--out", str(tmp_path / "r")]) == 3
    # one line with the plain message, not the quoted repr a KeyError prints
    err = capsys.readouterr().err
    assert re.fullmatch("transport error: no unconsumed cassette record for digest "
                        "[0-9a-f]{64}\n", err), err


def test_cli_evolve_malformed_cassette_exits_1(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    main(["gen", "--scenario", str(scen), "--count", "1", "--out", str(tmp_path / "tr")])
    cfg_path = tmp_path / "evo.json"
    cfg_path.write_text(json.dumps({
        "generations": 0, "population": 2, "seed": 4,
        "training_instances": [str(tmp_path / "tr" / "inst_42_0.json")],
    }), encoding="utf-8")
    cassette = tmp_path / "bad.jsonl"
    cassette.write_text('{"x": 1}\n', encoding="utf-8")
    assert main(["evolve", "--config", str(cfg_path), "--transport", "replay",
                 "--cassette", str(cassette), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cassette ") and "line 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("doc", [
    {"strategies": [{"operator": "C1", "critique": True}]},
    {"bogus": 1},
    {"strategies": "C1"},
    {"generations": "3"},
    {"population": 2.5},
    {"strategies": [{"operator": "C2", "parents": 2, "critique": True}]},
])
def test_cli_evolve_bad_config_exits_1(tmp_path, capsys, doc):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evolve", "--config", str(cfg_path), "--transport", "replay",
                 "--cassette", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_cli_evolve_transport_failure_writes_partial_run(tmp_path, capsys, monkeypatch):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    main(["gen", "--scenario", str(scen), "--count", "1", "--out", str(tmp_path / "tr")])
    cfg_path = tmp_path / "evo.json"
    cfg_path.write_text(json.dumps({
        "generations": 2, "population": 2, "seed": 4,
        "training_instances": [str(tmp_path / "tr" / "inst_42_0.json")],
    }), encoding="utf-8")
    crit = "Advantages: a.\nLimitations: b.\nSuggestions: c.\n"
    replies = [crit, "Description: r1\n```\ndue + pt\n```",
               "Description: r2\n```\ndue - now + 2*pt\n```", crit]
    monkeypatch.setattr("fafsp.cli._make_transport",
                        lambda kind, cassette: ScriptedTransport(replies))
    run_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg_path), "--transport", "live",
                 "--out", str(run_dir)]) == 3
    captured = capsys.readouterr()
    assert "transport error: scripted transport ran out of responses" in captured.err
    assert "samples: 4" in captured.out
    journal = (run_dir / "journal.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["operator"] for line in journal] == ["Eval", "Init", "Init", "Eval"]
    transcripts = (run_dir / "transcripts.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["response"] for line in transcripts] == replies
    assert (run_dir / "best_rule.txt").exists()


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen", "--scenario"])          # missing value
    assert e.value.code == 1
    assert main(["run", "--rule", "EDD", "--instance", str(tmp_path / "nope.json")]) == 1


def _assert_one_error_line(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert all(name in err for name in names)


def test_cli_run_malformed_instance_exits_1(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"machines": [1], "jobs": [], "orders": [], "setup": []}),
                    encoding="utf-8")
    assert main(["run", "--rule", "EDD", "--instance", str(path)]) == 1
    _assert_one_error_line(capsys, "machines[0]")


def test_cli_run_sparse_order_ids_exits_1(tmp_path, capsys):
    # the rollout tables index orders by id, so ids must be dense like job ids
    doc = instance_to_doc(minimal_instance())
    doc["orders"][0]["id"] = 5
    path = tmp_path / "o5.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--rule", "EDD", "--instance", str(path)]) == 1
    _assert_one_error_line(capsys, "order ids not dense 0..0")


# et*et + 9 >= 9, so every score overflows to inf at the first decision with
# two arcs; a single arc is dispatched unscored
OVERFLOWING_RULE = "exp(exp(exp(et*et + 9)))"


def test_cli_run_nonfinite_rule_exits_1(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    main(["gen", "--scenario", str(scen), "--count", "1", "--out", str(tmp_path / "i")])
    capsys.readouterr()
    inst = tmp_path / "i" / "inst_42_0.json"
    assert main(["run", "--rule", OVERFLOWING_RULE, "--instance", str(inst)]) == 1
    _assert_one_error_line(capsys, "non-finite score inf", "(job 0, machine 1)")


def test_cli_bench_nonfinite_rule_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    scenario = {"m1": 1, "m2": 2, "phi": 0.8, "alpha": 2, "mu": 2.0, "n_init": 2, "seed": 42}
    grid.write_text(json.dumps({"replications": 1, "scenarios": [scenario]}),
                    encoding="utf-8")
    assert main(["bench", "--grid", str(grid), "--rules", f"EDD,{OVERFLOWING_RULE}"]) == 1
    _assert_one_error_line(capsys, "non-finite score inf")


SCENARIO = {"m1": 1, "m2": 2, "phi": 0.8, "alpha": 2, "mu": 2.0, "n_init": 2, "seed": 42}


@pytest.mark.parametrize("doc, key", [
    ({**SCENARIO, "bogus": 1}, "bogus"),
    ({**SCENARIO, "m1": "1"}, "m1"),
    ({**SCENARIO, "m1": 1.5}, "m1"),
    ({**SCENARIO, "phi": True}, "phi"),
    ({k: v for k, v in SCENARIO.items() if k != "mu"}, "mu"),
    ([SCENARIO], "scenario"),
], ids=["unknown-key", "string-int", "float-int", "bool-number", "missing-key", "list"])
def test_cli_gen_bad_scenario_exits_1(tmp_path, capsys, doc, key):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["gen", "--scenario", str(path), "--count", "1",
                 "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_gen_count_below_one_exits_1(tmp_path, capsys, count):
    scen = tmp_path / "scen.json"
    _write_scenario(scen)
    assert main(["gen", "--scenario", str(scen), "--count", count,
                 "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, f"count must be >= 1, not {count}")
    assert not (tmp_path / "out").exists()


def test_cli_gen_integer_past_the_digit_limit_names_the_file(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"m1": ' + "9" * 5000 + "}", encoding="utf-8")
    assert main(["gen", "--scenario", str(path), "--count", "1",
                 "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, f"error: {path}: ", "integer string conversion")
    assert not (tmp_path / "out").exists()


def test_cli_gen_deeply_nested_scenario_names_the_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["gen", "--scenario", str(path), "--count", "1",
                 "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, f"error: {path}: ", "nested too deep")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("not json", "Expecting value"),
    ("[" * 100_000, "nested too deep"),
    ("[1]", "not a JSON object"),
    ('{"fitness": "abc"}', "fitness must be a finite number or null, not 'abc'"),
    ('{"fitness": NaN}', "not nan"),
    ('{"fitness": true}', "not True"),
], ids=["not-json", "too-deep", "not-object", "string-fitness", "nan-fitness",
        "bool-fitness"])
def test_cli_export_bad_journal_line_names_file_and_line(tmp_path, capsys, line, message):
    run_dir = tmp_path / "run"
    os.makedirs(run_dir)
    journal = run_dir / "journal.jsonl"
    journal.write_text('{"fitness": 4.5}\n\n' + line + "\n", encoding="utf-8")
    assert main(["export", "--run", str(run_dir), "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, f"{journal} line 3: ", message)


@pytest.mark.parametrize("name", ["journal.jsonl", "per_instance.csv"])
def test_cli_export_non_utf8_file_names_it(tmp_path, capsys, name):
    run_dir = tmp_path / "run"
    os.makedirs(run_dir)
    (run_dir / name).write_bytes(b"\xff\xfe{\x00}\x00\n")
    assert main(["export", "--run", str(run_dir), "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, f"error: {run_dir / name}: not UTF-8 text (")


def test_cli_export_missing_run_dir_names_it_and_writes_nothing(tmp_path, capsys):
    run_dir, out = tmp_path / "no-such-run", tmp_path / "out"
    assert main(["export", "--run", str(run_dir), "--out", str(out)]) == 1
    _assert_one_error_line(capsys, f"error: {run_dir}: ")
    assert not out.exists()


def test_journal_line_separators_inside_strings_keep_line_numbers(tmp_path):
    # U+2028 and U+0085 end a line for str.splitlines() but not for a file
    journal = tmp_path / "journal.jsonl"
    entries = [{"fitness": 4.5, "source": "due\u2028- now"}, {"fitness": None, "why": "a\x85b"}]
    journal.write_text("".join(json.dumps(e, ensure_ascii=False) + "\n" for e in entries),
                       encoding="utf-8")
    assert read_journal(journal) == entries
    with journal.open("a", encoding="utf-8") as fh:
        fh.write("[1]\n")
    with pytest.raises(ValueError) as e:
        read_journal(journal)
    assert str(e.value) == f"{journal} line 3: not a JSON object"


@pytest.mark.parametrize("exc, err", [
    (MemoryError(), "error: MemoryError\n"),
    (MemoryError("Unable to allocate 13.0 GiB for an array with shape (41000, 41000)"),
     "error: Unable to allocate 13.0 GiB for an array with shape (41000, 41000)\n"),
], ids=["bare", "numpy-style"])
def test_cli_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, exc, err):
    def run_out_of_memory(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_export", run_out_of_memory)
    assert main(["export", "--run", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err


def test_cli_gen_non_utf8_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "scen.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["gen", "--scenario", str(path), "--count", "1",
                 "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, str(path))


def test_cli_run_non_utf8_rule_file_exits_1(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(minimal_instance(), inst_path)
    rule = tmp_path / "rule.txt"
    rule.write_bytes(b"\xff\xfe# name: r\n")
    assert main(["run", "--rule", str(rule), "--instance", str(inst_path)]) == 1
    _assert_one_error_line(capsys, f"{rule}: not UTF-8 text")


@pytest.mark.parametrize("job", ["99", "-1"])
def test_cli_validate_unknown_job_is_a_violation(tmp_path, capsys, job):
    inst_path = tmp_path / "inst.json"
    save_instance(minimal_instance(), inst_path)
    sched = tmp_path / "sched.csv"
    sched.write_text(f"arc,0,0,0.0,0.0,5.0\narc,{job},1,0.0,5.0,8.0\n"
                     "arc,1,1,0.0,5.0,8.0\norder,0,8.0,0.0\n", encoding="utf-8")
    assert main(["validate", "--instance", str(inst_path), "--schedule", str(sched)]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"Unassigned: job {job} is not in the instance\n1 violation(s)\n"
    assert captured.err == ""


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfearc,0,0,0.0,0.0,5.0\n", "not UTF-8 text"),
    (b"arc,0,0,0.0,0.0,5.0\narc,x,1,0.0,5.0,8.0\n", "schedule line 2: cannot parse"),
    (b"order,0,8.0\n", "schedule line 1: cannot parse"),
    (b"arc,0,0,0.0,0.0,5.0\x0c\narc,x,1,0.0,5.0,8.0\n", "schedule line 2: cannot parse"),
    # a feasible schedule but for its NaN order line
    (b"arc,0,0,0.0,0.0,5.0\narc,1,1,0.0,5.0,8.0\norder,0,nan,nan\n",
     "schedule line 3: cannot parse"),
    (b"arc,0,0,0.0,0.0,inf\n", "schedule line 1: cannot parse"),
    (b"arc,0,0,0.0,0.0,1e999\n", "schedule line 1: cannot parse"),
    # ids are the plain text of an integer, times ASCII decimal text
    (b"arc,1_0,0,0.0,0.0,5.0\n", "schedule line 1: cannot parse"),
    (b"arc,0,+0,0.0,0.0,5.0\n", "schedule line 1: cannot parse"),
    ("arc,\u0661,0,0.0,0.0,5.0\n".encode(), "schedule line 1: cannot parse"),
    (b"arc,01,0,0.0,0.0,5.0\n", "schedule line 1: cannot parse"),
    (b"arc,0, 0,0.0,0.0,5.0\n", "schedule line 1: cannot parse"),
    (b"order,-0,1.0,0.0\n", "schedule line 1: cannot parse"),
    (b"arc,0,0,0.0,0.0,1_0.5\n", "schedule line 1: cannot parse"),
    ("arc,0,0,0.0,0.0,\u0665\n".encode(), "schedule line 1: cannot parse"),
    (b"arc,0,0,0.0,0.0,.5\n", "schedule line 1: cannot parse"),
    (b"arc,0,0,0.0,0.0,5.0\narc,1,1,0.0,5.0,8.0\norder,0,8.0,0.0\norder,0,9.0,1.0\n",
     "schedule line 4: order 0 is listed twice"),
], ids=["non-utf8", "bad-job", "short-line", "form-feed", "nan-order", "inf-arc",
        "overflowing-arc", "underscore-job", "signed-machine", "arabic-indic-job",
        "zero-padded-job", "spaced-machine", "negative-zero-order", "underscore-time",
        "arabic-indic-time", "bare-fraction", "duplicate-order"])
def test_cli_validate_unreadable_schedule_exits_1(tmp_path, capsys, content, message):
    inst_path = tmp_path / "inst.json"
    save_instance(minimal_instance(), inst_path)
    sched = tmp_path / "sched.csv"
    sched.write_bytes(content)
    assert main(["validate", "--instance", str(inst_path), "--schedule", str(sched)]) == 1
    _assert_one_error_line(capsys, f"{sched}: {message}")


@pytest.mark.parametrize("doc, flags, key", [
    ({"replications": 2}, [], "scenarios"),
    ({"replications": 0, "scenarios": [SCENARIO]}, [], "replications"),
    ({"replications": 2.5, "scenarios": [SCENARIO]}, [], "replications"),
    ({"scenarios": [SCENARIO]}, ["--replications", "-1"], "replications"),
    ({"scenarios": [{**SCENARIO, "m2": None}]}, [], "m2"),
    ({"scenarios": [SCENARIO], "replication": 2}, [], "replication"),
    ([SCENARIO], [], "grid"),
], ids=["no-scenarios", "zero-replications", "float-replications", "negative-flag",
        "null-scenario-value", "unknown-key", "list"])
def test_cli_bench_bad_grid_exits_1(tmp_path, capsys, doc, flags, key):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bench", "--grid", str(grid), "--rules", "EDD", *flags]) == 1
    _assert_one_error_line(capsys, key)


def test_cli_bench_empty_rule_list_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"scenarios": [SCENARIO]}), encoding="utf-8")
    assert main(["bench", "--grid", str(grid), "--rules", ","]) == 1
    _assert_one_error_line(capsys, "rule list is empty")


@pytest.mark.parametrize("command", [
    ["gen", "--scenario", "PATH", "--count", "1"],
    ["bench", "--grid", "PATH", "--rules", "EDD"],
    ["evolve", "--config", "PATH", "--transport", "replay"],
], ids=["scenario", "grid", "evolution-config"])
def test_cli_malformed_json_names_file_and_line(tmp_path, capsys, command):
    path = tmp_path / "broken.json"
    path.write_text('{"m1": 1,\n}\n', encoding="utf-8")
    out = tmp_path / "out"
    assert main([str(path) if arg == "PATH" else arg for arg in command]
                + ["--out", str(out)]) == 1
    _assert_one_error_line(capsys, f"{path}: line 2 column 1")
    assert not out.exists()
