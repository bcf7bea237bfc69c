"""Only ``fafsp.rundir`` names the files of a run directory.

When one module wrote a run's files and another read them back, each
derived the same facts, and the two could disagree. A second module that
names a run file is a second place that knows the format.
"""

import ast
from pathlib import Path

import fafsp

SRC = Path(fafsp.__file__).parent
RUN_FILES = {"best_rule.txt", "journal.jsonl", "convergence.csv", "per_instance.csv",
             "transcripts.jsonl", "tardiness.csv", "schedules"}


def run_file_names(source: str) -> set[str]:
    """The run files that the source's string constants name, alone or as
    a path's last part; an f-string's literal parts count, prose does not."""
    return RUN_FILES & {node.value.replace("\\", "/").rsplit("/", 1)[-1]
                        for node in ast.walk(ast.parse(source))
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_run_file_names_sees_names_paths_and_f_strings():
    source = ('"""Writes journal.jsonl."""\nA = "journal.jsonl"\nB = f"{d}/schedules"\n'
              'C = "run/tardiness.csv"\nD = "gantt_a.csv"\n')
    assert run_file_names(source) == {"journal.jsonl", "schedules", "tardiness.csv"}


def test_only_rundir_names_run_files():
    named = {path.name: run_file_names(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    owner = named.pop("rundir.py", set())
    assert {module: names for module, names in named.items() if names} == {}
    assert owner == RUN_FILES
