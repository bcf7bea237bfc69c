"""The evolution run directory; only this module names its files. ``start``
opens a run and ``finish`` writes its end-of-run files (a run cut short holds
only ``transcripts.jsonl``); ``export_traces`` turns a finished run into
plot-ready files."""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Sequence

from .llm import RecordingTransport
from .model import _decimal, _finite, json_lines, read_json_lines, read_text, write_text
from .rules import load_rule_file, save_rule_file
from .sim import load_schedule

BEST_RULE, JOURNAL, CONVERGENCE, PER_INSTANCE = (
    "best_rule.txt", "journal.jsonl", "convergence.csv", "per_instance.csv")
CONVERGENCE_HEADER, PER_INSTANCE_HEADER = "sample,best_fitness", "instance,tardiness"


def start(out, transport, cassette: str | None):
    """Called once every input is read and checked: remove an earlier run's
    outputs from ``out``; return ``transport`` recording into an emptied
    ``transcripts.jsonl``, or as is when ``cassette`` (None if live) is that file."""
    out = Path(out)
    os.makedirs(out, exist_ok=True)
    for name in (BEST_RULE, JOURNAL, CONVERGENCE, PER_INSTANCE):
        (out / name).unlink(missing_ok=True)
    transcripts = out / "transcripts.jsonl"
    if cassette is not None and transcripts.exists() and transcripts.samefile(cassette):
        return transport
    write_text(transcripts, "")
    return RecordingTransport(transport, transcripts)


def finish(out, result) -> None:
    """Write the end-of-run files of an ``EvolutionResult`` into ``out``."""
    out, best = Path(out), result.best
    save_rule_file(out / BEST_RULE, best.spec, description=best.description, fitness=best.fitness)
    write_journal(result.journal, out / JOURNAL)
    _write_table(out / CONVERGENCE, CONVERGENCE_HEADER,
                 journal_to_convergence(result.journal, result.elite.fitness))
    _write_table(out / PER_INSTANCE, PER_INSTANCE_HEADER, enumerate(result.per_instance))


def _write_table(path, header: str, rows) -> None:
    write_text(path, header + "\n" + "".join(f"{k},{v!r}\n" for k, v in rows))


def _read_table(path, header: str, start: int) -> tuple[str, list[float]]:
    """The text of a table ``_write_table`` wrote and its values: ``header``,
    then rows ``k,<finite decimal>`` with k = start, start + 1, ... Anything
    else raises ValueError naming the file and the line."""
    text = read_text(path)
    lines = text.removesuffix("\n").split("\n")
    if lines[0] != header:
        raise ValueError(f"{path} line 1: expected the header {header!r}, "
                         f"not {lines[0]!r:.60}")
    values: list[float] = []
    for ln, line in enumerate(lines[1:], start=2):
        k, _, value = line.partition(",")
        if k != str(start + len(values)):
            raise ValueError(f"{path} line {ln}: expected row {start + len(values)}, "
                             f"not {line!r:.60}")
        try:
            values.append(_decimal(value))
        except ValueError as e:
            raise ValueError(f"{path} line {ln}: {e}") from None
    return text, values


def write_journal(entries: Sequence[dict], path) -> None:
    write_text(path, json_lines(entries))


def read_journal(path) -> list[dict]:
    """The journal's entries. A line that is not a JSON object, or whose
    fitness is neither a finite number nor null, raises ValueError naming
    the file and the line."""
    entries = read_json_lines(path)
    for ln, entry in entries:
        fit = entry.get("fitness")
        if fit is not None and not _finite(fit):
            raise ValueError(f"{path} line {ln}: fitness must be a finite number "
                             f"or null, not {fit!r}")
    return [entry for _, entry in entries]


def journal_to_convergence(entries: Sequence[dict], best: float) -> list[tuple[int, float]]:
    """(sample index, best fitness so far) with one row per LLM call,
    starting from ``best``: a run's elite fitness, which no sample logs."""
    rows = []
    for i, e in enumerate(entries, start=1):
        fit = e.get("fitness")
        if fit is not None and fit < best:
            best = fit
        rows.append((i, best))
    return rows


def export_traces(run_dir, out_dir) -> list[str]:
    """Write a finished run's convergence and per-instance (``tardiness.csv``)
    tables and a machine-major ``gantt_<stem>.csv`` per file in its
    ``schedules/`` into ``out_dir`` and return their names. Every input is
    read and checked first: the journal, the best rule, each table as
    ``finish`` writes it, the convergence rows against the journal, one per
    line, re-derived from the first row's fitness, and the best rule's
    fitness against the per-instance mean, which it is exactly. So a missing
    run file, an input that does not parse or disagrees, or two schedules
    with one stem write nothing."""
    run_dir, out_dir = Path(run_dir), Path(out_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"{run_dir}: no such run directory")
    for name in (JOURNAL, CONVERGENCE, PER_INSTANCE, BEST_RULE):
        if not (run_dir / name).is_file():
            raise FileNotFoundError(f"{run_dir / name}: no such file; the run did not finish")
    journal = read_journal(run_dir / JOURNAL)
    convergence, best = _read_table(run_dir / CONVERGENCE, CONVERGENCE_HEADER, 1)
    expected = journal_to_convergence(journal, best[0]) if best else []
    for ln, (got, (_, want)) in enumerate(zip(best, expected), start=2):
        if got != want:
            raise ValueError(f"{run_dir / CONVERGENCE} line {ln}: best fitness {got!r}, "
                             f"but the journal gives {want!r}")
    if len(best) != len(journal):
        raise ValueError(f"{run_dir / CONVERGENCE} line {min(len(best), len(journal)) + 2}: "
                         f"{len(best)} rows for {len(journal)} journal lines")
    tardiness, per_instance = _read_table(run_dir / PER_INSTANCE, PER_INSTANCE_HEADER, 0)
    fitness = load_rule_file(run_dir / BEST_RULE).fitness
    mean = math.fsum(per_instance) / len(per_instance) if per_instance else None
    if fitness is None or fitness != mean:
        raise ValueError(f"{run_dir / BEST_RULE}: fitness {fitness!r}, but the mean "
                         f"tardiness in {run_dir / PER_INSTANCE} is {mean!r}")
    files = {CONVERGENCE: convergence, "tardiness.csv": tardiness}
    sched_dir, source = run_dir / "schedules", {}
    for name in sorted(os.listdir(sched_dir)) if sched_dir.is_dir() else ():
        out_name = f"gantt_{Path(name).stem}.csv"
        if out_name in source:
            raise ValueError(f"{sched_dir / source[out_name]} and {sched_dir / name} "
                             f"would both export as {out_name}")
        source[out_name] = name
        arcs = sorted(load_schedule(sched_dir / name).arcs,
                      key=lambda a: (a.machine, a.st, a.job))
        files[out_name] = "machine,job,setup,st,ct\n" + "".join(
            f"{a.machine},{a.job},{a.setup!r},{a.st!r},{a.ct!r}\n" for a in arcs)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        write_text(out_dir / name, text)
    return list(files)
