"""Command-line surface.

Subcommands: gen (emit instances for a scenario), run (one rollout), evolve
(rule evolution, replayable from its transcripts.jsonl), bench (grid report),
validate (check a schedule against an instance), export (plot-ready traces).
Exit codes: 0 ok, 1 usage or input error, 2 validation failure, 3 transport
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (export_traces, load_grid, run_benchmark, write_convergence,
                    journal_to_convergence, write_journal, write_per_instance)
from .evolve import load_evolution_config, load_training, run_evolution
from .generator import generate_instance, load_scenario, scenario_to_doc
from .llm import (LiveTransport, RecordingTransport, ReplayMiss, ReplayTransport,
                  TransportError)
from .model import load_instance, save_instance, write_text
from .rules import BUILTIN_IDS, RuleInvalid, RuleSpec, load_rule_file, save_rule_file
from .sim import load_schedule, run_dispatch, save_schedule, total_tardiness
from .validator import validate_schedule

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_TRANSPORT = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def resolve_rule(text: str) -> RuleSpec:
    """Builtin id, rule file path, or inline expression source."""
    if text in BUILTIN_IDS:
        return RuleSpec.builtin(text)
    if os.path.exists(text):
        return load_rule_file(text).spec
    return RuleSpec.expression(text)


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, not {args.count!r}")
    cfg = load_scenario(args.scenario)
    base = cfg.seed if args.seed is None else args.seed
    for seed in (base, base + args.count - 1):     # refused before --out is made
        replace(cfg, seed=seed).validate()
    os.makedirs(args.out, exist_ok=True)
    files, seeds = [], []
    for k in range(args.count):
        inst = generate_instance(replace(cfg, seed=base + k))
        name = f"inst_{base}_{k}.json"
        save_instance(inst, Path(args.out) / name)
        files.append(name)
        seeds.append(base + k)
    manifest = {"scenario": scenario_to_doc(cfg), "base_seed": base,
                "count": args.count, "seeds": seeds, "files": files}
    write_text(Path(args.out) / "manifest.json",
               json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.count} instances to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    rule = resolve_rule(args.rule)
    sched = run_dispatch(inst, rule)
    if args.out:
        save_schedule(sched, args.out)
    print(f"rule: {rule.name}")
    print(f"total_tardiness: {total_tardiness(sched)!r}")
    return EXIT_OK


def _make_transport(kind: str, cassette: str | None):
    if kind == "replay":
        if not cassette:
            raise TransportError("replay transport needs --cassette")
        return ReplayTransport(cassette)
    return LiveTransport.from_env()


def _cmd_evolve(args) -> int:
    cfg = load_evolution_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    instances = load_training(cfg)      # validates cfg, --seed included
    transport = _make_transport(args.transport, args.cassette)
    # every input is read and checked before an earlier run's outputs go
    out = Path(args.out)
    os.makedirs(out, exist_ok=True)
    for name in ("best_rule.txt", "journal.jsonl", "convergence.csv", "per_instance.csv"):
        (out / name).unlink(missing_ok=True)    # no output of an earlier run stays
    transcripts = out / "transcripts.jsonl"
    # replaying the run's own transcripts serves only records already there: keep them whole
    if not (args.transport == "replay" and transcripts.exists()
            and transcripts.samefile(args.cassette)):
        write_text(transcripts, "")
        transport = RecordingTransport(transport, transcripts)
    result = run_evolution(cfg, transport, instances)
    save_rule_file(out / "best_rule.txt", result.best.spec,
                   description=result.best.description, fitness=result.best.fitness)
    write_journal(result.journal, out / "journal.jsonl")
    write_convergence(journal_to_convergence(result.journal), out / "convergence.csv")
    write_per_instance(result.per_instance, out / "per_instance.csv")
    print(f"samples: {result.samples}")
    print(f"u0: {result.u0!r}")
    print(f"best fitness: {result.best.fitness!r}")
    print(f"outputs in {out}")
    if result.error is not None:
        print(f"transport error: {result.error}", file=sys.stderr)
        return EXIT_TRANSPORT
    return EXIT_OK


def _cmd_bench(args) -> int:
    scenarios, replications = load_grid(args.grid)
    if args.replications is not None:
        replications = args.replications
    if args.seed is not None:
        scenarios = [replace(s, seed=s.seed + args.seed) for s in scenarios]
        for i, s in enumerate(scenarios):
            try:
                s.validate()
            except ValueError as e:
                raise ValueError(f"{args.grid}: grid.scenarios[{i}] with --seed {args.seed}: "
                                 f"{e}") from None
    rules = [resolve_rule(r.strip()) for r in args.rules.split(",") if r.strip()]
    report = run_benchmark(scenarios, rules, replications)
    text = report.to_text()
    if args.out:
        write_text(args.out, text)
    print(text, end="")
    return EXIT_OK


def _cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    sched = load_schedule(args.schedule)
    violations = validate_schedule(inst, sched)
    if violations:
        for v in violations:
            print(v)
        print(f"{len(violations)} violation(s)")
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def _cmd_export(args) -> int:
    written = export_traces(args.run, args.out)
    print(f"wrote {', '.join(written)} to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fafsp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instances for a scenario")
    g.add_argument("--scenario", required=True)
    g.add_argument("--count", type=int, default=20)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(fn=_cmd_gen)

    r = sub.add_parser("run", help="roll out one rule on one instance")
    r.add_argument("--rule", required=True, help="builtin id, rule file, or expression")
    r.add_argument("--instance", required=True)
    r.add_argument("--out", default=None, help="write the schedule here")
    r.set_defaults(fn=_cmd_run)

    e = sub.add_parser("evolve", help="evolve a dispatching rule")
    e.add_argument("--config", required=True)
    e.add_argument("--transport", choices=("live", "replay"), required=True)
    e.add_argument("--cassette", default=None)
    e.add_argument("--out", default="evolve_run")
    e.add_argument("--seed", type=int, default=None)
    e.set_defaults(fn=_cmd_evolve)

    b = sub.add_parser("bench", help="benchmark rules over a scenario grid")
    b.add_argument("--grid", required=True)
    b.add_argument("--rules", required=True, help="comma-separated rule list")
    b.add_argument("--replications", type=int, default=None)
    b.add_argument("--out", default=None)
    b.add_argument("--seed", type=int, default=None)
    b.set_defaults(fn=_cmd_bench)

    v = sub.add_parser("validate", help="check a schedule against its instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--schedule", required=True)
    v.set_defaults(fn=_cmd_validate)

    x = sub.add_parser("export", help="export plot-ready traces from a run directory")
    x.add_argument("--run", required=True)
    x.add_argument("--out", required=True)
    x.set_defaults(fn=_cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TransportError, ReplayMiss) as e:
        print(f"transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (OSError, ValueError, RuleInvalid, MemoryError) as e:
        # numpy's _ArrayMemoryError names the allocation; a bare MemoryError says nothing
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
