"""Per-layer metrics from the spans of a traced run.

A layer's self time is its span's duration minus the durations of its direct
child spans. Per-call means come from the timed passes; a layer that only
runs in set-up on this workload (instance generation and table builds on
rollout-5x12 and evolve-replay, rule parsing on rollout-5x12) is measured
there instead. Counts are per pass: every pass does the same work, so they
must repeat exactly. Shares are over the traced passes' wall time.
"""

from __future__ import annotations

import statistics

import numpy as np

from probe import TracedProbe
from speed import Timeline

# Counts that must be identical in every traced pass.
EXACT = ("sim.decisions", "sim.epochs", "validator.oracle_states",
         "evolve.fitness_calls", "evolve.fitness_distinct", "llm.calls")
GENERATOR_OPS = {"Init", "C1", "C2", "M1", "M2"}


class Spans:
    """Spans of the set-up and of each traced pass, with durations rescaled
    to the reference speed."""

    def __init__(self, probe: TracedProbe, timeline: Timeline, setup: range,
                 passes: list[range]):
        sp = probe.spans()
        self.names = probe.names
        self.name = sp["name"]
        self.size = sp["size"]
        self.rollout = sp["rollout"]
        self.dur = timeline.rescale(sp["t0"], sp["t1"])
        parent = sp["parent"]
        has_parent = parent >= 0
        child = np.zeros(len(self.dur))
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.parent_name = np.where(has_parent, self.name[parent], -1)
        n = len(self.dur)
        self.setup = np.zeros(n, dtype=bool)
        self.setup[setup.start:setup.stop] = True
        self.passes = []
        for r in passes:
            mask = np.zeros(n, dtype=bool)
            mask[r.start:r.stop] = True
            self.passes.append(mask)
        self.timed = np.logical_or.reduce(self.passes)

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        nid = self.names.index(name) if name in self.names else -2
        m = self.name == nid
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            m &= self.parent_name == pid
        return m

    def mean(self, name: str, scale: float, parent: str | None = None,
             self_time: bool = False) -> tuple[float, int]:
        """(mean duration x scale, calls), from the passes or else from set-up."""
        m = self.mask(name, parent)
        where = m & self.timed
        if not where.any():
            where = m & self.setup
        n = int(where.sum())
        if n == 0:
            return 0.0, 0
        t = self.self_time if self_time else self.dur
        return float(t[where].sum() / n * scale), n

    def total(self, name: str, self_time: bool = False) -> float:
        t = self.self_time if self_time else self.dur
        return float(t[self.mask(name) & self.timed].sum())

    def per_pass(self, name: str) -> list[int]:
        m = self.mask(name)
        return [int((m & p).sum()) for p in self.passes]


def quantile(values, q: int) -> float:
    """q-th decile of values; the value itself when there is only one."""
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[q - 1])


def per_layer(probe: TracedProbe, timeline: Timeline, setup: range, passes: list[range],
              untraced_s, journal: list[dict], replay_misses: int
              ) -> tuple[dict[str, tuple[float, int]], list[str]]:
    """{metric: (value, base count)} and the exact counts that did not repeat.

    setup, passes: span ranges of the set-up and of each traced pass.
    untraced_s: rescaled times of the untraced passes.
    """
    s = Spans(probe, timeline, setup, passes)
    pass_s = s.dur[s.mask("pass")]
    wall = float(pass_s.sum())
    out: dict[str, tuple[float, int]] = {}
    ms, us = 1e3, 1e6

    out["generator.instance_ms"] = s.mean("generator.generate_instance", ms)
    out["model.check_ms"] = s.mean("model.check_instance", ms)
    out["sim.init_first_ms"] = s.mean("sim.init_first", ms)
    out["sim.enumerate_us"] = s.mean("sim.arc_arrays", us, parent="sim.feasible_arcs")
    out["sim.enumerate_list_us"] = s.mean("sim.feasible_arcs", us, self_time=True)
    out["sim.columns_us"] = s.mean("sim.arc_columns", us)
    out["sim.apply_us"] = s.mean("sim.apply_arc", us)
    out["sim.advance_us"] = s.mean("sim._advance", us, parent="sim.advance_clock")
    out["sim.advance_recheck_us"] = s.mean("sim.arc_arrays", us, parent="sim.advance_clock")
    out["sim.extract_us"] = s.mean("sim.extract_schedule", us)
    in_rollout = s.timed & (s.rollout > 0)
    sim_ids = [i for i, n in enumerate(s.names) if n.startswith("sim.")]
    sim_self = float(s.self_time[in_rollout & np.isin(s.name, sim_ids)].sum())
    n_rollouts = int((s.mask("rollout") & s.timed).sum())
    out["sim.share"] = (sim_self / wall if wall else 0.0, n_rollouts)

    rank = s.mask("rules.rank_arc_arrays")
    first = s.passes[0]
    arcs = s.size[rank & first].tolist()
    counts = {
        "sim.decisions": s.per_pass("rules.rank_arc_arrays"),
        "sim.epochs": s.per_pass("sim.advance_clock"),
        "validator.oracle_states": s.per_pass("sim.clone"),
        "evolve.fitness_calls": s.per_pass("evolve.evaluate_fitness"),
        "llm.calls": s.per_pass("llm.send"),
    }
    fit = s.mask("evolve.evaluate_fitness")
    counts["evolve.fitness_distinct"] = [len(set(s.size[fit & p].tolist())) for p in s.passes]
    for name, per in counts.items():
        out[name] = (float(per[0]), len(per))
    out["sim.arcs_per_decision_p50"] = (quantile(arcs, 5), len(arcs))
    out["sim.arcs_per_decision_p90"] = (quantile(arcs, 9), len(arcs))

    out["rules.rank_self_us"] = s.mean("rules.rank_arc_arrays", us, self_time=True)
    rank_self = s.total("rules.rank_arc_arrays", self_time=True)
    out["rules.share"] = (rank_self / wall if wall else 0.0, out["rules.rank_self_us"][1])
    out["rules.validate_rule_ms"] = s.mean("rules.validate_rule", ms)

    ev_us, ev_n = out["expr.evaluate_us"] = s.mean("expr.evaluate", us)
    ev = s.mask("expr.evaluate") & s.timed
    ev_time = float(s.dur[ev].sum())
    node_evals = int(s.size[ev].sum())
    out["expr.node_evals_per_s"] = (node_evals / ev_time if ev_time else 0.0, node_evals)
    out["expr.share"] = (ev_time / wall if wall else 0.0, ev_n)
    out["expr.parse_us"] = s.mean("expr.parse", us)

    out["validator.validate_ms"] = s.mean("validator.validate_schedule", ms)
    oracle = s.mask("validator.brute_force_optimum") & s.timed
    oracle_ms = (s.dur[oracle] * ms).tolist()
    out["validator.oracle_ms_p50"] = (
        statistics.median(oracle_ms) if oracle_ms else 0.0, len(oracle_ms))
    out["validator.oracle_share"] = (
        float(s.dur[oracle].sum()) / wall if wall else 0.0, len(oracle_ms))

    out["llm.send_us"] = s.mean("llm.send", us)
    out["llm.render_us"] = s.mean("llm.render", us)
    out["llm.extract_us"] = s.mean("llm.extract", us)
    send = s.mask("llm.send") & s.timed
    n_send = int(send.sum())
    out["llm.prompt_kb"] = (float(s.size[send].sum()) / 1024 / n_send if n_send else 0.0,
                            n_send)
    out["llm.replay_misses"] = (float(replay_misses), len(s.passes))

    calls, distinct = out["evolve.fitness_calls"][0], out["evolve.fitness_distinct"][0]
    out["evolve.fitness_useful_frac"] = (distinct / calls if calls else 0.0, int(calls))
    out["evolve.fitness_ms"] = s.mean("evolve.evaluate_fitness", ms)
    fit_time = s.total("evolve.evaluate_fitness")
    out["evolve.fitness_share"] = (fit_time / wall if wall else 0.0, out["evolve.fitness_ms"][1])
    gen = [e for e in journal if e["operator"] in GENERATOR_OPS]
    rejected = sum(1 for e in gen if e["fitness"] is None)
    out["evolve.rejected_frac"] = (rejected / len(gen) if gen else 0.0, len(gen))

    out["trace.overhead_frac"] = (
        statistics.median(pass_s) / statistics.median(untraced_s) - 1.0, len(pass_s))
    unsteady = [name for name, per in counts.items() if len(set(per)) > 1]
    return out, unsteady
