"""Rule engine: builtin semantics, DSL equivalence, ranking determinism."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fafsp.expr import ACCESSORS, NodeLimitExceeded, ParseError, evaluate, parse
from fafsp.generator import ScenarioConfig, generate_instance
from fafsp.llm import extract_individual
from fafsp.rules import (BUILTIN_IDS, BUILTINS, RuleInvalid, RuleSpec, builtin_source,
                         load_rule_file, rank_arc_arrays, save_rule_file, validate_rule)
from fafsp.sim import FeatureView, SimState, feasible_arcs, run_dispatch

from helpers import first_pick, make_instance, pick_arc, tree_walk


def columns(n=1, **given):
    """Every accessor's column for n arcs: the given values, the rest 0."""
    out = {name: np.zeros(n) for name in ACCESSORS}
    out.update((name, np.asarray(v, dtype=float)) for name, v in given.items())
    return out


def stand_in(arcs, due=None, pt=None):
    """A state for the chooser of a rule that reads due, pt, now, avail and
    setup: its pairs are the (job, machine) arcs, with ``due`` and ``pt`` as
    their keys (0 if not given), at clock 0 with every machine idle since 0
    and no setup."""
    n = len(arcs)
    jobs = np.array([j for j, _ in arcs], dtype=np.int64)
    machs = np.array([m for _, m in arcs], dtype=np.int64)
    t = SimpleNamespace(pair_job=jobs, pair_mach=machs, pair_job_list=jobs.tolist(),
                        pair_mach_list=machs.tolist(),
                        pair_due=np.zeros(n) if due is None else np.asarray(due, dtype=float),
                        pair_pt=np.zeros(n) if pt is None else np.asarray(pt, dtype=float),
                        setup_flat=np.zeros(int(jobs.max()) + 1))
    m = int(machs.max()) + 1
    return SimpleNamespace(t=t, clock=0.0, m_idle=np.zeros(m), m_row=np.zeros(m, dtype=np.int64))


def choose(rule, state):
    """Index of the arc the rule's generated chooser dispatches among all of
    the stand-in's pairs, under the quiet error state a rollout sets."""
    with np.errstate(all="ignore"):
        return first_pick(rule.chooser(state, rule)(np.arange(len(state.t.pair_job))))


def test_edd_prefers_earlier_due():
    assert choose(RuleSpec.builtin("EDD"), stand_in([(0, 0), (1, 0)], due=[20.0, 15.0])) == 1


def score_of_first_arc(source, cols):
    return evaluate(parse(source), cols, 1)[0]


def test_expression_arithmetic():
    assert score_of_first_arc("2*pt + setup", columns(pt=[3.0], setup=[1.0])) == pytest.approx(7.0)


def test_protected_division_in_priority():
    assert score_of_first_arc("due/util", columns(due=[12.0], util=[0.0])) == 0.0


def test_tie_breaks_on_job_then_machine():
    state = stand_in([(1, 1), (1, 2), (2, 1)], due=[5.0, 5.0, 5.0])
    assert choose(RuleSpec.builtin("EDD"), state) == 0


def test_singleton_arc_wins_regardless_of_rule():
    rule = RuleSpec.expression("exp(exp(exp(pt)))")     # would overflow
    assert choose(rule, stand_in([(3, 2)], pt=[50.0])) == 0


def test_nonfinite_score_raises_rule_invalid():
    rule = RuleSpec.expression("exp(exp(exp(pt)))")
    with pytest.raises(RuleInvalid, match=r"non-finite score inf for arc \(job 0, machine 0\)"):
        choose(rule, stand_in([(0, 0), (0, 1)], pt=[50.0, 50.0]))


def test_builtin_semantics_on_live_state():
    # LWKR prefers the order with less remaining work; MWKR the opposite
    inst = make_instance("pa", [
        (0, 50.0, [([{0: 2.0}], {1: 1.0})]),             # work 3
        (0, 50.0, [([{0: 6.0}], {1: 4.0})]),             # work 10
    ])
    state = SimState(inst)
    fv = FeatureView(state)
    arcs = feasible_arcs(state)
    assert pick_arc(RuleSpec.builtin("LWKR+SPT"), fv, arcs)[0] == 0
    assert pick_arc(RuleSpec.builtin("MWKR+SPT"), fv, arcs)[0] == 2
    assert pick_arc(RuleSpec.builtin("FIFO+SPT"), fv, arcs)[0] == 0  # tie -> job id


def test_spt_vs_eet_machine_choice():
    # machine 1 is faster but busy until t=4; EET takes the slower idle one
    inst = make_instance("ppa", [(0, 50.0, [([{0: 5.0, 1: 3.0}], {2: 1.0})]),
                                 (0, 50.0, [([{1: 4.0}], {2: 1.0})])])
    state = SimState(inst)
    from fafsp.sim import apply_arc
    apply_arc(state, (2, 1))                    # occupy fast machine until t=4
    fv = FeatureView(state)
    arcs = feasible_arcs(state)
    assert arcs == [(0, 0)]
    assert pick_arc(RuleSpec.builtin("MOPNR+SPT"), fv, arcs) == (0, 0)


def test_builtin_source_parses_for_all_nine():
    for rid in BUILTIN_IDS:
        prog = parse(builtin_source(rid))
        assert prog.n_nodes >= 3
    assert builtin_source("EDD") == "due*1000000 + max(avail, now) + setup + pt"
    assert builtin_source("MWKR+SPT") == "-work_rem*1000000 + pt"


@pytest.mark.parametrize("entry", [builtin_source, RuleSpec.builtin],
                         ids=["builtin_source", "RuleSpec.builtin"])
def test_an_unknown_builtin_names_the_choices(entry):
    with pytest.raises(ValueError, match=r"^unknown builtin rule 'X'; choose from \('EDD', "):
        entry("X")


@pytest.mark.parametrize("rid", BUILTIN_IDS)
def test_builtin_expression_equivalence(rid):
    builtin = RuleSpec.builtin(rid)
    encoded = RuleSpec.expression(builtin_source(rid))
    for seed in range(10):
        inst = generate_instance(ScenarioConfig(m1=2, m2=2, phi=0.7, alpha=3,
                                                mu=2.0, n_init=2, seed=300 + seed))
        assert run_dispatch(inst, builtin).arcs == run_dispatch(inst, encoded).arcs


def test_scale_invariance_of_argmin():
    inst = generate_instance(ScenarioConfig(m1=2, m2=3, phi=0.8, alpha=3, mu=2.0,
                                            n_init=3, seed=77))
    base_src = "due - now + 0.5*pt + setup + 0.1*queue"
    rules = {c: RuleSpec.expression(f"({base_src})*{c}") for c in (1.0, 2.0, 10.0, 0.5)}
    state = SimState(inst)
    from fafsp.sim import _advance, apply_arc
    checked = 0
    while state.done_count < state.t.J:
        k = state._arc_arrays()
        jobs, machs = state.t.pair_job[k], state.t.pair_mach[k]
        if len(k):
            fv = FeatureView(state)
            picks = {c: rank_arc_arrays(r, fv, jobs, machs) for c, r in rules.items()}
            assert len(set(picks.values())) == 1
            checked += 1
            apply_arc(state, (jobs[picks[1.0]], machs[picks[1.0]]))
        else:
            _advance(state)
    assert checked > 10


def test_validate_rule_outcomes():
    assert validate_rule("due") is True
    assert validate_rule(RuleSpec.builtin("EDD")) is True
    assert validate_rule("exp(exp(exp(et)))") is False     # overflow witness
    assert validate_rule("min(due,") is False
    assert validate_rule("not_an_accessor + 1") is False


def test_parse_rule_error_surface():
    with pytest.raises(ParseError):
        parse("min(due,")
    with pytest.raises(NodeLimitExceeded):
        parse("1" + "+1" * 600)


def test_rule_file_round_trip(tmp_path):
    path = tmp_path / "rule.txt"
    spec = RuleSpec.expression("due - now + 2*pt", name="my_rule")
    save_rule_file(path, spec, description="urgency plus speed", fitness=42.5)
    loaded = load_rule_file(path)
    assert loaded.spec.name == "my_rule"
    assert loaded.description == "urgency plus speed"
    assert loaded.fitness == 42.5
    assert loaded.spec.source == "due - now + 2*pt"


@pytest.mark.parametrize("name, description", [
    ("a\nb", "fast\rpt first"), ("a\r\nb", "fast\npt first"), ("a\rb", "fast\r\npt first"),
], ids=["lf-name-cr-description", "crlf-name-lf-description", "cr-name-crlf-description"])
def test_rule_file_keeps_name_and_description_on_their_lines(tmp_path, name, description):
    path = tmp_path / "rule.txt"
    save_rule_file(path, RuleSpec.expression("due", name=name), description=description)
    loaded = load_rule_file(path)
    assert ((loaded.spec.name, loaded.description, loaded.spec.source)
            == ("a b", "fast pt first", "due"))


def test_extracted_description_with_a_carriage_return_round_trips(tmp_path):
    # extract_individual keeps a carriage return inside the description line
    description, source = extract_individual("description: fast\rpt first\n```\ndue\n```\n")
    assert description == "fast\rpt first"
    path = tmp_path / "best_rule.txt"
    save_rule_file(path, RuleSpec.expression(source, name="g1-3"), description=description)
    loaded = load_rule_file(path)
    assert (loaded.description, loaded.spec.source) == ("fast pt first", "due")


def test_rule_file_of_header_lines_only_is_refused(tmp_path):
    path = tmp_path / "rule.txt"
    path.write_text("# name: r\n# description: d\n# fitness: -\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no expression line$"):
        load_rule_file(path)


def test_rule_file_builtin_saved_as_expression(tmp_path):
    path = tmp_path / "edd.txt"
    save_rule_file(path, RuleSpec.builtin("EDD"))
    loaded = load_rule_file(path)
    assert loaded.spec.source == builtin_source("EDD")


@pytest.mark.parametrize("content, problem", [
    (b"\xff\xfe# name: r\n\x00due\n", "not UTF-8 text"),
    (b"# fitness: abc\ndue\n", "line 1: fitness 'abc' is not a number"),
    (b"# fitness: nan\ndue\n", "line 1: fitness 'nan' is not a number"),
    (b"# fitness: -inf\ndue\n", "line 1: fitness '-inf' is not a number"),
    (b"# fitness: 1e999\ndue\n", "line 1: fitness '1e999' is not a number"),
    (b"# fitness: 1_0\ndue\n", "line 1: fitness '1_0' is not a number"),
    ("# fitness: \u0661\ndue\n".encode(), "line 1: fitness '\u0661' is not a number"),
], ids=["not-utf8", "bad-fitness", "nan-fitness", "inf-fitness", "overflowing-fitness",
        "underscore-fitness", "arabic-indic-fitness"])
def test_rule_file_errors_name_the_file(tmp_path, content, problem):
    path = tmp_path / "rule.txt"
    path.write_bytes(content)
    with pytest.raises(ValueError) as e:
        load_rule_file(path)
    assert str(e.value).startswith(f"{path}") and problem in str(e.value)


@pytest.mark.parametrize("text, fitness", [("+1.5e3", 1500.0), ("-0.25", -0.25), ("7", 7.0),
                                           ("1E-2", 0.01)])
def test_rule_file_fitness_is_ascii_decimal_text(tmp_path, text, fitness):
    path = tmp_path / "rule.txt"
    path.write_text(f"# fitness: {text}\ndue\n", encoding="utf-8")
    assert load_rule_file(path).fitness == fitness


def test_builtin_composite_keys():
    cols = columns(due=[15.0], now=[2.0], avail=[1.0], setup=[0.5], pt=[3.0])
    edd = BUILTINS["EDD"]
    assert (edd.program.fn(cols)[0], edd.tie_break.fn(cols)[0]) == (15.0, 2.0 + 0.5 + 3.0)


def test_validate_rule_rejects_deep_nesting():
    assert validate_rule("(" * 300 + "due" + ")" * 300) is False
    assert validate_rule("-" * 300 + "due") is False


# -- argmin by arc order against the old cascade -----------------------------------

def _argmin_cascade(keys):
    """Reference: filter to the minimum of each key in turn, first survivor."""
    idx = np.arange(len(keys[0]))
    for key in keys:
        sub = key[idx]
        idx = idx[sub == sub.min()]
        if len(idx) == 1:
            break
    return int(idx[0])


# few distinct values, so ties on every key are common
tie_values = st.sampled_from([-0.0, 0.0, 1.0, 2.0, -3.5])


@st.composite
def ranked_arcs(draw):
    pairs = sorted(draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                                min_size=2, max_size=20)))
    n = len(pairs)
    jobs = np.array([p[0] for p in pairs], dtype=np.int64)
    machs = np.array([p[1] for p in pairs], dtype=np.int64)
    job_key = np.array(draw(st.lists(tie_values, min_size=n, max_size=n)))
    mach_key = np.array(draw(st.lists(tie_values, min_size=n, max_size=n)))
    return jobs, machs, job_key, mach_key


@settings(max_examples=300, deadline=None)
@given(arcs=ranked_arcs())
def test_argmin_by_arc_order_matches_cascade(arcs):
    jobs, machs, job_key, mach_key = arcs
    # EDD ranks by due, then by max(avail, now) + setup + pt, which is pt here
    state = stand_in(list(zip(jobs.tolist(), machs.tolist())), due=job_key, pt=mach_key)
    k = choose(RuleSpec.builtin("EDD"), state)
    assert k == _argmin_cascade([job_key, mach_key, jobs, machs])
    k = choose(RuleSpec.expression("due"), state)
    assert k == _argmin_cascade([job_key, jobs, machs])


# -- argmin-based reductions against min- and all-based ones -----------------------

def _min_all_rank(rule, cols, jobs, machs):
    """Reference: the rule's keys by the tree walk, the job-key minimum taken
    by min and the finite check by all."""
    n = len(jobs)
    job_key = tree_walk(rule.program.root, cols, n)
    if rule.tie_break is not None:
        ties = (job_key == job_key.min()).nonzero()[0]
        return int(ties[tree_walk(rule.tie_break.root, cols, n)[ties].argmin()])
    finite = np.isfinite(job_key)
    if not finite.all():
        k = int(finite.argmin())
        raise RuleInvalid(f"rule {rule.name!r}: non-finite score {job_key[k]} "
                          f"for arc (job {jobs[k]}, machine {machs[k]})")
    return int(job_key.argmin())


def _outcome(rank, *args):
    """The index rank returns, or its exception's type and message."""
    try:
        return rank(*args)
    except (RuleInvalid, ValueError) as e:
        return type(e), str(e)


# NaN, the infinities and both zeros, among few finite values so ties are common
edge_values = st.sampled_from([-0.0, 0.0, 1.0, -3.5, np.nan, np.inf, -np.inf])


@st.composite
def edge_scored_arcs(draw):
    n = draw(st.integers(2, 12))
    jobs = np.arange(n, dtype=np.int64)
    machs = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    keys = [np.array(draw(st.lists(edge_values, min_size=n, max_size=n))) for _ in range(2)]
    return jobs, machs, *keys


@settings(max_examples=400, deadline=None)
@given(arcs=edge_scored_arcs())
@example(arcs=(np.arange(3), np.zeros(3, dtype=np.int64),       # non-finite only after the minimum
               np.array([1.0, -3.5, np.nan]), np.zeros(3)))
@example(arcs=(np.arange(3), np.zeros(3, dtype=np.int64),
               np.array([-0.0, 0.0, np.inf]), np.array([0.0, -0.0, 1.0])))
@example(arcs=(np.arange(2), np.zeros(2, dtype=np.int64),       # -inf is the minimum
               np.array([1.0, -np.inf]), np.zeros(2)))
@example(arcs=(np.arange(3), np.zeros(3, dtype=np.int64),       # only the max sees +inf
               np.array([np.inf, -3.5, 1.0]), np.zeros(3)))
@example(arcs=(np.arange(4), np.zeros(4, dtype=np.int64),       # first non-finite: +inf
               np.array([1.0, np.inf, np.nan, -np.inf]), np.zeros(4)))
def test_argmin_reductions_match_min_and_all(arcs):
    jobs, machs, job_key, mach_key = arcs
    state = stand_in(list(zip(jobs.tolist(), machs.tolist())), due=job_key, pt=mach_key)
    cols = columns(len(jobs), due=job_key, pt=mach_key)
    for rule in (RuleSpec.expression("due"), RuleSpec.builtin("EDD")):
        got = _outcome(choose, rule, state)
        assert got == _outcome(_min_all_rank, rule, cols, jobs, machs)
        if rule.tie_break is None and np.isfinite(job_key).all():
            assert got == int(job_key.argmin())
        elif rule.tie_break is None:
            k = int(np.flatnonzero(~np.isfinite(job_key))[0])
            assert got == (RuleInvalid, f"rule 'expression': non-finite score {job_key[k]} "
                                        f"for arc (job {jobs[k]}, machine {machs[k]})")
