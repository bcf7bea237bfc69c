"""Expression language: grammar, printer fixpoint, protected evaluation."""

import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fafsp.expr import (ACCESSORS, MAX_DEPTH, MAX_NODES, Acc, Bin, Cmp, Num,
                        NodeLimitExceeded, ParseError, Program, UnknownAccessor, _fold,
                        evaluate, parse, to_source)
from fafsp.rules import BUILTIN_IDS, RuleSpec

from helpers import tree_walk
from test_golden import RULES


def test_single_accessor():
    prog = parse("due")
    assert prog.root == Acc("due")
    assert prog.n_nodes == 1


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as e:
        parse("min(due,")
    assert e.value.pos == 8
    assert e.value.expected


def test_unknown_accessor():
    with pytest.raises(UnknownAccessor) as e:
        parse("foo + pt")
    assert e.value.name == "foo"
    assert "due" in e.value.expected


def test_node_limit():
    src = "1" + " + 1" * 600
    with pytest.raises(NodeLimitExceeded):
        parse(src)


@pytest.mark.parametrize("src, error, match", [
    ("pt+" * 700_000 + "pt", NodeLimitExceeded, "AST nodes"),
    ("pt+" * 700_000 + "pt$", NodeLimitExceeded, "AST nodes"),
    ("(" * 2_100_000 + "due", ParseError, "nesting deeper"),
], ids=["long-chain", "long-chain-then-bad-character", "deep-nesting"])
def test_long_text_is_rejected_before_it_is_all_read(src, error, match):
    # 2.1 MB of text: the caps fire after O(MAX_NODES) tokens, so the parse
    # neither tokenizes the rest nor holds a token list; a bad character
    # after the node overflow is never reached
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            parse(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse("due due")


def test_accessor_is_not_callable():
    with pytest.raises(ParseError):
        parse("due(1)")


def test_arity_errors():
    with pytest.raises(ParseError):
        parse("abs(1, 2)")
    with pytest.raises(ParseError):
        parse("min(1)")
    with pytest.raises(ParseError):      # if() wants a comparison first
        parse("if(1, 2, 3)")


def test_precedence_and_associativity():
    cols = {}
    assert evaluate(parse("2 + 3*4"), cols, 1)[0] == 14.0
    assert evaluate(parse("2 - 3 - 1"), cols, 1)[0] == -2.0
    assert evaluate(parse("-2*3"), cols, 1)[0] == -6.0
    assert evaluate(parse("(2 - 3) - 1"), cols, 1)[0] == -2.0
    assert evaluate(parse("2 - (3 - 1)"), cols, 1)[0] == 0.0


@pytest.mark.parametrize("src", [
    "due - now + 0.5*pt + setup",
    "min(due, arrival + work_rem) + pt",
    "if(slack < 0, due + pt, slack*2 - setup)",
    "-(due + pt)/(1 + queue)",
    "--due",
    "sqrt(abs(slack)) + exp(0 - wait/10)",
    "max(pt, setup, 1.5)",
    "due*1000000 + max(avail, now) + setup + pt",
])
def test_print_parse_fixpoint(src):
    prog = parse(src)
    printed = to_source(prog)
    again = parse(printed)
    assert again.root == prog.root
    assert to_source(again) == printed          # printing is idempotent


def test_round_trip_preserves_shape_not_just_value():
    # right-nested addition must not silently re-associate
    prog = parse("1 + (2 + 3)")
    assert parse(to_source(prog)).root == prog.root
    assert prog.root == Bin("+", Num(1.0), Bin("+", Num(2.0), Num(3.0)))


def test_protected_division():
    cols = {"due": np.array([10.0]), "util": np.array([0.0])}
    assert evaluate(parse("due/util"), cols, 1)[0] == 0.0
    assert evaluate(parse("1/0"), cols, 1)[0] == 0.0


def test_protected_log_and_sqrt():
    assert evaluate(parse("log(0)"), {}, 1)[0] == 0.0
    assert evaluate(parse("log(0 - 3)"), {}, 1)[0] == 0.0
    assert evaluate(parse("sqrt(0 - 4)"), {}, 1)[0] == 0.0
    assert evaluate(parse("sqrt(9)"), {}, 1)[0] == 3.0


def test_overflow_passes_through():
    out = evaluate(parse("exp(exp(exp(9)))"), {}, 1)
    assert np.isinf(out[0])


with np.errstate(over="ignore"):
    _EXP_EXP = np.exp(np.exp(np.array([1.0, 9.0, 3.0])))    # the middle one is inf


@pytest.mark.parametrize("source, column, expected", [
    ("2 + 3", [1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),             # reads no column
    ("due", [1.0, -0.0, 3.0], [1.0, -0.0, 3.0]),             # returns its column
    ("due", [1, 2, 3], [1.0, 2.0, 3.0]),                     # an integer column
    ("exp(exp(due))", [1.0, 9.0, 3.0], _EXP_EXP),            # overflows
])
def test_evaluate_returns_float64_of_length_n_in_callers_error_state(source, column, expected):
    prog = parse(source)
    with np.errstate(all="raise"):          # the program's own state ignores overflow
        before = np.geterr()
        out = evaluate(prog, {"due": np.array(column)}, 3)
        assert np.geterr() == before
    assert out.dtype == np.float64 and out.shape == (3,)
    assert out.tobytes() == np.array(expected).tobytes()


def test_scores_cast_only_what_is_not_float64():
    # the grammar allows a comparison only inside if(), but a Program built
    # from nodes may have one at the top; it scores as the cast it always had
    cols = {"due": np.array([4.0, 5.0, np.nan, -np.inf])}
    top = Program(Cmp("<", Acc("due"), Num(5.0)), 3)
    raw = top.fn(cols)
    assert raw.dtype == np.bool_
    out = evaluate(top, cols, 4)
    assert out.dtype == np.float64
    assert out.tobytes() == np.asarray(raw, dtype=float).tobytes()
    # a float64 result is returned as it is, not copied
    assert evaluate(parse("due"), cols, 4) is cols["due"]


def test_evaluate_restores_error_state_when_the_program_raises():
    with np.errstate(all="raise"):
        before = np.geterr()
        with pytest.raises(KeyError):
            evaluate(parse("exp(exp(due)) + pt"), {"due": np.array([9.0])}, 1)
        assert np.geterr() == before


def test_if_vectorized():
    cols = {"slack": np.array([-1.0, 2.0, 0.0])}
    out = evaluate(parse("if(slack < 0, 100, slack)"), cols, 3)
    assert out.tolist() == [100.0, 2.0, 0.0]


def test_vector_evaluation_matches_scalar():
    src = "due - now + 0.5*pt + setup"
    cols = {
        "due": np.array([10.0, 20.0]),
        "now": np.array([3.0, 3.0]),
        "pt": np.array([4.0, 2.0]),
        "setup": np.array([1.0, 0.0]),
    }
    out = evaluate(parse(src), cols, 2)
    assert out.tolist() == [10 - 3 + 2 + 1, 20 - 3 + 1 + 0]


def test_number_formats():
    assert evaluate(parse("1.5e2"), {}, 1)[0] == 150.0
    assert evaluate(parse("2E-1"), {}, 1)[0] == pytest.approx(0.2)


def test_every_accessor_parses():
    for name in ACCESSORS:
        assert parse(name).root == Acc(name)


def _sources(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda x: f"-({x})"),
        st.tuples(st.sampled_from(["abs", "sqrt", "exp", "log"]), children).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(children, min_size=2, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"),
        st.tuples(children, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
                  children, children, children).map(
            lambda t: f"if({t[0]} {t[1]} {t[2]}, {t[3]}, {t[4]})"))


programs = st.recursive(st.sampled_from(sorted(ACCESSORS) + ["0", "1", "2.5", "700"]),
                        _sources, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(src=programs, seed=st.integers(0, 2**32 - 1))
def test_compiled_evaluation_matches_tree_walk(src, seed):
    n = 5
    rng = np.random.default_rng(seed)
    cols = {name: rng.choice([0.0, -0.0, -2.0, 0.5, 3.0, 700.0], size=n) for name in ACCESSORS}
    prog = parse(src)
    got = evaluate(prog, cols, n)
    assert got.shape == (n,) and got.dtype == float
    assert np.array_equal(got, tree_walk(prog.root, cols, n), equal_nan=True)


def test_program_pickles_and_still_evaluates():
    prog = parse("max(due, 2) / pt")
    again = pickle.loads(pickle.dumps(prog))
    assert again == prog
    cols = {"due": np.array([1.0, 6.0]), "pt": np.array([2.0, 0.0])}
    assert evaluate(again, cols, 2).tolist() == [1.0, 0.0]


# -- straight-line programs against the tree walk ------------------------------

# constants that overflow on parsing (1e999 is inf) or on the first product
EXTREME = ["0", "1", "2.5", "700", "1e308", "1e999", "0.0"]
extreme_programs = st.recursive(st.sampled_from(sorted(ACCESSORS) + EXTREME),
                                _sources, max_leaves=12)


def _same_bits(got, want):
    return np.array_equal(got, want, equal_nan=True) and \
        np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=300, deadline=None)
@given(src=extreme_programs, seed=st.integers(0, 2**32 - 1))
@example(src="sqrt(0 - 0)", seed=0)     # constant-only programs
@example(src="log(1)", seed=0)
@example(src="0/0", seed=0)
@example(src="1e999 - 1e999", seed=0)
@example(src="sqrt(due) + log(due) + pt/due + sqrt(-due) + log(-due)", seed=1)
def test_generated_program_matches_tree_walk_bit_for_bit(src, seed):
    n = 6
    rng = np.random.default_rng(seed)
    values = [0.0, -0.0, -2.0, 0.5, 3.0, 700.0, 1e308, -1e308, np.inf, -np.inf, np.nan,
              5e-324, -5e-324, 1e-310, -1e-310]       # the last four are subnormal
    cols = {name: rng.choice(values, size=n) for name in ACCESSORS}
    prog = parse(src)
    got = evaluate(prog, cols, n)
    assert got.shape == (n,) and got.dtype == float
    assert _same_bits(got, tree_walk(prog.root, cols, n))
    assert prog.reads == set(re.findall(r"[a-z_]+", src)) & set(ACCESSORS)


def test_chain_at_the_node_limit_matches_tree_walk():
    names = sorted(ACCESSORS)
    terms = ["-due"] + [(f"0.5*{names[i % 14]}" if i % 2 else f"{names[i % 14]}/queue")
                        if i < 56 else names[i % 14] for i in range(199)]
    prog = parse(" - ".join(terms))
    assert prog.n_nodes == MAX_NODES
    rng = np.random.default_rng(3)
    cols = {name: rng.normal(size=4) * 1e300 for name in ACCESSORS}
    cols["queue"][0] = 0.0
    got = evaluate(prog, cols, 4)
    assert _same_bits(got, tree_walk(prog.root, cols, 4))
    assert prog.reads == set(ACCESSORS)


def test_constants_never_reach_generated_text():
    # repr(1e999) is 'inf', which would be a NameError in generated source
    prog = parse("1e999 + due - -0.0")
    out = evaluate(prog, {"due": np.array([1.0, -2.0])}, 2)
    assert out.tolist() == [np.inf, np.inf]
    assert evaluate(parse("-0.0"), {}, 1)[0] == 0.0
    assert np.signbit(evaluate(parse("-0.0"), {}, 1)[0])


# -- +/- chains folded into one row-wise reduce ---------------------------------

FOLD_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, 5e-324]


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 120), n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
@example(k=120, n=1, seed=0)            # a lone column: numpy would sum it pairwise
@example(k=40, n=1, seed=3)
@example(k=2, n=1, seed=1)
@example(k=17, n=2, seed=2)
def test_fold_is_the_left_fold_bit_for_bit(k, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-3, 4, size=(k, 1))
    coefs = rng.choice([1.0, -1.0, 0.5, -2.0, 3.0, -0.25], size=(k, 1))
    rate = rng.choice([0.0, 0.002, 0.05])       # of special values among the operands
    special = rng.random((k, n)) < rate
    rows[special] = rng.choice(FOLD_SPECIALS, size=int(special.sum()))
    special = rng.random((k, 1)) < rate
    coefs[special] = rng.choice([0.0, -0.0, 1e308, -np.inf], size=int(special.sum()))
    rows = tuple(row.copy() for row in rows)
    with np.errstate(all="ignore"):
        want = coefs[0] * rows[0]
        for c, row in zip(coefs[1:], rows[1:]):
            want = want + c * row
        got = _fold(coefs, rows)
    assert got.shape == (n,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_fold_keeps_negative_zero(n):
    got = _fold(np.ones((3, 1)), tuple(np.full(n, -0.0) for _ in range(3)))
    assert np.signbit(got).all() and (got == 0.0).all()


def _chain_terms():
    acc = st.sampled_from(sorted(ACCESSORS))
    num = st.sampled_from(EXTREME)
    return st.one_of(acc,
                     st.tuples(num, acc).map(lambda t: f"{t[0]}*{t[1]}"),
                     st.tuples(acc, num).map(lambda t: f"{t[0]}*{t[1]}"),
                     st.recursive(acc, _sources, max_leaves=4).map(lambda src: f"({src})"))


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(st.tuples(st.sampled_from("+-"), _chain_terms()), min_size=10, max_size=40),
       constant=st.one_of(st.none(), st.tuples(st.integers(0, 40), st.sampled_from(EXTREME))),
       n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
@example(terms=[("+", "arrival")] * 9 + [("+", "(min(-((arrival + util)), arrival))")],
         constant=None, n=1, seed=1)     # min of a negated NaN keeps its sign bit
def test_long_chains_match_tree_walk_bit_for_bit(terms, constant, n, seed):
    if constant is not None:            # a term that reads no column ends the fold
        terms.insert(constant[0], ("-", constant[1]))
    src = terms[0][1] + "".join(f" {op} {term}" for op, term in terms[1:])
    rng = np.random.default_rng(seed)
    values = [0.0, -0.0, -2.0, 0.5, 3.0, 700.0, 1e308, -1e308, np.inf, -np.inf, np.nan,
              5e-324, -1e-310]
    cols = {name: rng.choice(values, size=n) for name in ACCESSORS}
    try:
        prog = parse(src)
    except NodeLimitExceeded:
        assume(False)
    got = evaluate(prog, cols, n)
    assert got.shape == (n,) and got.dtype == float
    assert _same_bits(got, tree_walk(prog.root, cols, n))


def _folds(program) -> bool:
    return "_fold" in program.fn.__code__.co_names


def test_only_chains_of_many_numpy_calls_fold():
    plain = sorted(ACCESSORS)
    assert _folds(RULES["wide"].program) and _folds(RULES["chains"].program)
    assert not _folds(RULES["small"].program)
    assert not _folds(parse(" + ".join(plain[:12])))        # 11 additions
    assert _folds(parse(" + ".join(plain[:13])))            # 12 additions
    assert not _folds(parse(" - ".join(f"0.5*{a}" for a in plain[:6])))    # 5 + 6
    assert _folds(parse(" - ".join(f"{a}*0.5" for a in plain[:7])))        # 6 + 7
    assert not _folds(parse("1 + " + " + ".join(plain)))  # a constant first: no run
    assert _folds(parse(" + ".join(plain) + " + 1"))      # the run before it folds
    for rid in BUILTIN_IDS:
        rule = RuleSpec.builtin(rid)
        assert not any(_folds(p) for p in (rule.program, rule.tie_break) if p is not None)


# -- nesting bound --------------------------------------------------------------

@pytest.mark.parametrize("src", [
    "(" * 300 + "due" + ")" * 300,
    "-" * 300 + "due",
    "abs(" * 300 + "due" + ")" * 300,
    "(" * (MAX_DEPTH + 1) + "due" + ")" * (MAX_DEPTH + 1),
])
def test_deep_nesting_is_a_parse_error(src):
    with pytest.raises(ParseError, match="nesting deeper"):
        parse(src)


def test_nesting_at_the_bound_parses():
    assert parse("(" * MAX_DEPTH + "due" + ")" * MAX_DEPTH).root == Acc("due")
    assert parse("-" * MAX_DEPTH + "due").n_nodes == MAX_DEPTH + 1
    deep_if = "if(0 < " * MAX_DEPTH + "due" + ", 1, 2)" * MAX_DEPTH
    assert parse(deep_if).reads == {"due"}
