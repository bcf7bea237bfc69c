"""Expression language: grammar, printer fixpoint, protected evaluation."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fafsp.expr import (ACCESSORS, Acc, Bin, Call, Cmp, Neg, Num,
                        NodeLimitExceeded, ParseError, UnknownAccessor,
                        evaluate, parse, to_source)


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


def _tree_walk(node, columns, n):
    """Reference interpreter: walks the AST on every call."""
    def ev(node):
        if isinstance(node, Num):
            return np.full(n, node.value)
        if isinstance(node, Acc):
            return columns[node.name]
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Bin):
            left, right = ev(node.left), ev(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return np.where(right == 0.0, 0.0, left / np.where(right == 0.0, 1.0, right))
        assert isinstance(node, Call)
        if node.name == "if":
            cond = node.args[0]
            assert isinstance(cond, Cmp)
            mask = {"<": np.less, "<=": np.less_equal, ">": np.greater,
                    ">=": np.greater_equal, "==": np.equal,
                    "!=": np.not_equal}[cond.op](ev(cond.left), ev(cond.right))
            return np.where(mask, ev(node.args[1]), ev(node.args[2]))
        args = [ev(a) for a in node.args]
        x = args[0]
        return {"min": lambda: np.minimum.reduce(args),
                "max": lambda: np.maximum.reduce(args),
                "abs": lambda: np.abs(x),
                "sqrt": lambda: np.where(x < 0.0, 0.0, np.sqrt(np.maximum(x, 0.0))),
                "exp": lambda: np.exp(x),
                "log": lambda: np.where(x <= 0.0, 0.0, np.log(np.where(x <= 0.0, 1.0, x))),
                }[node.name]()

    with np.errstate(all="ignore"):
        return ev(node)


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
    assert np.array_equal(got, _tree_walk(prog.root, cols, n), equal_nan=True)


def test_program_pickles_and_still_evaluates():
    prog = parse("max(due, 2) / pt")
    again = pickle.loads(pickle.dumps(prog))
    assert again == prog
    cols = {"due": np.array([1.0, 6.0]), "pt": np.array([2.0, 0.0])}
    assert evaluate(again, cols, 2).tolist() == [1.0, 0.0]
