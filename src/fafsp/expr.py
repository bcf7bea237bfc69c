"""Closed arithmetic expression language for priority rules.

Grammar (whitespace-insensitive):

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | primary
    primary := NUMBER | ACCESSOR | CALL | '(' expr ')'
    CALL    := NAME '(' expr (',' expr)* ')'   NAME in {min,max,abs,sqrt,exp,log,if}
    if takes (cond, then, else) with cond := expr CMP expr,
    CMP in {<, <=, >, >=, ==, !=}

NUMBER is a decimal with optional fraction and exponent. Accessors are the
fixed feature names below; anything else is rejected. Programs are pure,
loop-free and evaluate in one vectorized pass over all candidate arcs; each
is compiled once, when it is built, into a tree of closures.

Protected operators keep every program evaluable: x/0 -> 0, log(x<=0) -> 0,
sqrt(x<0) -> 0. Overflow to non-finite values is *not* masked here; the rule
engine rejects rules whose final scores are non-finite.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

MAX_NODES = 512

FUNCTIONS = {"min": (2, None), "abs": (1, 1), "sqrt": (1, 1),
             "max": (2, None), "exp": (1, 1), "log": (1, 1), "if": (3, 3)}

#: accessor -> one-line meaning, shown to rule authors (human or LLM)
ACCESSORS = {
    "due": "due time of the job's order",
    "arrival": "arrival time of the job's order",
    "now": "current simulation clock",
    "slack": "due - now - work_rem",
    "wait": "now - arrival (how long the order has been in the shop)",
    "et": "realized processing time if dispatched, else mean over eligible machines",
    "n_mach": "number of machines qualified for the job",
    "ops_rem": "unfinished jobs in the job's order (including this one)",
    "work_rem": "estimated unfinished work of the job's order (including this one)",
    "pt": "processing time of the job on the candidate machine",
    "setup": "changeover time on the candidate machine before this job",
    "avail": "time the candidate machine last became idle",
    "queue": "number of ready jobs qualified on the candidate machine",
    "util": "cumulative busy minutes of the candidate machine",
}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, expected: set[str] | None = None):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos
        self.expected = expected or set()


class UnknownAccessor(ParseError):
    def __init__(self, name: str, pos: int):
        ParseError.__init__(self, f"unknown accessor '{name}'", pos, set(ACCESSORS))
        self.name = name


class NodeLimitExceeded(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Acc:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Cmp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]


Node = Union[Num, Acc, Neg, Bin, Cmp, Call]


@dataclass(frozen=True)
class Program:
    root: Node
    n_nodes: int
    #: root compiled once into a closure tree over a column mapping
    fn: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fn", _compile(self.root))

    def __reduce__(self):               # closures do not pickle; recompile instead
        return Program, (self.root, self.n_nodes)


_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<cmp><=|>=|==|!=|<|>)
  | (?P<op>[-+*/])
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(source)))
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0
        self.nodes = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str):
        k, t, pos = self.peek()
        if k != kind or (text and t != text):
            raise ParseError(f"expected '{text}', found {t or 'end of input'!r}",
                             pos, {text})
        return self.take()

    def count(self, node: Node) -> Node:
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise NodeLimitExceeded(f"program exceeds {MAX_NODES} AST nodes")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            node = self.count(Bin(op, node, self.term()))
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            node = self.count(Bin(op, node, self.unary()))
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "op" and self.peek()[1] == "-":
            self.take()
            return self.count(Neg(self.unary()))
        return self.primary()

    def primary(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return self.count(Num(float(text)))
        if kind == "lpar":
            self.take()
            node = self.expr()
            self.expect("rpar", ")")
            return node
        if kind == "name":
            self.take()
            if text in FUNCTIONS:
                return self.call(text, pos)
            if text in ACCESSORS:
                return self.count(Acc(text))
            raise UnknownAccessor(text, pos)
        raise ParseError(f"expected a number, accessor or '(', found {text or 'end of input'!r}",
                         pos, {"NUMBER", "ACCESSOR", "("})

    def call(self, name: str, pos: int) -> Node:
        self.expect("lpar", "(")
        if name == "if":
            cond = self.comparison()
            self.expect("comma", ",")
            then = self.expr()
            self.expect("comma", ",")
            other = self.expr()
            self.expect("rpar", ")")
            return self.count(Call("if", (cond, then, other)))
        args = [self.expr()]
        while self.peek()[0] == "comma":
            self.take()
            args.append(self.expr())
        self.expect("rpar", ")")
        lo, hi = FUNCTIONS[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ParseError(f"{name}() takes {lo}{'' if hi == lo else '+'} argument(s), "
                             f"got {len(args)}", pos)
        return self.count(Call(name, tuple(args)))

    def comparison(self) -> Node:
        left = self.expr()
        kind, text, pos = self.peek()
        if kind != "cmp":
            raise ParseError(f"expected a comparison operator, found {text or 'end of input'!r}",
                             pos, {"<", "<=", ">", ">=", "==", "!="})
        self.take()
        return self.count(Cmp(text, left, self.expr()))


def parse(source: str) -> Program:
    """Parse an expression into a Program or raise ParseError / UnknownAccessor /
    NodeLimitExceeded."""
    p = _Parser(_tokenize(source))
    root = p.expr()
    kind, text, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text!r}", pos)
    return Program(root, p.nodes)


# -- pretty printer ----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 4


def _print(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Acc):
        return node.name
    if isinstance(node, Neg):
        inner = _print(node.operand)
        if _prec(node.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        p = _PREC[node.op]
        left = _print(node.left)
        if _prec(node.left) < p:
            left = f"({left})"
        right = _print(node.right)
        if _prec(node.right) <= p:    # keep left-associative shape on reparse
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if isinstance(node, Cmp):
        return f"{_print(node.left)} {node.op} {_print(node.right)}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_print(a) for a in node.args)})"
    raise TypeError(node)


def to_source(program: Program) -> str:
    """Canonical text form; parse(to_source(p)) has the same AST as p."""
    return _print(program.root)


# -- vectorized evaluation ---------------------------------------------------
#
# Each node compiles to a closure taking the column mapping. Constants stay
# Python floats and broadcast, which gives the same values as full columns.

_CMP_FN = {"<": np.less, "<=": np.less_equal, ">": np.greater,
           ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal}


def _divide(left, right):
    zero = right == 0.0
    return np.where(zero, 0.0, left / np.where(zero, 1.0, right))


def _sqrt(x):
    return np.where(x < 0.0, 0.0, np.sqrt(np.maximum(x, 0.0)))


def _log(x):
    bad = x <= 0.0
    return np.where(bad, 0.0, np.log(np.where(bad, 1.0, x)))


_UNARY = {"abs": np.abs, "sqrt": _sqrt, "exp": np.exp, "log": _log}
_FOLD = {"min": np.minimum, "max": np.maximum}


def _compile(node: Node) -> Callable:
    if isinstance(node, Num):
        value = node.value
        return lambda c: value
    if isinstance(node, Acc):
        name = node.name
        return lambda c: c[name]
    if isinstance(node, Neg):
        f = _compile(node.operand)
        return lambda c: -f(c)
    if isinstance(node, (Bin, Cmp)):
        f, g = _compile(node.left), _compile(node.right)
        if node.op == "+":
            return lambda c: f(c) + g(c)
        if node.op == "-":
            return lambda c: f(c) - g(c)
        if node.op == "*":
            return lambda c: f(c) * g(c)
        if node.op == "/":
            return lambda c: _divide(f(c), g(c))
        cmp = _CMP_FN[node.op]
        return lambda c: cmp(f(c), g(c))
    if isinstance(node, Call):
        fs = [_compile(a) for a in node.args]
        if node.name == "if":
            cond, then, other = fs
            return lambda c: np.where(cond(c), then(c), other(c))
        if node.name in _FOLD:
            fold = _FOLD[node.name]
            return lambda c: functools.reduce(fold, [f(c) for f in fs])
        op, (f,) = _UNARY[node.name], fs
        return lambda c: op(f(c))
    raise TypeError(node)


def evaluate(program: Program, columns: dict[str, np.ndarray], n: int) -> np.ndarray:
    """Evaluate over n candidate arcs; columns maps accessor name -> float array.

    Returns a float array of length n. Division by zero, log of a
    non-positive value and sqrt of a negative value yield 0; other
    non-finite results (e.g. exp overflow) are passed through for the
    caller to reject.
    """
    with np.errstate(all="ignore"):
        result = program.fn(columns)
    if np.ndim(result) == 0:            # the program reads no column
        return np.full(n, float(result))
    return np.asarray(result, dtype=float)
