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
is compiled once, when it is built, into straight-line code that is
inlined into a rollout's chooser (``Program.inline``) and, on first use,
defined as ``Program.fn``.
A long +/- chain of terms that read a column, such as a weighted sum of
features, compiles into one scaled row-wise reduce with the same bits as
the chain's left fold.

Protected operators keep every program evaluable: x/0 -> 0, log(x<=0) -> 0,
sqrt(x<0) -> 0. Overflow to non-finite values is *not* masked here; the rule
engine rejects rules whose final scores are non-finite.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

MAX_NODES = 512
#: deepest nesting of parentheses, unary minus and calls the parser accepts;
#: it recurses once per level, so deeper text would exhaust the Python stack
MAX_DEPTH = 100

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
    #: root compiled once into straight-line code (see ``inline``)
    code: "_Code" = field(init=False, repr=False, compare=False)
    #: accessor names the program reads
    reads: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        code = _compile(self.root)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "reads", frozenset(code.reads))

    @functools.cached_property
    def fn(self) -> Callable:
        """The code as a function of a column mapping, defined on first use
        by ``evaluate``, its one caller: no ranking calls it, since a
        rollout and the step API both rank through the rule's chooser,
        which runs the code inline (``sim.build_chooser``)."""
        lines, result, namespace = self.inline()
        fetch = [f"{name} = columns[{name!r}]" for name in self.code.reads]
        return _define("program", "columns", [*fetch, *lines], result, namespace)

    def inline(self, prefix: str = "") -> tuple[list[str], str, dict]:
        """(lines, result, namespace) of the program's code with ``prefix``
        before every name it makes: straight-line assignments that read
        each accessor as a local named after it and leave the scores in
        ``result``, a local or a constant; ``namespace`` holds the operators
        and constants the lines use. ``fn`` and a rollout's chooser
        (``sim.build_chooser``) are both built from it."""
        code = self.code
        namespace = dict(_OPS)
        namespace.update((name.replace("{p}", prefix), value) for name, value in code.constants)
        return ([line.replace("{p}", prefix) for line in code.lines],
                code.result.replace("{p}", prefix),
                namespace)

    def __reduce__(self):               # generated code does not pickle; recompile
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


def _tokenize(source: str) -> Iterator[tuple[str, str, int]]:
    """(kind, text, position) of each token, then an ``eof`` token, made as
    the parser asks for them: the node and depth caps stop the parse after
    O(MAX_NODES) tokens however long the text is."""
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            yield kind, m.group(), pos
        pos = m.end()
    yield "eof", "", len(source)


class _Parser:
    """Recursive descent over a token stream with one token of lookahead;
    the first error in reading order ends the parse."""

    def __init__(self, tokens: Iterator[tuple[str, str, int]]):
        self.tokens = tokens
        self.lookahead = next(tokens)
        self.nodes = 0
        self.depth = 0

    def peek(self):
        return self.lookahead

    def take(self):
        tok = self.lookahead
        self.lookahead = next(self.tokens, tok)     # stays at eof once the text ends
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

    def enter(self, pos: int) -> None:
        """One nesting level deeper; the caller leaves with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)

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
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.take()
            self.enter(pos)
            node = self.count(Neg(self.unary()))
            self.depth -= 1
            return node
        return self.primary()

    def primary(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return self.count(Num(float(text)))
        if kind == "lpar":
            self.take()
            self.enter(pos)
            node = self.expr()
            self.expect("rpar", ")")
            self.depth -= 1
            return node
        if kind == "name":
            self.take()
            if text in FUNCTIONS:
                self.enter(pos)
                node = self.call(text, pos)
                self.depth -= 1
                return node
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
    NodeLimitExceeded. Text nested more than MAX_DEPTH levels is a ParseError."""
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
# Each program compiles once to straight-line code (``_Code``): one local
# per node, every accessor read as the local of its name, the same numpy
# operations in the same order as a walk of the tree. ``Program.fn`` runs
# it on a column mapping; a rollout's chooser inlines it after its own
# gather of the columns (``sim.build_chooser``). Constants are read-only 0-d
# float64 arrays and broadcast, which gives the same values as full
# columns; numpy takes a slower path for a Python float operand (a weak
# scalar) than for an array. The code holds only names the generator makes,
# accessor names and the operator names below; constants reach it through
# the namespace, never as text.
#
# One exception to the node-by-node code: the leading terms of a +/- chain
# t0 ± t1 ± ... ± tk that read a column, when they would take _FOLD_MIN or
# more numpy calls, become one _fold call. Its (k+1, 1) coefficient constant
# carries each term's sign and its number factor (``c*x`` or ``x*c``), so
# ``x - 2*pt`` adds the row pt scaled by -2. This is exact: 1*x is x,
# (-c)*x is -(c*x) and a + (-b) is a - b in IEEE arithmetic, and a
# row-wise add.reduce of a C-contiguous (k+1, n >= 2) matrix adds the rows
# in order, as the chain does. One column is repeated into two, because
# numpy sums a lone column pairwise; the reduce starts from -0.0, the
# identity that keeps a -0.0 sum. Terms after the first one that reads no
# column are added one call each, as before.

def _constant(value) -> np.ndarray:
    out = np.array(value, dtype=np.float64)
    out.flags.writeable = False
    return out


_ZERO, _ONE = _constant(0.0), _constant(1.0)
_FLOAT64 = np.dtype(np.float64)


def _divide(left, right):
    zero = right == _ZERO
    return np.where(zero, _ZERO, left / np.where(zero, _ONE, right))


def _sqrt(x):
    return np.sqrt(np.maximum(x, _ZERO))    # x < 0 -> +0; NaN passes through


def _log(x):
    return np.log(np.where(x <= _ZERO, _ONE, x))    # log(1) is +0


def _fold(coefs, rows):
    """The left fold ``coefs[0]*rows[0] + coefs[1]*rows[1] + ...`` of a chain."""
    m = np.array(rows)
    n = m.shape[1]
    if n == 1:                  # numpy sums a lone column pairwise, not in order
        m = np.repeat(m, 2, axis=1)
    m *= coefs
    out = np.add.reduce(m, axis=0, initial=-0.0)
    return out if n != 1 else out[:1]


_OPS = {"_lt": np.less, "_le": np.less_equal, "_gt": np.greater,
        "_ge": np.greater_equal, "_eq": np.equal, "_ne": np.not_equal,
        "_div": _divide, "_abs": np.abs, "_sqrt": _sqrt, "_exp": np.exp,
        "_log": _log, "_min": np.minimum, "_max": np.maximum, "_if": np.where,
        "_fold": _fold}
#: comparison, division and function names -> generated operator names
_OP_NAME = {"<": "_lt", "<=": "_le", ">": "_gt", ">=": "_ge", "==": "_eq",
            "!=": "_ne", "/": "_div", **{f: "_" + f for f in FUNCTIONS}}


#: fewest numpy calls (additions and scalings by a number) a run of chain
#: terms must take to compile into one _fold call instead; one _fold costs
#: about as much as 11 of them
_FOLD_MIN = 12


def _reads_column(node: Node) -> bool:
    if isinstance(node, (Num, Acc)):
        return isinstance(node, Acc)
    if isinstance(node, Neg):
        return _reads_column(node.operand)
    children = node.args if isinstance(node, Call) else (node.left, node.right)
    return any(map(_reads_column, children))


def _scaled(op: str, term: Node) -> tuple[float, Node]:
    """(coefficient, row) of a chain term: ``c*x`` and ``x*c`` with a number
    c are the row x scaled by c, any other term is itself scaled by 1; a
    subtracted term's coefficient is negated."""
    coef, row = 1.0, term
    if isinstance(term, Bin) and term.op == "*":
        if isinstance(term.left, Num):
            coef, row = term.left.value, term.right
        elif isinstance(term.right, Num):
            coef, row = term.right.value, term.left
    return (-coef if op == "-" else coef), row


class _Code(NamedTuple):
    """A program's straight-line code. Each name it makes, a local ``v<i>``
    or a constant ``c<i>``, starts with the placeholder ``{p}``, which
    ``Program.inline`` fills with a prefix."""

    lines: tuple[str, ...]              # assignments, in order
    result: str                         # the local or constant returned
    constants: tuple[tuple[str, np.ndarray], ...]
    reads: tuple[str, ...]              # accessors, in the order first read


def _define(name: str, params: str, lines: list[str], result: str, namespace: dict) -> Callable:
    """The function ``name(params)`` that runs ``lines`` and returns ``result``,
    compiled with ``namespace`` as its globals."""
    body = "".join(f"    {line}\n" for line in lines)
    exec(compile(f"def {name}({params}):\n{body}    return {result}\n",
                 f"<fafsp {name}>", "exec"), namespace)
    return namespace[name]


def _compile(root: Node) -> _Code:
    constants: dict[str, np.ndarray] = {}
    lines: list[str] = []
    reads: dict[str, None] = {}         # an ordered set

    def local(text: str) -> str:
        name = f"{{p}}v{len(lines)}"
        lines.append(f"{name} = {text}")
        return name

    def constant(value) -> str:
        name = f"{{p}}c{len(constants)}"
        constants[name] = _constant(value)
        return name

    def chain(node: Bin) -> str:
        terms = []
        while isinstance(node, Bin) and node.op in "+-":
            terms.append((node.op, node.right))
            node = node.left
        terms.append(("+", node))
        terms.reverse()
        run = next((i for i, (_, t) in enumerate(terms) if not _reads_column(t)), len(terms))
        head = [_scaled(op, t) for op, t in terms[:run]]
        scalings = sum(row is not t for (_, row), (_, t) in zip(head, terms))
        if run - 1 + scalings >= _FOLD_MIN:        # the calls one _fold takes over
            coefs, rows = zip(*head)
            coef = constant([[c] for c in coefs])
            acc = local(f"_fold({coef}, ({', '.join(emit(r) for r in rows)},))")
        else:
            run, acc = 1, emit(node)
        for op, term in terms[run:]:
            acc = local(f"{acc} {op} {emit(term)}")
        return acc

    def emit(node: Node) -> str:
        if isinstance(node, Num):
            return constant(node.value)
        if isinstance(node, Acc):
            if node.name not in ACCESSORS:
                raise UnknownAccessor(node.name, 0)
            reads[node.name] = None
            return node.name
        if isinstance(node, Neg):
            return local(f"-{emit(node.operand)}")
        if isinstance(node, Bin) and node.op in "+-":
            return chain(node)
        if isinstance(node, Bin) and node.op == "*":
            left = emit(node.left)
            return local(f"{left} {node.op} {emit(node.right)}")
        if isinstance(node, (Bin, Cmp)):
            op = _OP_NAME[node.op]
            left = emit(node.left)
            return local(f"{op}({left}, {emit(node.right)})")
        if isinstance(node, Call):
            op = _OP_NAME[node.name]
            args = [emit(a) for a in node.args]
            if node.name in ("min", "max"):         # left fold over the arguments
                acc = args[0]
                for a in args[1:]:
                    acc = local(f"{op}({acc}, {a})")
                return acc
            return local(f"{op}({', '.join(args)})")
        raise TypeError(node)

    result = emit(root)
    return _Code(tuple(lines), result, tuple(constants.items()), tuple(reads))


@np.errstate(all="ignore")
def evaluate(program: Program, columns: dict[str, np.ndarray], n: int) -> np.ndarray:
    """Evaluate over n candidate arcs; columns maps accessor name -> float array.

    Returns a float array of length n: a float64 result as it is, a program
    that reads no column as a full column of its value, and any other
    result (a comparison at the top, or integer columns) cast to float.
    Division by zero, log of a non-positive value and sqrt of a negative
    value yield 0; other non-finite results (e.g. exp overflow) are passed
    through for the caller to reject. Numpy's floating-point errors are
    ignored for the call, whatever the caller's error state, which the
    decorator restores.
    """
    result = program.fn(columns)
    if result.ndim == 0:                # the program reads no column
        return np.full(n, float(result))
    if result.dtype is _FLOAT64:
        return result
    return result.astype(float)
