"""Parametrized immersions from plain text.

A chart source is a list of ';'-separated statements:

    m = 2; n = 3;
    ambient = euclidean;
    x1 = cosh(u1) * cos(u2);
    x2 = cosh(u1) * sin(u2);
    x3 = u1;
    domain u1 in [-T, T], u2 in [0, 6.283185307179586] periodic;
    const T = 2.5

Coordinates x1..xn are expressions in the chart variables u1..um (a
hyperbolic ambient of curvature kappa declares n+1 hyperboloid-model
coordinates instead, written ``ambient = hyperbolic(-1)``).  The usual
precedence applies: ^ binds tightest and associates to the right, then
unary minus, then * and /, then + and -.  Functions are the elementary
set supported by the jet layer.  ``const`` binds named constants, usable
anywhere, declared in any order.  An optional ``basepoint`` statement
marks a distinguished chart point (the domain midpoint otherwise).

Parsed charts evaluate to jets of the order they are seeded with
(positions are their values), and they pretty-print back to source that
reparses to a structurally identical tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import DomainError, EvaluationError, GeometryError, ParseError
from .jets import Jet2
from .spaceform import Ambient

__all__ = ["parse_chart", "ChartSpec", "ChartBase", "check_point",
           "eval_chart", "Lit", "Var", "ConstRef", "Unary", "Binary", "Call"]

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "sinh", "cosh", "tanh")

_KEYWORDS = {"m", "n", "ambient", "domain", "const", "basepoint",
             "euclidean", "hyperbolic", "in", "periodic"}

# relative slack of the domain box in ``ChartBase.contains``
DOMAIN_SLACK = 1e-9


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Lit:
    value: float
    line: int = field(default=0, compare=False, repr=False)
    col: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    index: int
    line: int = field(default=0, compare=False, repr=False)
    col: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class ConstRef:
    name: str
    line: int = field(default=0, compare=False, repr=False)
    col: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str
    child: object
    line: int = field(default=0, compare=False, repr=False)
    col: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: object
    rhs: object
    line: int = field(default=0, compare=False, repr=False)
    col: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    line: int = field(default=0, compare=False, repr=False)
    col: int = field(default=0, compare=False, repr=False)


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()\[\],;=])
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'num' | 'id' | 'op' | 'end'
    text: str
    line: int
    col: int


def _tokenize(source: str):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        mo = _TOKEN_RE.match(source, pos)
        if mo is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = mo.group(0)
        kind = mo.lastgroup
        if kind != "ws":
            toks.append(_Tok(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = mo.end()
    toks.append(_Tok("end", "", line, col))
    return toks


class _Stream:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect_op(self, text) -> _Tok:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected '{text}', found {tok.text!r}", tok.line, tok.col)
        return tok


# ---------------------------------------------------------------------------
# expression parser (Pratt style; ^ is right-associative and binds tightest)

_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PREC = 25

_VAR_RE = re.compile(r"^u([1-9][0-9]*)$")
_COORD_RE = re.compile(r"^x([1-9][0-9]*)$")


def _parse_expr(ts: _Stream, min_prec=0):
    node = _parse_prefix(ts)
    while True:
        tok = ts.peek()
        if tok.kind != "op" or tok.text not in _BIN_PREC:
            return node
        prec = _BIN_PREC[tok.text]
        if prec < min_prec:
            return node
        ts.next()
        # right associativity for ^, left for everything else
        rhs = _parse_expr(ts, prec if tok.text == "^" else prec + 1)
        node = Binary(tok.text, node, rhs, line=tok.line, col=tok.col)


def _parse_prefix(ts: _Stream):
    tok = ts.next()
    if tok.kind == "num":
        return Lit(float(tok.text), line=tok.line, col=tok.col)
    if tok.kind == "op" and tok.text == "-":
        child = _parse_expr(ts, _UNARY_PREC)
        return Unary("neg", child, line=tok.line, col=tok.col)
    if tok.kind == "op" and tok.text == "(":
        node = _parse_expr(ts)
        ts.expect_op(")")
        return node
    if tok.kind == "id":
        nxt = ts.peek()
        if nxt.kind == "op" and nxt.text == "(":
            if tok.text not in FUNCTIONS:
                raise ParseError(f"unknown function '{tok.text}'", tok.line, tok.col)
            ts.next()
            arg = _parse_expr(ts)
            closer = ts.peek()
            if closer.kind == "op" and closer.text == ",":
                raise ParseError(f"'{tok.text}' takes one argument", closer.line, closer.col)
            ts.expect_op(")")
            return Call(tok.text, arg, line=tok.line, col=tok.col)
        mo = _VAR_RE.match(tok.text)
        if mo:
            return Var(int(mo.group(1)) - 1, line=tok.line, col=tok.col)
        if tok.text in _KEYWORDS or tok.text in FUNCTIONS:
            raise ParseError(f"'{tok.text}' cannot appear in an expression here",
                             tok.line, tok.col)
        return ConstRef(tok.text, line=tok.line, col=tok.col)
    raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# constant folding and evaluation

def _is_constant(node) -> bool:
    if isinstance(node, (Lit, ConstRef)):
        return True
    if isinstance(node, Var):
        return False
    if isinstance(node, Unary):
        return _is_constant(node.child)
    if isinstance(node, Binary):
        return _is_constant(node.lhs) and _is_constant(node.rhs)
    if isinstance(node, Call):
        return _is_constant(node.arg)
    raise TypeError(node)


# the jet layer's name of each binary operator, so that a folded constant
# and a jet report the same operation
_OP_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}


def _fold(node, consts) -> float:
    """Evaluate a constant subtree to a float, with jet-layer domain rules."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, ConstRef):
        try:
            return consts[node.name]
        except KeyError:
            raise ParseError(f"unknown identifier '{node.name}'", node.line, node.col)
    if isinstance(node, Unary):
        return -_fold(node.child, consts)
    if isinstance(node, Binary):
        a = _fold(node.lhs, consts)
        b = _fold(node.rhs, consts)
        out = _fold_binary(node.op, a, b)
        if not math.isfinite(out):
            raise EvaluationError(_OP_NAMES[node.op], "non-finite result")
        return out
    if isinstance(node, Call):
        return _fold_call(node.fn, _fold(node.arg, consts))
    raise TypeError(node)


def _fold_binary(op, a, b) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise EvaluationError("div", "division by zero")
        return a / b
    if op == "^":
        if a < 0.0 and b != int(b):
            raise EvaluationError("pow", "non-integer exponent needs a positive base")
        if a == 0.0 and b < 0.0:
            raise EvaluationError("pow", "zero base with negative exponent")
        try:
            return a ** b
        except OverflowError:
            raise EvaluationError("pow", "non-finite result")
    raise TypeError(op)


def _fold_call(fn, x) -> float:
    if fn in ("sqrt", "log") and x <= 0.0:
        raise EvaluationError(fn, "argument not strictly positive")
    try:
        out = getattr(math, fn)(x)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise EvaluationError(fn, "non-finite result")
    return out


def _eval_jet(node, varjets, consts):
    """Walk an AST over jets; constant subtrees stay plain floats."""
    if isinstance(node, (Lit, ConstRef)):
        return _fold(node, consts)
    if isinstance(node, Var):
        return varjets[node.index]
    if isinstance(node, Unary):
        child = _eval_jet(node.child, varjets, consts)
        return -child
    if isinstance(node, Call):
        arg = _eval_jet(node.arg, varjets, consts)
        if isinstance(arg, Jet2):
            return getattr(jets, node.fn)(arg)
        return _fold_call(node.fn, arg)
    if isinstance(node, Binary):
        if node.op == "^" and _is_constant(node.rhs):
            p = _fold(node.rhs, consts)
            base = _eval_jet(node.lhs, varjets, consts)
            if isinstance(base, Jet2):
                return jets.powc(base, p)
            return _fold_binary("^", base, p)
        a = _eval_jet(node.lhs, varjets, consts)
        b = _eval_jet(node.rhs, varjets, consts)
        if node.op == "^":
            # variable exponent: route through exp(b * log(a))
            if isinstance(a, Jet2):
                return jets.exp(b * jets.log(a))
            if a <= 0.0:
                raise EvaluationError("pow", "variable exponent needs a positive base")
            return jets.exp(b * math.log(a))
        if not isinstance(a, Jet2) and not isinstance(b, Jet2):
            return _fold_binary(node.op, a, b)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    raise TypeError(node)


# ---------------------------------------------------------------------------
# charts

class ChartBase:
    """Common surface for parsed and built-in charts.

    Subclasses fill in the dimensions, the ambient curvature, the parameter
    box, and ``eval_jets``; positions are the values of the jets.
    """

    name = "chart"
    m: int
    n: int
    kappa: float
    domain: list
    periodic: list
    basepoint: np.ndarray
    # which axes end in genuine truncation faces (cuts toward infinity);
    # None means every non-periodic axis.  Charts that trim a coordinate
    # singularity (sphere-factor polar margins) mark that axis False so the
    # margin faces are not mistaken for ends or for the reliable-window cap.
    truncation_axes = None

    def truncation_axis_flags(self) -> list:
        if self.truncation_axes is None:
            return [not p for p in self.periodic]
        flags = [bool(f) and not p
                 for f, p in zip(self.truncation_axes, self.periodic)]
        if len(flags) != self.m:
            raise DomainError("truncation_axes length must match m")
        return flags

    def eval_jets(self, us):
        raise NotImplementedError

    def eval_positions(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = self.eval_jets(jets.seed_point(points))
        return np.stack([j.value for j in out], axis=-1)

    def contains(self, point) -> bool:
        point = np.asarray(point, dtype=float)
        for axis in range(self.m):
            if self.periodic[axis]:
                continue
            lo, hi = self.domain[axis]
            slack = DOMAIN_SLACK * (hi - lo)
            x = point[..., axis]
            if np.any(x < lo - slack) or np.any(x > hi + slack):
                return False
        return True


def check_point(chart: ChartBase, point) -> np.ndarray:
    """``point`` (one point or a batch) as floats; DomainError unless it
    has m coordinates and lies in the declared chart domain."""
    point = np.asarray(point, dtype=float)
    if point.shape[-1] != chart.m:
        raise DomainError(f"point has {point.shape[-1]} coordinates, chart has m={chart.m}")
    if not chart.contains(point):
        raise DomainError("point outside the declared chart domain")
    return point


def eval_chart(chart: ChartBase, point) -> list:
    """Evaluate a chart at one point (or a batch) as second-order jets."""
    return chart.eval_jets(jets.seed_point(check_point(chart, point)))


class ChartSpec(ChartBase):
    """A chart parsed from source text."""

    def __init__(self, m, n, kappa, coords, domain, periodic, consts,
                 basepoint, name="chart"):
        self.m = m
        self.n = n
        self.kappa = kappa
        self.coords = coords          # list of ASTs, one per ambient coordinate
        self.domain = domain          # list of (lo, hi)
        self.periodic = periodic      # list of bool
        self.consts = consts          # ordered name -> value
        self.basepoint = np.asarray(basepoint, dtype=float)
        self.name = name

    def eval_jets(self, us):
        out = []
        batch = us[0].batch_shape
        for ast in self.coords:
            val = _eval_jet(ast, us, self.consts)
            if not isinstance(val, Jet2):
                val = jets.constant(val, self.m, batch, us[0].order)
            out.append(val)
        return out

    def to_source(self) -> str:
        parts = [f"m = {self.m}", f"n = {self.n}"]
        if self.kappa == 0.0:
            parts.append("ambient = euclidean")
        else:
            parts.append(f"ambient = hyperbolic({_fmt(self.kappa)})")
        for cname, cval in self.consts.items():
            parts.append(f"const {cname} = {_fmt(cval)}")
        for k, ast in enumerate(self.coords):
            parts.append(f"x{k + 1} = {expr_source(ast)}")
        axes = []
        for i, (lo, hi) in enumerate(self.domain):
            decl = f"u{i + 1} in [{_fmt(lo)}, {_fmt(hi)}]"
            if self.periodic[i]:
                decl += " periodic"
            axes.append(decl)
        parts.append("domain " + ", ".join(axes))
        parts.append("basepoint " + ", ".join(_fmt(b) for b in self.basepoint))
        return ";\n".join(parts) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def expr_source(node, parent_prec=0, rhs_of=None) -> str:
    """Render an AST back to text with the fewest parentheses that preserve
    structure under reparsing."""
    if isinstance(node, Lit):
        text = _fmt(node.value)
        return text
    if isinstance(node, Var):
        return f"u{node.index + 1}"
    if isinstance(node, ConstRef):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({expr_source(node.arg)})"
    if isinstance(node, Unary):
        inner = expr_source(node.child, _UNARY_PREC)
        text = f"-{inner}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    if isinstance(node, Binary):
        prec = _BIN_PREC[node.op]
        if node.op == "^":
            left = expr_source(node.lhs, prec + 1)
            right = expr_source(node.rhs, prec)
        else:
            left = expr_source(node.lhs, prec)
            right = expr_source(node.rhs, prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(node)


# ---------------------------------------------------------------------------
# statement-level parsing

def parse_chart(source: str, name: str = "chart") -> ChartSpec:
    """Parse chart source text into a validated ChartSpec."""
    ts = _Stream(_tokenize(source))
    decl = {"m": None, "n": None, "kappa": None, "euclidean": None}
    coords = {}
    domains = {}
    const_order = []
    const_asts = {}
    basepoint_asts = None

    while ts.peek().kind != "end":
        if ts.peek().kind == "op" and ts.peek().text == ";":
            ts.next()
            continue
        _parse_statement(ts, decl, coords, domains, const_order, const_asts)
        if ts.peek().kind == "op" and ts.peek().text == ";":
            ts.next()
        elif ts.peek().kind != "end":
            tok = ts.peek()
            raise ParseError(f"expected ';' between statements, found {tok.text!r}",
                             tok.line, tok.col)
        if "basepoint" in const_asts:
            basepoint_asts = const_asts.pop("basepoint")

    return _finalize(decl, coords, domains, const_order, const_asts,
                     basepoint_asts, name)


def _parse_statement(ts, decl, coords, domains, const_order, const_asts):
    tok = ts.next()
    if tok.kind != "id":
        raise ParseError(f"expected a statement, found {tok.text!r}", tok.line, tok.col)

    if tok.text in ("m", "n"):
        ts.expect_op("=")
        node = _parse_expr(ts)
        decl[tok.text] = (node, tok)
        return

    if tok.text == "ambient":
        ts.expect_op("=")
        which = ts.next()
        if which.kind != "id" or which.text not in ("euclidean", "hyperbolic"):
            raise ParseError("ambient must be euclidean or hyperbolic(kappa)",
                             which.line, which.col)
        if which.text == "euclidean":
            decl["euclidean"] = True
            decl["kappa"] = (Lit(0.0), tok)
        else:
            decl["euclidean"] = False
            ts.expect_op("(")
            node = _parse_expr(ts)
            ts.expect_op(")")
            decl["kappa"] = (node, tok)
        return

    if tok.text == "const":
        nm = ts.next()
        if nm.kind != "id":
            raise ParseError("const needs a name", nm.line, nm.col)
        if (nm.text in _KEYWORDS or nm.text in FUNCTIONS
                or _VAR_RE.match(nm.text) or _COORD_RE.match(nm.text)):
            raise ParseError(f"'{nm.text}' cannot be used as a constant name",
                             nm.line, nm.col)
        if nm.text in const_asts:
            raise ParseError(f"constant '{nm.text}' defined twice", nm.line, nm.col)
        ts.expect_op("=")
        const_asts[nm.text] = _parse_expr(ts)
        const_order.append(nm.text)
        return

    if tok.text == "domain":
        while True:
            axis = ts.next()
            mo = _VAR_RE.match(axis.text) if axis.kind == "id" else None
            if mo is None:
                raise ParseError("domain expects axis declarations like 'u1 in [a, b]'",
                                 axis.line, axis.col)
            idx = int(mo.group(1)) - 1
            kw = ts.next()
            if kw.kind != "id" or kw.text != "in":
                raise ParseError("expected 'in' after the axis name", kw.line, kw.col)
            ts.expect_op("[")
            lo = _parse_expr(ts)
            ts.expect_op(",")
            hi = _parse_expr(ts)
            ts.expect_op("]")
            per = False
            if ts.peek().kind == "id" and ts.peek().text == "periodic":
                ts.next()
                per = True
            if idx in domains:
                raise ParseError(f"axis u{idx + 1} declared twice", axis.line, axis.col)
            domains[idx] = (lo, hi, per, axis)
            if ts.peek().kind == "op" and ts.peek().text == ",":
                ts.next()
                continue
            return

    if tok.text == "basepoint":
        exprs = [_parse_expr(ts)]
        while ts.peek().kind == "op" and ts.peek().text == ",":
            ts.next()
            exprs.append(_parse_expr(ts))
        const_asts["basepoint"] = exprs  # stashed; pulled out by the caller
        return

    mo = _COORD_RE.match(tok.text)
    if mo:
        k = int(mo.group(1))
        if k in coords:
            raise ParseError(f"coordinate x{k} defined twice", tok.line, tok.col)
        ts.expect_op("=")
        coords[k] = _parse_expr(ts)
        return

    raise ParseError(f"unknown statement '{tok.text}'", tok.line, tok.col)


def _walk(node):
    yield node
    for attr in ("child", "lhs", "rhs", "arg"):
        sub = getattr(node, attr, None)
        if sub is not None:
            yield from _walk(sub)


def _finalize(decl, coords, domains, const_order, const_asts, basepoint_asts, name):
    for key in ("m", "n"):
        if decl[key] is None:
            raise ParseError(f"missing '{key} = ...' declaration")
    if decl["kappa"] is None:
        raise ParseError("missing 'ambient = ...' declaration")

    # consts may reference one another regardless of declaration order;
    # resolve in dependency order and flag genuine cycles
    consts = {}
    pending = list(const_order)
    while pending:
        remaining = []
        for cname in pending:
            deps = [nd for nd in _walk(const_asts[cname])
                    if isinstance(nd, ConstRef)]
            bad = next((d for d in deps if d.name not in const_asts), None)
            if bad is not None:
                raise ParseError(f"unknown identifier '{bad.name}'",
                                 bad.line, bad.col)
            if all(d.name in consts for d in deps):
                consts[cname] = _fold(const_asts[cname], consts)
            else:
                remaining.append(cname)
        if len(remaining) == len(pending):
            raise ParseError("circular const definitions: "
                             + ", ".join(remaining))
        pending = remaining

    def _int_decl(key):
        node, tok = decl[key]
        val = _fold(node, consts)
        if val != int(val) or val < 1:
            raise ParseError(f"'{key}' must be a positive integer", tok.line, tok.col)
        return int(val)

    m = _int_decl("m")
    n = _int_decl("n")
    if m > n:
        raise ParseError(f"need m <= n, got m={m}, n={n}")

    kappa_node, kappa_tok = decl["kappa"]
    kappa = _fold(kappa_node, consts)
    if decl["euclidean"] is False and kappa >= 0.0:
        raise ParseError("hyperbolic ambient needs kappa < 0",
                         kappa_tok.line, kappa_tok.col)

    amb = Ambient(n, kappa)
    ncoords = amb.ncoords
    missing = [k for k in range(1, ncoords + 1) if k not in coords]
    extra = [k for k in coords if k > ncoords]
    if missing or extra:
        raise ParseError(
            f"chart must define exactly x1..x{ncoords}"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else ""))

    coord_list = [coords[k] for k in range(1, ncoords + 1)]
    for ast in coord_list:
        for node in _walk(ast):
            if isinstance(node, Var) and node.index >= m:
                raise ParseError(f"variable u{node.index + 1} out of range for m={m}",
                                 node.line, node.col)
            if isinstance(node, ConstRef) and node.name not in consts:
                raise ParseError(f"unknown identifier '{node.name}'",
                                 node.line, node.col)

    domain = []
    periodic = []
    for i in range(m):
        if i not in domains:
            raise ParseError(f"missing domain declaration for u{i + 1}")
        lo_ast, hi_ast, per, tok = domains[i]
        lo = _fold(lo_ast, consts)
        hi = _fold(hi_ast, consts)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ParseError(f"axis u{i + 1} needs a non-degenerate interval",
                             tok.line, tok.col)
        domain.append((lo, hi))
        periodic.append(per)
    for i in domains:
        if i >= m:
            raise ParseError(f"domain declared for u{i + 1} but m={m}")

    if basepoint_asts is not None:
        if len(basepoint_asts) != m:
            raise ParseError(f"basepoint needs {m} coordinates, got {len(basepoint_asts)}")
        basepoint = [_fold(ast, consts) for ast in basepoint_asts]
    else:
        basepoint = [lo if periodic[i] else 0.5 * (lo + hi)
                     for i, (lo, hi) in enumerate(domain)]

    spec = ChartSpec(m, n, kappa, coord_list, domain, periodic, consts,
                     basepoint, name)
    if not spec.contains(spec.basepoint):
        raise ParseError("basepoint lies outside the declared domain")
    if kappa < 0.0:
        _check_hyperboloid_samples(spec, amb)
    return spec


def _check_hyperboloid_samples(spec: ChartSpec, amb: Ambient):
    """Hyperboloid-model charts must actually land on the sheet."""
    axes = []
    for i, (lo, hi) in enumerate(spec.domain):
        if spec.periodic[i]:
            axes.append(lo + (hi - lo) * np.linspace(0.0, 0.8, 5))
        else:
            axes.append(np.linspace(lo, hi, 5))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.m)
    try:
        amb.check_point(spec.eval_positions(grid))
    except GeometryError as exc:
        raise ParseError(f"chart coordinates at sampled points: {exc}")
