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

Parsing folds every constant subtree into a literal, and computes the
declarations, domain bounds and basepoint, by the jet rules of ``jets``
on gradient-free jets.  The same rules then evaluate the chart: one walk
over jets of the order the variables are seeded with (positions are
their values).  A variable exponent reads a^b = exp(b * log(a)).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import jets
from .errors import DomainError, EvaluationError, GeometryError, ParseError
from .jets import Jet2
from .spaceform import Ambient

__all__ = ["parse_chart", "ChartSpec", "ChartBase", "check_point"]

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
# constant folding and evaluation: one walk, the jet rules

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
_OPERANDS = {Unary: ("child",), Binary: ("lhs", "rhs"), Call: ("arg",)}


def _eval_jet(node, varjets, lift=None):
    """Walk a folded AST over jets.  A literal is its float, or
    ``lift(value)`` when ``_reduce`` folds one operator."""
    if isinstance(node, Lit):
        return node.value if lift is None else lift(node.value)
    if isinstance(node, Var):
        return varjets[node.index]
    if isinstance(node, Unary):
        return -_eval_jet(node.child, varjets, lift)
    if isinstance(node, Call):
        return getattr(jets, node.fn)(_eval_jet(node.arg, varjets, lift))
    base = _eval_jet(node.lhs, varjets, lift)
    if node.op == "^":
        # folding leaves only literal exponents
        return jets.powc(base, node.rhs.value)
    return _ARITH[node.op](base, _eval_jet(node.rhs, varjets, lift))


def _gradient_free(value):
    return jets.constant(value, 0, (), 1)


def _fold(node, consts):
    """``node`` with every constant subtree replaced by a Lit of its value."""
    if isinstance(node, ConstRef):
        try:
            return Lit(consts[node.name], node.line, node.col)
        except KeyError:
            raise ParseError(f"unknown identifier '{node.name}'", node.line, node.col)
    names = _OPERANDS.get(type(node))
    if names is None:
        return node
    return _reduce(replace(node, **{k: _fold(getattr(node, k), consts)
                                    for k in names}))


def _reduce(node):
    """Fold one operator whose operands are folded: by the jet rules on
    gradient-free jets when all of them are literals.  A derivative those
    rules compute and drop may overflow where the value does not, so numpy
    stays quiet; a non-finite value still raises."""
    if isinstance(node, Binary) and node.op == "^" and not isinstance(node.rhs, Lit):
        # variable exponent: a^b = exp(b * log(a))
        log_a = _reduce(Call("log", node.lhs, node.line, node.col))
        return Call("exp", Binary("*", node.rhs, log_a, node.line, node.col),
                    node.line, node.col)
    if not all(isinstance(getattr(node, k), Lit) for k in _OPERANDS[type(node)]):
        return node
    with np.errstate(all="ignore"):
        value = _eval_jet(node, (), _gradient_free).value
    return Lit(float(value), node.line, node.col)


def _constant(node, consts) -> float:
    """The value of an expression that must not hold a chart variable."""
    var = next((nd for nd in _walk(node) if isinstance(nd, Var)), None)
    if var is not None:
        raise ParseError(f"'u{var.index + 1}' cannot appear in a constant expression",
                         var.line, var.col)
    return _fold(node, consts).value


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
            val = _eval_jet(ast, us)
            if not isinstance(val, Jet2):
                val = jets.constant(val, self.m, batch, us[0].order)
            out.append(val)
        return out


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
                consts[cname] = _constant(const_asts[cname], consts)
            else:
                remaining.append(cname)
        if len(remaining) == len(pending):
            raise ParseError("circular const definitions: "
                             + ", ".join(remaining))
        pending = remaining

    def _int_decl(key):
        node, tok = decl[key]
        val = _constant(node, consts)
        if not val.is_integer() or val < 1:
            raise ParseError(f"'{key}' must be a positive integer", tok.line, tok.col)
        return int(val)

    m = _int_decl("m")
    n = _int_decl("n")
    if m > n:
        raise ParseError(f"need m <= n, got m={m}, n={n}")

    kappa_node, kappa_tok = decl["kappa"]
    kappa = _constant(kappa_node, consts)
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
    coord_list = [_fold(ast, consts) for ast in coord_list]

    domain = []
    periodic = []
    for i in range(m):
        if i not in domains:
            raise ParseError(f"missing domain declaration for u{i + 1}")
        lo_ast, hi_ast, per, tok = domains[i]
        lo = _constant(lo_ast, consts)
        hi = _constant(hi_ast, consts)
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
        basepoint = [_constant(ast, consts) for ast in basepoint_asts]
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
