"""Chart source parsing, evaluation and error reporting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extgeo as xg
from extgeo.catalog import CATALOG
from extgeo.errors import DomainError, EvaluationError, ParseError
from extgeo.exprchart import (FUNCTIONS, Binary, Call, ChartSpec, ConstRef,
                              Lit, Unary, Var, check_point)
from extgeo.jets import seed_point

PLANE = """
m = 2; n = 3;
ambient = euclidean;
x1 = u1; x2 = u2; x3 = 0;
domain u1 in [-2, 2], u2 in [-2, 2];
basepoint 0, 0
"""

HELIX_SURFACE = """
m = 2; n = 3; ambient = euclidean;
const R = 1.5;
const TWO_PI = 6.283185307179586;
x1 = R * cos(u1); x2 = R * sin(u1); x3 = u2;
domain u1 in [0, TWO_PI] periodic, u2 in [-3, 3];
basepoint 0, 0
"""


def test_parse_plane_and_evaluate():
    chart = xg.parse_chart(PLANE)
    assert chart.m == 2 and chart.n == 3 and chart.kappa == 0.0
    pos = chart.eval_positions(np.array([0.5, -1.0]))
    np.testing.assert_allclose(pos, [0.5, -1.0, 0.0], atol=0)
    assert chart.periodic == [False, False]
    np.testing.assert_array_equal(chart.basepoint, [0.0, 0.0])


def test_periodic_flag_and_constants():
    chart = xg.parse_chart(HELIX_SURFACE)
    assert chart.periodic == [True, False]
    pos = chart.eval_positions(np.array([math.pi, 1.0]))
    np.testing.assert_allclose(pos, [-1.5, 0.0, 1.0], atol=1e-12)


def test_constants_declared_in_any_order():
    src = ("m = 1; n = 1; ambient = euclidean; x1 = A * u1; "
           "domain u1 in [-B, B]; const A = 2 * B; const B = 1.5")
    chart = xg.parse_chart(src)
    assert chart.eval_positions(np.array([1.0]))[0] == pytest.approx(3.0)
    assert chart.domain[0] == (-1.5, 1.5)


def test_operator_precedence_and_unary_minus():
    src = ("m = 1; n = 1; ambient = euclidean; "
           "x1 = -u1^2 + 2 * u1 - 6 / 2 / 3; domain u1 in [-5, 5]")
    chart = xg.parse_chart(src)
    val = chart.eval_positions(np.array([3.0]))[0]
    assert val == pytest.approx(-9.0 + 6.0 - 1.0, rel=1e-15)


def test_power_right_associative():
    src = "m = 1; n = 1; ambient = euclidean; x1 = u1 + 2^3^2; domain u1 in [0, 1]"
    chart = xg.parse_chart(src)
    assert chart.eval_positions(np.array([0.0]))[0] == pytest.approx(512.0)


def test_jets_match_positions():
    chart = xg.parse_chart(HELIX_SURFACE)
    pt = np.array([1.2, -0.4])
    jets_out = chart.eval_jets(seed_point(pt))
    pos = chart.eval_positions(pt)
    for j, x in zip(jets_out, pos):
        assert j.value == pytest.approx(x, rel=0, abs=0)


def test_batched_positions_match_pointwise():
    chart = xg.parse_chart(HELIX_SURFACE)
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, size=(7, 3, 2))
    batch = chart.eval_positions(pts)
    assert batch.shape == (7, 3, 3)
    for i in range(7):
        for j in range(3):
            np.testing.assert_array_equal(batch[i, j],
                                          chart.eval_positions(pts[i, j]))


def test_parse_error_carries_line_and_col():
    bad = "m = 2; n = 3;\nambient = euclidean;\nx1 = u1 +;\nx2 = u2; x3 = 0; domain u1 in [0,1], u2 in [0,1]"
    with pytest.raises(ParseError) as err:
        xg.parse_chart(bad)
    assert err.value.line == 3
    assert err.value.col is not None


def test_unknown_function_rejected():
    src = "m = 1; n = 1; ambient = euclidean; x1 = frob(u1); domain u1 in [0, 1]"
    with pytest.raises(ParseError):
        xg.parse_chart(src)


def test_missing_coordinate_rejected():
    src = "m = 1; n = 2; ambient = euclidean; x1 = u1; domain u1 in [0, 1]"
    with pytest.raises(ParseError):
        xg.parse_chart(src)


def test_undefined_constant_rejected():
    src = "m = 1; n = 1; ambient = euclidean; x1 = C * u1; domain u1 in [0, 1]"
    with pytest.raises(ParseError):
        xg.parse_chart(src)


def test_cyclic_constants_rejected():
    src = ("m = 1; n = 1; ambient = euclidean; x1 = u1; domain u1 in [0, 1]; "
           "const A = B; const B = A")
    with pytest.raises(ParseError):
        xg.parse_chart(src)


def test_hyperbolic_chart_needs_hyperboloid_coords():
    # n+1 coordinates that do not satisfy <x,x>_L = 1/kappa must be rejected
    bad = ("m = 1; n = 2; ambient = hyperbolic(-1); "
           "x1 = u1; x2 = 0; x3 = u1; domain u1 in [0.1, 1]")
    with pytest.raises((ParseError, xg.GeometryError)):
        xg.parse_chart(bad)


def test_hyperbolic_chart_accepts_geodesic():
    src = ("m = 1; n = 2; ambient = hyperbolic(-1); "
           "x1 = sinh(u1); x2 = 0; x3 = cosh(u1); "
           "domain u1 in [-2, 2]; basepoint 0")
    chart = xg.parse_chart(src)
    assert xg.ambient_of(chart).ncoords == 3
    pos = chart.eval_positions(np.array([0.7]))
    assert xg.lorentz_inner(pos, pos) == pytest.approx(-1.0, abs=1e-12)


def test_hyperbolic_ambient_requires_negative_kappa():
    src = ("m = 1; n = 2; ambient = hyperbolic(1); "
           "x1 = u1; x2 = 0; x3 = u1; domain u1 in [0, 1]")
    with pytest.raises(ParseError):
        xg.parse_chart(src)


def test_eval_chart_rejects_point_outside_domain():
    chart = xg.parse_chart(PLANE)
    with pytest.raises(DomainError):
        check_point(chart, np.array([5.0, 0.0]))


def test_contains_ignores_periodic_axes():
    chart = xg.parse_chart(HELIX_SURFACE)
    assert chart.contains(np.array([100.0, 0.5]))
    assert not chart.contains(np.array([0.5, 100.0]))


def test_default_basepoint_is_domain_midpoint():
    src = "m = 2; n = 2; ambient = euclidean; x1 = u1; x2 = u2; domain u1 in [0, 4], u2 in [-1, 1]"
    chart = xg.parse_chart(src)
    np.testing.assert_allclose(chart.basepoint, [2.0, 0.0], atol=0)


# ---------------------------------------------------------------------------
# constant folding: the jet rules, at parse time

def constant_chart(expr):
    return xg.parse_chart("m = 1; n = 2; ambient = euclidean; x1 = u1; "
                          f"x2 = {expr}; domain u1 in [0, 1]")


def folded_value(expr) -> float:
    """x2 = expr through parsing and evaluation, as a float."""
    return float(constant_chart(expr).eval_positions(np.array([0.5]))[1])


@pytest.mark.parametrize("expr,expected", [
    ("sqrt(0)", "sqrt: argument not strictly positive"),
    ("log(0)", "log: argument not strictly positive"),
    ("1/0", "div: division by zero"),
    ("(-2)^2", 4.0),
    ("0^0", 1.0),
    ("0^1", 0.0),
    ("0^3", 0.0),
    ("0^0.5", "pow: non-integer exponent 0.5 needs a positive base"),
    ("0^1.5", "pow: non-integer exponent 1.5 needs a positive base"),
    ("0^-1", "pow: exponent -1.0 is singular at zero base"),
    ("(-8)^(1/3)",
     "pow: non-integer exponent 0.3333333333333333 needs a positive base"),
    ("10^400", "pow: non-finite result"),
    ("exp(1000)", "exp: non-finite result"),
    ("1e308*10", "mul: non-finite result"),
    ("1e300/1e-300", "div: non-finite result"),
    ("(1e-300)^(-1.001)", 1.9952623149687276e+300),
])
def test_constant_folding_table(expr, expected):
    if isinstance(expected, float):
        assert folded_value(expr).hex() == expected.hex()
    else:
        with pytest.raises(EvaluationError) as err:
            folded_value(expr)
        assert str(err.value) == expected


def test_variable_exponent_reads_exp_of_log():
    # a^b = exp(b * log(a)): a constant base folds its log
    with pytest.raises(EvaluationError, match="^log: argument not strictly"):
        constant_chart("(-2)^u1")
    chart = constant_chart("2^u1")
    assert chart.eval_positions(np.array([3.0]))[1] == pytest.approx(8.0,
                                                                     rel=1e-15)


@pytest.mark.parametrize("statement,col", [
    ("const A = u1", 11),
    ("domain u1 in [-1, u2], u2 in [-1, 1]", 19),
    ("basepoint u1, 0", 11),
    ("m = u1", 5),
    ("ambient = hyperbolic(u1)", 22),
], ids=["const", "domain", "basepoint", "m", "kappa"])
def test_variable_in_a_constant_position_is_a_parse_error(statement, col):
    decls = {"m": "m = 2", "ambient": "ambient = euclidean",
             "domain": "domain u1 in [-1, 1], u2 in [-1, 1]"}
    decls[statement.split()[0]] = statement
    lines = [decls.pop("m"), "n = 2", decls.pop("ambient"), "x1 = u1",
             "x2 = u2", decls.pop("domain"), *decls.values()]
    line = lines.index(statement) + 1
    with pytest.raises(ParseError) as err:
        xg.parse_chart(";\n".join(lines))
    var = statement[col - 1:col + 1]
    assert str(err.value) == (f"line {line}, col {col}: '{var}' cannot appear "
                              "in a constant expression")


def nodes(ast):
    yield ast
    for key in ("child", "lhs", "rhs", "arg"):
        if hasattr(ast, key):
            yield from nodes(getattr(ast, key))


FOLDING = """
m = 2; n = 4; ambient = euclidean; const C = 2 * sin(0.5);
x1 = (2 + 3) * u1 - C / (1 + 1) + sqrt(C)^2 * u2;
x2 = u1^(1/2 + 1) + (u2 + 2)^u1 + 2^u2 - -(exp(-1));
x3 = cos(u1 * (3 - 1)) + log(C + 1) * tanh(u2);
x4 = 4 * 0.25;
domain u1 in [0.5, 1], u2 in [-C, C]
"""


@pytest.mark.parametrize("chart", [
    xg.parse_chart(FOLDING, name="folding"),
    xg.parse_chart(HELIX_SURFACE, name="helix"),
    *(chart for chart, _ in (xg.catalog_build(name) for name in CATALOG)
      if isinstance(chart, ChartSpec))], ids=lambda chart: chart.name)
def test_parsed_coordinates_hold_no_constant_operator(chart):
    for ast in chart.coords:
        for node in nodes(ast):
            assert not isinstance(node, ConstRef), node
            if isinstance(node, (Unary, Binary, Call)):
                assert any(isinstance(sub, Var) for sub in nodes(node)), node
            if isinstance(node, Binary) and node.op == "^":
                assert isinstance(node.rhs, Lit), node


# The property below draws constant expressions from the grammar and checks
# that folding gives what the jet walk over a grid gives when each literal
# rides on a jet, written (L + 0*u1).  Exponents stay literals: folding
# leaves them so, and a variable exponent reads exp(b * log(a)).  Only a
# derivative can separate the two, since the fold keeps no gradient: one
# that overflows where its value does not, as in (1e-300)^(-1.001) above,
# fails the walk alone.  The literals are kept moderate, so that no drawn
# expression comes near that.

LITERALS = ["0", "0.5", "1", "2", "3"]
EXPONENTS = ["0", "1", "2", "3", "0.5", "1.5", "(-1)", "(-0.5)"]


def expressions():
    leaf = st.tuples(st.just("lit"), st.sampled_from(LITERALS))
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("^"), sub, st.sampled_from(EXPONENTS)),
        st.tuples(st.sampled_from(FUNCTIONS), sub)), max_leaves=5)


def render(tree, wrap):
    kind = tree[0]
    if kind == "lit":
        return f"({tree[1]} + 0*u1)" if wrap else tree[1]
    if kind == "neg":
        return f"-({render(tree[1], wrap)})"
    if kind == "^":
        return f"({render(tree[1], wrap)})^{tree[2]}"
    if kind in FUNCTIONS:
        return f"{kind}({render(tree[1], wrap)})"
    return f"({render(tree[1], wrap)} {kind} {render(tree[2], wrap)})"


def outcome(run):
    """("value", its bits in hex) or ("error", the message)."""
    try:
        with np.errstate(all="ignore"):
            return "value", float(run()).hex()
    except EvaluationError as exc:
        return "error", str(exc)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(expressions())
@example(("^", ("lit", "0"), "0.5"))
def test_folding_matches_the_jet_walk(tree):
    folded = outcome(lambda: folded_value(render(tree, False)))
    grid = seed_point(np.full((2, 1), 0.5), order=1)
    walked = outcome(
        lambda: constant_chart(render(tree, True)).eval_jets(grid)[1].value[0])
    assert folded == walked
