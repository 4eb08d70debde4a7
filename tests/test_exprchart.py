"""Chart source parsing, evaluation and error reporting."""

import math

import numpy as np
import pytest

import extgeo as xg
from extgeo.errors import DomainError, ParseError

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


def test_roundtrip_through_source():
    chart = xg.parse_chart(HELIX_SURFACE)
    again = xg.parse_chart(chart.to_source())
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(20, 2))
    np.testing.assert_allclose(chart.eval_positions(pts),
                               again.eval_positions(pts), rtol=0, atol=0)


def test_jets_match_positions():
    chart = xg.parse_chart(HELIX_SURFACE)
    pt = np.array([1.2, -0.4])
    jets_out = xg.eval_chart(chart, pt)
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
        xg.eval_chart(chart, np.array([5.0, 0.0]))


def test_contains_ignores_periodic_axes():
    chart = xg.parse_chart(HELIX_SURFACE)
    assert chart.contains(np.array([100.0, 0.5]))
    assert not chart.contains(np.array([0.5, 100.0]))


def test_default_basepoint_is_domain_midpoint():
    src = "m = 2; n = 2; ambient = euclidean; x1 = u1; x2 = u2; domain u1 in [0, 4], u2 in [-1, 1]"
    chart = xg.parse_chart(src)
    np.testing.assert_allclose(chart.basepoint, [2.0, 0.0], atol=0)
