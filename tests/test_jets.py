"""Second-order jet arithmetic against central finite differences, and
first-order jets against the leading part of second-order ones."""

import math

import numpy as np
import pytest

import extgeo as xg
from extgeo import jets
from extgeo.errors import DomainError, EvaluationError

RNG = np.random.default_rng(7)


def fd_grad_hess(f, x, h=1e-4):
    """Dense FD gradient and Hessian of a scalar callable on R^m."""
    m = x.size
    g = np.zeros(m)
    H = np.zeros((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
        H[i, i] = (f(x + e) - 2 * f(x) + f(x - e)) / (h * h)
    for i in range(m):
        for j in range(i + 1, m):
            ei = np.zeros(m)
            ej = np.zeros(m)
            ei[i] = h
            ej[j] = h
            H[i, j] = H[j, i] = (f(x + ei + ej) - f(x + ei - ej)
                                 - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return g, H


def eval_expr(builder, x):
    us = jets.seed_point(np.asarray(x, dtype=float))
    return builder(us)


def check_against_fd(builder, scalar, x, tol=5e-6):
    jet = eval_expr(builder, x)
    g, H = fd_grad_hess(scalar, np.asarray(x, dtype=float))
    assert jet.value == pytest.approx(scalar(np.asarray(x)), rel=1e-12)
    np.testing.assert_allclose(jet.grad, g, rtol=tol, atol=tol)
    np.testing.assert_allclose(jet.hess, H, rtol=tol, atol=tol)


def test_polynomial_jet_matches_fd():
    check_against_fd(
        lambda u: u[0] * u[0] * u[1] + 3.0 * u[1] - u[0] / u[1],
        lambda x: x[0] ** 2 * x[1] + 3.0 * x[1] - x[0] / x[1],
        [1.3, 0.7])


def test_transcendental_jet_matches_fd():
    check_against_fd(
        lambda u: jets.sin(u[0]) * jets.cosh(u[1]) + jets.exp(u[0] * u[1]),
        lambda x: math.sin(x[0]) * math.cosh(x[1]) + math.exp(x[0] * x[1]),
        [0.4, -0.9])


def test_sqrt_log_tanh_jet_matches_fd():
    check_against_fd(
        lambda u: jets.log(jets.sqrt(u[0]) + jets.tanh(u[1])),
        lambda x: math.log(math.sqrt(x[0]) + math.tanh(x[1])),
        [2.1, 0.3])


def test_quotient_and_power():
    check_against_fd(
        lambda u: (u[0] ** 3) / (1.0 + u[1] ** 2),
        lambda x: x[0] ** 3 / (1.0 + x[1] ** 2),
        [0.8, -1.1])


def test_seed_variable_identity():
    x = np.array([2.0, 5.0, -1.0])
    us = jets.seed_point(x)
    for i, u in enumerate(us):
        assert u.value == x[i]
        expect = np.zeros(3)
        expect[i] = 1.0
        np.testing.assert_array_equal(u.grad, expect)
        np.testing.assert_array_equal(u.hess, np.zeros((3, 3)))


def test_batched_equals_pointwise():
    pts = RNG.uniform(0.2, 2.0, size=(40, 2))

    def expr(us):
        return jets.sinh(us[0]) * jets.cos(us[1]) + jets.powc(us[0], 3)

    batch = expr(jets.seed_point(pts))
    for k in range(pts.shape[0]):
        single = expr(jets.seed_point(pts[k]))
        assert batch.value[k] == pytest.approx(single.value, rel=0, abs=0)
        np.testing.assert_array_equal(batch.grad[k], single.grad)
        np.testing.assert_array_equal(batch.hess[k], single.hess)


@pytest.mark.parametrize("p", [1.5, 2.5, -0.5, 3.0, 2.0, 0.5, -1.0])
def test_one_point_power_is_the_batched_power(p):
    """A one-point jet takes the same power as a batch: a numpy scalar's
    ``**`` (C pow) would miss the batch in the last bit for most of
    these points."""
    pts = RNG.uniform(0.1, 20.0, size=(200, 1))
    batch = jets.powc(jets.seed_point(pts)[0] + 7.0, p)
    for k in range(pts.shape[0]):
        single = jets.powc(jets.seed_point(pts[k])[0] + 7.0, p)
        assert batch.value[k].hex() == float(single.value).hex()
        np.testing.assert_array_equal(batch.grad[k], single.grad)
        np.testing.assert_array_equal(batch.hess[k], single.hess)


def test_one_point_chart_is_the_batched_chart():
    chart = xg.parse_chart("""
m = 1; n = 2; ambient = euclidean;
x1 = (u1 + 7)^1.5; x2 = u1;
domain u1 in [-1, 1];
basepoint 0
""")
    # 0x1.2852fb49899cdp+4 from C pow, 0x1.2852fb49899ccp+4 from the ufunc
    assert (chart.eval_positions([0.0])[0].hex()
            == chart.eval_positions(np.zeros((3, 1)))[0, 0].hex())


def test_constant_shapes():
    c = jets.constant(4.0, 3, (5,))
    assert c.value.shape == (5,)
    assert c.grad.shape == (5, 3)
    assert c.hess.shape == (5, 3, 3)
    np.testing.assert_array_equal(c.grad, 0.0)


def test_hessian_is_symmetric():
    us = jets.seed_point(np.array([1.2, 0.5, 2.0]))
    j = jets.exp(us[0] * us[1]) * jets.sin(us[2]) + us[0] * us[2] * us[1]
    np.testing.assert_allclose(j.hess, np.swapaxes(j.hess, -1, -2),
                               rtol=0, atol=0)


def test_compose_scalar_chain_rule():
    # compose against a hand-built f with known derivatives
    us = jets.seed_point(np.array([0.7, 1.4]))
    inner = us[0] * us[1]
    x = float(inner.value)
    f, f1, f2 = math.atan(x), 1.0 / (1.0 + x * x), -2.0 * x / (1.0 + x * x) ** 2
    j = jets.compose_scalar(inner, f, f1, f2, op="atan")
    g, H = fd_grad_hess(lambda p: math.atan(p[0] * p[1]), np.array([0.7, 1.4]))
    np.testing.assert_allclose(j.grad, g, rtol=5e-6, atol=5e-6)
    np.testing.assert_allclose(j.hess, H, rtol=5e-6, atol=5e-6)


def test_sqrt_rejects_nonpositive():
    us = jets.seed_point(np.array([-1.0]))
    with pytest.raises(EvaluationError):
        jets.sqrt(us[0])


def test_log_rejects_nonpositive():
    us = jets.seed_point(np.array([0.0]))
    with pytest.raises(EvaluationError):
        jets.log(us[0])


def test_division_by_zero_jet():
    us = jets.seed_point(np.array([1.0, 0.0]))
    with pytest.raises(EvaluationError):
        us[0] / us[1]


def test_jet_exponent_rejected():
    us = jets.seed_point(np.array([2.0, 3.0]))
    with pytest.raises(DomainError):
        us[0] ** us[1]


def test_powc_fractional_needs_positive_base():
    us = jets.seed_point(np.array([-2.0]))
    with pytest.raises(EvaluationError):
        jets.powc(us[0], 0.5)


def test_powc_small_integer_cases():
    us = jets.seed_point(np.array([1.7]))
    for p in (0, 1, 2, 3, 4):
        j = jets.powc(us[0], p)
        assert j.value == pytest.approx(1.7 ** p, rel=1e-14)
        assert j.grad[0] == pytest.approx(p * 1.7 ** (p - 1) if p else 0.0,
                                          rel=1e-12)


# every operator and function of the chart language, a named constant,
# powers ^0, ^1, a negative and a variable exponent, and two constant
# coordinates (x6 through powc, x7 folded)
EVERY_RULE = """
m = 2; n = 7; ambient = euclidean; const C = 0.5;
x1 = -u1 + u2 * 3 - u1 / (u2 + 3) - C + 2 * u2 - u1 / 4;
x2 = sqrt(u1 + 2) * exp(u2) + log(u2 + 2) + 1 / (u1 + 3) + (2 - u1);
x3 = sin(u1) * cos(u2) + sinh(u1) / cosh(u2) - tanh(u1 * u2);
x4 = (u1 + 2)^1.5 + u2^2 + u1^1 + (u2 + 2)^(-1);
x5 = (u1 + 2)^u2 + 2^u1;
x6 = u1^0;
x7 = C * 4;
domain u1 in [-1, 1], u2 in [-1, 1]
"""


def first_order_charts():
    return {"parsed": xg.parse_chart(EVERY_RULE),
            **{f"rotation-{n}": xg.catalog_build("rotation-hypersurface",
                                                 n=n)[0] for n in (2, 3)}}


def sample_points(chart, batch):
    lo, hi = np.array(chart.domain).T
    return lo + (hi - lo) * RNG.uniform(0.05, 0.95, size=batch + (chart.m,))


def bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("batch", [(), (31,)], ids=["point", "batch"])
@pytest.mark.parametrize("name", ["parsed", "rotation-2", "rotation-3"])
def test_first_order_jets_are_the_leading_part(name, batch):
    chart = first_order_charts()[name]
    pts = sample_points(chart, batch)
    second = chart.eval_jets(jets.seed_point(pts))
    first = chart.eval_jets(jets.seed_point(pts, order=1))
    assert len(first) == len(second) == chart.n + (chart.kappa != 0.0)
    for lo, hi in zip(first, second):
        assert lo.order == 1 and lo.hess is None
        assert hi.order == 2 and hi.hess.shape == batch + (chart.m,) * 2
        assert bits(lo.value) == bits(hi.value)
        assert bits(lo.grad) == bits(hi.grad)


def test_jet_orders_do_not_mix_upward():
    pt = np.array([0.3, 1.1])
    u1, u2 = jets.seed_point(pt, order=1)
    v1, v2 = jets.seed_point(pt)
    for jet in (u1 + v2, v1 - u2, u1 * v2, v1 / u2, jets.powc(u1, 0)):
        assert jet.hess is None
    assert jets.constant(2.0, 2, (3,), order=1).hess is None
    for order in (0, 3):
        with pytest.raises(DomainError):
            jets.seed_point(pt, order=order)
