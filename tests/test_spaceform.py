"""Model-space formulas against closed forms and finite differences."""

import math

import numpy as np
import pytest

import extgeo as xg
from extgeo.errors import DomainError, SingularityError
from extgeo.spaceform import (GAUSS_NODES, _gauss_rule,
                              distance_gradient_hessian, radial_gradient)

KAPPAS = (0.0, -0.25, -1.0, -2.0, -4.0)


def random_hyperbolic_point(amb, rng, tmin=0.2, tmax=2.5):
    """Point at known distance t from the pole, plus that t."""
    k = math.sqrt(-amb.kappa)
    n = amb.ncoords - 1
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    t = rng.uniform(tmin, tmax)
    # pole (0,..,0,1/k): geodesic at distance t in direction v
    p = np.concatenate([np.sinh(k * t) / k * v, [np.cosh(k * t) / k]])
    return p, t


def tangent_at(amb, p, rng):
    u = rng.normal(size=amb.ncoords)
    if amb.kappa == 0.0:
        return u / np.linalg.norm(u)
    # project off p: <p,p>_L = 1/kappa
    u = u - amb.kappa * xg.lorentz_inner(u, p) * p
    return u / math.sqrt(amb.inner(u, u))


# -- comparison functions ---------------------------------------------------

def test_jacobi_identity_on_grid():
    # sample the scale-invariant argument sqrt(-kappa)*t uniformly; for
    # large arguments one ulp of cosh^2 already exceeds 1e-12, so absolute
    # comparisons only make sense on the desk-scale range
    xs = np.linspace(0.0, 4.0, 401)
    for kappa in (0.0, -0.25, -0.5, -1.0, -2.0, -4.0):
        ts = xs if kappa == 0.0 else xs / math.sqrt(-kappa)
        res = xg.c_kappa(kappa, ts) ** 2 + kappa * xg.s_kappa(kappa, ts) ** 2
        assert np.max(np.abs(res - 1.0)) < 1e-12


def test_comparison_functions_closed_form():
    assert xg.s_kappa(0.0, 1.7) == 1.7
    assert xg.c_kappa(0.0, 1.7) == 1.0
    assert xg.s_kappa(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert xg.c_kappa(-1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-15)
    # scaling: S_k(t) = sinh(sqrt(-k) t)/sqrt(-k)
    assert xg.s_kappa(-4.0, 0.3) == pytest.approx(math.sinh(0.6) / 2.0,
                                                  rel=1e-15)


def test_comparison_functions_reject_bad_input():
    with pytest.raises(DomainError):
        xg.s_kappa(1.0, 0.5)
    with pytest.raises(DomainError):
        xg.s_kappa(-1.0, -0.1)


def test_omega_m_values():
    assert xg.omega_m(1) == pytest.approx(2.0, rel=1e-15)
    assert xg.omega_m(2) == pytest.approx(math.pi, rel=1e-15)
    assert xg.omega_m(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert xg.omega_m(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-15)


# -- ambient distance -------------------------------------------------------

def test_flat_distance_is_euclidean_norm():
    amb = xg.euclidean(3)
    p = np.array([3.0, 4.0, 0.0])
    assert xg.ambient_distance(amb, p) == 5.0


def test_hyperbolic_distance_matches_construction():
    rng = np.random.default_rng(3)
    for kappa in (-0.25, -1.0, -2.0):
        amb = xg.hyperbolic(3, kappa)
        for _ in range(25):
            p, t = random_hyperbolic_point(amb, rng)
            assert xg.ambient_distance(amb, p) == pytest.approx(t, rel=1e-12)


def test_hyperbolic_distance_stable_near_pole():
    # the inner product only resolves cosh(t)-1, so accuracy degrades as
    # eps/t^2; the log1p path should reach that floor, not lose more
    amb = xg.hyperbolic(2, -1.0)
    for t, rel in ((1e-4, 1e-8), (1e-6, 1e-3)):
        p = np.array([math.sinh(t), 0.0, math.cosh(t)])
        assert xg.ambient_distance(amb, p) == pytest.approx(t, rel=rel)


def test_lorentz_inner_signature():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([4.0, 5.0, 6.0])
    assert xg.lorentz_inner(x, y) == 4.0 + 10.0 - 18.0


def test_hyperbolic_pole_must_lie_on_sheet():
    with pytest.raises(xg.GeometryError):
        xg.hyperbolic(2, -1.0, pole=[1.0, 0.0, 1.0])


# -- one formula for meshes and model ---------------------------------------

@pytest.mark.parametrize("name,params,resolution", [
    ("rotation-hypersurface", {"n": 3}, [5, 8, 21]),
    ("catenoid", {}, [21, 16]),
    ("totally-geodesic", {"m": 3, "n": 4}, 9),
], ids=["rotation3", "catenoid", "tg3"])
def test_mesh_radial_field_is_the_model_formula(name, params, resolution):
    chart, _gt = xg.catalog_build(name, **params)
    mesh = xg.build_mesh(chart, resolution)
    positions = chart.eval_positions(mesh.points)
    assert np.array_equal(xg.ambient_distance(mesh.amb, positions), mesh.r)

    geom = xg.grid_geometry(chart, mesh.points, level=xg.FRAME, amb=mesh.amb)
    away = ~geom.at_pole
    split = (geom.grad_M_r + geom.grad_perp_r)[away]
    grad = radial_gradient(mesh.amb, positions[away])
    assert np.max(np.abs(grad - split)) <= 1e-15


def test_points_within_pole_tolerance_are_the_pole():
    amb = xg.euclidean(3)
    p = amb.pole + np.array([1e-14, 0.0, 0.0])
    assert xg.ambient_distance(amb, p) == 0.0
    with pytest.raises(SingularityError):
        radial_gradient(amb, p)


# -- gradient and Hessian of r ----------------------------------------------

def test_radial_gradient_flat():
    amb = xg.euclidean(2)
    g = radial_gradient(amb, np.array([0.0, 2.0]))
    np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-15)
    with pytest.raises(SingularityError):
        radial_gradient(amb, amb.pole)


def test_radial_gradient_hyperbolic_unit_and_tangent():
    rng = np.random.default_rng(11)
    amb = xg.hyperbolic(3, -1.0)
    for _ in range(20):
        p, _t = random_hyperbolic_point(amb, rng)
        g = radial_gradient(amb, p)
        assert amb.inner(g, g) == pytest.approx(1.0, abs=1e-10)
        assert xg.lorentz_inner(g, p) == pytest.approx(0.0, abs=1e-9)


def test_radial_gradient_directional_derivative():
    rng = np.random.default_rng(12)
    amb = xg.hyperbolic(3, -1.0)
    h = 1e-6
    for _ in range(10):
        p, _t = random_hyperbolic_point(amb, rng)
        u = tangent_at(amb, p, rng)
        g = radial_gradient(amb, p)
        fd = (xg.ambient_distance(amb, xg.geodesic(amb, p, u, h))
              - xg.ambient_distance(amb, xg.geodesic(amb, p, u, -h))) / (2 * h)
        assert fd == pytest.approx(amb.inner(g, u), abs=5e-9)


def hessian_fd(amb, p, w, h=3e-4):
    """Second difference of r along the geodesic with velocity w."""
    nw = math.sqrt(amb.inner(w, w))
    u = w / nw
    f = lambda s: xg.ambient_distance(amb, xg.geodesic(amb, p, u, s))
    return nw * nw * (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)


@pytest.mark.parametrize("kappa", [0.0, -1.0, -2.0])
def test_distance_hessian_matches_fd(kappa):
    rng = np.random.default_rng(int(10 * abs(kappa)) + 5)
    amb = xg.euclidean(3) if kappa == 0.0 else xg.hyperbolic(3, kappa)
    for _ in range(40):
        if kappa == 0.0:
            p = rng.normal(size=3)
            p *= rng.uniform(0.5, 2.0) / np.linalg.norm(p)
        else:
            p, _t = random_hyperbolic_point(amb, rng)
        u = tangent_at(amb, p, rng)
        v = tangent_at(amb, p, rng)
        _g, huu = distance_gradient_hessian(amb, p, u, u)
        assert huu == pytest.approx(hessian_fd(amb, p, u), rel=2e-6, abs=2e-6)
        # polarization for the mixed entry
        _g, huv = distance_gradient_hessian(amb, p, u, v)
        mixed = 0.25 * (hessian_fd(amb, p, u + v) - hessian_fd(amb, p, u - v))
        assert huv == pytest.approx(mixed, rel=2e-6, abs=2e-6)


def test_distance_hessian_rejects_non_tangent():
    amb = xg.hyperbolic(2, -1.0)
    p = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
    with pytest.raises(DomainError):
        distance_gradient_hessian(amb, p, np.array([0.0, 0.0, 1.0]),
                                  np.array([0.0, 1.0, 0.0]))


# -- geodesics and model volumes --------------------------------------------

def test_geodesic_stays_on_hyperboloid_and_has_unit_speed():
    rng = np.random.default_rng(4)
    amb = xg.hyperbolic(3, -1.0)
    p, _ = random_hyperbolic_point(amb, rng)
    u = tangent_at(amb, p, rng)
    for s in (0.1, 0.7, 2.0):
        q = xg.geodesic(amb, p, u, s)
        assert xg.lorentz_inner(q, q) == pytest.approx(-1.0, abs=1e-10)
    # distance from p grows linearly
    amb_p = xg.hyperbolic(3, -1.0, pole=p)
    assert xg.ambient_distance(amb_p, xg.geodesic(amb, p, u, 0.8)) == \
        pytest.approx(0.8, rel=1e-10)


def test_model_volumes_flat():
    ball, sphere = xg.model_volumes(0.0, 2, 1.5)
    assert ball == pytest.approx(math.pi * 2.25, rel=1e-14)
    assert sphere == pytest.approx(2.0 * math.pi * 1.5, rel=1e-14)
    ball, sphere = xg.model_volumes(0.0, 3, 0.8)
    assert ball == pytest.approx(4.0 / 3.0 * math.pi * 0.8 ** 3, rel=1e-14)
    assert sphere == pytest.approx(4.0 * math.pi * 0.64, rel=1e-14)


def test_model_volumes_hyperbolic_closed_forms():
    t = 1.3
    ball, sphere = xg.model_volumes(-1.0, 2, t)
    assert sphere == pytest.approx(2.0 * math.pi * math.sinh(t), rel=1e-12)
    assert ball == pytest.approx(2.0 * math.pi * (math.cosh(t) - 1.0),
                                 rel=1e-10)
    ball, sphere = xg.model_volumes(-1.0, 3, t)
    assert sphere == pytest.approx(4.0 * math.pi * math.sinh(t) ** 2,
                                   rel=1e-12)
    assert ball == pytest.approx(math.pi * (math.sinh(2 * t) - 2 * t),
                                 rel=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_model_volumes_hyperbolic_ball_matches_adaptive_quadrature(m):
    from scipy.integrate import quad
    om = xg.omega_m(m)
    for kappa in (-0.25, -1.0, -4.0):
        rk = math.sqrt(-kappa)
        for t in np.geomspace(0.05, 10.0, 25):
            want, _ = quad(lambda s: m * om * (math.sinh(rk * s) / rk)
                           ** (m - 1), 0.0, t, epsabs=0.0, epsrel=1e-13,
                           limit=200)
            ball, _ = xg.model_volumes(kappa, m, float(t))
            assert ball == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gauss_rule_integrates_even_powers():
    # 64 nodes integrate every polynomial of degree up to 127 exactly; the
    # odd powers vanish by the rule's symmetry
    x, w = _gauss_rule()
    assert len(x) == GAUSS_NODES and np.all(np.diff(x) > 0.0)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    for k in range(GAUSS_NODES):
        assert abs(w @ x ** (2 * k) - 2.0 / (2 * k + 1)) <= 1e-14, k


def test_model_volumes_scaling():
    # curvature -4 = curvature -1 shrunk by factor 2
    t = 0.9
    ball4, sphere4 = xg.model_volumes(-4.0, 2, t)
    ball1, sphere1 = xg.model_volumes(-1.0, 2, 2.0 * t)
    assert ball4 == pytest.approx(ball1 / 4.0, rel=1e-10)
    assert sphere4 == pytest.approx(sphere1 / 2.0, rel=1e-12)


def test_model_volumes_reject_bad_radius():
    with pytest.raises(DomainError):
        xg.model_volumes(-1.0, 2, 0.0)
