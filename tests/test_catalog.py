"""Catalog entries against their own closed-form records."""

import math

import numpy as np
import pytest

import extgeo as xg
from extgeo.catalog import CATALOG, PROFILE_RESIDUAL_TOL
from extgeo.errors import DomainError

EXPECTED_CLASS = {
    "flat-subspace": "extrinsically-asymptotically-flat",
    "sphere": None,
    "cylinder": "not-tamed",
    "catenoid": "extrinsically-asymptotically-flat",
    "totally-geodesic": "strongly-tamed",
    "rotation-hypersurface": "strongly-tamed",
}

EXPECTED_ENDS = {
    "flat-subspace": 1,
    "sphere": None,
    "cylinder": 2,
    "catenoid": 2,
    "totally-geodesic": 1,
    "rotation-hypersurface": 2,
}


def interior_grid(chart, per_axis):
    axes = []
    for (lo, hi) in chart.domain:
        pad = 0.1 * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, chart.m)


def test_catalog_names():
    assert xg.catalog_names() == ["flat-subspace", "sphere", "cylinder",
                                  "catenoid", "totally-geodesic",
                                  "rotation-hypersurface"]


@pytest.mark.parametrize("name", list(CATALOG))
def test_entry_builds_with_defaults(name):
    entry = CATALOG[name]
    assert entry.summary and entry.validity
    chart, gt = entry.build()
    assert chart.m >= 1 and chart.n >= chart.m
    assert gt.expected_class == EXPECTED_CLASS[name]
    assert gt.ends == EXPECTED_ENDS[name]
    # every provenance tag points at a populated field
    for key in gt.provenance:
        assert getattr(gt, key) is not None, key


@pytest.mark.parametrize("name", list(CATALOG))
def test_alpha_profile_matches_ground_truth(name):
    chart, gt = CATALOG[name].build()
    if gt.alpha_norm_sq is None:
        pytest.skip("no bending profile claimed")
    pts = interior_grid(chart, 4 if chart.m >= 3 else 6)
    got = xg.grid_geometry(chart, pts).norm_alpha_sq
    want = gt.alpha_norm_sq(pts)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


def test_cylinder_scales_with_radius():
    _, gt = xg.catalog_build("cylinder", radius=2.0)
    pts = np.array([[0.1, 0.2], [1.0, -3.0]])
    np.testing.assert_allclose(gt.alpha_norm_sq(pts), 0.25, rtol=0)
    assert gt.a_value == math.inf and gt.b_value == math.inf


def test_circle_entry():
    chart, gt = xg.catalog_build("sphere", m=1, n=2, radius=2.0)
    geom = xg.point_geometry(chart, np.array([1.2]))
    assert geom.norm_alpha_sq == pytest.approx(0.25, rel=1e-10)
    assert gt.compact and gt.ends is None
    assert gt.gap_hypothesis_ok is False


def test_sphere_curvature_const():
    _, gt = xg.catalog_build("sphere", m=2, n=4, radius=2.0)
    assert gt.curvature_const == pytest.approx(0.25)


def test_flat_override_dimensions():
    chart, gt = xg.catalog_build("flat-subspace", m=3, n=5, truncation=1.0)
    assert chart.m == 3 and chart.n == 5
    assert gt.a_value == 0.0 and gt.b_value == 0.0


# ---------------------------------------------------------------------------
# rotation hypersurface specifics

def test_rotation_bending_at_the_waist():
    # n = 2, a = 1: squared radius at s = 0 is 1/2, so the squared bending
    # norm is 2 * (1 - 1/4) / (1/2)^2 = 6
    chart, gt = xg.catalog_build("rotation-hypersurface", n=2, a=1.0)
    pt = np.array([0.3, 0.0])
    geom = xg.point_geometry(chart, pt)
    assert gt.alpha_norm_sq(pt) == pytest.approx(6.0, rel=1e-14)
    assert geom.norm_alpha_sq == pytest.approx(6.0, rel=1e-6)


@pytest.mark.parametrize("n,a", [(2, 1.0), (3, 1.0), (2, 2.0)])
def test_rotation_principal_curvature_relations(n, a):
    chart, gt = xg.catalog_build("rotation-hypersurface", n=n, a=a,
                                 truncation=5.0)
    q = math.sqrt(a * a - 0.25)
    for s in (0.0, 0.9, 3.5):
        lam, mu = gt.principal_curvatures(s)
        x = a * math.cosh(2.0 * s) - 0.5
        assert lam == pytest.approx(-mu, rel=1e-14)
        assert mu == pytest.approx(q / x, rel=1e-14)
        # lambda carries multiplicity n-1 in the squared norm
        total = (n - 1) * lam * lam + mu * mu
        assert total == pytest.approx(gt.alpha_norm_sq(np.array([0.0] * (n - 1) + [s])),
                                      rel=1e-12)


@pytest.mark.parametrize("n,a", [(2, 1.0), (3, 1.0), (2, 2.0)])
def test_rotation_profile_residuals(n, a):
    chart, _ = xg.catalog_build("rotation-hypersurface", n=n, a=a)
    res = chart.profile_residuals()
    assert res["hyperboloid"] < PROFILE_RESIDUAL_TOL
    assert res["unit_speed"] < PROFILE_RESIDUAL_TOL


def test_rotation_chart_sits_on_the_hyperboloid():
    chart, _ = xg.catalog_build("rotation-hypersurface", n=3, a=1.5,
                                truncation=4.0)
    pts = interior_grid(chart, 4)
    pos = chart.eval_positions(pts)
    resid = np.abs(xg.lorentz_inner(pos, pos) + 1.0)
    assert float(np.max(resid)) < 1e-8


@pytest.mark.parametrize("n,a", [(2, 1.0), (3, 1.0), (2, 2.0)])
def test_rotation_meridian_weighted_bending_limit(n, a):
    # along a generating curve the intrinsic distance equals the profile
    # parameter, so the weighted norm has the closed-form limit recorded
    # as b_value
    _, gt = xg.catalog_build("rotation-hypersurface", n=n, a=a)
    q_sq = a * a - 0.25
    s = 25.0
    weight = 0.5 * math.sinh(2.0 * s)
    norm = math.sqrt(n * q_sq) / (a * math.cosh(2.0 * s) - 0.5)
    assert weight * norm == pytest.approx(gt.b_value, rel=1e-10)
    assert gt.b_value == pytest.approx(math.sqrt(n * q_sq) / (2.0 * a),
                                       rel=1e-14)


def test_rotation_truncation_axes():
    chart2, _ = xg.catalog_build("rotation-hypersurface", n=2)
    assert chart2.truncation_axis_flags() == [False, True]
    chart3, _ = xg.catalog_build("rotation-hypersurface", n=3)
    assert chart3.truncation_axis_flags() == [False, False, True]


def test_sphere_truncation_axes():
    chart, _ = xg.catalog_build("sphere", m=2, n=3)
    assert chart.truncation_axis_flags() == [False, False]


def test_default_truncation_axes_follow_periodicity():
    catenoid, _ = xg.catalog_build("catenoid")
    assert catenoid.truncation_axis_flags() == [True, False]
    flat, _ = xg.catalog_build("flat-subspace")
    assert flat.truncation_axis_flags() == [True, True]


# ---------------------------------------------------------------------------
# parameter validation

def test_rotation_rejects_shallow_profile():
    with pytest.raises(DomainError, match="a > 1/2"):
        xg.catalog_build("rotation-hypersurface", a=0.4)


def test_rotation_rejects_bad_dimension():
    with pytest.raises(DomainError, match=r"n in \(2, 3\)"):
        xg.catalog_build("rotation-hypersurface", n=4)


def test_sphere_rejects_bad_dimensions():
    with pytest.raises(DomainError):
        xg.catalog_build("sphere", m=3, n=4)
    with pytest.raises(DomainError):
        xg.catalog_build("sphere", m=2, n=2)
    with pytest.raises(DomainError):
        xg.catalog_build("sphere", radius=0.0)


def test_unknown_entry():
    with pytest.raises(DomainError, match="unknown catalog entry"):
        xg.catalog_build("moebius-strip")


def test_unknown_parameter():
    with pytest.raises(DomainError, match="accepts"):
        xg.catalog_build("catenoid", radius=2.0)


@pytest.mark.parametrize("value,kind", [
    (2.5, "an integer"), (True, "an integer"), (None, "an integer"),
    ("2", "an integer")], ids=["fraction", "bool", "null", "string"])
def test_integer_parameter_needs_an_integral_number(value, kind):
    with pytest.raises(DomainError) as err:
        xg.catalog_build("flat-subspace", m=value)
    assert str(err.value) == (f"'flat-subspace' parameter 'm' must be {kind}, "
                              f"got {value!r}")


def test_integral_float_and_int_for_a_float_parameter_are_accepted():
    chart, _ = xg.catalog_build("flat-subspace", m=2.0, truncation=3)
    assert chart.m == 2 and chart.domain[0] == (-3.0, 3.0)


@pytest.mark.parametrize("value", [False, [], "1.0", None])
def test_float_parameter_needs_a_number(value):
    with pytest.raises(DomainError, match="'radius' must be a number"):
        xg.catalog_build("cylinder", radius=value)
