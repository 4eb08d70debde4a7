"""Pointwise geometry: metric, bending, curvatures, radial split."""

import dataclasses
import math

import numpy as np
import pytest

import extgeo as xg
import extgeo.immersion
from extgeo.errors import (CriticalPointError, DegeneratePlaneError,
                           DomainError, EvaluationError, GeometryError)

TWO_PI = 6.283185307179586

CYLINDER_R2 = f"""
m = 2; n = 3; ambient = euclidean;
x1 = 2 * cos(u1); x2 = 2 * sin(u1); x3 = u2;
domain u1 in [0, {TWO_PI}] periodic, u2 in [-4, 4];
basepoint 0, 0
"""

SPHERE_R2 = f"""
m = 2; n = 3; ambient = euclidean;
x1 = 2 * sin(u1) * cos(u2); x2 = 2 * sin(u1) * sin(u2); x3 = 2 * cos(u1);
domain u1 in [0.2, 2.94], u2 in [0, {TWO_PI}] periodic;
basepoint 1.5707963267948966, 0
"""

CATENOID = f"""
m = 2; n = 3; ambient = euclidean;
x1 = cosh(u1) * cos(u2); x2 = cosh(u1) * sin(u2); x3 = u1;
domain u1 in [-3, 3], u2 in [0, {TWO_PI}] periodic;
basepoint 0, 0
"""

GEODESIC_PLANE = """
m = 2; n = 3; ambient = hyperbolic(-1);
x1 = sinh(u1); x2 = cosh(u1) * sinh(u2); x3 = 0;
x4 = cosh(u1) * cosh(u2);
domain u1 in [-2, 2], u2 in [-2, 2];
basepoint 0, 0
"""

FLAT_PLANE = """
m = 2; n = 3; ambient = euclidean;
x1 = u1; x2 = u2; x3 = 0;
domain u1 in [-2, 2], u2 in [-2, 2];
basepoint 0, 0
"""


def fd_jacobian(chart, pt, h=1e-5):
    cols = []
    for i in range(chart.m):
        e = np.zeros(chart.m)
        e[i] = h
        cols.append((chart.eval_positions(pt + e)
                     - chart.eval_positions(pt - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# metric and volume density

def test_metric_matches_fd_jacobian_flat():
    chart = xg.parse_chart(CATENOID)
    rng = np.random.default_rng(3)
    for pt in rng.uniform(-1.5, 1.5, size=(6, 2)):
        geom = xg.point_geometry(chart, pt)
        jac = fd_jacobian(chart, pt)
        np.testing.assert_allclose(geom.metric, jac.T @ jac,
                                   rtol=0, atol=1e-7)


def test_metric_matches_fd_jacobian_hyperbolic():
    chart = xg.parse_chart(GEODESIC_PLANE)
    eta = np.array([1.0, 1.0, 1.0, -1.0])
    for pt in [np.array([0.4, -0.3]), np.array([1.1, 0.8])]:
        geom = xg.point_geometry(chart, pt)
        jac = fd_jacobian(chart, pt)
        g_fd = jac.T @ (eta[:, None] * jac)
        np.testing.assert_allclose(geom.metric, g_fd, rtol=0, atol=1e-6)
        # closed form: ds^2 = du1^2 + cosh(u1)^2 du2^2
        want = np.diag([1.0, math.cosh(pt[0]) ** 2])
        np.testing.assert_allclose(geom.metric, want, atol=1e-12)


def test_sqrt_det_g_sphere():
    chart = xg.parse_chart(SPHERE_R2)
    geom = xg.point_geometry(chart, np.array([0.7, 1.3]))
    assert geom.sqrt_det_g == pytest.approx(4.0 * math.sin(0.7), rel=1e-12)


# ---------------------------------------------------------------------------
# second fundamental form norms

def test_alpha_norm_cylinder():
    chart = xg.parse_chart(CYLINDER_R2)
    geom = xg.point_geometry(chart, np.array([0.9, -2.0]))
    assert geom.norm_alpha_sq == pytest.approx(0.25, rel=1e-10)


def test_alpha_norm_sphere():
    # round 2-sphere of radius R has |alpha|^2 = 2/R^2
    chart = xg.parse_chart(SPHERE_R2)
    geom = xg.point_geometry(chart, np.array([1.1, 0.4]))
    assert geom.norm_alpha_sq == pytest.approx(0.5, rel=1e-10)


def test_alpha_norm_catenoid_profile():
    chart = xg.parse_chart(CATENOID)
    for u1 in (-1.7, 0.0, 0.6, 2.2):
        geom = xg.point_geometry(chart, np.array([u1, 2.0]))
        want = 2.0 / math.cosh(u1) ** 4
        assert geom.norm_alpha_sq == pytest.approx(want, rel=1e-9)


def test_alpha_vanishes_on_totally_geodesic_images():
    flat = xg.parse_chart(FLAT_PLANE)
    geom = xg.point_geometry(flat, np.array([0.7, -1.2]))
    assert geom.norm_alpha_sq == 0.0
    tg = xg.parse_chart(GEODESIC_PLANE)
    geom = xg.point_geometry(tg, np.array([0.7, -1.2]))
    assert geom.norm_alpha_sq < 1e-20


# ---------------------------------------------------------------------------
# sectional curvature (Gauss equation)

def test_sectional_curvature_sphere():
    chart = xg.parse_chart(SPHERE_R2)
    geom = xg.point_geometry(chart, np.array([0.9, 2.0]))
    k = xg.sectional_curvature(geom, [1.0, 0.0], [0.0, 1.0])
    assert k == pytest.approx(0.25, rel=1e-10)


def test_sectional_curvature_catenoid():
    chart = xg.parse_chart(CATENOID)
    for u1 in (0.0, 0.8, -1.4):
        geom = xg.point_geometry(chart, np.array([u1, 1.0]))
        k = xg.sectional_curvature(geom, [1.0, 0.0], [0.0, 1.0])
        assert k == pytest.approx(-1.0 / math.cosh(u1) ** 4, rel=1e-9)


def test_sectional_curvature_hyperbolic_plane():
    chart = xg.parse_chart(GEODESIC_PLANE)
    geom = xg.point_geometry(chart, np.array([0.5, 0.3]))
    k = xg.sectional_curvature(geom, [1.0, 0.0], [0.0, 1.0])
    assert k == pytest.approx(-1.0, abs=1e-12)


def test_sectional_curvature_invariant_under_plane_basis():
    chart = xg.parse_chart(CATENOID)
    geom = xg.point_geometry(chart, np.array([0.6, 0.9]))
    k1 = xg.sectional_curvature(geom, [1.0, 0.0], [0.0, 1.0])
    k2 = xg.sectional_curvature(geom, [2.0, 1.0], [-0.5, 3.0])
    assert k1 == pytest.approx(k2, rel=1e-12)


def test_sectional_curvature_degenerate_plane():
    chart = xg.parse_chart(CATENOID)
    geom = xg.point_geometry(chart, np.array([0.6, 0.9]))
    with pytest.raises(DegeneratePlaneError):
        xg.sectional_curvature(geom, [1.0, 2.0], [2.0, 4.0])


# ---------------------------------------------------------------------------
# radial split of the distance gradient

def test_radial_split_is_a_unit_splitting():
    for src in (CYLINDER_R2, CATENOID, GEODESIC_PLANE):
        chart = xg.parse_chart(src)
        geom = xg.point_geometry(chart, np.array([0.8, 1.1]))
        tan = float(geom.grad_r_tan_norm)
        perp = float(geom.grad_r_perp_norm)
        assert tan * tan + perp * perp == pytest.approx(1.0, abs=1e-10)


def test_radial_tangent_norm_matches_fd():
    chart = xg.parse_chart(CATENOID)
    pt = np.array([0.9, 1.1])
    geom = xg.point_geometry(chart, pt)
    h = 1e-5
    dr = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        rp = xg.point_geometry(chart, pt + e).r
        rm = xg.point_geometry(chart, pt - e).r
        dr[i] = (rp - rm) / (2.0 * h)
    tan_sq = float(dr @ np.linalg.solve(geom.metric, dr))
    assert float(geom.grad_r_tan_norm) ** 2 == pytest.approx(tan_sq, abs=1e-8)


def test_radial_split_vectors_flat():
    chart = xg.parse_chart(CATENOID)
    geom = xg.point_geometry(chart, np.array([0.9, 1.1]))
    pole = chart.eval_positions(chart.basepoint)
    full = (geom.position - pole) / geom.r
    np.testing.assert_allclose(geom.grad_M_r + geom.grad_perp_r, full,
                               atol=1e-12)
    # the two parts are orthogonal
    assert abs(float(geom.grad_M_r @ geom.grad_perp_r)) < 1e-12


def test_pole_point_is_flagged():
    chart = xg.parse_chart(FLAT_PLANE)
    geom = xg.point_geometry(chart, np.array([0.0, 0.0]))
    assert geom.r == 0.0
    assert bool(geom.at_pole)


def test_pole_override_moves_r():
    chart = xg.parse_chart(FLAT_PLANE)
    amb = xg.euclidean(3, pole=[0.0, 0.0, 5.0])
    geom = xg.point_geometry(chart, np.array([0.0, 0.0]), amb=amb)
    assert geom.r == pytest.approx(5.0, rel=1e-14)
    assert geom.grad_r_perp_norm == pytest.approx(1.0, rel=1e-12)
    assert not bool(geom.at_pole)


def test_ambient_mismatch_rejected():
    chart = xg.parse_chart(CATENOID)
    with pytest.raises(DomainError):
        xg.point_geometry(chart, np.array([0.5, 0.5]), amb=xg.euclidean(4))
    with pytest.raises(DomainError):
        xg.point_geometry(chart, np.array([0.5, 0.5]),
                          amb=xg.hyperbolic(3, -1.0))


# ---------------------------------------------------------------------------
# batching

def _array_fields(geom):
    return [f.name for f in dataclasses.fields(geom) if f.name != "amb"]


def _assert_same_ambient(got, want):
    assert (got.amb.n, got.amb.kappa) == (want.amb.n, want.amb.kappa)
    np.testing.assert_array_equal(got.amb.pole, want.amb.pole)


def test_grid_matches_pointwise():
    chart = xg.parse_chart(CATENOID)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(5, 2))
    grid = xg.grid_geometry(chart, pts, level=xg.FRAME)
    for i, pt in enumerate(pts):
        single = xg.point_geometry(chart, pt)
        _assert_same_ambient(grid, single)
        for name in _array_fields(single):
            want = getattr(single, name)
            got = getattr(grid, name)
            assert want is not None and got is not None, name
            assert np.shape(got[i]) == np.shape(want), name
            np.testing.assert_array_equal(got[i], want, err_msg=name)


def test_grid_chunk_size_does_not_change_output(block_points):
    chart = xg.parse_chart(CATENOID)
    pts = np.random.default_rng(6).uniform(-1.2, 1.2, size=(10, 10, 2))
    base = xg.grid_geometry(chart, pts, level=xg.FRAME)
    block_points(chart, xg.FRAME, 16)
    chunked = xg.grid_geometry(chart, pts, level=xg.FRAME)
    _assert_same_ambient(chunked, base)
    for name in _array_fields(base):
        want = getattr(base, name)
        got = getattr(chunked, name)
        assert want is not None and got is not None, name
        assert got.shape == want.shape and got.shape[:2] == (10, 10), name
        np.testing.assert_array_equal(got, want, err_msg=name)


def far_rotation_points():
    """Rotation hypersurface n=3 points out along both ends, where the
    metric is ill-conditioned."""
    chart, _ = xg.catalog_build("rotation-hypersurface", n=3)
    lo, hi = np.array(chart.domain).T
    pts = lo + (hi - lo) * np.random.default_rng(7).uniform(0.02, 0.98,
                                                            size=(40, 3))
    pts[:, 2] = np.sign(pts[:, 2] + 1e-3) * np.linspace(4.0, 5.9, 40)
    return chart, pts


def test_point_geometry_is_the_batched_geometry():
    chart, pts = far_rotation_points()
    grid = xg.grid_geometry(chart, pts, level=xg.FRAME)
    assert np.max(np.linalg.cond(grid.metric)) >= 1e4
    for i, pt in enumerate(pts):
        single = xg.point_geometry(chart, pt)
        _assert_same_ambient(grid, single)
        for name in _array_fields(single):
            np.testing.assert_array_equal(getattr(single, name),
                                          getattr(grid, name)[i],
                                          err_msg=name)


@pytest.mark.parametrize("chunk", [1, 2, 3, 13])
def test_short_trailing_chunks_match_the_default(chunk, block_points):
    chart, pts = far_rotation_points()
    base = xg.grid_geometry(chart, pts, level=xg.FRAME)
    block_points(chart, xg.FRAME, chunk)
    chunked = xg.grid_geometry(chart, pts, level=xg.FRAME)
    _assert_same_ambient(chunked, base)
    for name in _array_fields(base):
        np.testing.assert_array_equal(getattr(chunked, name),
                                      getattr(base, name), err_msg=name)


@pytest.mark.parametrize("build", ["grid", "mesh"])
def test_stream_stops_at_the_first_failing_block(build, block_points,
                                                 monkeypatch):
    """A rank defect in the first block raises the error of the whole
    batch, and no later block is evaluated."""
    # singular along u2 = 0, the second point of the batch, and along
    # u1 = -1, the first nodes of the mesh's first pass
    chart = xg.parse_chart("""
m = 2; n = 3; ambient = euclidean;
x1 = (u1 + 1)^3; x2 = u2^3; x3 = 0;
domain u1 in [-1, 1], u2 in [-1, 1];
basepoint 0.5, 0.5
""")
    pts = np.array([[0.2, -0.5], [0.3, 0.0]] + [[0.5, 0.5]] * 7)

    def run():
        with pytest.raises(GeometryError) as err:
            if build == "grid":
                xg.grid_geometry(chart, pts, level=xg.METRIC)
            else:
                xg.build_mesh(chart, 9)
        return str(err.value)

    want = run()
    calls, block = [], xg.immersion._geometry_block

    def counted(chart, amb, pts, level):
        calls.append(len(pts))
        return block(chart, amb, pts, level)

    monkeypatch.setattr(xg.immersion, "_geometry_block", counted)
    # blocks of three: 3 of the batch, 27 of the mesh's first pass
    block_points(chart, xg.METRIC, 3)
    assert run() == want
    assert calls == [3]


METRIC_FIELDS = {"points", "metric", "sqrt_det_g", "r", "at_pole"}
LEVEL_FIELDS = {
    xg.METRIC: METRIC_FIELDS,
    xg.BENDING: METRIC_FIELDS | {"grad_r_tan_norm", "grad_r_perp_norm",
                                 "norm_alpha_sq"},
}


@pytest.mark.parametrize("level", [xg.METRIC, xg.BENDING],
                         ids=["metric", "bending"])
def test_each_level_is_a_part_of_the_frame(level):
    chart, pts = far_rotation_points()
    frame = xg.grid_geometry(chart, pts, level=xg.FRAME)
    geom = xg.grid_geometry(chart, pts, level=level)
    assert geom.amb is not None and geom.kappa == frame.kappa
    for name in _array_fields(frame):
        if name in LEVEL_FIELDS[level]:
            np.testing.assert_array_equal(getattr(geom, name),
                                          getattr(frame, name), err_msg=name)
        else:
            assert getattr(geom, name) is None, name
    kept = "second fundamental form kept"
    with pytest.raises(DomainError, match=kept):
        xg.sectional_curvature(geom, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(DomainError, match=kept):
        xg.extrinsic_sphere_curvature(geom, mode="bounds")


@pytest.mark.parametrize("name,params", [
    ("flat-subspace", {"m": 3, "n": 4}),
    ("rotation-hypersurface", {"n": 3}),
], ids=["flat", "hyperbolic"])
def test_metric_requests_build_no_radial_gradient(name, params, monkeypatch):
    # only the radial split of BENDING and FRAME reads the ambient gradient
    # of r, so a METRIC block, the refined lattice's included, never
    # builds it
    chart, _ = xg.catalog_build(name, **params)
    field, built = extgeo.immersion.pole_field, []

    def spy(*args, **kwargs):
        out = field(*args, **kwargs)
        built.append(out[1] is not None)
        return out

    monkeypatch.setattr(extgeo.immersion, "pole_field", spy)
    pts = chart.basepoint + np.linspace(0.05, 0.3, 3 * chart.m).reshape(3, -1)
    for level in (xg.METRIC, xg.BENDING, xg.FRAME):
        built.clear()
        xg.grid_geometry(chart, pts, level=level)
        assert built == [level != xg.METRIC]
    built.clear()
    xg.build_mesh(chart, 5)
    # one block per parity class of the refined lattice, then the vertices
    assert built == [False] * 2 ** chart.m + [True]


@pytest.mark.parametrize("level", [xg.METRIC, xg.BENDING, xg.FRAME],
                         ids=["metric", "bending", "frame"])
def test_overflowing_metric_is_an_evaluation_error(level):
    # values and gradients are finite; g11 = 1 + 1e400 is not
    chart = xg.parse_chart("m = 2; n = 3; ambient = euclidean; x1 = u1; "
                           "x2 = 1e200 * u1; x3 = u2; "
                           "domain u1 in [-1, 1], u2 in [-1, 1]")
    pts = np.array([[0.0, 0.5], [0.25, -0.5], [0.5, 0.0]])
    message = r"metric: non-finite result near \[0\.  0\.5\]"
    with pytest.raises(EvaluationError, match=message):
        xg.grid_geometry(chart, pts, level=level)
    if level == xg.FRAME:
        with pytest.raises(EvaluationError, match=message):
            xg.point_geometry(chart, pts[0])


def test_unknown_level_is_rejected():
    chart, pts = far_rotation_points()
    with pytest.raises(DomainError, match="unknown geometry level 4"):
        xg.grid_geometry(chart, pts, level=4)


def test_grid_preserves_batch_shape():
    chart = xg.parse_chart(FLAT_PLANE)
    pts = np.zeros((3, 4, 2))
    pts[..., 0] = np.linspace(-1, 1, 3)[:, None]
    pts[..., 1] = np.linspace(-1, 1, 4)[None, :]
    geom = xg.grid_geometry(chart, pts)
    assert geom.batch_shape == (3, 4)
    assert geom.metric.shape == (3, 4, 2, 2)


def test_single_point_functions_reject_batches():
    chart = xg.parse_chart(CATENOID)
    pts = np.array([[0.5, 0.5], [0.6, 0.6]])
    geom = xg.grid_geometry(chart, pts, level=xg.FRAME)
    ks, degenerate = xg.sectional_curvature(geom, [1.0, 0.0], [0.0, 1.0])
    assert not np.any(degenerate)
    for k, pt in zip(ks, pts):
        assert k == xg.sectional_curvature(xg.point_geometry(chart, pt),
                                           [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        xg.point_geometry(chart, np.array([[0.5, 0.5]]))


def test_rank_deficient_chart_names_the_point():
    src = "m = 1; n = 2; ambient = euclidean; x1 = u1^2; x2 = u1^3; domain u1 in [-1, 1]"
    chart = xg.parse_chart(src)
    with pytest.raises(GeometryError, match="near"):
        xg.point_geometry(chart, np.array([0.0]))


@pytest.mark.parametrize("src,u2,message", [
    ("x1 = u1; x2 = u2^2; x3 = u2^3", 1e-11,
     "rank-deficient near [3.e-01 1.e-11]"),
    ("x1 = u1; x2 = u2^3; x3 = 0", 0.0, "not an immersion near [0.3 0. ]"),
], ids=["rank-deficient", "singular"])
def test_first_order_geometry_checks_the_rank(src, u2, message):
    chart = xg.parse_chart("m = 2; n = 3; ambient = euclidean; " + src
                           + "; domain u1 in [-1, 1], u2 in [-1, 1]")
    pts = np.array([[0.2, -0.5], [0.3, u2], [0.4, 0.5]])
    for level in (xg.METRIC, xg.BENDING, xg.FRAME):
        with pytest.raises(GeometryError) as err:
            xg.grid_geometry(chart, pts, level=level)
        assert str(err.value) == f"chart 'chart' is {message}"


# ---------------------------------------------------------------------------
# distance-sphere curvature

def flat3():
    chart, _ = xg.catalog_build("flat-subspace", m=3, n=4, truncation=2.0)
    return chart


def tg3():
    chart, _ = xg.catalog_build("totally-geodesic", m=3, n=4, kappa=-1.0,
                                truncation=1.5)
    return chart


def test_level_set_plane_is_orthonormal_and_tangent():
    chart = flat3()
    geom = xg.point_geometry(chart, np.array([0.3, 0.2, 0.4]))
    x, y = xg.level_set_tangent_plane(geom)
    g = geom.metric
    assert x @ g @ x == pytest.approx(1.0, abs=1e-12)
    assert y @ g @ y == pytest.approx(1.0, abs=1e-12)
    assert abs(x @ g @ y) < 1e-12
    u = np.array([0.3, 0.2, 0.4])  # radial direction in this linear chart
    assert abs(x @ u) < 1e-10 and abs(y @ u) < 1e-10


def test_sphere_curvature_flat_subspace():
    chart = flat3()
    pt = np.array([0.3, 0.2, 0.4])
    geom = xg.point_geometry(chart, pt)
    r = float(geom.r)
    exact = xg.extrinsic_sphere_curvature(geom)
    assert exact == pytest.approx(1.0 / r ** 2, rel=1e-10)
    lower, upper, valid = xg.extrinsic_sphere_curvature(geom, mode="bounds")
    assert valid
    assert lower == pytest.approx(exact, rel=1e-10)
    assert upper == pytest.approx(exact, rel=1e-10)


def test_sphere_curvature_hyperbolic_subspace():
    chart = tg3()
    pt = np.array([0.35, 0.15, 0.5])
    geom = xg.point_geometry(chart, pt)
    r = float(geom.r)
    want = 1.0 / math.sinh(r) ** 2
    exact = xg.extrinsic_sphere_curvature(geom)
    assert exact == pytest.approx(want, rel=1e-9)
    lower, upper, valid = xg.extrinsic_sphere_curvature(geom, mode="bounds")
    assert valid
    assert lower == pytest.approx(want, rel=1e-9)
    assert upper == pytest.approx(want, rel=1e-9)


def test_sphere_curvature_accepts_explicit_plane():
    chart = flat3()
    geom = xg.point_geometry(chart, np.array([0.3, 0.2, 0.4]))
    plane = xg.level_set_tangent_plane(geom)
    k = xg.extrinsic_sphere_curvature(geom, plane=plane)
    assert k == pytest.approx(xg.extrinsic_sphere_curvature(geom), rel=1e-14)


def test_sphere_curvature_rejects_bad_planes():
    chart = flat3()
    geom = xg.point_geometry(chart, np.array([0.3, 0.2, 0.4]))
    with pytest.raises(DegeneratePlaneError, match="orthonormal"):
        xg.extrinsic_sphere_curvature(geom, plane=([1.0, 0.0, 0.0],
                                                   [2.0, 0.0, 0.0]))
    # orthonormal but containing the radial direction
    u = np.array([0.3, 0.2, 0.4])
    x = u / np.linalg.norm(u)
    y = np.array([-x[1], x[0], 0.0])
    y = y / np.linalg.norm(y)
    with pytest.raises(DegeneratePlaneError, match="tangent"):
        xg.extrinsic_sphere_curvature(geom, plane=(x, y))


def test_sphere_curvature_critical_at_pole():
    chart = flat3()
    geom = xg.point_geometry(chart, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(CriticalPointError):
        xg.extrinsic_sphere_curvature(geom)


def test_sphere_curvature_needs_three_dimensions():
    chart = xg.parse_chart(CATENOID)
    geom = xg.point_geometry(chart, np.array([0.5, 0.5]))
    with pytest.raises(DegeneratePlaneError):
        xg.extrinsic_sphere_curvature(geom)
    with pytest.raises(DegeneratePlaneError):
        xg.level_set_tangent_plane(geom)


def test_sphere_curvature_unknown_mode():
    chart = flat3()
    geom = xg.point_geometry(chart, np.array([0.3, 0.2, 0.4]))
    with pytest.raises(DomainError):
        xg.extrinsic_sphere_curvature(geom, mode="typo")


# S^1 x R^2 in R^4 through the pole at the basepoint; at u1 = pi the point
# is antipodal on the circle, so the distance to the pole is critical there
CIRCLE_CYLINDER = """
m = 3; n = 4; ambient = euclidean;
x1 = sin(u1); x2 = u2; x3 = u3; x4 = 1 - cos(u1);
domain u1 in [-3.5, 3.5], u2 in [-1, 1], u3 in [-1, 1];
basepoint 0, 0, 0
"""


def _scalar_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except (CriticalPointError, DegeneratePlaneError) as exc:
        return None, type(exc)


def test_batched_curvature_masks_exactly_the_failing_points():
    chart = xg.parse_chart(CIRCLE_CYLINDER)
    pts = np.array([[0.7, 0.3, -0.2], [0.0, 0.0, 0.0], [math.pi, 0.0, 0.0]])
    geom = xg.grid_geometry(chart, pts, level=xg.FRAME)
    assert geom.at_pole[1]
    assert geom.grad_r_tan_norm[2] <= xg.immersion.CRITICAL_TOL
    singles = [xg.point_geometry(chart, pt) for pt in pts]
    # the last plane is degenerate: y = 2 x
    xs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    ys = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 2.0]])

    batched = {
        "sectional": xg.sectional_curvature(geom, xs, ys),
        "plane": xg.level_set_tangent_plane(geom),
        "exact": xg.extrinsic_sphere_curvature(geom),
        "bounds": xg.extrinsic_sphere_curvature(geom, mode="bounds"),
    }
    scalar = {
        "sectional": lambda i: xg.sectional_curvature(singles[i], xs[i],
                                                      ys[i]),
        "plane": lambda i: xg.level_set_tangent_plane(singles[i]),
        "exact": lambda i: xg.extrinsic_sphere_curvature(singles[i]),
        "bounds": lambda i: xg.extrinsic_sphere_curvature(singles[i],
                                                          mode="bounds"),
    }
    want_errors = {
        "sectional": [None, None, DegeneratePlaneError],
        "plane": [None, CriticalPointError, CriticalPointError],
        "exact": [None, CriticalPointError, CriticalPointError],
        "bounds": [None, CriticalPointError, CriticalPointError],
    }
    cond = np.linalg.cond(geom.metric)
    for name, (*values, failed) in batched.items():
        assert failed.shape == (3,), name
        for i in range(3):
            got, err = _scalar_or_error(scalar[name], i)
            assert err is want_errors[name][i], (name, i)
            assert bool(failed[i]) == (err is not None), (name, i)
            if err is not None or cond[i] >= 1e3:
                continue
            got = got if isinstance(got, tuple) else (got,)
            for v, s in zip(values, got):
                np.testing.assert_allclose(v[i], s, rtol=1e-12, atol=1e-15,
                                           err_msg=name)


# ---------------------------------------------------------------------------
# principal curvatures of hypersurfaces

def test_principal_curvatures_cylinder():
    chart = xg.parse_chart(CYLINDER_R2)
    geom = xg.point_geometry(chart, np.array([1.2, 0.5]))
    ks, nu = xg.hypersurface_principal_curvatures(geom)
    np.testing.assert_allclose(np.sort(np.abs(ks)), [0.0, 0.5], atol=1e-12)
    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)


def test_principal_curvatures_sphere():
    chart = xg.parse_chart(SPHERE_R2)
    geom = xg.point_geometry(chart, np.array([0.8, 1.9]))
    ks, _ = xg.hypersurface_principal_curvatures(geom)
    # umbilic: both curvatures 1/R up to the normal's sign
    np.testing.assert_allclose(np.abs(ks), [0.5, 0.5], atol=1e-10)
    assert ks[0] * ks[1] == pytest.approx(0.25, rel=1e-10)


def test_principal_curvatures_catenoid():
    chart = xg.parse_chart(CATENOID)
    for u1 in (0.3, 1.1):
        geom = xg.point_geometry(chart, np.array([u1, 0.7]))
        ks, _ = xg.hypersurface_principal_curvatures(geom)
        want = 1.0 / math.cosh(u1) ** 2
        assert ks[0] + ks[1] == pytest.approx(0.0, abs=1e-10)  # minimal
        np.testing.assert_allclose(np.abs(ks), [want, want], rtol=1e-9)


def test_principal_curvatures_rotation_hypersurface():
    for n in (2, 3):
        chart, gt = xg.catalog_build("rotation-hypersurface", n=n, a=1.0,
                                     truncation=4.0)
        for s in (0.0, 0.7, 1.6):
            pt = np.array([0.4] * (n - 1) + [s])
            geom = xg.point_geometry(chart, pt)
            ks, nu = xg.hypersurface_principal_curvatures(geom)
            lam, mu = gt.principal_curvatures(s)
            mag = abs(mu)
            np.testing.assert_allclose(np.abs(ks), np.full(n, mag),
                                       rtol=1e-7)
            # lam carries multiplicity n-1, mu multiplicity 1, and they
            # have opposite signs; the sum pins the multiplicities
            assert abs(np.sum(ks)) == pytest.approx(
                abs((n - 1) * lam + mu), rel=1e-6, abs=1e-9)
            # the normal is unit and Lorentz-orthogonal to the surface
            eta = np.ones(n + 2)
            eta[-1] = -1.0
            assert np.sum(eta * nu * nu) == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(geom.jacobian.T @ (eta * nu))) < 1e-8
            assert abs(np.sum(eta * geom.position * nu)) < 1e-8


def test_principal_curvatures_need_codimension_one():
    src = ("m = 2; n = 4; ambient = euclidean; "
           "x1 = u1; x2 = u2; x3 = u1 * u2; x4 = u1^2; "
           "domain u1 in [-1, 1], u2 in [-1, 1]")
    chart = xg.parse_chart(src)
    geom = xg.point_geometry(chart, np.array([0.2, 0.3]))
    with pytest.raises(DomainError, match="codimension"):
        xg.hypersurface_principal_curvatures(geom)


def test_principal_curvatures_undetermined_when_flat():
    chart = xg.parse_chart(FLAT_PLANE)
    geom = xg.point_geometry(chart, np.array([0.4, 0.1]))
    with pytest.raises(DomainError, match="normal"):
        xg.hypersurface_principal_curvatures(geom)
