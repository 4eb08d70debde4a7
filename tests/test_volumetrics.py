"""Volume curves, growth-bound verdicts and the model-volume gap."""

import math
import warnings

import numpy as np
import pytest

import extgeo as xg
from extgeo.errors import (DomainError, GeometryError,
                           HypothesisViolatedError, TruncationError)
from extgeo.volumetrics import _ball_values

from oracles import cell_fraction_ball_volumes, cell_r_spans


# ---------------------------------------------------------------------------
# ball and sphere volumes

def test_flat_ball_and_sphere_volume(flat2_mesh):
    curve = xg.volume_curve(flat2_mesh, [1.0, 1.5])
    assert curve.ball[0] == pytest.approx(math.pi, rel=0.01)
    assert curve.sphere[0] == pytest.approx(2.0 * math.pi, rel=0.02)


def test_hyperbolic_ball_and_sphere_volume(tg2_mesh):
    curve = xg.volume_curve(tg2_mesh, [1.0, 1.5])
    assert curve.ball[0] == pytest.approx(
        2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=0.01)
    assert curve.sphere[0] == pytest.approx(2.0 * math.pi * math.sinh(1.0),
                                            rel=0.02)


@pytest.mark.parametrize("name,params,resolution", [
    ("sphere", {"m": 1, "n": 2}, 33),
    ("catenoid", {}, [41, 16]),
    ("flat-subspace", {"m": 3, "n": 4, "truncation": 1.2}, 13),
    ("rotation-hypersurface", {"n": 3}, [5, 8, 13]),
], ids=["circle", "catenoid", "flat3", "rotation3"])
def test_ball_values_match_the_cell_fraction_formula(name, params, resolution):
    # one weighted count over the refined nodes reproduces the per-cell sum
    # of center density x measure x sub-lattice fraction, unsorted radii and
    # radii past r_max (the total volume) included
    chart, _ = xg.catalog_build(name, **params)
    mesh = xg.build_mesh(chart, resolution)
    radii = mesh.r_max * np.array([0.6, 0.1, 1.2, 0.3, 0.9, 0.45, 0.75,
                                   1.0, 0.2, 1.5])
    expect = cell_fraction_ball_volumes(mesh, radii)
    assert np.all(expect > 0.0)
    np.testing.assert_allclose(_ball_values(mesh, radii), expect,
                               rtol=1e-12, atol=0.0)
    spans = cell_r_spans(mesh)
    assert mesh.fd_step == 2.0 * float(np.median(spans[spans > 0.0]))


def test_coarea_deviation_is_inf_without_a_warning():
    # catenoid 81x24 has a zero sphere volume beside a nonzero difference
    chart, _ = xg.catalog_build("catenoid")
    curve = xg.volume_curve(xg.build_mesh(chart, [81, 24]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert curve.coarea_max_dev() == math.inf


def test_volume_curve_tracks_models(flat2_mesh, tg2_mesh):
    for mesh, ball_tol, sphere_tol in [(flat2_mesh, 0.02, 0.04),
                                       (tg2_mesh, 0.02, 0.04)]:
        curve = xg.volume_curve(mesh)
        assert float(np.max(np.abs(curve.ball_ratio - 1.0))) < ball_tol
        assert float(np.max(np.abs(curve.sphere_ratio - 1.0))) < sphere_tol
        assert np.all(np.diff(curve.ball) > 0.0)
        summary = curve.summary()
        assert set(summary) == {"radii", "ball", "sphere", "ball_ratio",
                                "sphere_ratio", "fd_step"}


def test_coarea_integral_consistency(flat2_mesh, tg2_mesh):
    # integrating the sphere curve over [t0, t1] recovers the ball
    # volume difference
    for mesh in (flat2_mesh, tg2_mesh):
        radii = np.linspace(0.5, 1.6, 23)
        curve = xg.volume_curve(mesh, radii)
        integral = float(np.trapezoid(curve.sphere, radii))
        diff = curve.ball[-1] - curve.ball[0]
        assert integral == pytest.approx(diff, rel=0.02)


def test_volume_curve_validation(flat2_mesh):
    with pytest.raises(DomainError):
        xg.volume_curve(flat2_mesh, [1.0])
    with pytest.raises(DomainError):
        xg.volume_curve(flat2_mesh, [1.0, 0.5])
    with pytest.raises(DomainError):
        xg.volume_curve(flat2_mesh, [0.01, 1.0])
    with pytest.raises(TruncationError):
        xg.volume_curve(flat2_mesh, [1.0, 1.79])


def test_volume_curve_rejects_unresolvable_radii(flat2_mesh):
    # radii closer than the lattice can resolve flatten the ball curve
    with pytest.raises(GeometryError, match="resolve"):
        xg.volume_curve(flat2_mesh, [1.0001, 1.0001 + 1e-12, 1.2])


def test_default_volume_radii_window(flat2_mesh):
    radii = xg.default_volume_radii(flat2_mesh)
    assert len(radii) == 16
    assert np.all(np.diff(radii) > 0.0)
    assert radii[0] > 0.0
    assert radii[-1] < 0.9 * flat2_mesh.r_truncation_min


# ---------------------------------------------------------------------------
# growth-bound verdicts

def tails_for(mesh):
    return xg.invariant_tails(mesh, xg.default_tail_radii(mesh))


def growth_inputs(mesh):
    """The end count and volume curve that the verdict takes."""
    return xg.ends_stability(mesh).n_ends, xg.volume_curve(mesh)


def test_growth_bounds_flat_plane(flat2_mesh):
    report = tails_for(flat2_mesh)
    with pytest.warns(RuntimeWarning, match="exploratory"):
        verdict = xg.verify_growth_bounds(flat2_mesh, report,
                                          *growth_inputs(flat2_mesh))
    assert verdict.verdict == "satisfied"
    assert verdict.exploratory
    assert verdict.ends == 1
    assert len(verdict.rows) == 2
    for row in verdict.rows:
        # one end of a genuinely flat immersion: both sides sit at 1
        assert row["lhs"] == pytest.approx(1.0, abs=0.02)
        assert row["rhs"] == 1.0


def test_growth_bounds_flat_3d(flat3_mesh):
    report = tails_for(flat3_mesh)
    verdict = xg.verify_growth_bounds(flat3_mesh, report,
                                      *growth_inputs(flat3_mesh))
    assert verdict.verdict == "satisfied"
    assert not verdict.exploratory
    assert verdict.summary()["ends"] == 1


def test_growth_bounds_cylinder_hypothesis_fails(cylinder_mesh):
    report = tails_for(cylinder_mesh)
    with pytest.warns(RuntimeWarning, match="exploratory"):
        verdict = xg.verify_growth_bounds(cylinder_mesh, report,
                                          *growth_inputs(cylinder_mesh))
    assert verdict.verdict == "inconclusive"
    assert verdict.reason == "hypothesis a(M) < 1/2 fails"
    assert verdict.rows == []
    assert verdict.ends == 2


def test_growth_bounds_hyperbolic_gate(tg2_mesh):
    report = tails_for(tg2_mesh)
    with pytest.warns(RuntimeWarning, match="exploratory"):
        verdict = xg.verify_growth_bounds(tg2_mesh, report,
                                          *growth_inputs(tg2_mesh))
    assert verdict.verdict == "satisfied"
    assert verdict.ends == 1
    for row in verdict.rows:
        assert row["rhs"] == 1.0
        assert row["satisfied"]


def test_growth_bounds_hyperbolic_gate_requires_certificate(tg2_mesh):
    report = tails_for(tg2_mesh)
    # forge a report whose certificate flag is off; the hyperbolic branch
    # must bail out with the stated reason
    report.flags = dict(report.flags, strongly_tamed=False)
    with pytest.warns(RuntimeWarning, match="exploratory"):
        verdict = xg.verify_growth_bounds(tg2_mesh, report,
                                          *growth_inputs(tg2_mesh))
    assert verdict.verdict == "inconclusive"
    assert verdict.reason == "hypothesis b(M) < infinity fails"


def test_growth_bounds_catenoid_counts_both_ends(catenoid_mesh):
    report = tails_for(catenoid_mesh)
    with pytest.warns(RuntimeWarning, match="exploratory"):
        verdict = xg.verify_growth_bounds(catenoid_mesh, report,
                                          *growth_inputs(catenoid_mesh))
    assert verdict.verdict == "satisfied"
    assert verdict.ends == 2
    rows = {row["quantity"]: row for row in verdict.rows}
    # far out the surface fills two planar sheets, so the ball ratio
    # approaches the end count
    assert rows["ball_ratio"]["lhs"] > 1.5
    assert rows["ball_ratio"]["rhs"] == pytest.approx(2.0, abs=0.01)


def test_growth_bounds_refuse_a_vanishing_ratio():
    # at 81x24 one final-quarter sphere radius catches no cell, so the
    # sphere ratio reads 0 there and would pass any upper bound
    chart, _gt = xg.catalog_build("catenoid")
    mesh = xg.build_mesh(chart, [81, 24])
    curve = xg.volume_curve(mesh)
    assert xg.Curve(curve.radii, curve.sphere_ratio).tail_min() == 0.0
    with pytest.warns(RuntimeWarning, match="exploratory"):
        verdict = xg.verify_growth_bounds(mesh, tails_for(mesh),
                                          xg.ends_stability(mesh).n_ends,
                                          curve)
    assert verdict.verdict == "inconclusive"
    assert "sphere_ratio" in verdict.reason
    assert verdict.rows == []


def test_growth_bounds_accept_precomputed_pieces(flat2_mesh):
    report = tails_for(flat2_mesh)
    curve = xg.volume_curve(flat2_mesh)
    with pytest.warns(RuntimeWarning, match="exploratory"):
        verdict = xg.verify_growth_bounds(flat2_mesh, report, 1, curve)
    assert verdict.verdict == "satisfied"


# ---------------------------------------------------------------------------
# volume gap

def test_gap_ratio_flat(flat2_mesh):
    gap = xg.gap_ratio(flat2_mesh)
    assert gap.min_ratio >= 0.99
    assert gap.min_ratio == pytest.approx(1.0, abs=0.01)
    assert gap.checked_points == 48


def test_gap_ratio_hyperbolic(tg2_mesh):
    gap = xg.gap_ratio(tg2_mesh)
    assert gap.min_ratio >= 0.99
    assert set(gap.summary()) == {"radii", "ratios", "min_ratio",
                                  "checked_points"}


def test_gap_ratio_deterministic(flat2_mesh):
    a = xg.gap_ratio(flat2_mesh, seed=7)
    b = xg.gap_ratio(flat2_mesh, seed=7)
    assert a.min_ratio == b.min_ratio
    np.testing.assert_array_equal(a.curve.y, b.curve.y)


def test_gap_screen_rejects_positive_curvature():
    chart, _ = xg.catalog_build("sphere", m=2, n=3)
    mesh = xg.build_mesh(chart, [17, 24])
    with pytest.raises(HypothesisViolatedError) as err:
        xg.gap_ratio(mesh)
    assert "exceeds the ambient constant" in str(err.value)
    offenders = err.value.offenders
    assert 0 < len(offenders) <= 10
    assert set(offenders[0]) == {"point", "plane", "curvature"}
    assert offenders[0]["curvature"] > 0.5
