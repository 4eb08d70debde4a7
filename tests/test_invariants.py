"""Decay bounds, pinching threshold, tail invariants, classification."""

import math

import numpy as np
import pytest

import extgeo as xg
from extgeo.curves import Curve
from extgeo.errors import DomainError, EvaluationError, TruncationError
from oracles import antipodal_excess


# ---------------------------------------------------------------------------
# integrated decay bounds

def test_kasue_flat_closed_form_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = float(rng.uniform(0.0, 2.0))
        r0 = float(rng.uniform(0.0, 3.0))
        t = r0 + float(rng.uniform(0.1, 5.0))
        want = c * (1.0 - r0 / t)
        for kind in ("inverse-distance", "inverse-s", "inverse-sc"):
            prof = xg.DecayProfile(kind, c)
            got = xg.kasue_bound(t, prof, kappa=0.0, R0=r0)
            assert got == pytest.approx(want, abs=1e-10)
            closed = xg.kasue_closed_form(t, prof, kappa=0.0, R0=r0)
            assert closed == pytest.approx(want, abs=1e-12)


def test_kasue_hyperbolic_inverse_s():
    rng = np.random.default_rng(12)
    for _ in range(50):
        c = float(rng.uniform(0.0, 2.0))
        r0 = float(rng.uniform(0.0, 2.0))
        t = r0 + float(rng.uniform(0.1, 4.0))
        prof = xg.DecayProfile("inverse-s", c)
        want = c * (t - r0) / math.sinh(t)
        assert xg.kasue_closed_form(t, prof, R0=r0) == pytest.approx(
            want, abs=1e-14)
        assert xg.kasue_bound(t, prof, R0=r0) == pytest.approx(
            want, abs=1e-10)


def test_kasue_inverse_sc_quadrature_vs_gudermannian():
    prof = xg.DecayProfile("inverse-sc", 0.7)
    for kappa in (-1.0, -2.0, -0.25):
        for t, r0 in [(1.0, 0.0), (3.0, 0.5), (6.0, 2.0)]:
            quad_val = xg.kasue_bound(t, prof, kappa=kappa, R0=r0)
            closed = xg.kasue_closed_form(t, prof, kappa=kappa, R0=r0)
            assert quad_val == pytest.approx(closed, rel=1e-10, abs=1e-12)


def test_kasue_inverse_distance_has_no_hyperbolic_closed_form():
    prof = xg.DecayProfile("inverse-distance", 0.5)
    with pytest.raises(DomainError):
        xg.kasue_closed_form(2.0, prof, kappa=-1.0)
    # the quadrature route still evaluates
    assert xg.kasue_bound(2.0, prof, kappa=-1.0) > 0.0


def test_kasue_delta_is_additive():
    prof = xg.DecayProfile("inverse-s", 0.3)
    delta = xg.DeltaModel("power", d0=0.2, t0=1.5)
    t = 2.5
    plain = xg.kasue_bound(t, prof)
    with_delta = xg.kasue_bound(t, prof, delta=delta)
    assert with_delta - plain == pytest.approx(0.2 * 1.5 / t, abs=1e-14)


def test_kasue_argument_guards():
    prof = xg.DecayProfile("inverse-s", 0.3)
    with pytest.raises(DomainError):
        xg.kasue_bound(2.0, prof, kappa=0.5)
    with pytest.raises(DomainError):
        xg.kasue_bound(2.0, prof, R0=-1.0)
    with pytest.raises(DomainError):
        xg.kasue_bound(1.0, prof, R0=1.5)


def test_decay_profile_shapes_and_validation():
    t = 1.3
    assert xg.DecayProfile("inverse-distance", 2.0).g(-1.0, t) == \
        pytest.approx(2.0 / t)
    assert xg.DecayProfile("inverse-s", 2.0).g(-1.0, t) == \
        pytest.approx(2.0 / math.sinh(t))
    assert xg.DecayProfile("inverse-sc", 2.0).g(-1.0, t) == \
        pytest.approx(2.0 / (math.sinh(t) * math.cosh(t)))
    with pytest.raises(DomainError):
        xg.DecayProfile("exponential", 1.0)
    with pytest.raises(DomainError):
        xg.DecayProfile("inverse-s", -0.1)


def test_delta_model_validation_and_labels():
    assert xg.DeltaModel().value(10.0) == 0.0
    assert xg.DeltaModel().label == "zero"
    power = xg.DeltaModel("power", d0=0.4, t0=2.0)
    assert power.value(8.0) == pytest.approx(0.1)
    assert power.label == "power(d0=0.4, t0=2)"
    with pytest.raises(DomainError):
        xg.DeltaModel("linear")
    with pytest.raises(DomainError):
        xg.DeltaModel("power", d0=-1.0)
    with pytest.raises(DomainError):
        xg.DeltaModel("power", d0=0.1, t0=0.0)


# ---------------------------------------------------------------------------
# pinching quantities

def test_threshold_amplitude_routes_agree():
    closed = xg.c_star_closed_form()
    rooted = xg.c_star_bisection()
    assert closed == pytest.approx(math.sqrt((23.0 - math.sqrt(337.0)) / 32.0),
                                   abs=0.0)
    assert abs(closed - rooted) < 1e-10
    # at the threshold the limiting quotient sits at 1/4
    assert xg.pinching_functions(closed).F == pytest.approx(0.25, abs=1e-12)


def test_pinching_limit_values():
    vals = xg.pinching_functions(0.2)
    assert vals.lambda0 == 1.0 - 4.0 * 0.2 ** 2   # exact algebra
    assert vals.F == pytest.approx(0.72, abs=1e-12)
    assert vals.u_c == 0.0
    assert vals.lambda_full == 1.0


def test_pinching_finite_radius():
    c, t, d = 0.2, 3.0, 0.05
    vals = xg.pinching_functions(c, t=t, delta=d)
    u_c = d + c * t / math.sinh(t)
    assert vals.u_c == pytest.approx(u_c, rel=1e-14)
    sec = 2.0 * (c / math.cosh(t)) ** 2
    assert vals.lambda_full == pytest.approx(1.0 - sec - 2.0 * c * u_c,
                                             rel=1e-14)
    # the residual level enters the zeroth-order quantities too
    w = c + d
    assert vals.lambda0 == pytest.approx(1.0 - 2.0 * c * c - 2.0 * c * w)


def test_pinching_quotient_strictly_decreasing():
    cs = np.linspace(0.0, 0.49, 200)
    fs = [xg.pinching_functions(float(c)).F for c in cs]
    assert np.all(np.diff(fs) < 0.0)
    assert fs[0] == pytest.approx(1.0)


def test_pinching_guards():
    with pytest.raises(DomainError):
        xg.pinching_functions(0.2, kappa=0.0)
    with pytest.raises(DomainError):
        xg.pinching_functions(-0.1)
    with pytest.raises(DomainError):
        xg.pinching_functions(0.2, delta=-0.1)
    with pytest.raises(DomainError):
        xg.pinching_functions(1.0)
    with pytest.raises(DomainError):
        xg.pinching_functions(0.6, delta=0.5)
    with pytest.raises(DomainError):
        xg.pinching_functions(0.2, t=0.5, R0=1.0)


# ---------------------------------------------------------------------------
# curve helpers

def test_curve_tail_helpers():
    flat = Curve(np.arange(1.0, 7.0), np.full(6, 2.0))
    assert flat.tail_slope() == pytest.approx(0.0, abs=1e-15)
    assert flat.tail_oscillation() == 0.0
    assert not flat.is_tail_increasing()
    line = Curve(np.arange(1.0, 7.0), 3.0 * np.arange(1.0, 7.0))
    assert line.tail_slope() == pytest.approx(3.0, rel=1e-12)
    assert line.is_tail_increasing()
    assert line.tail_min() == pytest.approx(15.0)   # last quarter: 2 of 6
    with pytest.raises(ValueError):
        Curve(np.arange(3.0), np.arange(4.0))


# ---------------------------------------------------------------------------
# mesh tail invariants

def test_tails_are_non_increasing(catenoid_mesh):
    rep = xg.invariant_tails(catenoid_mesh,
                             xg.default_tail_radii(catenoid_mesh))
    assert float(np.max(np.diff(rep.a_tail.y))) <= 1e-12
    assert float(np.max(np.diff(rep.b_tail.y))) <= 1e-12
    assert rep.excluded_vertices == 0


def test_classification_flat(flat2_mesh):
    rep = xg.invariant_tails(flat2_mesh, xg.default_tail_radii(flat2_mesh))
    assert rep.classification == "extrinsically-asymptotically-flat"
    assert rep.a_estimate == 0.0
    assert rep.b_estimate == 0.0
    assert rep.flags == {"tamed": True,
                         "extrinsically_asymptotically_flat": True,
                         "strongly_tamed": False}


def test_classification_cylinder(cylinder_mesh):
    rep = xg.invariant_tails(cylinder_mesh,
                             xg.default_tail_radii(cylinder_mesh))
    assert rep.classification == "not-tamed"
    # the weighted norm grows linearly, so the verdict comes from the
    # distance-weighted estimate; the truncated sup stays finite
    assert rep.a_estimate > 1.0
    assert math.isfinite(rep.b_estimate)
    assert rep.flags == {"tamed": False,
                         "extrinsically_asymptotically_flat": False,
                         "strongly_tamed": False}


def test_classification_catenoid(catenoid_mesh):
    # bending decays fast, but the product-weighted tail oscillates too
    # much on this grid to certify the stronger label
    rep = xg.invariant_tails(catenoid_mesh,
                             xg.default_tail_radii(catenoid_mesh))
    assert rep.classification == "extrinsically-asymptotically-flat"
    assert rep.a_estimate < 0.05
    assert rep.flags["extrinsically_asymptotically_flat"]
    assert not rep.flags["strongly_tamed"]


def test_classification_totally_geodesic(tg2_mesh):
    rep = xg.invariant_tails(tg2_mesh, xg.default_tail_radii(tg2_mesh))
    assert rep.classification == "strongly-tamed"
    assert rep.a_estimate < 1e-10
    assert rep.flags["strongly_tamed"]


def test_classification_rotation_hypersurface():
    chart, _ = xg.catalog_build("rotation-hypersurface", n=2, a=1.0,
                                truncation=6.0)
    mesh = xg.build_mesh(chart, [48, 161])
    rep = xg.invariant_tails(mesh, xg.default_tail_radii(mesh))
    assert rep.classification == "strongly-tamed"
    assert rep.a_estimate < 0.05
    assert 0.0 < rep.b_estimate < math.inf
    assert not rep.b_increasing


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_rotation_weighted_tail_converges_to_whole_parallel_limit(a):
    # the limit is b_value * e^{2 Delta*}, Delta* from Clairaut's relation
    chart, gt = xg.catalog_build("rotation-hypersurface", n=2, a=a,
                                 truncation=6.0)
    limit = gt.b_value * math.exp(2.0 * antipodal_excess(a))
    errors = []
    for res in ([32, 201], [64, 401]):
        mesh = xg.build_mesh(chart, res)
        rep = xg.invariant_tails(mesh, xg.default_tail_radii(mesh))
        errors.append(abs(rep.b_estimate / limit - 1.0))
    assert errors[1] < errors[0] < 0.01


def test_summary_is_json_friendly(flat2_mesh):
    rep = xg.invariant_tails(flat2_mesh, xg.default_tail_radii(flat2_mesh))
    summary = rep.summary()
    assert set(summary) == {"a_estimate", "a_slope", "b_estimate",
                            "b_increasing", "classification", "flags",
                            "excluded_vertices", "radii", "a_tail", "b_tail"}
    assert all(isinstance(v, float) for v in summary["a_tail"])


def test_default_tail_radii_windows(flat2_mesh):
    radii = xg.default_tail_radii(flat2_mesh)
    assert len(radii) == 12
    assert radii[-1] == pytest.approx(0.99 * 0.9 * 2.0, rel=1e-12)
    assert radii[0] == pytest.approx(0.25 * radii[-1], rel=1e-12)
    # fully periodic meshes fall back to the sampled maximum
    chart, _ = xg.catalog_build("sphere", m=1, n=2, radius=1.0)
    mesh = xg.build_mesh(chart, 64, pole=[0.0, 0.0])
    radii = xg.default_tail_radii(mesh)
    assert len(radii) == 12
    assert radii[-1] == pytest.approx(0.95 * mesh.r_max, rel=1e-12)


def test_tail_radius_validation(flat2_mesh):
    with pytest.raises(DomainError):
        xg.invariant_tails(flat2_mesh, [])
    with pytest.raises(DomainError):
        xg.invariant_tails(flat2_mesh, [-1.0, 1.0])
    with pytest.raises(DomainError):
        xg.invariant_tails(flat2_mesh, [1.0, 1.0])
    with pytest.raises(TruncationError):
        xg.invariant_tails(flat2_mesh, [0.5, 1.9])


def test_tail_radius_beyond_samples():
    chart, _ = xg.catalog_build("sphere", m=1, n=2, radius=1.0)
    mesh = xg.build_mesh(chart, 64, pole=[0.0, 0.0])
    # cap is infinite here, but nothing is sampled beyond r = 1
    with pytest.raises(DomainError, match="beyond"):
        xg.invariant_tails(mesh, [1.5])
