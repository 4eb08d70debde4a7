"""Acceptance battery: one test per shipping criterion.

Each test prints a single line

    [criterion NN] PASS|FAIL (elapsed) detail

through the capture barrier, then asserts the criterion at its stated
tolerance and time budget.  A FAIL line always carries the measured
numbers, so a red criterion documents itself.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import extgeo as xg
from extgeo.errors import ExtGeoError
from extgeo.immersion import (extrinsic_sphere_curvature, grid_geometry,
                              hypersurface_principal_curvatures,
                              point_geometry)
from extgeo.invariants import (DecayProfile, c_star_bisection,
                               c_star_closed_form, default_tail_radii,
                               invariant_tails, kasue_bound,
                               pinching_functions)
from extgeo.mesh import ends_stability
from extgeo.spaceform import (ambient_distance, c_kappa,
                              distance_gradient_hessian, euclidean, geodesic,
                              hyperbolic, s_kappa)
from extgeo.volumetrics import (default_volume_radii, gap_ratio,
                                verify_growth_bounds, volume_curve)
from oracles import antipodal_excess

BUDGETS = {1: 1.0, 2: 5.0, 3: 60.0, 4: 1.0, 5: 1.0, 6: 120.0, 7: 120.0,
           8: 120.0, 9: 60.0, 10: 60.0}


def report(capsys, num, ok, t0, detail):
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s) {detail}")
    return elapsed


def interior_samples(chart, k, seed, margin=0.05):
    rng = np.random.default_rng(seed)
    lows = np.array([chart.domain[i][0] for i in range(chart.m)])
    spans = np.array([chart.domain[i][1] - chart.domain[i][0]
                      for i in range(chart.m)])
    return lows + spans * rng.uniform(margin, 1.0 - margin,
                                      size=(k, chart.m))


# ---------------------------------------------------------------------------
# 1. comparison identities and the distance Hessian against finite
#    differences


def fd_hessian(amb, p, u, v, h=2e-2):
    """Hess r(u, v) from Richardson-extrapolated geodesic second
    differences, polarized over u, v."""

    def second(w):
        nw = math.sqrt(abs(float(amb.inner(w, w))))
        ww = w / nw

        def f(s):
            return ambient_distance(amb, geodesic(amb, p, ww, s))

        def dd(step):
            return (f(step) - 2.0 * f(0.0) + f(-step)) / (step * step)

        return nw * nw * (4.0 * dd(h / 2.0) - dd(h)) / 3.0

    return 0.5 * (second(u + v) - second(u) - second(v))


def test_criterion_01(capsys):
    t0 = time.perf_counter()
    ident = 0.0
    for kappa in (0.0, -0.04, -0.25, -1.0, -2.0, -5.0):
        scale = 1.0 if kappa == 0.0 else 1.0 / math.sqrt(-kappa)
        ts = np.linspace(0.0, 4.0, 81) * scale
        res = c_kappa(kappa, ts) ** 2 + kappa * s_kappa(kappa, ts) ** 2 - 1.0
        ident = max(ident, float(np.max(np.abs(res))))

    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(200):
        kappa = 0.0 if trial % 2 == 0 else -float(rng.uniform(0.1, 2.0))
        n = int(rng.integers(2, 5))
        if kappa == 0.0:
            amb = euclidean(n)
            p = rng.normal(size=n)
            p *= rng.uniform(0.5, 3.0) / np.linalg.norm(p)
            u, v = rng.normal(size=(2, n))
        else:
            amb = hyperbolic(n, kappa)
            u0 = amb.tangent_part(amb.pole, rng.normal(size=amb.ncoords))
            u0 /= math.sqrt(float(amb.inner(u0, u0)))
            p = geodesic(amb, amb.pole, u0, float(rng.uniform(0.5, 3.0)))
            u, v = (amb.tangent_part(p, w)
                    for w in rng.normal(size=(2, amb.ncoords)))
        u = u / math.sqrt(abs(float(amb.inner(u, u))))
        v = v / math.sqrt(abs(float(amb.inner(v, v))))
        _grad, hess = distance_gradient_hessian(amb, p, u, v)
        approx = fd_hessian(amb, p, u, v)
        # unit directions at r in [0.5, 3] put the Hessian scale at O(1),
        # so the entry magnitude is floored at 1 to keep "relative" honest
        worst = max(worst, abs(hess - approx) / max(abs(hess), 1.0))

    ok = ident < 1e-12 and worst < 1e-6
    elapsed = report(capsys, 1, ok, t0,
                     f"identity residual {ident:.1e}, "
                     f"Hessian vs FD worst rel {worst:.1e}")
    assert ident < 1e-12
    assert worst < 1e-6
    assert elapsed < BUDGETS[1]


# ---------------------------------------------------------------------------
# 2. bending norm oracles on the closed-form entries


def test_criterion_02(capsys):
    t0 = time.perf_counter()

    def alpha_norms(chart, seed):
        pts = interior_samples(chart, 40, seed)
        return np.sqrt(grid_geometry(chart, pts).norm_alpha_sq)

    errs = {}
    for R in (0.5, 1.0, 2.0):
        chart, _ = xg.catalog_build("sphere", radius=R)
        errs[f"sphere R={R}"] = float(np.max(np.abs(
            alpha_norms(chart, 21) - math.sqrt(2.0) / R)))
    chart, _ = xg.catalog_build("cylinder")
    errs["cylinder"] = float(np.max(np.abs(alpha_norms(chart, 22) - 1.0)))
    flat_max = 0.0
    for name in ("flat-subspace", "totally-geodesic"):
        chart, _ = xg.catalog_build(name)
        flat_max = max(flat_max, float(np.max(alpha_norms(chart, 23))))

    curved = max(errs.values())
    ok = curved < 1e-8 and flat_max < 1e-10
    elapsed = report(capsys, 2, ok, t0,
                     f"sphere/cylinder worst err {curved:.1e}, "
                     f"flat/geodesic max |alpha| {flat_max:.1e}")
    assert curved < 1e-8
    assert flat_max < 1e-10
    assert elapsed < BUDGETS[2]


# ---------------------------------------------------------------------------
# 3. rotation hypersurface: bending profile, principal symmetry, and the
#    weighted tail constant


def test_criterion_03(capsys):
    t0 = time.perf_counter()
    prof_rel = lam_rel = 0.0
    rows = []
    # the n = 3 row needs 17 polar samples: its supremum sits on a conical
    # cut point, where b_tail is 4.4% low at [9, 24, 401] and 2.7% low at
    # [17, 24, 401]
    for n, a, res in ((2, 1.0, [64, 401]), (3, 1.0, [17, 24, 401]),
                      (2, 2.0, [64, 401])):
        chart, _gt = xg.catalog_build("rotation-hypersurface", n=n, a=a,
                                      truncation=6.0)
        base = np.array(chart.basepoint, dtype=float)
        svals = np.linspace(0.0, 6.0, 41)
        pts = np.tile(base, (svals.size, 1))
        pts[:, -1] = svals
        geom = grid_geometry(chart, pts)
        X = a * np.cosh(2.0 * svals) - 0.5
        want = n * (a * a - 0.25) / X ** 2
        prof_rel = max(prof_rel, float(np.max(
            np.abs(geom.norm_alpha_sq - want) / want)))

        for s in (0.0, 1.5, 3.0, 5.0):
            p = base.copy()
            p[-1] = s
            ks, _nu = hypersurface_principal_curvatures(
                point_geometry(chart, p))
            lam_rel = max(lam_rel,
                          abs(min(ks) + max(ks)) / abs(max(ks)))

        mesh = xg.build_mesh(chart, res)
        rep = invariant_tails(mesh, default_tail_radii(mesh))
        # b_tail is the sup of (C*S)(rho)|alpha| over whole parallels; far
        # out C*S ~ e^{2 rho}/4 and |alpha| ~ 2 sqrt(n(a^2-1/4)) e^{-2s}/a,
        # and rho - s is largest on the antipodal meridian, where Clairaut's
        # relation gives its limit Delta*
        target = (math.sqrt(n * (a * a - 0.25)) / (2.0 * a)
                  * math.exp(2.0 * antipodal_excess(a)))
        rows.append((n, a, rep.b_estimate, target))

    b_ok = all(abs(b - tgt) <= 0.05 * tgt for _n, _a, b, tgt in rows)
    b_txt = "; ".join(f"(n={n}, a={a}) b_tail {b:.2f} vs whole-parallel "
                      f"limit {tgt:.2f}" for n, a, b, tgt in rows)
    ok = prof_rel < 1e-6 and lam_rel < 1e-6 and b_ok
    elapsed = report(capsys, 3, ok, t0,
                     f"profile rel {prof_rel:.1e}, lam+mu rel {lam_rel:.1e}; "
                     f"{b_txt}")
    assert prof_rel < 1e-6
    assert lam_rel < 1e-6
    assert b_ok, f"weighted tail vs whole-parallel limit: {b_txt}"
    assert elapsed < BUDGETS[3]


# ---------------------------------------------------------------------------
# 4. pinching machinery


def test_criterion_04(capsys):
    t0 = time.perf_counter()
    closed = c_star_closed_form()
    rooted = c_star_bisection()
    agree = abs(closed - rooted)
    f_at_star = pinching_functions(closed).F

    cs = np.linspace(0.0, 0.49, 1000)
    fs = np.array([pinching_functions(float(c)).F for c in cs])
    decreasing = bool(np.all(np.diff(fs) < 0.0))

    exact = all(pinching_functions(float(c)).lambda0 == 1.0 - 4.0 * c * c
                for c in np.linspace(0.0, 0.49, 50))

    ok = (agree < 1e-10 and abs(f_at_star - 0.25) < 1e-12 and decreasing
          and exact)
    elapsed = report(capsys, 4, ok, t0,
                     f"c* route agreement {agree:.1e}, F(c*) - 1/4 = "
                     f"{f_at_star - 0.25:.1e}, strictly decreasing: "
                     f"{decreasing}, lambda0 exact: {exact}")
    assert agree < 1e-10
    assert abs(f_at_star - 0.25) < 1e-12
    assert decreasing
    assert exact
    assert elapsed < BUDGETS[4]


# ---------------------------------------------------------------------------
# 5. integrated decay bounds against their closed forms


def test_criterion_05(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    flat_err = 0.0
    for _ in range(100):
        c = float(rng.uniform(0.1, 3.0))
        R0 = float(rng.uniform(0.0, 2.0))
        t = R0 + float(rng.uniform(0.1, 5.0))
        want = c * (1.0 - R0 / t)
        for kind in ("inverse-distance", "inverse-s", "inverse-sc"):
            got = kasue_bound(t, DecayProfile(kind, c), kappa=0.0, R0=R0)
            flat_err = max(flat_err, abs(got - want))

    hyp_err = 0.0
    for _ in range(50):
        c = float(rng.uniform(0.1, 3.0))
        R0 = float(rng.uniform(0.0, 2.0))
        t = R0 + float(rng.uniform(0.1, 5.0))
        got = kasue_bound(t, DecayProfile("inverse-s", c), kappa=-1.0, R0=R0)
        want = c * (t - R0) / math.sinh(t)
        hyp_err = max(hyp_err, abs(got - want))

    ok = flat_err < 1e-10 and hyp_err < 1e-8
    elapsed = report(capsys, 5, ok, t0,
                     f"flat worst {flat_err:.1e}, hyperbolic worst "
                     f"{hyp_err:.1e}")
    assert flat_err < 1e-10
    assert hyp_err < 1e-8
    assert elapsed < BUDGETS[5]


# ---------------------------------------------------------------------------
# 6. end counting, stable in resolution and across the probe window


def test_criterion_06(capsys, cylinder_mesh, catenoid_mesh):
    t0 = time.perf_counter()
    plane_chart, _ = xg.catalog_build("flat-subspace")
    cyl_chart, _ = xg.catalog_build("cylinder")
    cat_chart, _ = xg.catalog_build("catenoid")
    cases = [
        ("plane", 1, xg.build_mesh(plane_chart, 33),
         xg.build_mesh(plane_chart, 65)),
        ("cylinder", 2, xg.build_mesh(cyl_chart, [61, 24]), cylinder_mesh),
        ("catenoid", 2, xg.build_mesh(cat_chart, [81, 24]), catenoid_mesh),
    ]
    detail = []
    ok = True
    for name, want, lo, hi in cases:
        ends_lo = ends_stability(lo)
        ends_hi = ends_stability(hi)
        good = (ends_lo.n_ends == want == ends_hi.n_ends
                and ends_lo.stable and ends_hi.stable)
        ok = ok and good
        detail.append(f"{name} {ends_lo.n_ends}/{ends_hi.n_ends} "
                      f"(want {want})")
    elapsed = report(capsys, 6, ok, t0, ", ".join(detail))
    assert ok, detail
    assert elapsed < BUDGETS[6]


# ---------------------------------------------------------------------------
# 7. volume growth bounds in dimension three


def growth_rows(mesh):
    rep = invariant_tails(mesh, default_tail_radii(mesh))
    curve = volume_curve(mesh)
    ends = ends_stability(mesh).n_ends
    verdict = verify_growth_bounds(mesh, rep, ends, curve)
    return verdict


def test_criterion_07(capsys, flat3_mesh, tg3_mesh):
    t0 = time.perf_counter()
    details, ok = [], True
    for label, mesh in (("flat R3 in R4", flat3_mesh),
                        ("geodesic H3 in H4", tg3_mesh)):
        verdict = growth_rows(mesh)
        assert not verdict.exploratory
        for row in verdict.rows:
            dev = abs(row["lhs"] - 1.0)
            good = dev <= 0.03 and row["rhs"] == 1.0
            ok = ok and good and verdict.verdict == "satisfied"
            details.append(f"{label} {row['quantity']} lhs dev {dev:.4f}")
    elapsed = report(capsys, 7, ok, t0, ", ".join(details))
    assert ok, details
    assert elapsed < BUDGETS[7]


# ---------------------------------------------------------------------------
# 8. ball-volume gap ratios on the equality models


def test_criterion_08(capsys, flat2_mesh, flat3_mesh, tg2_mesh, tg3_mesh):
    t0 = time.perf_counter()
    details, ok = [], True
    for label, mesh in (("flat m=2", flat2_mesh), ("flat m=3", flat3_mesh),
                        ("geodesic m=2", tg2_mesh),
                        ("geodesic m=3", tg3_mesh)):
        radii = np.asarray(default_volume_radii(mesh), dtype=float)
        window = radii[radii >= 0.5 * radii[-1]]
        rep = gap_ratio(mesh, radii=window)
        dev = float(np.max(np.abs(np.asarray(rep.curve.y) - 1.0)))
        good = dev <= 0.01 and rep.checked_points > 0
        ok = ok and good
        details.append(f"{label} dev {dev:.4f}")
    elapsed = report(capsys, 8, ok, t0, ", ".join(details))
    assert ok, details
    assert elapsed < BUDGETS[8]


# ---------------------------------------------------------------------------
# 9. distance-sphere curvature sandwich


def sandwich_stats(name, seed):
    chart, _ = xg.catalog_build(name, m=3, n=4)
    rng = np.random.default_rng(seed)
    lows = np.array([chart.domain[i][0] for i in range(3)])
    spans = np.array([chart.domain[i][1] - chart.domain[i][0]
                      for i in range(3)])
    rows, tried = [], 0
    while len(rows) < 200 and tried < 4000:
        tried += 1
        pt = lows + spans * rng.uniform(0.02, 0.98, size=3)
        try:
            geom = point_geometry(chart, pt)
            exact = extrinsic_sphere_curvature(geom, mode="exact")
            lo, hi, valid = extrinsic_sphere_curvature(geom, mode="bounds")
        except ExtGeoError:
            continue
        rows.append((exact, lo, hi, valid))
    adm = [r for r in rows if r[3]]
    good = sum(1 for e, lo, hi, _v in adm
               if lo - 1e-9 <= e <= hi + 1e-9)
    collapse = max(max(abs(e - lo), abs(hi - e)) for e, lo, hi, _v in adm)
    return len(adm), good, collapse


def test_criterion_09(capsys):
    t0 = time.perf_counter()
    flat_adm, flat_good, flat_coll = sandwich_stats("flat-subspace", 3)
    tg_adm, tg_good, _tg_coll = sandwich_stats("totally-geodesic", 4)
    ok = (flat_adm > 0 and tg_adm > 0
          and flat_good >= 0.95 * flat_adm and tg_good >= 0.95 * tg_adm
          and flat_coll < 1e-9)
    elapsed = report(capsys, 9, ok, t0,
                     f"flat {flat_good}/{flat_adm} sandwiched, collapse "
                     f"{flat_coll:.1e}; geodesic {tg_good}/{tg_adm}")
    assert flat_good >= 0.95 * flat_adm
    assert tg_good >= 0.95 * tg_adm
    assert flat_coll < 1e-9
    assert elapsed < BUDGETS[9]


# ---------------------------------------------------------------------------
# 10. determinism of the verification pipeline


def test_criterion_10(capsys, tmp_path):
    t0 = time.perf_counter()
    outs, dumps = [], []
    for sub in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "extgeo", "verify",
             "--immersion", "flat-subspace", "--resolution", "13",
             "--out", str(tmp_path / sub)],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
        dumps.append((tmp_path / sub / "verify.json").read_bytes())
    ok = outs[0] == outs[1] and dumps[0] == dumps[1]
    elapsed = report(capsys, 10, ok, t0,
                     f"stdout and verify.json byte-identical: {ok}")
    assert outs[0] == outs[1]
    assert dumps[0] == dumps[1]
    assert elapsed < BUDGETS[10]
