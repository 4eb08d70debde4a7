"""Volume growth along the radial exhaustion, compared against space forms.

Ball volumes are weighted counts over the refined lattice: the volume of
{r < t} is the sum of ``MeshGraph.refined_weight`` over the nodes with
r < t, which gives each cell its center density times its parameter
measure, scaled by the fraction of its 3^m sub-lattice inside the ball.
One sort of the radii and one ``searchsorted`` of the node values give
every radius at once.  Sphere volumes are central differences of the ball
curve with a step of two cells in radial units (``MeshGraph.fd_step``),
which keeps the estimate consistent with the coarea relation without
assuming smoothness of the discretized boundary.  ``volume_curve`` is the
one entry point for both; the growth verdict takes its curve and an end
count from ``mesh.ends_stability`` as inputs.  The curvature screen
makes one ``FRAME`` geometry request, the level that keeps alpha.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import (DegeneratePlaneError, DomainError, GeometryError,
                     HypothesisViolatedError, TruncationError)
from .immersion import (FRAME, grid_geometry, sectional_curvature,
                        uniform_draws)
from .invariants import InvariantReport
from .mesh import RADIUS_CAP_FRACTION, MeshGraph
from .spaceform import model_volumes

__all__ = ["VolumeCurve", "GapReport", "GrowthVerdict", "volume_curve",
           "default_volume_radii", "verify_growth_bounds", "gap_ratio"]

# relative slack when comparing a finite-mesh ratio against a sharp bound
GROWTH_SLACK = 0.05
# tolerance when screening the ambient-curvature hypothesis K <= kappa
CURVATURE_TOL = 1e-6


def _radius_cap(mesh: MeshGraph) -> float:
    return RADIUS_CAP_FRACTION * mesh.r_reliable


def _ball_values(mesh: MeshGraph, radii) -> np.ndarray:
    """Volume of {r < t} for every t in ``radii``, in one pass: bin the
    refined nodes between the sorted radii, then accumulate the weights."""
    radii = np.asarray(radii, dtype=float)
    order = np.argsort(radii, kind="stable")
    bins = np.searchsorted(radii[order], mesh.refined_r.reshape(-1),
                           side="right")
    mass = np.bincount(bins, weights=mesh.refined_weight.reshape(-1),
                       minlength=radii.size + 1)
    out = np.empty(radii.size)
    out[order] = np.cumsum(mass[:-1])
    return out


@dataclass
class VolumeCurve:
    """Ball and sphere volumes with their space-form ratios."""

    radii: np.ndarray
    ball: np.ndarray
    sphere: np.ndarray
    ball_ratio: np.ndarray
    sphere_ratio: np.ndarray
    kappa: float
    m: int
    fd_step: float

    def __post_init__(self):
        flat = np.flatnonzero(np.diff(self.ball) <= 0.0)
        if flat.size:
            lo, hi = self.radii[flat[0]:flat[0] + 2]
            raise GeometryError(
                f"ball volume failed to increase strictly along the radii, "
                f"first from {lo:g} to {hi:g} at fd_step {self.fd_step:g}: "
                f"the mesh does not resolve the ball curve there")

    def coarea_max_dev(self) -> float:
        """Worst relative mismatch between the differentiated ball curve
        and the sphere values, over interior radii.  A zero sphere value
        beside a nonzero difference counts as inf; 0/0 is left out."""
        with np.errstate(divide="ignore", invalid="ignore"):
            fd = ((self.ball[2:] - self.ball[:-2])
                  / (self.radii[2:] - self.radii[:-2]))
            sphere = self.sphere[1:-1]
            dev = np.abs(fd - sphere) / np.abs(sphere)
        return float(np.fmax.reduce(dev, initial=0.0))

    def summary(self) -> dict:
        return {
            "radii": [float(x) for x in self.radii],
            "ball": [float(x) for x in self.ball],
            "sphere": [float(x) for x in self.sphere],
            "ball_ratio": [float(x) for x in self.ball_ratio],
            "sphere_ratio": [float(x) for x in self.sphere_ratio],
            "fd_step": float(self.fd_step),
        }


def default_volume_radii(mesh: MeshGraph, n: int = 16) -> np.ndarray:
    """Radii spanning the reliable window with room for the sphere step."""
    cap = _radius_cap(mesh)
    dr = mesh.fd_step
    hi = cap - 1.5 * dr
    lo = max(hi / 4.0, 2.0 * dr)
    if not lo < hi:
        raise DomainError(
            f"mesh too coarse for a volume radius window: it would run from "
            f"{lo:g} to {hi:g} at fd_step {dr:g}")
    return np.linspace(lo, hi, n)


def volume_curve(mesh: MeshGraph, radii=None) -> VolumeCurve:
    """Ball and sphere volumes at ``radii`` (by default
    ``default_volume_radii``) against the space-form models.  The radii
    must increase strictly and keep the sphere step inside the reliable
    window."""
    if radii is None:
        radii = default_volume_radii(mesh)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise DomainError("volume curve needs at least two radii")
    if np.any(np.diff(radii) <= 0.0):
        raise DomainError("volume radii must be strictly increasing")
    dr = mesh.fd_step
    if not radii[0] - dr > 0.0:
        raise DomainError(
            f"first radius {radii[0]:g} is too small for the step {dr:g}")
    cap = _radius_cap(mesh)
    if radii[-1] + dr >= cap:
        raise TruncationError(
            f"last radius {radii[-1]:g} plus step {dr:g} leaves the "
            f"reliable window (below {cap:g})")

    ball, lo, hi = _ball_values(
        mesh, np.concatenate([radii, radii - dr, radii + dr])).reshape(3, -1)
    sphere = (hi - lo) / (2.0 * dr)

    m = mesh.m
    kappa = mesh.vertices.kappa
    model_ball = np.empty_like(ball)
    model_sphere = np.empty_like(ball)
    for i, t in enumerate(radii):
        model_ball[i], model_sphere[i] = model_volumes(kappa, m, float(t))
    return VolumeCurve(
        radii=radii, ball=ball, sphere=sphere,
        ball_ratio=ball / model_ball, sphere_ratio=sphere / model_sphere,
        kappa=kappa, m=m, fd_step=dr)


# ---------------------------------------------------------------------------
# growth bound verification

@dataclass
class GrowthVerdict:
    verdict: str          # satisfied | violated | inconclusive
    reason: str
    rows: list
    exploratory: bool
    ends: int
    a_estimate: float

    def summary(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "rows": list(self.rows),
            "exploratory": self.exploratory,
            "ends": self.ends,
            "a_estimate": self.a_estimate,
        }


def verify_growth_bounds(mesh: MeshGraph, report: InvariantReport, ends: int,
                         curve: VolumeCurve) -> GrowthVerdict:
    """Check the asymptotic volume growth bounds against mesh data: the
    end count ``ends`` (from ``mesh.ends_stability``) and the ``curve``
    of ``volume_curve``, both computed by the caller.

    The left side of each bound is a liminf, estimated here by the minimum
    of the ratio curve over its final quarter.  The right side combines the
    end count with the bending estimate: flat ambients take the end count
    inflated by powers of (1 - 4a^2) and (1 - a^2), negatively curved ones
    compare both ratios directly against the end count.  Hypothesis
    failures, and a final-quarter minimum that is not positive and finite
    (it would satisfy any bound vacuously), return an inconclusive verdict
    with the reason spelled out.
    """
    kappa = mesh.vertices.kappa
    m = mesh.m
    exploratory = m < 3
    if exploratory:
        warnings.warn(
            f"growth bounds are stated for dimension >= 3; m={m} runs in "
            "exploratory mode", RuntimeWarning, stacklevel=2)

    a = report.a_estimate
    ends = int(ends)

    def inconclusive(reason):
        return GrowthVerdict(verdict="inconclusive", reason=reason, rows=[],
                             exploratory=exploratory, ends=ends,
                             a_estimate=float(a))

    if kappa == 0.0 and not (report.flags["tamed"] and a < 0.5):
        return inconclusive("hypothesis a(M) < 1/2 fails")
    if kappa != 0.0 and not report.flags["strongly_tamed"]:
        return inconclusive("hypothesis b(M) < infinity fails")

    if kappa == 0.0:
        factor = (1.0 - 4.0 * a * a) ** ((m - 1) / 2.0)
        rhs_sphere = ends / factor
        rhs_ball = rhs_sphere / math.sqrt(1.0 - a * a)
    else:
        rhs_sphere = float(ends)
        rhs_ball = float(ends)

    liminf = {name: Curve(curve.radii, getattr(curve, name)).tail_min()
              for name in ("sphere_ratio", "ball_ratio")}
    # a liminf of 0 (or a non-finite one) would meet any bound vacuously
    bad = [f"{name} {v!r}" for name, v in liminf.items() if not 0.0 < v < math.inf]
    if bad:
        return inconclusive("final-quarter minimum not positive and finite: "
                            + ", ".join(bad))

    rows = []
    for name, rhs in (("sphere_ratio", rhs_sphere), ("ball_ratio", rhs_ball)):
        lhs = liminf[name]
        ok = lhs <= rhs * (1.0 + GROWTH_SLACK)
        rows.append({"quantity": name, "lhs": lhs, "rhs": rhs,
                     "margin": rhs - lhs, "satisfied": bool(ok)})
    verdict = "satisfied" if all(row["satisfied"] for row in rows) else "violated"
    return GrowthVerdict(verdict=verdict, reason="", rows=rows,
                         exploratory=exploratory, ends=ends,
                         a_estimate=float(a))


# ---------------------------------------------------------------------------
# volume gap against the model

@dataclass
class GapReport:
    curve: Curve
    min_ratio: float
    checked_points: int

    def summary(self) -> dict:
        return {
            "radii": [float(x) for x in self.curve.x],
            "ratios": [float(y) for y in self.curve.y],
            "min_ratio": self.min_ratio,
            "checked_points": self.checked_points,
        }


def _screen_curvature_hypothesis(mesh: MeshGraph, samples: int,
                                 seed: int) -> int:
    """Sample sectional curvatures of every coordinate plane and insist
    they stay at or below the ambient constant; offenders abort with a
    structured error."""
    m = mesh.m
    chart = mesh.chart
    kappa = mesh.vertices.kappa
    lows, highs = np.array(chart.domain).T
    pts = lows + (highs - lows) * uniform_draws(random.Random(seed), 0.05,
                                                0.95, (samples, m))

    # batch (samples, 1) against the planes (pairs, m): one row per point
    geom = grid_geometry(chart, pts[:, None, :], level=FRAME, amb=mesh.amb)
    first, second = np.triu_indices(m, k=1)
    basis = np.eye(m)
    sec, degenerate = sectional_curvature(geom, basis[first], basis[second])
    if np.any(degenerate):
        raise DegeneratePlaneError("tangent vectors do not span a plane")
    checked = sec.size
    # point-major, then plane, as the samples were drawn
    hits = np.argwhere(sec > kappa + CURVATURE_TOL)
    if len(hits):
        offenders = [{
            "point": pts[k].tolist(),
            "plane": [int(first[p]) + 1, int(second[p]) + 1],
            "curvature": float(sec[k, p]),
        } for k, p in hits[:10]]
        raise HypothesisViolatedError(
            f"intrinsic curvature exceeds the ambient constant {kappa:g} at "
            f"{len(hits)} of {checked} sampled planes", offenders=offenders)
    return checked


def gap_ratio(mesh: MeshGraph, radii=None, samples: int = 48,
              seed: int = 0) -> GapReport:
    """Ratio of mesh ball volumes to model ball volumes.

    Under the comparison hypothesis (curvature at most the ambient
    constant, screened here by sampling when m >= 2) the ratio is at least
    one, with equality exactly in the model case.
    """
    checked = 0
    if mesh.m >= 2 and samples > 0:
        checked = _screen_curvature_hypothesis(mesh, samples, seed)
    if radii is None:
        radii = default_volume_radii(mesh, 12)
    radii = np.asarray(radii, dtype=float)
    ball = _ball_values(mesh, radii)
    ratios = np.empty_like(ball)
    kappa = mesh.vertices.kappa
    for i, t in enumerate(radii):
        model_ball, _ = model_volumes(kappa, mesh.m, float(t))
        ratios[i] = ball[i] / model_ball
    curve = Curve(radii, ratios)
    return GapReport(curve=curve, min_ratio=float(np.min(ratios)),
                     checked_points=checked)
