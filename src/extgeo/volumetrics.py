"""Volume growth along the radial exhaustion, compared against space forms.

Ball volumes are weighted counts over the refined lattice: the volume of
{r < t} is the sum of ``MeshGraph.refined_weight`` over the nodes with
r < t, which gives each cell its center density times its parameter
measure, scaled by the fraction of its 3^m sub-lattice inside the ball.
One sort of the radii and one ``searchsorted`` of the node values give
every radius at once.  Sphere volumes are central differences of the ball
curve with a step of two cells in radial units (``MeshGraph.fd_step``),
which keeps the estimate consistent with the coarea relation without
assuming smoothness of the discretized boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import (DomainError, GeometryError, HypothesisViolatedError,
                     TruncationError)
from .immersion import point_geometry, sectional_curvature
from .invariants import InvariantReport
from .mesh import RADIUS_CAP_FRACTION, MeshGraph, ends_stability
from .spaceform import model_volumes

__all__ = ["VolumeCurve", "GapReport", "GrowthVerdict", "ball_volume",
           "sphere_volume", "volume_curve", "default_volume_radii",
           "verify_growth_bounds", "gap_ratio"]

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


def ball_volume(mesh: MeshGraph, t: float) -> float:
    """Volume of the extrinsic ball {r < t} on the mesh."""
    if not t > 0.0:
        raise DomainError(f"ball radius must be positive, got {t:g}")
    cap = _radius_cap(mesh)
    if t >= cap:
        raise TruncationError(
            f"ball radius {t:g} is outside the reliable window "
            f"(below {cap:g}); the region would be cut by the parameter box")
    return float(_ball_values(mesh, [t])[0])


def sphere_volume(mesh: MeshGraph, t: float) -> float:
    """Boundary volume of the extrinsic ball, as a central difference of
    the ball curve over two grid cells of radius."""
    dr = mesh.fd_step
    if not t - dr > 0.0:
        raise DomainError(
            f"sphere radius {t:g} is too small for the difference step {dr:g}")
    cap = _radius_cap(mesh)
    if t + dr >= cap:
        raise TruncationError(
            f"sphere radius {t:g} plus step {dr:g} leaves the reliable "
            f"window (below {cap:g})")
    lo, hi = _ball_values(mesh, [t - dr, t + dr])
    return float((hi - lo) / (2.0 * dr))


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
        if np.any(np.diff(self.ball) <= 0.0):
            raise GeometryError(
                "ball volume failed to increase strictly along the radii; "
                "the radius list is finer than the mesh can resolve")

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
        raise DomainError("mesh too coarse for a volume radius window")
    return np.linspace(lo, hi, n)


def volume_curve(mesh: MeshGraph, radii=None) -> VolumeCurve:
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


def verify_growth_bounds(mesh: MeshGraph, report: InvariantReport,
                         ends: int = None,
                         curve: VolumeCurve = None) -> GrowthVerdict:
    """Check the asymptotic volume growth bounds against mesh data.

    The left side of each bound is a liminf, estimated here by the minimum
    of the ratio curve over its final quarter.  The right side combines the
    end count with the bending estimate: flat ambients take the end count
    inflated by powers of (1 - 4a^2) and (1 - a^2), negatively curved ones
    compare both ratios directly against the end count.  Hypothesis
    failures return an inconclusive verdict with the reason spelled out.
    """
    kappa = mesh.vertices.kappa
    m = mesh.m
    exploratory = m < 3
    if exploratory:
        warnings.warn(
            f"growth bounds are stated for dimension >= 3; m={m} runs in "
            "exploratory mode", RuntimeWarning, stacklevel=2)

    a = report.a_estimate
    if kappa == 0.0:
        if not (report.flags["tamed"] and a < 0.5):
            return GrowthVerdict(
                verdict="inconclusive",
                reason="hypothesis a(M) < 1/2 fails",
                rows=[], exploratory=exploratory,
                ends=-1 if ends is None else int(ends),
                a_estimate=float(a))
    else:
        if not report.flags["strongly_tamed"]:
            return GrowthVerdict(
                verdict="inconclusive",
                reason="hypothesis b(M) < infinity fails",
                rows=[], exploratory=exploratory,
                ends=-1 if ends is None else int(ends),
                a_estimate=float(a))

    if ends is None:
        stab = ends_stability(mesh)
        if not stab["stable"]:
            warnings.warn("end count varies across the probe window; using "
                          "the outermost value", RuntimeWarning, stacklevel=2)
        ends = stab["n_ends"]
    ends = int(ends)
    if curve is None:
        curve = volume_curve(mesh)

    if kappa == 0.0:
        factor = (1.0 - 4.0 * a * a) ** ((m - 1) / 2.0)
        rhs_sphere = ends / factor
        rhs_ball = rhs_sphere / math.sqrt(1.0 - a * a)
    else:
        rhs_sphere = float(ends)
        rhs_ball = float(ends)

    quarter = max(1, int(np.ceil(len(curve.radii) / 4.0)))
    lhs_sphere = float(np.min(curve.sphere_ratio[-quarter:]))
    lhs_ball = float(np.min(curve.ball_ratio[-quarter:]))

    rows = []
    for name, lhs, rhs in (("sphere_ratio", lhs_sphere, rhs_sphere),
                           ("ball_ratio", lhs_ball, rhs_ball)):
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
    """Sample sectional curvatures and insist they stay at or below the
    ambient constant; offenders abort with a structured error."""
    m = mesh.m
    chart = mesh.chart
    kappa = mesh.vertices.kappa
    rng = np.random.default_rng(seed)
    lows = np.array([chart.domain[i][0] for i in range(m)])
    spans = np.array([chart.domain[i][1] - chart.domain[i][0] for i in range(m)])
    pts = lows + spans * rng.uniform(0.05, 0.95, size=(samples, m))

    offenders = []
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    checked = 0
    for k in range(samples):
        geom = point_geometry(chart, pts[k], amb=mesh.amb)
        for i, j in pairs:
            x = np.zeros(m)
            y = np.zeros(m)
            x[i] = 1.0
            y[j] = 1.0
            sec = sectional_curvature(geom, x, y)
            checked += 1
            if sec > kappa + CURVATURE_TOL:
                offenders.append({
                    "point": [float(c) for c in pts[k]],
                    "plane": [i + 1, j + 1],
                    "curvature": float(sec),
                })
    if offenders:
        raise HypothesisViolatedError(
            f"intrinsic curvature exceeds the ambient constant {kappa:g} at "
            f"{len(offenders)} of {checked} sampled planes",
            offenders=offenders[:10])
    return checked


def gap_ratio(mesh: MeshGraph, radii=None, samples: int = 48,
              seed: int = 0) -> GapReport:
    """Ratio of mesh ball volumes to model ball volumes.

    Under the comparison hypothesis (curvature at most the ambient
    constant, screened here by sampling when m >= 2) the ratio is at least
    one, with equality exactly in the model case.
    """
    checked = 0
    if mesh.m >= 2:
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
