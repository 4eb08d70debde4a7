"""Built-in immersions with closed-form ground truth.

Each entry produces a chart over a truncated domain together with a
GroundTruth record: the norm profile of the second fundamental form, the
asymptotic flatness invariants where they have closed forms, the expected
end count, and tags saying where each number comes from ("closed-form" for
textbook formulas, "profile-construction" for values derived from the
generating-curve construction, "external" for standard facts not derived
here).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import DomainError
from .exprchart import ChartBase, parse_chart
from .immersion import BLOCK_BYTES, FRAME, point_bytes
from .jets import Jet2

__all__ = ["GroundTruth", "CatalogEntry", "CATALOG", "catalog_build",
           "catalog_names", "RotationChart"]

TWO_PI = 2.0 * math.pi

# profile table accuracy targets for the rotation hypersurface
PROFILE_RESIDUAL_TOL = 1e-8
PROFILE_NODES = 4097        # odd: the middle node is the waist s = 0
PROFILE_SAMPLES = 2001      # s values on which the residuals are measured


@dataclass
class GroundTruth:
    """Closed-form facts attached to a catalog entry.

    ``alpha_norm_sq`` maps chart points (..., m) to the squared norm of the
    second fundamental form; ``principal_curvatures`` (hypersurfaces of
    revolution only) maps profile parameter values to (lambda, mu).
    Scalar fields are None when the entry makes no claim.
    """

    alpha_norm_sq: object = None
    principal_curvatures: object = None
    a_value: float = None
    b_value: float = None
    ends: int = None
    expected_class: str = None
    curvature_const: float = None
    compact: bool = False
    gap_hypothesis_ok: bool = None
    provenance: dict = field(default_factory=dict)
    notes: str = ""


@dataclass
class CatalogEntry:
    name: str
    summary: str
    defaults: dict
    builder: object
    validity: str = ""

    def build(self, **params):
        merged = dict(self.defaults)
        for key, val in params.items():
            if key not in self.defaults:
                raise DomainError(
                    f"'{self.name}' has no parameter '{key}' "
                    f"(accepts {sorted(self.defaults)})")
            if not _like(val, self.defaults[key]):
                kind = "an integer" if isinstance(self.defaults[key], int) else "a number"
                raise DomainError(f"'{self.name}' parameter '{key}' must be "
                                  f"{kind}, got {val!r}")
            merged[key] = val
        return self.builder(**merged)


def _like(val, default) -> bool:
    """A number, and integral where the default is an int, else finite as
    a float; never a bool."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        return False
    if isinstance(default, int):
        return isinstance(val, numbers.Integral) or float(val).is_integer()
    try:
        return math.isfinite(val)
    except OverflowError:       # an integer beyond the float range
        return False


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_radius(name, radius):
    """Refuse a radius whose 1 / radius^2, the ground truth's bending and
    curvature scale, is not a finite float."""
    square = radius * radius
    if not (square > 0.0 and math.isfinite(1.0 / square)):
        raise DomainError(f"{name} radius {radius:g} has no finite "
                          "1 / radius^2")


def _check_size(name, m, n):
    """Refuse dimensions whose one geometry point, with n + 1 coordinates
    at most, outgrows a geometry block; the chart text would take n lines
    before any mesh check runs."""
    if point_bytes(FRAME, m, n + 1) > BLOCK_BYTES:
        raise DomainError(
            f"{name} with m={m}, n={n} needs more than one geometry block "
            f"of {BLOCK_BYTES // 2**20} MiB for a single point")


# ---------------------------------------------------------------------------
# expression-language entries

def _build_flat(m, n, truncation):
    m = int(m)
    n = int(n)
    if not 1 <= m <= n:
        raise DomainError(f"flat-subspace needs 1 <= m <= n, got m={m}, n={n}")
    if truncation <= 0:
        raise DomainError("flat-subspace needs truncation > 0")
    _check_size("flat-subspace", m, n)
    lines = [f"m = {m}", f"n = {n}", "ambient = euclidean",
             f"const T = {_fmt(truncation)}"]
    for k in range(1, n + 1):
        lines.append(f"x{k} = u{k}" if k <= m else f"x{k} = 0")
    lines.append("domain " + ", ".join(f"u{i} in [-T, T]" for i in range(1, m + 1)))
    chart = parse_chart(";\n".join(lines), name=f"flat-subspace(m={m},n={n})")
    gt = GroundTruth(
        alpha_norm_sq=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
        a_value=0.0, b_value=0.0, ends=1,
        expected_class="extrinsically-asymptotically-flat",
        curvature_const=0.0, gap_hypothesis_ok=True,
        provenance={"alpha_norm_sq": "closed-form", "a_value": "closed-form",
                    "b_value": "closed-form", "ends": "closed-form"},
        notes="totally geodesic subspace; every invariant vanishes")
    return chart, gt


def _build_sphere(m, n, radius):
    m = int(m)
    n = int(n)
    if m not in (1, 2):
        raise DomainError(f"sphere supports m in (1, 2), got m={m}")
    if n < m + 1:
        raise DomainError(f"sphere needs n >= m+1, got m={m}, n={n}")
    if radius <= 0:
        raise DomainError("sphere needs radius > 0")
    _check_radius("sphere", radius)
    _check_size("sphere", m, n)
    lines = [f"m = {m}", f"n = {n}", "ambient = euclidean",
             f"const R = {_fmt(radius)}",
             f"const TWO_PI = {_fmt(TWO_PI)}"]
    if m == 1:
        lines += ["x1 = R * cos(u1)", "x2 = R * sin(u1)"]
        used = 2
        lines_domain = "domain u1 in [0, TWO_PI] periodic"
        basept = "basepoint 0"
    else:
        lines += [f"const MARGIN = {_fmt(0.2)}",
                  f"const PI = {_fmt(math.pi)}",
                  "x1 = R * sin(u1) * cos(u2)",
                  "x2 = R * sin(u1) * sin(u2)",
                  "x3 = R * cos(u1)"]
        used = 3
        lines_domain = ("domain u1 in [MARGIN, PI - MARGIN], "
                        "u2 in [0, TWO_PI] periodic")
        basept = f"basepoint {_fmt(math.pi / 2.0)}, 0"
    for k in range(used + 1, n + 1):
        lines.append(f"x{k} = 0")
    lines += [lines_domain, basept]
    chart = parse_chart(";\n".join(lines), name=f"sphere(m={m},n={n},R={radius:g})")
    if m == 2:
        # polar margins trim a coordinate singularity, not infinity
        chart.truncation_axes = (False, False)
    msq = float(m) / (radius * radius)
    gt = GroundTruth(
        alpha_norm_sq=lambda pts, v=msq: np.full(np.asarray(pts).shape[:-1], v),
        ends=None, compact=True,
        curvature_const=1.0 / (radius * radius) if m >= 2 else None,
        gap_hypothesis_ok=False,
        provenance={"alpha_norm_sq": "closed-form",
                    "curvature_const": "closed-form"},
        notes="round sphere, umbilic with curvature 1/R per direction; "
              "compact, so end counts and tail invariants are not claimed; "
              "positive curvature breaks the comparison hypothesis "
              "(polar caps excluded by the domain margin when m = 2)")
    return chart, gt


def _build_cylinder(radius, truncation):
    if radius <= 0:
        raise DomainError("cylinder needs radius > 0")
    if truncation <= 0:
        raise DomainError("cylinder needs truncation > 0")
    _check_radius("cylinder", radius)
    src = ";\n".join([
        "m = 2", "n = 3", "ambient = euclidean",
        f"const R = {_fmt(radius)}",
        f"const T = {_fmt(truncation)}",
        f"const TWO_PI = {_fmt(TWO_PI)}",
        "x1 = R * cos(u2)",
        "x2 = R * sin(u2)",
        "x3 = u1",
        "domain u1 in [-T, T], u2 in [0, TWO_PI] periodic",
        "basepoint 0, 0",
    ])
    chart = parse_chart(src, name=f"cylinder(R={radius:g})")
    inv = 1.0 / (radius * radius)
    gt = GroundTruth(
        alpha_norm_sq=lambda pts, v=inv: np.full(np.asarray(pts).shape[:-1], v),
        a_value=math.inf, b_value=math.inf, ends=2,
        expected_class="not-tamed",
        curvature_const=0.0, gap_hypothesis_ok=True,
        provenance={"alpha_norm_sq": "closed-form", "a_value": "closed-form",
                    "b_value": "closed-form", "ends": "closed-form"},
        notes="flat product surface; the bending norm never decays, so the "
              "distance-weighted tail suprema diverge")
    return chart, gt


def _build_catenoid(truncation):
    if truncation <= 0:
        raise DomainError("catenoid needs truncation > 0")
    src = ";\n".join([
        "m = 2", "n = 3", "ambient = euclidean",
        f"const T = {_fmt(truncation)}",
        f"const TWO_PI = {_fmt(TWO_PI)}",
        "x1 = cosh(u1) * cos(u2)",
        "x2 = cosh(u1) * sin(u2)",
        "x3 = u1",
        "domain u1 in [-T, T], u2 in [0, TWO_PI] periodic",
        "basepoint 0, 0",
    ])
    chart = parse_chart(src, name="catenoid")

    def alpha_sq(pts):
        u1 = np.asarray(pts, dtype=float)[..., 0]
        return 2.0 / np.cosh(u1) ** 4

    gt = GroundTruth(
        alpha_norm_sq=alpha_sq,
        a_value=0.0, b_value=0.0, ends=2,
        expected_class="extrinsically-asymptotically-flat",
        curvature_const=None, gap_hypothesis_ok=True,
        provenance={"alpha_norm_sq": "closed-form", "a_value": "closed-form",
                    "b_value": "closed-form", "ends": "closed-form"},
        notes="minimal surface of revolution with two planar ends; bending "
              "decays like 1/cosh^2 so even the product-weighted tail tends "
              "to zero; intrinsic curvature -1/cosh^4 stays below zero")
    return chart, gt


def _build_totally_geodesic(m, n, kappa, truncation):
    m = int(m)
    n = int(n)
    if not 1 <= m <= n:
        raise DomainError(f"totally-geodesic needs 1 <= m <= n, got m={m}, n={n}")
    if kappa >= 0:
        raise DomainError("totally-geodesic needs kappa < 0")
    if truncation <= 0:
        raise DomainError("totally-geodesic needs truncation > 0 "
                          "(geodesic radius of the chart)")
    _check_size("totally-geodesic", m, n)
    sk = math.sqrt(-kappa)
    try:
        half_width = math.sinh(sk * truncation) / sk
    except OverflowError:
        half_width = math.inf
    kinv = 1.0 / (-kappa)
    if not math.isfinite(half_width + kinv):
        raise DomainError(
            f"totally-geodesic overflows at kappa={kappa:g}, "
            f"truncation={truncation:g}: the chart's half-width "
            "sinh(sqrt(-kappa) truncation) / sqrt(-kappa) or 1 / -kappa "
            "is not finite")
    lines = [f"m = {m}", f"n = {n}", f"ambient = hyperbolic({_fmt(kappa)})",
             f"const T = {_fmt(half_width)}",
             f"const KINV = {_fmt(kinv)}"]
    for k in range(1, n + 1):
        lines.append(f"x{k} = u{k}" if k <= m else f"x{k} = 0")
    radial = " + ".join(f"u{i}^2" for i in range(1, m + 1))
    lines.append(f"x{n + 1} = sqrt(KINV + {radial})")
    lines.append("domain " + ", ".join(f"u{i} in [-T, T]" for i in range(1, m + 1)))
    lines.append("basepoint " + ", ".join("0" for _ in range(m)))
    chart = parse_chart(";\n".join(lines),
                        name=f"totally-geodesic(m={m},n={n},kappa={kappa:g})")
    gt = GroundTruth(
        alpha_norm_sq=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
        a_value=0.0, b_value=0.0, ends=1,
        # jet round-off leaves the sampled b tail tiny but positive, so the
        # classifier reports the stronger certificate here
        expected_class="strongly-tamed",
        curvature_const=kappa, gap_hypothesis_ok=True,
        provenance={"alpha_norm_sq": "closed-form", "a_value": "closed-form",
                    "b_value": "closed-form", "ends": "closed-form"},
        notes="hyperbolic subspace as a graph over horizontal coordinates; "
              "all invariants vanish and the induced curvature equals the "
              "ambient constant")
    return chart, gt


# ---------------------------------------------------------------------------
# rotation hypersurface in hyperbolic space

class RotationChart(ChartBase):
    """Rotation hypersurface of dimension ``n`` in hyperbolic (n+1)-space,
    generated by the profile with squared radius a*cosh(2s) - 1/2.

    The generating curve lives on the hyperboloid sheet and is recovered
    from its radius function by integrating the unit-speed condition: with
    radius x1(s) and lift w(s) = sqrt(1 + x1^2), the remaining two profile
    coordinates are w*sinh(theta) and w*cosh(theta) where

        theta'(s) = sqrt(a^2 - 1/4) / (x1 * (a*cosh(2s) + 1/2)).

    That substitution keeps the hyperboloid constraint exact by
    construction; theta itself is accumulated by classical fourth-order
    steps over a dense table and interpolated cubically (values from the
    table, first and second derivatives from the closed form above).
    """

    def __init__(self, n, a, s_max=6.0, margin=0.2):
        n = int(n)
        if n not in (2, 3):
            raise DomainError(f"rotation-hypersurface supports n in (2, 3), got n={n}")
        if not a > 0.5:
            raise DomainError(
                f"rotation-hypersurface needs a > 1/2, got a={a:g}")
        if s_max <= 0:
            raise DomainError("rotation-hypersurface needs s_max > 0")
        self.dim = n
        self.a = float(a)
        self.s_max = float(s_max)
        self.m = n
        self.n = n + 1            # ambient hyperbolic dimension
        self.kappa = -1.0
        self.name = f"rotation-hypersurface(n={n},a={a:g})"
        if n == 2:
            self.domain = [(0.0, TWO_PI), (-self.s_max, self.s_max)]
            self.periodic = [True, False]
            self.basepoint = np.array([0.0, 0.0])
        else:
            self.domain = [(margin, math.pi - margin), (0.0, TWO_PI),
                           (-self.s_max, self.s_max)]
            self.periodic = [False, True, False]
            self.basepoint = np.array([math.pi / 2.0, 0.0, 0.0])
            # the polar margin trims the sphere-factor singularity; only
            # the profile axis runs toward infinity
            self.truncation_axes = (False, False, True)
        self._build_profile()

    # profile scalars, all closed-form in s
    def radius_sq(self, s):
        return self.a * np.cosh(2.0 * np.asarray(s, dtype=float)) - 0.5

    def theta_dot(self, s):
        s = np.asarray(s, dtype=float)
        x1sq = self.a * np.cosh(2.0 * s) - 0.5
        wsq = x1sq + 1.0
        return math.sqrt(self.a * self.a - 0.25) / (np.sqrt(x1sq) * wsq)

    def theta_ddot(self, s):
        s = np.asarray(s, dtype=float)
        q = math.sqrt(self.a * self.a - 0.25)
        x1sq = self.a * np.cosh(2.0 * s) - 0.5
        wsq = x1sq + 1.0
        num = -q * self.a * np.sinh(2.0 * s) * (wsq + 2.0 * x1sq)
        return num / (x1sq ** 1.5 * wsq * wsq)

    def lam(self, s):
        """Principal curvature along the rotated sphere directions."""
        return -math.sqrt(self.a * self.a - 0.25) / self.radius_sq(s)

    def mu(self, s):
        """Principal curvature along the profile direction."""
        return math.sqrt(self.a * self.a - 0.25) / self.radius_sq(s)

    def _build_profile(self):
        pad = self.s_max + 0.5
        grid = np.linspace(-pad, pad, PROFILE_NODES)
        h = grid[1] - grid[0]
        # one classical 4th-order step per interval; the integrand depends
        # on s alone, so the step reduces to a three-point quadrature
        f_lo = self.theta_dot(grid[:-1])
        f_mid = self.theta_dot(grid[:-1] + 0.5 * h)
        f_hi = self.theta_dot(grid[1:])
        inc = (h / 6.0) * (f_lo + 4.0 * f_mid + f_hi)
        theta = np.concatenate([[0.0], np.cumsum(inc)])
        theta -= theta[PROFILE_NODES // 2]  # anchor theta(0) = 0 at the waist
        self._nodes = grid
        self._theta = theta
        self._slope = self.theta_dot(grid)
        self._h = float(h)

    def theta_value(self, s):
        """Cubic Hermite read of the accumulated turning angle."""
        s = np.asarray(s, dtype=float)
        k = np.clip(((s - self._nodes[0]) // self._h).astype(int),
                    0, len(self._nodes) - 2)
        t = (s - self._nodes[k]) / self._h
        t2 = t * t
        t3 = t2 * t
        y0 = self._theta[k]
        y1 = self._theta[k + 1]
        d0 = self._slope[k] * self._h
        d1 = self._slope[k + 1] * self._h
        return (y0 * (2.0 * t3 - 3.0 * t2 + 1.0) + d0 * (t3 - 2.0 * t2 + t)
                + y1 * (3.0 * t2 - 2.0 * t3) + d1 * (t3 - t2))

    def _scalar_jets(self, s: Jet2):
        ca = jets.cosh(s * 2.0) * self.a
        x1, w = jets.sqrt(ca - 0.5), jets.sqrt(ca + 0.5)
        ddot = None if s.order == 1 else self.theta_ddot(s.value)
        th = jets.compose_scalar(s, self.theta_value(s.value),
                                 self.theta_dot(s.value), ddot, op="theta")
        return x1, w * jets.sinh(th), w * jets.cosh(th)

    def eval_jets(self, us):
        s = us[-1]
        x1, y, z = self._scalar_jets(s)
        if self.dim == 2:
            t1 = us[0]
            return [x1 * jets.cos(t1), x1 * jets.sin(t1), y, z]
        t1, t2 = us[0], us[1]
        x1s = x1 * jets.sin(t1)
        return [x1s * jets.cos(t2), x1s * jets.sin(t2), x1 * jets.cos(t1),
                y, z]

    def profile_residuals(self):
        """Worst constraint violations of the generating curve, measured
        numerically on ``PROFILE_SAMPLES`` evenly spaced values of s."""
        s = np.linspace(-self.s_max, self.s_max, PROFILE_SAMPLES)
        x1 = np.sqrt(self.radius_sq(s))
        w = np.sqrt(self.radius_sq(s) + 1.0)
        th = self.theta_value(s)
        y = w * np.sinh(th)
        z = w * np.cosh(th)
        sheet = np.max(np.abs(x1 * x1 + y * y - z * z + 1.0))

        sj = jets.seed_point(s[:, None])[0]
        x1j, yj, zj = self._scalar_jets(sj)
        speed = (x1j.grad[..., 0] ** 2 + yj.grad[..., 0] ** 2
                 - zj.grad[..., 0] ** 2)
        unit = np.max(np.abs(speed - 1.0))
        return {"hyperboloid": float(sheet), "unit_speed": float(unit)}


def _build_rotation(n, a, truncation, margin):
    chart = RotationChart(n, a, s_max=truncation, margin=margin)
    q_sq = a * a - 0.25
    nn = int(n)

    def alpha_sq(pts):
        s = np.asarray(pts, dtype=float)[..., -1]
        x = a * np.cosh(2.0 * s) - 0.5
        return nn * q_sq / (x * x)

    def principal(s):
        return chart.lam(s), chart.mu(s)

    b_meridian = math.sqrt(nn * q_sq) / (2.0 * a)
    gt = GroundTruth(
        alpha_norm_sq=alpha_sq,
        principal_curvatures=principal,
        a_value=0.0,
        b_value=b_meridian,
        ends=2,
        expected_class="strongly-tamed",
        gap_hypothesis_ok=None,
        provenance={"alpha_norm_sq": "profile-construction",
                    "principal_curvatures": "profile-construction",
                    "b_value": "profile-construction",
                    "ends": "profile-construction"},
        notes="two-ended funnel; b_value is the limit of the weighted "
              "bending norm along a generating curve, where the intrinsic "
              "and profile distances agree; suprema over whole parallels "
              "sit above it by a bounded factor coming from the angular "
              "offset in the intrinsic distance: they sit on the antipodal "
              "meridian, and the supremum over a whole parallel tends to "
              "b_value * e^(2 Delta*), where Delta* is the limit of "
              "rho - s there, exact from Clairaut's relation (1.816099 for "
              "a = 1, 3.369946 for a = 2)")
    return chart, gt


# ---------------------------------------------------------------------------
# registry

CATALOG = {
    "flat-subspace": CatalogEntry(
        name="flat-subspace",
        summary="affine m-plane in Euclidean n-space",
        defaults={"m": 2, "n": 3, "truncation": 2.0},
        builder=_build_flat,
        validity="1 <= m <= n, truncation > 0"),
    "sphere": CatalogEntry(
        name="sphere",
        summary="round m-sphere of radius R in Euclidean n-space",
        defaults={"m": 2, "n": 3, "radius": 1.0},
        builder=_build_sphere,
        validity="m in (1, 2), n >= m+1, radius > 0"),
    "cylinder": CatalogEntry(
        name="cylinder",
        summary="right circular cylinder in Euclidean 3-space",
        defaults={"radius": 1.0, "truncation": 6.0},
        builder=_build_cylinder,
        validity="radius > 0, truncation > 0"),
    "catenoid": CatalogEntry(
        name="catenoid",
        summary="minimal surface of revolution in Euclidean 3-space",
        defaults={"truncation": 6.0},
        builder=_build_catenoid,
        validity="truncation > 0"),
    "totally-geodesic": CatalogEntry(
        name="totally-geodesic",
        summary="hyperbolic m-subspace of hyperbolic n-space",
        defaults={"m": 2, "n": 3, "kappa": -1.0, "truncation": 2.0},
        builder=_build_totally_geodesic,
        validity="1 <= m <= n, kappa < 0, truncation > 0 (geodesic radius)"),
    "rotation-hypersurface": CatalogEntry(
        name="rotation-hypersurface",
        summary="rotation hypersurface in hyperbolic (n+1)-space with "
                "bounded weighted bending",
        defaults={"n": 2, "a": 1.0, "truncation": 6.0, "margin": 0.2},
        builder=_build_rotation,
        validity="n in (2, 3), a > 1/2, truncation > 0"),
}


def catalog_names():
    return list(CATALOG)


def catalog_build(name, **params):
    """Build a catalog chart with its ground truth record."""
    try:
        entry = CATALOG[name]
    except KeyError:
        raise DomainError(
            f"unknown catalog entry '{name}' (have {', '.join(CATALOG)})")
    return entry.build(**params)
