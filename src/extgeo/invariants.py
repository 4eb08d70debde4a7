"""Asymptotic bending invariants, decay-integral bounds, and pinching
thresholds.

Two tail quantities drive everything: over the region outside radius t,
the supremum of the bending norm weighted by (S/C)(rho) and by (C*S)(rho),
where rho is the intrinsic distance to the basepoint and S, C are the
comparison functions of the ambient curvature.  The first stays finite on
charts whose bending decays at least like 1/distance; the second is much
stricter and controls volume growth in the negatively curved case.

On a mesh, rho is the upwind eikonal distance ``MeshGraph.rho``, which
converges to the intrinsic distance under refinement.  Graph distances do
not, and (C*S)(rho) ~ e^{2 rho}/4 turns a distance error d into a factor
e^{2d}.

Estimating a limsup from a finite mesh is inherently one-sided, so the
report keeps the last tail value together with the least-squares slope of
the final third and never extrapolates past the truncation radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import DomainError, TruncationError
from .mesh import RADIUS_CAP_FRACTION, MeshGraph
from .spaceform import c_kappa, gauss_legendre, s_kappa

__all__ = ["DecayProfile", "DeltaModel", "PinchingValues", "InvariantReport",
           "kasue_bound", "kasue_closed_form", "pinching_functions",
           "c_star_closed_form", "c_star_bisection",
           "invariant_tails", "default_tail_radii"]

# a_estimate below this counts as asymptotically flat
FLAT_TOL = 0.05
# bounded-tail certificate: relative swing across the final third
OSC_TOL = 0.10
# scale factor of the "flat slope" tolerance
SLOPE_FRACTION = 0.05
C_STAR_TOL = 1e-12          # bracket width that ends the c* bisection
TAIL_RADII = 12             # radii in the default tail window

PROFILE_KINDS = ("inverse-distance", "inverse-s", "inverse-sc")


@dataclass(frozen=True)
class DecayProfile:
    """Decay model for the bending norm: amplitude c times a shape in t.

    Kinds: "inverse-distance" is c/t; "inverse-s" is c/S(t); "inverse-sc"
    is c/(S(t)*C(t)).  For flat ambients all three coincide up to the name.
    """

    kind: str
    c: float

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise DomainError(
                f"unknown decay kind {self.kind!r} (have {PROFILE_KINDS})")
        if self.c < 0.0:
            raise DomainError("decay amplitude must be nonnegative")

    def g(self, kappa: float, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "inverse-distance":
            return self.c / t
        s = s_kappa(kappa, t)
        if self.kind == "inverse-s":
            return self.c / s
        return self.c / (s * c_kappa(kappa, t))


@dataclass(frozen=True)
class DeltaModel:
    """Residual bending level delta(t): either identically zero or the
    one-parameter power decay d0 * (t0 / t)."""

    kind: str = "zero"
    d0: float = 0.0
    t0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "power"):
            raise DomainError(f"unknown delta model {self.kind!r}")
        if self.kind == "power" and (self.d0 < 0.0 or self.t0 <= 0.0):
            raise DomainError("power delta needs d0 >= 0 and t0 > 0")

    def value(self, t) -> float:
        if self.kind == "zero":
            return 0.0
        return self.d0 * (self.t0 / float(t))

    @property
    def label(self) -> str:
        if self.kind == "zero":
            return "zero"
        return f"power(d0={self.d0:g}, t0={self.t0:g})"


def _check_kasue_args(t, kappa, R0):
    if kappa > 0.0:
        raise DomainError("decay bounds need kappa <= 0")
    if R0 < 0.0:
        raise DomainError("R0 must be nonnegative")
    if not t > R0:
        raise DomainError(f"evaluation point t={t:g} must exceed R0={R0:g}")


def kasue_bound(t: float, profile: DecayProfile, kappa: float = -1.0,
                delta: DeltaModel = DeltaModel(), R0: float = 0.0) -> float:
    """Integrated decay bound delta(t) + S(t)^-1 * int_R0^t S(s) G(s) ds."""
    _check_kasue_args(t, kappa, R0)

    def integrand(s):
        return s_kappa(kappa, s) * profile.g(kappa, s)

    val = gauss_legendre(integrand, R0, t)
    return delta.value(t) + val / float(s_kappa(kappa, t))


def kasue_closed_form(t: float, profile: DecayProfile, kappa: float = -1.0,
                      delta: DeltaModel = DeltaModel(), R0: float = 0.0) -> float:
    """Closed forms of the integrated bound for the stock decay shapes."""
    _check_kasue_args(t, kappa, R0)
    c = profile.c
    if profile.kind == "inverse-s" or kappa == 0.0:
        # S(s)*G(s) is constant for inverse-s; for kappa = 0 all shapes
        # reduce to c/s against the weight s
        return delta.value(t) + c * (t - R0) / float(s_kappa(kappa, t))
    if profile.kind == "inverse-sc":
        sk = math.sqrt(-kappa)

        def gd(x):
            return 2.0 * math.atan(math.tanh(0.5 * x))

        integral = (c / sk) * (gd(sk * t) - gd(sk * R0))
        return delta.value(t) + integral / float(s_kappa(kappa, t))
    raise DomainError(
        f"no closed form for kind {profile.kind!r} at kappa={kappa:g}")


# ---------------------------------------------------------------------------
# pinching functions and the amplitude threshold

@dataclass(frozen=True)
class PinchingValues:
    F: float
    lambda0: float
    lambda_full: float
    u_c: float


def pinching_functions(c: float, t: float = math.inf, delta: float = 0.0,
                       kappa: float = -1.0, R0: float = 0.0) -> PinchingValues:
    """Curvature pinching quantities for bending amplitude c at radius t.

    ``delta`` is the residual bending level at t (a number, not a model).
    The combination delta + c must stay below 1 for the quotient F to make
    sense; t = inf evaluates the limiting values.
    """
    if kappa >= 0.0:
        raise DomainError("pinching functions need kappa < 0")
    if c < 0.0 or delta < 0.0:
        raise DomainError("amplitude and residual level must be nonnegative")
    if c >= 1.0:
        raise DomainError(f"amplitude must be below 1, got c={c:g}")
    w = delta + c
    if w >= 1.0:
        raise DomainError(
            f"delta + c must be below 1, got {w:g}")

    # grouped so the delta = 0 case lands exactly on 1 - 4c^2
    lambda0 = 1.0 - 2.0 * c * (c + w)
    denom = c * c + (1.0 + c * w) ** 2 / (1.0 - w * w)
    f_val = lambda0 / denom

    if math.isinf(t):
        u_c = delta
        sec_term = 0.0
    else:
        _check_kasue_args(t, kappa, R0)
        u_c = delta + c * (t - R0) / float(s_kappa(kappa, t))
        ck = float(c_kappa(kappa, t))
        sec_term = 2.0 * (c / ck) ** 2
    lambda_full = 1.0 - sec_term - 2.0 * c * u_c
    return PinchingValues(F=float(f_val), lambda0=float(lambda0),
                          lambda_full=float(lambda_full), u_c=float(u_c))


def c_star_closed_form() -> float:
    """Amplitude where the limiting pinching quotient crosses 1/4."""
    return math.sqrt((23.0 - math.sqrt(337.0)) / 32.0)


def c_star_bisection() -> float:
    """The same crossing located by bisection, no algebra involved.

    F falls from 1 at c = 0 to below 1/4 at c = 1/2."""
    lo, hi = 0.0, 0.5
    while hi - lo > C_STAR_TOL:
        mid = 0.5 * (lo + hi)
        if pinching_functions(mid).F > 0.25:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# mesh tails and classification

@dataclass
class InvariantReport:
    a_tail: Curve
    b_tail: Curve
    a_estimate: float
    a_slope: float
    b_estimate: float
    b_increasing: bool
    classification: str
    flags: dict
    excluded_vertices: int

    def summary(self) -> dict:
        return {
            "a_estimate": self.a_estimate,
            "a_slope": self.a_slope,
            "b_estimate": self.b_estimate,
            "b_increasing": self.b_increasing,
            "classification": self.classification,
            "flags": dict(self.flags),
            "excluded_vertices": self.excluded_vertices,
            "radii": [float(x) for x in self.a_tail.x],
            "a_tail": [float(y) for y in self.a_tail.y],
            "b_tail": [float(y) for y in self.b_tail.y],
        }


def default_tail_radii(mesh: MeshGraph) -> np.ndarray:
    """``TAIL_RADII`` evenly spaced exhaustion radii strictly inside the
    reliable window, from a quarter of its top upwards."""
    cap = mesh.r_truncation_min
    if math.isfinite(cap):
        hi = 0.99 * RADIUS_CAP_FRACTION * cap
    else:
        hi = 0.95 * mesh.r_max
    lo = 0.25 * hi
    if not 0.0 < lo < hi:
        raise DomainError("mesh is too small for a tail radius window")
    return np.linspace(lo, hi, TAIL_RADII)


def invariant_tails(mesh: MeshGraph, radii) -> InvariantReport:
    """Tail suprema of the weighted bending norm over an exhaustion.

    Both tails are non-increasing by construction (suprema over shrinking
    regions).  Classification follows the estimates: below the flatness
    tolerance with a flat-or-falling slope is asymptotically flat, upgraded
    to strongly-tamed in a hyperbolic ambient when the product-weighted
    tail certifies a positive bounded plateau; above 1 without decay is not
    tamed; growing tails stay inconclusive.  The weights use the intrinsic
    distance ``mesh.rho``; a vertex where it is not finite is left out of
    the suprema and counted in ``excluded_vertices``.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise DomainError("invariant tails need a nonempty 1-d radius list")
    if radii[0] <= 0.0:
        raise DomainError("exhaustion radii must be positive")
    if np.any(np.diff(radii) <= 0.0):
        raise DomainError("exhaustion radii must be strictly increasing")
    cap = RADIUS_CAP_FRACTION * mesh.r_truncation_min
    if radii[-1] >= cap:
        raise TruncationError(
            f"exhaustion radius {radii[-1]:g} reaches past "
            f"{RADIUS_CAP_FRACTION:g} of the truncation-face radius "
            f"{mesh.r_truncation_min:g}")

    verts = mesh.vertices
    rho = mesh.rho
    ok = np.isfinite(rho)
    excluded = int(verts.r.size - np.count_nonzero(ok))
    kappa = verts.kappa
    rho_ok = rho[ok]
    if kappa == 0.0:
        weight_a = rho_ok
        weight_b = rho_ok
    else:
        sk = math.sqrt(-kappa)
        weight_a = np.tanh(sk * rho_ok) / sk
        weight_b = np.sinh(sk * rho_ok) * np.cosh(sk * rho_ok) / sk
    na = verts.norm_alpha[ok]
    vals_a = weight_a * na
    vals_b = weight_b * na
    r_ok = verts.r[ok]

    a_vals = np.empty(radii.size)
    b_vals = np.empty(radii.size)
    for i, t in enumerate(radii):
        mask = r_ok >= t
        if not mask.any():
            raise DomainError(f"no sampled vertices beyond radius {t:g}")
        a_vals[i] = np.max(vals_a[mask])
        b_vals[i] = np.max(vals_b[mask])

    a_tail = Curve(radii, a_vals)
    b_tail = Curve(radii, b_vals)

    a_est = a_tail.last
    a_slope = a_tail.tail_slope()
    k = max(2, int(np.ceil(radii.size / 3.0)))
    span = float(radii[-1] - radii[-k])
    thr = SLOPE_FRACTION * max(a_est, FLAT_TOL) / max(span, 1e-12)
    slope_ok = a_slope <= thr

    b_increasing = b_tail.is_tail_increasing()
    b_est = math.inf if b_increasing else b_tail.last
    b_bounded = (not b_increasing) and b_tail.tail_oscillation() < OSC_TOL

    eaf = bool(a_est < FLAT_TOL and slope_ok)
    tamed = bool(a_est < 1.0 and slope_ok)
    # the certificate needs a positive plateau; an exactly-zero tail is
    # plain asymptotic flatness.  At kappa = 0 both weights are rho, so
    # b_tail is a_tail and a bounded plateau is only a flat run of a (one
    # vertex's value on a coarse grid): the upgrade is hyperbolic only
    strongly = bool(kappa < 0.0 and b_bounded and eaf and b_est > 0.0)

    if a_est >= 1.0:
        label = "not-tamed" if a_slope >= -thr else "inconclusive"
    elif not slope_ok:
        label = "inconclusive"
    elif eaf:
        label = ("strongly-tamed" if strongly
                 else "extrinsically-asymptotically-flat")
    else:
        label = "tamed"

    return InvariantReport(
        a_tail=a_tail,
        b_tail=b_tail,
        a_estimate=float(a_est),
        a_slope=float(a_slope),
        b_estimate=float(b_est),
        b_increasing=bool(b_increasing),
        classification=label,
        flags={"tamed": tamed, "extrinsically_asymptotically_flat": eaf,
               "strongly_tamed": strongly},
        excluded_vertices=excluded,
    )
