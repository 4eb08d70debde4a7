"""Ambient space forms of curvature kappa <= 0 and their radial geometry.

Euclidean space is modelled on Cartesian coordinates.  Hyperbolic space of
curvature kappa < 0 is modelled on the hyperboloid

    { x in R^(n+1) : <x, x>_L = 1/kappa,  x_last > 0 }

inside Lorentz space with signature (+, ..., +, -), so the last coordinate
is the timelike one.  With this scaling the ambient sectional curvature is
exactly kappa and no separate radius bookkeeping is needed.

The module provides the comparison functions S_kappa, C_kappa, the distance
to a fixed pole together with its gradient and Hessian, geodesics (used by
finite-difference checks), and the volumes of metric balls and spheres in
the constant-curvature models.

``pole_field`` is the one formula for r and its unit gradient, behind the
meshes and ``ambient_distance``/``radial_gradient`` alike, with the one pole
rule: a point with r <= ``POLE_TOL`` is the pole, where both read 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError, SingularityError

__all__ = [
    "Ambient", "euclidean", "hyperbolic", "s_kappa", "c_kappa", "omega_m",
    "lorentz_inner", "pole_field", "ambient_distance", "radial_gradient",
    "distance_gradient_hessian", "geodesic", "model_volumes",
    "gauss_legendre",
]

# Residual tolerance for membership in the hyperboloid sheet.
HYPERBOLOID_TOL = 1e-8
# below this distance a point counts as the pole itself
POLE_TOL = 1e-13
# relative Lorentz residual below which a direction counts as tangent
TANGENT_TOL = 1e-6

# Nodes of the Gauss-Legendre rule used for smooth 1-D integrals.
GAUSS_NODES = 64


def s_kappa(kappa: float, t):
    """Generalized sine: solution of f'' + kappa f = 0, f(0)=0, f'(0)=1."""
    _check_kappa(kappa)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("s_kappa expects t >= 0")
    if kappa == 0.0:
        return t if t.ndim else float(t)
    rk = math.sqrt(-kappa)
    out = np.sinh(rk * t) / rk
    return out if out.ndim else float(out)


def c_kappa(kappa: float, t):
    """Generalized cosine, the derivative of s_kappa."""
    _check_kappa(kappa)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("c_kappa expects t >= 0")
    if kappa == 0.0:
        out = np.ones_like(t)
    else:
        out = np.cosh(math.sqrt(-kappa) * t)
    return out if out.ndim else float(out)


def _check_kappa(kappa):
    if kappa > 0.0:
        raise DomainError(f"ambient curvature must satisfy kappa <= 0, got {kappa}")


def omega_m(m: int) -> float:
    """Volume of the unit ball in R^m."""
    if m < 1:
        raise DomainError("dimension must be >= 1")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def lorentz_inner(x, y):
    """Inner product of signature (+, ..., +, -) over the last axis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sum(x[..., :-1] * y[..., :-1], axis=-1) - x[..., -1] * y[..., -1]


def _acosh_stable(z):
    """arccosh that keeps full precision for z near 1."""
    u = np.maximum(np.asarray(z, dtype=float) - 1.0, 0.0)
    return np.log1p(u + np.sqrt(u * (u + 2.0)))


@dataclass(frozen=True)
class Ambient:
    """An ambient space form with a marked pole for the radial field."""

    n: int
    kappa: float
    pole: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("ambient dimension must be >= 1")
        _check_kappa(self.kappa)
        pole = self.pole
        if pole is None:
            pole = np.zeros(self.ncoords)
            if self.kappa < 0.0:
                pole[-1] = 1.0 / math.sqrt(-self.kappa)
        pole = np.asarray(pole, dtype=float)
        if pole.shape != (self.ncoords,):
            raise DomainError(
                f"pole must have {self.ncoords} coordinates, got shape {pole.shape}")
        object.__setattr__(self, "pole", pole)
        if self.kappa < 0.0:
            self.check_point(pole)

    @property
    def ncoords(self) -> int:
        """Number of model coordinates (n for flat, n+1 on the hyperboloid)."""
        return self.n if self.kappa == 0.0 else self.n + 1

    def inner(self, u, v):
        """The ambient inner product (Lorentz one on the hyperboloid model)."""
        if self.kappa == 0.0:
            return np.sum(np.asarray(u) * np.asarray(v), axis=-1)
        return lorentz_inner(u, v)

    def signature(self) -> np.ndarray:
        eta = np.ones(self.ncoords)
        if self.kappa < 0.0:
            eta[-1] = -1.0
        return eta

    def check_point(self, p):
        """Verify p lies in the model (no-op for Cartesian space)."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.ncoords:
            raise GeometryError(
                f"point has {p.shape[-1]} coordinates, ambient needs {self.ncoords}")
        if self.kappa == 0.0:
            return
        residual = np.abs(lorentz_inner(p, p) - 1.0 / self.kappa)
        scale = max(1.0, 1.0 / abs(self.kappa))
        if np.any(residual > HYPERBOLOID_TOL * scale):
            raise GeometryError(
                f"point off the hyperboloid sheet (residual {float(np.max(residual)):.3e})")
        if np.any(p[..., -1] <= 0.0):
            raise GeometryError("point on the wrong sheet of the hyperboloid")

    def tangent_part(self, p, w):
        """Project an ambient vector onto the model tangent space at p."""
        if self.kappa == 0.0:
            return np.asarray(w, dtype=float)
        w = np.asarray(w, dtype=float)
        coeff = self.kappa * lorentz_inner(w, p)
        return w - coeff[..., None] * np.asarray(p, dtype=float)


def euclidean(n: int, pole=None) -> Ambient:
    return Ambient(n, 0.0, pole)


def hyperbolic(n: int, kappa: float = -1.0, pole=None) -> Ambient:
    if kappa >= 0.0:
        raise DomainError("hyperbolic ambient needs kappa < 0")
    return Ambient(n, kappa, pole)


def pole_field(amb: Ambient, p, gradient: bool = True):
    """``(r, grad, at_pole)`` for a batch of model points (..., ncoords):
    the distance to the pole, its unit ambient gradient (None unless
    ``gradient``), and the mask of points within ``POLE_TOL`` of the pole,
    where r and grad are 0."""
    p = np.asarray(p, dtype=float)
    if amb.kappa == 0.0:
        d = p - amb.pole
        r = norm = np.sqrt(np.einsum("...a,...a->...", d, d))
    else:
        c = amb.kappa * np.einsum("...a,a,a->...", p, amb.signature(),
                                  amb.pole, optimize=True)
        c = np.maximum(c, 1.0)
        sk = np.sqrt(-amb.kappa)
        r = _acosh_stable(c) / sk
    at_pole = r <= POLE_TOL
    grad = None
    if gradient:
        if amb.kappa != 0.0:
            d = sk * (c[..., None] * p - amb.pole)
            norm = np.sqrt(np.maximum(c * c - 1.0, 0.0))
        grad = np.where(at_pole[..., None], 0.0,
                        d / np.where(at_pole, 1.0, norm)[..., None])
    return np.where(at_pole, 0.0, r), grad, at_pole


def ambient_distance(amb: Ambient, p):
    """Distance from the pole, for a single point or a batch (..., ncoords)."""
    amb.check_point(p)
    out = pole_field(amb, p, gradient=False)[0]
    return out if out.ndim else float(out)


def radial_gradient(amb: Ambient, p):
    """Unit ambient gradient of the distance-to-pole function at p.

    Undefined at the pole itself; batched callers should mask that vertex
    before asking.
    """
    _, grad, at_pole = pole_field(amb, p)
    if np.any(at_pole):
        raise SingularityError("radial gradient undefined at the pole")
    return grad


def distance_gradient_hessian(amb: Ambient, p, u, v):
    """Gradient of r at p together with Hess r(u, v).

    u and v must be tangent at p (automatic in Cartesian space).  The
    Hessian follows the space-form comparison shape

        Hess r(u, v) = (C_kappa/S_kappa)(r) * (<u, v> - <grad r, u><grad r, v>).
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    grad = radial_gradient(amb, p)
    r = ambient_distance(amb, p)
    if amb.kappa < 0.0:
        scale = math.sqrt(max(float(amb.inner(u, u)), float(amb.inner(v, v)), 1.0))
        pl = 1.0 / math.sqrt(-amb.kappa)
        for w in (u, v):
            if abs(float(lorentz_inner(w, p))) > TANGENT_TOL * scale * pl:
                raise DomainError("direction is not tangent to the hyperboloid at p")
    coeff = c_kappa(amb.kappa, r) / s_kappa(amb.kappa, r)
    hess = coeff * (amb.inner(u, v) - amb.inner(grad, u) * amb.inner(grad, v))
    return grad, float(hess)


def geodesic(amb: Ambient, p, u, s):
    """Point reached from p after time s along the unit tangent u."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if amb.kappa == 0.0:
        return p + s * u
    rk = math.sqrt(-amb.kappa)
    return np.cosh(rk * s) * p + (np.sinh(rk * s) / rk) * u


@functools.lru_cache(maxsize=None)
def _gauss_rule():
    """Ascending nodes and weights of the ``GAUSS_NODES``-point
    Gauss-Legendre rule on [-1, 1]: Newton's method on P_n, read from the
    three-term recurrence, from Tricomi's guesses cos(pi (i - 1/4) /
    (n + 1/2)).  At n = 64 the fourth step is at the rounding floor
    (7e-17), and after the fifth the nodes are within 1.2e-16 of the
    roots and the weights 2 / ((1 - x^2) P_n'(x)^2) within 1e-13 relative
    of the exact ones.  numpy.polynomial's ``leggauss`` is 1.3e-12 off,
    and importing it costs a run ten modules."""
    n = GAUSS_NODES
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def gauss_legendre(f, a: float, b: float) -> float:
    """Integral of a smooth f over [a, b] by one Gauss-Legendre rule of
    ``GAUSS_NODES`` nodes; ``f`` maps an array of nodes to their values."""
    x, w = _gauss_rule()
    half = 0.5 * (b - a)
    return half * float(w @ f(a + half * (x + 1.0)))


def model_volumes(kappa: float, m: int, t: float):
    """(ball volume, sphere volume) of radius t in the m-dim model of
    curvature kappa.

    Flat values are closed form.  The hyperbolic sphere is closed form and
    the ball integrates it by Gauss-Legendre quadrature (relative error
    below 1e-13 for m <= 8 and sqrt(-kappa) t <= 20).
    """
    _check_kappa(kappa)
    if t <= 0.0:
        raise DomainError("radius must be positive")
    om = omega_m(m)
    if kappa == 0.0:
        return om * t ** m, m * om * t ** (m - 1)
    sphere = lambda s: m * om * s_kappa(kappa, s) ** (m - 1)
    return gauss_legendre(sphere, 0.0, t), sphere(t)
