"""Forward-mode automatic differentiation of first or second order.

A Jet2 carries a value together with its gradient and Hessian with respect
to m seed variables.  Values may be scalars or numpy arrays of any batch
shape S; then grad has shape S + (m,) and hess has shape S + (m, m).
Propagating a whole grid of points through one expression this way keeps
the arithmetic in vectorized numpy.

The order is set when the variables are seeded.  An order-1 jet has
``hess`` None, and every rule then skips the Hessian: values and gradients
come from the same expressions at either order, so they agree bit for bit.
A rule whose operands differ in order returns order 1; constants are made
at the order of the jets they meet, so a chart's outputs share one order.

Hessians are kept exactly symmetric by construction: every rule that mixes
two gradients writes the symmetrized outer product, whose (i, j) and (j, i)
entries are bit-identical in IEEE arithmetic.

Any operation whose result contains a NaN or an Inf raises EvaluationError
instead of letting the poison propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "Jet2", "seed_variable", "seed_point", "constant",
    "sqrt", "exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "powc",
    "compose_scalar",
]


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and Hessian with respect to m seed variables;
    ``hess`` is None on a first-order jet."""

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None

    @property
    def m(self) -> int:
        return self.grad.shape[-1]

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2

    @property
    def batch_shape(self):
        return self.value.shape

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return _check("add", Jet2(self.value + other.value,
                                      self.grad + other.grad,
                                      _sum(self.hess, other.hess, np.add)))
        return _check("add", Jet2(self.value + other, self.grad, self.hess))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return _check("sub", Jet2(self.value - other.value,
                                      self.grad - other.grad,
                                      _sum(self.hess, other.hess, np.subtract)))
        return _check("sub", Jet2(self.value - other, self.grad, self.hess))

    def __rsub__(self, other):
        return _check("sub", Jet2(other - self.value, -self.grad,
                                  _neg(self.hess)))

    def __neg__(self):
        return Jet2(-self.value, -self.grad, _neg(self.hess))

    def __mul__(self, other):
        return _check("mul", _product(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            if np.any(other.value == 0.0):
                raise EvaluationError("div", "division by zero")
            return _check("div", _product(self, _reciprocal(other)))
        if np.any(np.asarray(other) == 0.0):
            raise EvaluationError("div", "division by zero")
        return _check("div", _product(self, 1.0 / other))

    def __rtruediv__(self, other):
        if np.any(self.value == 0.0):
            raise EvaluationError("div", "division by zero")
        return _check("div", _product(_reciprocal(self), other))

    def __pow__(self, p):
        if isinstance(p, Jet2):
            raise DomainError("jet exponents are not supported; "
                              "use exp(q * log(b)) for variable exponents")
        return powc(self, float(p))


def _product(a, b):
    """The unchecked product of a jet with a jet or a scalar, so that a
    quotient's overflow is named ``div``, not ``mul``."""
    if isinstance(b, Jet2):
        v = a.value * b.value
        g = a.grad * b.value[..., None] + b.grad * a.value[..., None]
        h = None
        if a.hess is not None and b.hess is not None:
            h = (a.hess * b.value[..., None, None]
                 + b.hess * a.value[..., None, None]
                 + _sym_outer(a.grad, b.grad))
        return Jet2(v, g, h)
    return Jet2(a.value * b, a.grad * _scal(b),
                None if a.hess is None else a.hess * _scal2(b))


def _sum(ha, hb, op):
    """Sum or difference of two Hessians; None when either jet is first
    order."""
    return None if ha is None or hb is None else op(ha, hb)


def _neg(h):
    return None if h is None else -h


def _scal(c):
    return np.asarray(c)[..., None] if np.ndim(c) else c


def _scal2(c):
    return np.asarray(c)[..., None, None] if np.ndim(c) else c


def _sym_outer(ga, gb):
    """Symmetrized outer product ga (x) gb + gb (x) ga over the last axis."""
    prod = ga[..., :, None] * gb[..., None, :]
    return prod + np.swapaxes(prod, -1, -2)


def _check(op, jet):
    if (np.isfinite(jet.value).all() and np.isfinite(jet.grad).all()
            and (jet.hess is None or np.isfinite(jet.hess).all())):
        return jet
    raise EvaluationError(op, "non-finite result")


def _chain(op, x, f, f1, f2):
    """Apply a scalar function with derivatives f1, f2 through a jet;
    ``f2`` is a function returning f'' and is called only at order 2."""
    g = f1[..., None] * x.grad
    h = None
    if x.hess is not None:
        h = (f1[..., None, None] * x.hess
             + f2()[..., None, None] * _sym_outer(x.grad, 0.5 * x.grad))
    return _check(op, Jet2(f, g, h))


def _reciprocal(x):
    v = 1.0 / x.value
    return _chain("div", x, v, -v * v, lambda: 2.0 * v * v * v)


def seed_variable(index: int, point, order: int = 2) -> Jet2:
    """Jet of the coordinate function u_index at the given point(s).

    ``point`` has shape (..., m); the result carries batch shape (...).
    ``order`` is 1 (no Hessian) or 2.
    """
    point = np.asarray(point, dtype=float)
    m = point.shape[-1]
    if not 0 <= index < m:
        raise DomainError(f"variable index {index} out of range for m={m}")
    batch = point.shape[:-1]
    grad = np.zeros(batch + (m,))
    grad[..., index] = 1.0
    return Jet2(point[..., index].copy(), grad, _zero_hess(batch, m, order))


def seed_point(point, order: int = 2) -> list[Jet2]:
    """All m coordinate jets at once."""
    point = np.asarray(point, dtype=float)
    return [seed_variable(i, point, order) for i in range(point.shape[-1])]


def constant(value, m: int, batch_shape=(), order: int = 2) -> Jet2:
    value = np.broadcast_to(np.asarray(value, dtype=float), batch_shape).copy()
    return Jet2(value, np.zeros(batch_shape + (m,)),
                _zero_hess(batch_shape, m, order))


def _zero_hess(batch, m, order):
    if order not in (1, 2):
        raise DomainError(f"jet order must be 1 or 2, got {order!r}")
    return np.zeros(batch + (m, m)) if order == 2 else None


def sqrt(x: Jet2) -> Jet2:
    if np.any(x.value <= 0.0):
        raise EvaluationError("sqrt", "argument not strictly positive")
    v = np.sqrt(x.value)
    return _chain("sqrt", x, v, 0.5 / v, lambda: -0.25 / (v * x.value))


def exp(x: Jet2) -> Jet2:
    v = np.exp(x.value)
    return _chain("exp", x, v, v, lambda: v)


def log(x: Jet2) -> Jet2:
    if np.any(x.value <= 0.0):
        raise EvaluationError("log", "argument not strictly positive")
    return _chain("log", x, np.log(x.value), 1.0 / x.value,
                  lambda: -1.0 / (x.value * x.value))


def sin(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return _chain("sin", x, s, c, lambda: -s)


def cos(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return _chain("cos", x, c, -s, lambda: -c)


def sinh(x: Jet2) -> Jet2:
    s, c = np.sinh(x.value), np.cosh(x.value)
    return _chain("sinh", x, s, c, lambda: s)


def cosh(x: Jet2) -> Jet2:
    s, c = np.sinh(x.value), np.cosh(x.value)
    return _chain("cosh", x, c, s, lambda: c)


def tanh(x: Jet2) -> Jet2:
    t = np.tanh(x.value)
    sech2 = 1.0 - t * t
    return _chain("tanh", x, t, sech2, lambda: -2.0 * t * sech2)


def powc(x: Jet2, p: float) -> Jet2:
    """x**p for a constant real exponent p."""
    if p == 0.0:
        return constant(1.0, x.m, x.batch_shape, x.order)
    if p == 1.0:
        return x
    integral = p == int(p)
    if not integral and np.any(x.value <= 0.0):
        raise EvaluationError("pow", f"non-integer exponent {p} needs a positive base")
    if p < 2.0 and np.any(x.value == 0.0):
        raise EvaluationError("pow", f"exponent {p} is singular at zero base")
    # a 0-d value as an array: a numpy scalar's ** is C pow, not the ufunc
    # (or its square, sqrt and reciprocal shortcuts) that a batch takes
    base = np.asarray(x.value)
    v = base ** p
    return _chain("pow", x, v, p * base ** (p - 1.0),
                  lambda: p * (p - 1.0) * base ** (p - 2.0))


def compose_scalar(x: Jet2, f, f1, f2, op="compose") -> Jet2:
    """Push the jet x through a scalar map given pointwise f, f', f''.

    All three are arrays over x's batch shape (a table-backed profile
    function, say); ``f2`` may be None on a first-order jet.  The usual
    univariate chain rule applies.
    """
    f = np.asarray(f, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    return _chain(op, x, f, f1, lambda: np.asarray(f2, dtype=float))
