"""Pointwise geometry of an immersed submanifold.

Everything here is derived from jets of a chart: the induced metric, the
second fundamental form and its norm, and the split of the ambient radial
gradient into parts tangent and normal to the submanifold.  The distance
to the pole and its ambient gradient come from ``spaceform.pole_field``;
this module only splits the gradient.  A request names one level,
``METRIC``, ``BENDING`` or ``FRAME``, each keeping the fields of the one
before (see `PointGeometry`), and the record carries its ``Ambient``.
``METRIC`` reads first derivatives only and runs on first-order jets, with
no Hessian anywhere; ``BENDING`` and ``FRAME`` need the second fundamental
form and run on second-order jets.  Values and first derivatives agree bit
for bit across the levels.  Bulk evaluation runs in blocks, one after the
other in the calling thread, each block written into its part of
preallocated outputs (``collect_geometry``), so nothing is concatenated.
A batch of points streams in flat ranges (``stream_geometry``).  A
lattice, the product of one coordinate array per axis, streams as boxes
(``stream_lattice``): their jets are seeded one per axis, so numpy
broadcasting evaluates each factor of the chart, such as cosh(2s) or
sin t1, and each of its derivatives, over the axes it depends on.  The
metric algebra then runs once per distinct Jacobian of the box, and only
the position and what meets it take the box's full shape.  A box gets the
bits of its points listed one by one.
A block takes ``BLOCK_BYTES`` (4 MiB) of working memory at most: its length
follows the level, the chart dimension and the coordinate count (about
2.3 KB a point for ``BENDING`` at m = 3, 0.35 KB for ``METRIC``, which
builds no radial gradient).  The rows of a rho round have their own
budget (``eikonal.ROW_BLOCK_BYTES``).  The result does not depend on the
block length, and one point alone gets the same bits as in any batch.
The curvature functions take a ``FRAME`` geometry of any batch shape: a
batch gets arrays and a mask of the points that failed, a single point a
float or a typed error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce

import numpy as np

from . import jets
from .errors import (CriticalPointError, DegeneratePlaneError, DomainError,
                     EvaluationError, GeometryError)
from .exprchart import ChartBase, check_point
from .spaceform import Ambient, c_kappa, pole_field, s_kappa

__all__ = ["METRIC", "BENDING", "FRAME", "BLOCK_BYTES", "Box",
           "PointGeometry", "ambient_of", "point_geometry", "grid_geometry",
           "stream_geometry", "stream_lattice", "collect_geometry",
           "uniform_draws",
           "sectional_curvature", "extrinsic_sphere_curvature",
           "level_set_tangent_plane", "hypersurface_principal_curvatures"]

# immersion rank tolerance: reject charts whose metric is this close to singular
RANK_TOL = 1e-10
# |grad_M r| below this means the radial function is critical at the point
CRITICAL_TOL = 1e-8
PLANE_TOL = 1e-8

# working memory of one geometry block of ``stream_geometry`` and
# ``stream_lattice``: the streamed mesh passes and the curvature rounds
BLOCK_BYTES = 4 * 2**20
# geometry request levels, each keeping the fields of the one before
METRIC, BENDING, FRAME = 1, 2, 3


def block_len(item_bytes: int) -> int:
    """Items per block when each needs ``item_bytes`` of working memory."""
    return max(1, BLOCK_BYTES // item_bytes)


def point_bytes(level: int, m: int, ncoords: int) -> int:
    """Working bytes of one point of a geometry block at ``level``, for a
    chart of dimension m with ``ncoords`` ambient coordinates: the jets and
    the arrays derived from them, fitted to tracemalloc peaks of the
    catalog charts, m = 2 to 5: ``METRIC`` 2-16% above them (25% on the
    totally geodesic chart at m = 2, which shares m and ``ncoords`` with
    the heavier rotation hypersurface), ``BENDING`` from 6% below to 21%
    above."""
    if level == METRIC:
        return 8 * (2 * ncoords * (1 + m) + m * m + 2)
    return 8 * (5 * ncoords * (1 + m + m * m) + m ** 3)


def uniform_draws(gen, low: float, high: float, shape) -> np.ndarray:
    """Uniforms in [low, high) of ``shape``, filled in C order (point-major
    for a (points, m) shape) from ``gen.random()`` of a ``random.Random``.

    Python fixes the ``random()`` sequence of a seed across versions, not
    that of ``uniform()``, so the map to [low, high) is made here.  Each
    entry is ``low + (high - low) * x`` of its own draw, so k draws of one
    point give the bits of one draw of k points."""
    count = math.prod(shape)
    x = np.fromiter((gen.random() for _ in range(count)), dtype=float,
                    count=count)
    return low + (high - low) * x.reshape(shape)


@dataclass
class PointGeometry:
    """Geometry of one chart point or a batch of them.

    Arrays share the leading batch shape.  Fields above the requested
    level are None: a ``METRIC`` geometry keeps ``points``, ``metric``,
    ``sqrt_det_g``, ``r`` and ``at_pole``; ``BENDING`` adds
    ``grad_r_tan_norm``, ``grad_r_perp_norm`` and ``norm_alpha_sq``;
    ``FRAME`` adds ``position``, ``jacobian``, ``alpha``, ``grad_M_r`` and
    ``grad_perp_r``.  ``amb`` is the ambient the geometry was computed in.
    """

    amb: Ambient
    points: np.ndarray          # (..., m)
    metric: np.ndarray          # (..., m, m)
    sqrt_det_g: np.ndarray      # (...)
    r: np.ndarray               # (...) ambient distance to the pole
    grad_r_tan_norm: np.ndarray = None
    grad_r_perp_norm: np.ndarray = None
    norm_alpha_sq: np.ndarray = None
    position: np.ndarray = None         # (..., ncoords)
    jacobian: np.ndarray = None         # (..., ncoords, m), coordinate-major
    alpha: np.ndarray = None            # (..., ncoords, m, m)
    grad_M_r: np.ndarray = None         # (..., ncoords)
    grad_perp_r: np.ndarray = None      # (..., ncoords)
    at_pole: np.ndarray = field(default=None, repr=False)

    @property
    def kappa(self) -> float:
        return self.amb.kappa

    @property
    def m(self) -> int:
        return self.points.shape[-1]

    @property
    def batch_shape(self):
        return self.points.shape[:-1]

    @property
    def norm_alpha(self) -> np.ndarray:
        return np.sqrt(self.norm_alpha_sq)

    def map_arrays(self, fn) -> "PointGeometry":
        """A copy with every array field replaced by ``fn(array,
        trailing_dims)``; ``trailing_dims`` counts the axes after the batch
        shape.  Fields left None stay None."""
        lead = len(self.batch_shape)
        out = {}
        for f in fields(self):
            arr = getattr(self, f.name)
            if isinstance(arr, (np.ndarray, np.generic)):
                out[f.name] = fn(arr, np.ndim(arr) - lead)
        return replace(self, **out)

    def take(self, idx) -> "PointGeometry":
        """Subset along a flat batch (flatten first if multi-dimensional)."""
        return self.map_arrays(
            lambda arr, k: arr.reshape((-1,) + arr.shape[arr.ndim - k:])[idx])


def ambient_of(chart: ChartBase, pole=None) -> Ambient:
    """Ambient space of a chart, with the pole at ``pole`` or, by default,
    at the basepoint's image."""
    if pole is None:
        pole = chart.eval_positions(chart.basepoint)
    return Ambient(chart.n, chart.kappa, pole)


# ---------------------------------------------------------------------------
# core jet -> geometry pipeline

@dataclass(frozen=True, eq=False)
class Box:
    """A box of a lattice: the product of one 1-D coordinate array per
    chart axis, its points in C order."""

    axes: tuple

    @property
    def shape(self):
        return tuple(len(ax) for ax in self.axes)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def points(self) -> np.ndarray:
        """The (N, m) points in C order."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"),
                        axis=-1).reshape(-1, len(self.axes))


def _geometry_block(chart, amb, block, level):
    """The geometry of a block of chart points up to ``level``, flat in
    the block's order: a (N, m) array of points, or a `Box`, whose jets
    are seeded one per axis (``jets.seed_axes``), so that each factor of
    the chart is evaluated over the axes it depends on.  The input type
    picks the seeding; the bits are those of the points either way.

    The metric algebra runs over the shape the derivatives vary over,
    once per distinct Jacobian (and Hessian, above ``METRIC``), and its
    results are broadcast onto the block: a flat chart's box factors at
    most one metric per index of its lead axis, a cylinder's one per angle.  What
    meets the position varies at every point and takes the block's full
    shape: the radial split, and the position part of the Hessians in a
    curved ambient, with all that follows from it."""
    box = isinstance(block, Box)
    if len(block) == 1:
        # einsum drops a batch axis of length one: it picks another path and
        # hands matmul other strides, which round differently.  One point
        # is computed as a batch of two, so it matches every batched call;
        # a box with one Jacobian runs its metric algebra on two copies.
        pts = block.points() if box else block
        return _geometry_block(chart, amb, np.repeat(pts, 2, axis=0),
                               level).take(slice(0, 1))
    # a METRIC block reads first derivatives only: its jets carry no Hessian
    order = 1 if level == METRIC else 2
    if box:
        pts, batch = block.points(), block.shape
        out_jets = chart.eval_jets(jets.seed_axes(block.axes, order))
    else:
        pts, batch = block, (len(block),)
        out_jets = chart.eval_jets(jets.seed_point(pts, order))
    n, m, a = len(pts), pts.shape[-1], len(out_jets)
    shape = np.broadcast_shapes(*[j.grad.shape[:-1] for j in out_jets], *(
        [] if level == METRIC else [j.hess.shape[:-2] for j in out_jets]))
    k = math.prod(shape)
    # the first point of the block at each entry of ``shape``, in C order
    first = pts.reshape(batch + (m,))[tuple(map(slice, shape))].reshape(-1, m)

    def stack(parts, over, tail):
        # the parts broadcast to the batch shape ``over``, flat: a jet that
        # does not vary along an axis of it is broadcast along it here
        return np.stack([np.broadcast_to(p, over + tail) for p in parts],
                        axis=-1 - len(tail)).reshape((-1, a) + tail)

    def spread(x):
        # an array over ``shape``, flat, onto every point of the block
        if shape == batch:
            return x
        tail = x.shape[1:]
        return np.broadcast_to(x[:k].reshape(shape + tail),
                               batch + tail).reshape((n,) + tail)

    over = shape if k > 1 else (2,) + shape[1:]
    pos = stack([j.value for j in out_jets], batch, ())       # (N, a)
    jac = stack([j.grad for j in out_jets], over, (m,))       # (K, a, m)
    if level != METRIC:
        hess = stack([j.hess for j in out_jets], over, (m, m))  # (K, a, m, m)
    del out_jets                      # the stacks above copied every part
    eta = amb.signature()

    g = np.einsum("...ai,...aj,a->...ij", jac, jac, eta, optimize=True)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    if not np.isfinite(g).all():
        # finite jets can still overflow in the metric's products and sums
        bad = np.argmin(np.isfinite(g).all(axis=(-2, -1)))
        raise EvaluationError("metric", "non-finite result near "
                              + np.array2string(first[bad], precision=6))
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise _rank_error(chart, g, first) from None
    # the diagonal's columns, reduced in index order as numpy reduces its axis
    diag = [chol[..., i, i] for i in range(m)]
    if np.any(reduce(np.minimum, diag)
              <= RANK_TOL * reduce(np.maximum, diag)):
        raise _rank_error(chart, g, first)
    r, grad_amb, at_pole = pole_field(amb, pos, gradient=level != METRIC)
    frame = level == FRAME
    geom = PointGeometry(amb=amb, points=pts, metric=spread(g),
                         sqrt_det_g=spread(reduce(np.multiply, diag)), r=r,
                         at_pole=at_pole, position=pos if frame else None,
                         jacobian=spread(jac) if frame else None)
    if level == METRIC:
        return geom
    # one inverse metric, applied by matmul: a batched solve per
    # right-hand side would factor every metric again
    ginv = np.linalg.inv(g)
    jac_n = geom.jacobian if frame else spread(jac)
    ginv_n = spread(ginv)

    # second fundamental form: strip the position part (curved ambient only),
    # then the part tangent to the immersion
    if amb.kappa != 0.0:
        # the position part varies at every point, and the rest with it
        jac, ginv, hess = jac_n, ginv_n, spread(hess)
        hp = np.einsum("...aij,a,...a->...ij", hess, eta, pos, optimize=True)
        work = hess - amb.kappa * hp[..., None, :, :] * pos[..., :, None, None]
    else:
        work = hess
    t_cov = np.einsum("...aij,a,...al->...ijl", work, eta, jac, optimize=True)
    b = np.moveaxis(t_cov, -1, -3).reshape((-1, m, m * m))
    coeff = (ginv @ b).reshape((-1, m, m, m))
    alpha = work - np.einsum("...kij,...ak->...aij", coeff, jac, optimize=True)

    w = ginv[..., None, :, :] @ alpha
    nasq = np.maximum(
        np.einsum("...aij,...aji,a->...", w, w, eta, optimize=True), 0.0)
    if amb.kappa == 0.0:
        nasq, alpha = spread(nasq), spread(alpha) if frame else None
    tan_norm, perp_norm, grad_M, grad_perp = _radial_split(
        amb, jac_n, ginv_n, grad_amb, at_pole, frame)
    return replace(geom, grad_r_tan_norm=tan_norm, grad_r_perp_norm=perp_norm,
                   norm_alpha_sq=nasq, alpha=alpha if frame else None,
                   grad_M_r=grad_M, grad_perp_r=grad_perp)


def _rank_error(chart, g, pts) -> GeometryError:
    """The error of a block that fails the rank checks, named after its
    first point, in batch order, that fails one; ``pts[k]`` is the first
    point with the metric ``g[k]``.  A metric with no Cholesky factor is
    not an immersion, and one whose factor's diagonal spans a ratio below
    ``RANK_TOL`` is rank-deficient.  A factor of one metric has the bits
    it has in any batch."""
    for k in range(len(g)):
        try:
            diag = np.diagonal(np.linalg.cholesky(g[k]))
        except np.linalg.LinAlgError:
            kind = "is not an immersion"
        else:
            if diag.min() > RANK_TOL * diag.max():
                continue
            kind = "is rank-deficient"
        return GeometryError(f"chart '{chart.name}' {kind} near "
                             + np.array2string(pts[k], precision=6))


def _radial_split(amb, jac, ginv, grad_amb, at_pole, keep_vectors):
    """The split of the ambient gradient of r (``spaceform.pole_field``)
    into parts tangent and normal to the submanifold.

    At the pole itself the gradient has no limit, but its tangential norm
    tends to 1 and the normal norm to 0; those limits are substituted.
    """
    eta = amb.signature()
    dr = np.einsum("...ai,a,...a->...i", jac, eta, grad_amb, optimize=True)
    coeffs = (ginv @ dr[..., None])[..., 0]
    # summed in index order from 0, as einsum sums a batch of three or
    # more points; for fewer its order follows the memory layout of dr
    tan_sq = sum(dr[..., i] * coeffs[..., i] for i in range(dr.shape[-1]))
    tan_sq = np.clip(tan_sq, 0.0, 1.0)
    tan_norm = np.where(at_pole, 1.0, np.sqrt(tan_sq))
    perp_norm = np.where(at_pole, 0.0, np.sqrt(1.0 - tan_sq))

    grad_M = grad_perp = None
    if keep_vectors:
        grad_M = np.einsum("...i,...ai->...a", coeffs, jac, optimize=True)
        grad_perp = grad_amb - grad_M
        mask = at_pole[..., None]
        grad_M = np.where(mask, 0.0, grad_M)
        grad_perp = np.where(mask, 0.0, grad_perp)
    return tan_norm, perp_norm, grad_M, grad_perp


def point_geometry(chart: ChartBase, point, amb: Ambient = None) -> PointGeometry:
    """Full geometry at a single chart point, vectors and all.

    ``amb`` overrides the default ambient (its pole in particular); it must
    agree with the chart's curvature and dimension.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim != 1:
        raise DomainError("point_geometry expects a single chart point")
    check_point(chart, point)
    amb = _resolve_ambient(chart, amb)
    return _geometry_block(chart, amb, point[None, :], FRAME).take(0)


def _resolve_ambient(chart: ChartBase, amb) -> Ambient:
    if amb is None:
        return ambient_of(chart)
    if amb.kappa != chart.kappa or amb.n != chart.n:
        raise DomainError("ambient does not match the chart's declaration")
    return amb


def _block_size(chart: ChartBase, amb: Ambient, level) -> int:
    return block_len(point_bytes(level, chart.m, len(amb.pole)))


def stream_geometry(chart: ChartBase, amb: Ambient, points, level):
    """Geometry of the (N, m) chart points ``points`` as ``(lo, geometry)``
    blocks, in order.

    The fewest blocks of ``BLOCK_BYTES`` or less, of near-equal length, so
    that no block is a short remainder.  A failing block raises its error,
    and no later block is evaluated.
    """
    n_pts = len(points)
    count = -(-n_pts // _block_size(chart, amb, level))
    for i in range(count):
        lo, hi = n_pts * i // count, n_pts * (i + 1) // count
        yield lo, _geometry_block(chart, amb, points[lo:hi], level)


def stream_lattice(chart: ChartBase, amb: Ambient, axes, level):
    """Geometry of the lattice that is the product of the 1-D coordinate
    arrays ``axes``, flat in C order, as ``(lo, geometry)`` blocks, in
    order, each evaluated as a `Box`.

    A box holds the points of ``BLOCK_BYTES`` or less: fixed indices on
    the leading axes, a range of the first axis whose trailing plane fits
    a block, split into the fewest near-equal ranges, and every trailing
    axis whole.  A failing block raises its error, and no later block is
    evaluated.
    """
    shape = [len(ax) for ax in axes]
    size = _block_size(chart, amb, level)
    split = next(i for i in range(len(shape))
                 if math.prod(shape[i + 1:]) <= size)
    k = shape[split]
    count = -(-k // (size // math.prod(shape[split + 1:])))
    lo = 0
    for lead in itertools.product(*map(range, shape[:split])):
        fixed = [ax[i:i + 1] for ax, i in zip(axes, lead)]
        for c in range(count):
            box = Box(tuple(fixed + [axes[split][k * c // count:
                                                 k * (c + 1) // count]]
                            + list(axes[split + 1:])))
            yield lo, _geometry_block(chart, amb, box, level)
            lo += len(box)


def collect_geometry(blocks, n_pts: int) -> PointGeometry:
    """The flat geometry of ``n_pts`` points from the ``(lo, geometry)``
    blocks of a stream, each written into its rows of arrays laid out like
    the first block; that block is the result when it holds every
    point."""
    for lo, block in blocks:
        if lo == 0:
            geom = block if len(block.points) == n_pts else block.map_arrays(
                lambda arr, k: np.empty((n_pts,) + arr.shape[1:], arr.dtype))
        if geom is not block:
            hi = lo + len(block.points)
            for f in fields(block):
                arr = getattr(block, f.name)
                if isinstance(arr, np.ndarray):
                    getattr(geom, f.name)[lo:hi] = arr
    return geom


def grid_geometry(chart: ChartBase, points, level=BENDING,
                  amb: Ambient = None) -> PointGeometry:
    """Geometry over a batch of chart points up to ``level`` (see
    `PointGeometry`), in the blocks of ``stream_geometry``, each written
    into the result."""
    if level not in (METRIC, BENDING, FRAME):
        raise DomainError(f"unknown geometry level {level!r}")
    amb = _resolve_ambient(chart, amb)
    points = np.asarray(points, dtype=float)
    batch = points.shape[:-1]
    flat = points.reshape(-1, points.shape[-1])
    n_pts = flat.shape[0]
    if n_pts == 0:
        raise DomainError("grid_geometry needs at least one point")
    geom = collect_geometry(stream_geometry(chart, amb, flat, level), n_pts)
    if batch != (n_pts,):
        geom = geom.map_arrays(
            lambda arr, k: arr.reshape(batch + arr.shape[arr.ndim - k:]))
    return geom


# ---------------------------------------------------------------------------
# curvature over a batch of points
#
# Each public function below runs one kernel on a geometry of any batch
# shape.  The kernel computes every point and lists its checks as (mask,
# error class, message) in the order one point is tested.  A batch gets the
# value arrays plus the mask of failed points, where the values mean
# nothing; one point gets Python scalars, or the error of its first check.

def _need_alpha(geom: PointGeometry, what: str):
    if geom.alpha is None or geom.jacobian is None:
        raise DomainError(f"{what} needs geometry with the second fundamental "
                          "form kept")


def _finish(kernel, *args):
    with np.errstate(divide="ignore", invalid="ignore"):
        values, checks = kernel(*args)
    failed = reduce(np.logical_or, [mask for mask, _, _ in checks])
    if failed.ndim:
        return (*values, failed)
    for mask, err, msg in checks:
        if mask:
            raise err(msg)
    values = [v.item() if v.ndim == 0 else v for v in values]
    return values[0] if len(values) == 1 else tuple(values)


def _g(u, g, v) -> np.ndarray:
    """Metric inner product g(u, v) over broadcast batches."""
    return np.einsum("...i,...ij,...j->...", u, g, v)


def _alpha_on(geom: PointGeometry, x, y) -> np.ndarray:
    """Second fundamental form on two chart-coefficient vectors."""
    return np.einsum("...aij,...i,...j->...a", geom.alpha, x, y)


def _gauss(geom: PointGeometry, axx, ayy, axy) -> np.ndarray:
    # sums over the last axis add in the order a one-point np.sum does
    eta = geom.amb.signature()
    return np.sum(eta * axx * ayy, axis=-1) - np.sum(eta * axy * axy, axis=-1)


def _radial_covector(geom: PointGeometry) -> np.ndarray:
    """dr in chart coordinates."""
    return np.einsum("...ai,a,...a->...i", geom.jacobian,
                     geom.amb.signature(), geom.grad_M_r)


def _sectional(geom: PointGeometry, x, y):
    g = geom.metric
    gxx, gyy, gxy = _g(x, g, x), _g(y, g, y), _g(x, g, y)
    area_sq = gxx * gyy - gxy * gxy
    num = _gauss(geom, _alpha_on(geom, x, x), _alpha_on(geom, y, y),
                 _alpha_on(geom, x, y))
    return [geom.kappa + num / area_sq], [
        (area_sq <= PLANE_TOL * np.maximum(1.0, gxx * gyy),
         DegeneratePlaneError, "tangent vectors do not span a plane")]


def sectional_curvature(geom: PointGeometry, x, y):
    """Intrinsic sectional curvature of the plane spanned by two chart
    tangent vectors, from the ambient curvature plus the second
    fundamental form.

    ``x`` and ``y`` broadcast against the batch.  One point gives a float
    (DegeneratePlaneError if they span no plane); a batch gives
    ``(curvature, degenerate)``.
    """
    _need_alpha(geom, "sectional_curvature")
    return _finish(_sectional, geom, x, y)


def _level_set_plane(geom: PointGeometry):
    g = geom.metric
    gc = g[..., None, :, :]           # against a stack of vectors
    dr = _radial_covector(geom)
    sharp = np.linalg.solve(g, dr[..., None])[..., 0]
    dr_sq = np.einsum("...i,...i->...", dr, sharp)
    # row i: the basis vector e_i projected off the radial direction
    cands = (np.eye(geom.m) - dr[..., :, None] / dr_sq[..., None, None]
             * sharp[..., None, :])
    order = np.argsort(-_g(cands, gc, cands), axis=-1, kind="stable")
    cands = np.take_along_axis(cands, order[..., None], axis=-2)
    x = cands[..., 0, :]
    x = x / np.sqrt(_g(x, g, x))[..., None]
    w = cands[..., 1:, :]
    w = w - _g(x[..., None, :], gc, w)[..., None] * x[..., None, :]
    nsq = _g(w, gc, w)
    independent = nsq > PLANE_TOL
    first = np.argmax(independent, axis=-1)[..., None]
    y = (np.take_along_axis(w, first[..., None], axis=-2)[..., 0, :]
         / np.sqrt(np.take_along_axis(nsq, first, axis=-1)))
    return [x, y], [
        (geom.at_pole | (geom.grad_r_tan_norm <= CRITICAL_TOL),
         CriticalPointError,
         "radial distance is critical here; no transverse sphere"),
        (~np.any(independent, axis=-1), DegeneratePlaneError,
         "no second independent level-set direction")]


def level_set_tangent_plane(geom: PointGeometry):
    """Two g-orthonormal chart vectors spanning a plane tangent to the
    distance sphere through the point.

    Picks, among the chart basis directions projected off the radial
    gradient, the two of largest metric norm (ties break to the lower
    index), then orthonormalizes.  One point gives ``(x, y)``; a batch
    gives ``(x, y, failed)``.
    """
    _need_alpha(geom, "level_set_tangent_plane")
    if geom.m < 3:
        raise DegeneratePlaneError(
            f"level-set planes need m >= 3, chart has m = {geom.m}")
    return _finish(_level_set_plane, geom)


def _sphere_curvature(geom: PointGeometry, plane, mode):
    r = geom.r
    tan = geom.grad_r_tan_norm
    checks = [(geom.at_pole | (r <= 0.0), CriticalPointError,
               "the pole has no sphere through it"),
              (tan <= CRITICAL_TOL, CriticalPointError,
               "radial distance is critical here")]
    # np.divide: s_kappa is 0 at the pole, where Python floats would raise
    ratio = np.divide(c_kappa(geom.kappa, r), s_kappa(geom.kappa, r))
    tan_sq = tan * tan

    if mode == "bounds":
        na = np.sqrt(geom.norm_alpha_sq)
        perp = geom.grad_r_perp_norm
        upper = geom.kappa + na * na + np.square(ratio + perp * na) / tan_sq
        lower = (geom.kappa - 2.0 * na * na
                 + (ratio * ratio - 2.0 * perp * na * ratio) / tan_sq)
        return [lower, upper, ratio > perp * na], checks

    if plane is None:
        (x, y), plane_checks = _level_set_plane(geom)
    else:
        x, y = plane
        g = geom.metric
        dr = _radial_covector(geom)
        off = np.abs([_g(x, g, x) - 1.0, _g(y, g, y) - 1.0, _g(x, g, y)])
        lean = np.abs([np.sum(dr * x, axis=-1), np.sum(dr * y, axis=-1)])
        plane_checks = [
            (np.max(off, axis=0) > 1e-6, DegeneratePlaneError,
             "plane vectors must be g-orthonormal"),
            (np.max(lean, axis=0) > 1e-6 * tan, DegeneratePlaneError,
             "plane is not tangent to the sphere")]

    axx = _alpha_on(geom, x, x)
    ayy = _alpha_on(geom, y, y)
    axy = _alpha_on(geom, x, y)
    perp = geom.amb.signature() * geom.grad_perp_r
    pxx, pyy, pxy = (np.sum(perp * a, axis=-1) for a in (axx, ayy, axy))
    mixed = ((ratio + pxx) * (ratio + pyy) - pxy * pxy) / tan_sq
    return ([geom.kappa + _gauss(geom, axx, ayy, axy) + mixed],
            checks + plane_checks)


def extrinsic_sphere_curvature(geom: PointGeometry, plane=None,
                               mode: str = "exact"):
    """Sectional curvature of the extrinsic distance sphere through a point.

    ``mode='exact'`` evaluates the curvature of the given tangent plane of
    the sphere (two g-orthonormal chart vectors annihilated by dr; defaults
    to `level_set_tangent_plane`).  ``mode='bounds'`` returns
    ``(lower, upper, valid)`` where the bounds depend only on the norm of
    the second fundamental form and the radial split, and ``valid`` marks
    whether the comparison term dominates.  One point gives Python scalars
    or the typed error of its failure; a batch gives arrays followed by
    the mask of failed points.
    """
    if mode not in ("exact", "bounds"):
        raise DomainError(f"unknown mode {mode!r}")
    _need_alpha(geom, "extrinsic_sphere_curvature")
    if geom.m < 3:
        raise DegeneratePlaneError(
            "distance spheres have 2-planes only for m >= 3")
    return _finish(_sphere_curvature, geom, plane, mode)


def hypersurface_principal_curvatures(geom: PointGeometry):
    """Principal curvatures of a codimension-one immersion at one point.

    Returns ``(curvatures, normal)``: the ascending eigenvalues of the
    shape operator, and the unit normal that scalarized the second
    fundamental form.  The normal sign is inherited from the largest
    alpha component; flipping it flips every curvature, so callers fix
    orientation by one known sign.
    """
    if geom.batch_shape != ():
        raise DomainError("hypersurface_principal_curvatures works on a "
                          "single-point geometry")
    _need_alpha(geom, "hypersurface_principal_curvatures")
    n = geom.amb.n
    if geom.m != n - 1:
        raise DomainError(
            f"principal curvatures need codimension one, got m = {geom.m} "
            f"in ambient dimension {n}")
    eta = geom.amb.signature()
    norms = np.einsum("aij,aij,a->ij", geom.alpha, geom.alpha, eta,
                      optimize=True)
    i0, j0 = np.unravel_index(int(np.argmax(norms)), norms.shape)
    peak = float(norms[i0, j0])
    if peak <= 0.0:
        raise DomainError("second fundamental form vanishes here; "
                          "the normal direction is undetermined")
    nu = geom.alpha[:, i0, j0] / math.sqrt(peak)
    h = np.einsum("aij,a,a->ij", geom.alpha, eta, nu, optimize=True)
    # generalized symmetric problem h v = k g v via the Cholesky factor
    L = np.linalg.cholesky(geom.metric)
    Li = np.linalg.inv(L)
    return np.linalg.eigvalsh(Li @ h @ Li.T), nu
