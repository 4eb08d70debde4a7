"""Upwind solve of the eikonal equation |grad rho|_g = 1 on the chart grid.

The distance at a vertex x is the semi-Lagrangian value

    rho(x) = min over p on the stencil surface of  I(p) + |p|_x,

where the stencil surface is the boundary of the 3^m neighbour cube, cut
into (m-1)-simplices fanned out from the facet centres, I interpolates rho
linearly on each simplex, and |.|_x is the local norm (Kimmel & Sethian,
PNAS 1998; Bornemann & Rasch, Comput. Vis. Sci. 2006).  The minimum over
the interior of one simplex face, of any dimension, has a closed form: a
quadratic in the unknown value plus a sign test on the barycentric
weights.  The scheme converges to the Riemannian distance at first order,
unlike graph distances, which tend to a polyhedral norm.

The update first minimises over the faces through the neighbour with the
smallest one-step value.  The minimum over the whole surface can lie on a
face that misses that neighbour, since I(p) + |p| need not be unimodal
around the stencil when the metric shears or stretches the cube: on the
sheared charts of the tests those faces alone leave values up to 0.02 too
high.  The faces off it are therefore searched as well, one facet of the
cube at a time, except on the facets where two lower bounds certify that
none of their faces goes below the value found (``_Update._open_facets``).
On the catalog charts between 0.03 and 1.1 facets per update remain.

The local norm takes its lengths from the mesh's Simpson edge lengths and
its angles from the vertex metric.  The endpoint metric alone would bias
every step along a growing metric by half a step's variation, which
accumulates along an end; the edge lengths do not.

Near the source the solution is a cone that linear interpolation resolves
poorly, which costs a factor log(1/h).  Inside a fixed ball the update
therefore interpolates rho - rho0, where rho0 is the distance of the
constant metric frozen at the source (additive factoring, Fomel, Luo &
Zhao, J. Comput. Phys. 2009).  That only shifts the neighbour values by
the Taylor remainder of rho0, and it is exact for a constant metric.  The
shift fades out smoothly over the outer half of the ball, so that which
vertices it reaches does not jump with the resolution.

Vertices are accepted in rounds in order of value: each round takes every
open vertex within its shortest edge of the smallest open value and
updates the neighbours that lie above that value.  A vertex reopens when a
later round lowers it.  The number of rounds follows the number of grid
steps from the source, not the spread of the edge lengths.

Most updates cannot lower their vertex: a vertex is updated 2.6 to 3.9
times, and 1.4 to 2.6 of those updates come after it holds its final
value.  A certificate skips those before any face work.  At the minimiser
of a face, each neighbour i that supports it gives the face value as
w_i + <xi, e_i>, with w_i its interpolated value (the factoring shift
included), xi the unit covector of the minimiser and e_i the stretched
offset: the KKT condition on the simplex.  Where every two offsets of a
face meet at a cosine of at least c_v > 0 in the vertex metric (the
stretch scales the offsets but keeps their angles), <xi, e_j> >=
c_v |e_j|, so a face through j, and the one-step value of j, is worth at
least w_j + c_v lx_j, lx_j the edge length.  This is the causality of
acute stencils (Kimmel & Sethian).  The faces whose neighbours did not
fall since the vertex's last update give what they gave then: at least
its value u, less ``LOWER_TOL``.  So when a vertex was updated before, its
stencil is acute (c_v, the least such cosine over its faces, is > 0), and
w_j + c_v lx_j >= u for every neighbour j that fell since that update, its
update cannot lower u by more than ``LOWER_TOL`` and would not be accepted;
it is skipped and rho does not change (re-solving only from the changed
neighbours, Sethian & Vladimirsky, SIAM J. Numer. Anal. 41, 2003).  The
factor c_v is what makes this exact: the bound w_j + lx_j over the fallen
neighbours alone leaves rho up to 3.8% too high.  On the catalog charts the
certificate skips about half of the updates.

The solve holds per vertex the values, the factoring fields, c_v, two
round stamps and a one-byte boundary code; the neighbours of a row come
from index arithmetic on the grid (``NeighbourRows``), not from a stored
table.  A round computes its updates in blocks of rows of
``immersion.BLOCK_BYTES`` working memory (``row_bytes`` a row), and each
block computes the stretch of its rows' offsets from the metric and edge
lengths it gathers, and the facet margins of the rows that
``_open_facets`` keeps.  Rows are independent and the values read-only
within a round, so rho does not depend on the block length.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .immersion import block_len

__all__ = ["NeighbourRows", "Stencil", "stencil", "row_bytes",
           "upwind_distances"]

# a value is lowered only by more than this relative amount
LOWER_TOL = 1e-12
# the factored ball reaches this fraction of the way to the nearest
# domain face or periodic seam
FACTOR_FRACTION = 0.5


@dataclass(frozen=True)
class Stencil:
    """Combinatorics of the neighbour cube for one chart dimension.

    A face is a simplex of k >= 2 neighbours on the cube surface, given by
    its slots in ``offsets`` and by the ids in ``pairs`` of its edges.
    ``star`` lists per k the faces through each slot, as slots (k, S, F)
    and pair ids (k(k-1)/2, S, F) padded by repeats.  ``facets`` lists per
    k the faces on facet f that miss slot j as the range of ``count[f, j]``
    faces from ``start[f, j]`` in one list of slots (k, P) and pair ids
    (k(k-1)/2, P).  Facet f lies on x_a = +-1 for a = ``facet_axis[f]``
    and holds the neighbours ``facet_slots[f]``.
    """

    offsets: np.ndarray      # (S, m) integer offsets, S = 3^m - 1
    opposite: np.ndarray     # (S,) slot of the negated offset
    forward: np.ndarray      # (S,) first nonzero entry of the offset > 0
    pairs: np.ndarray        # (E, 2) slots joined by a face edge
    star: tuple
    facets: tuple
    facet_axis: np.ndarray   # (2m,)
    facet_slots: np.ndarray  # (2m, 3^(m-1))


def _surface_simplices(m: int):
    """(m-1)-simplices of the cube boundary per facet, each a path from
    the facet centre through an edge midpoint and so on out to a corner;
    the facets come in the order (axis 0, -1), (axis 0, +1), (axis 1, -1)
    and so on."""
    out = []
    for axis in range(m):
        others = [a for a in range(m) if a != axis]
        for side in (-1, 1):
            facet = []
            for signs in itertools.product((-1, 1), repeat=m - 1):
                for order in itertools.permutations(range(m - 1)):
                    v = [0] * m
                    v[axis] = side
                    verts = [tuple(v)]
                    for j in order:
                        v[others[j]] = signs[j]
                        verts.append(tuple(v))
                    facet.append(verts)
            out.append(facet)
    return out


@functools.lru_cache(maxsize=None)
def stencil(m: int) -> Stencil:
    offsets = [d for d in itertools.product((-1, 0, 1), repeat=m) if any(d)]
    slot = {d: i for i, d in enumerate(offsets)}
    facet_simplices = [[sorted(slot[v] for v in s) for s in f]
                       for f in _surface_simplices(m)]
    pair_id = {}

    def pid(p, q):
        return pair_id.setdefault((min(p, q), max(p, q)), len(pair_id))

    def faces_of(simplices, k):
        return sorted({sub for ids in simplices
                       for sub in itertools.combinations(ids, k)})

    def tables(groups):
        width = max(len(g) for g in groups)
        groups = [g + g[-1:] * (width - len(g)) for g in groups]
        slots = np.array(groups, dtype=np.intp)
        pids = np.array([[[pid(p, q) for p, q in itertools.combinations(x, 2)]
                          for x in g] for g in groups], dtype=np.intp)
        return (np.ascontiguousarray(slots.transpose(2, 0, 1)),
                np.ascontiguousarray(pids.transpose(2, 0, 1)))

    star, facets = [], []
    for k in range(2, m + 1):
        per_facet = [faces_of(f, k) for f in facet_simplices]
        every = sorted(set().union(*per_facet))
        star.append(tables([[x for x in every if j in x]
                            for j in range(len(offsets))]))
        # the faces of each facet that miss slot j, as ranges of one list
        lists = [[x for x in faces if j not in x]
                 for faces in per_facet for j in range(len(offsets))]
        count = np.array([len(x) for x in lists], dtype=np.intp)
        flat = [x for y in lists for x in y]
        slots = np.array(flat, dtype=np.intp).T
        pids = np.array([[pid(p, q) for p, q in itertools.combinations(x, 2)]
                         for x in flat], dtype=np.intp).T
        facets.append((slots, pids,
                       (np.cumsum(count) - count).reshape(2 * m, -1),
                       count.reshape(2 * m, -1)))
    pairs = np.array(sorted(pair_id, key=pair_id.get),
                     dtype=np.intp).reshape(-1, 2)
    opposite = np.array([slot[tuple(-c for c in d)] for d in offsets],
                        dtype=np.intp)
    facet_axis = np.repeat(np.arange(m), 2)
    facet_slots = np.array([[slot[d] for d in offsets if d[a] == side]
                            for a in range(m) for side in (-1, 1)],
                           dtype=np.intp)
    forward = np.array([next(c for c in d if c) > 0 for d in offsets])
    return Stencil(offsets=np.array(offsets, dtype=np.intp).reshape(-1, m),
                   opposite=opposite, forward=forward, pairs=pairs,
                   star=tuple(star), facets=tuple(facets),
                   facet_axis=facet_axis, facet_slots=facet_slots)


class NeighbourRows:
    """The vertex at each slot of ``stencil(m)`` on a grid, by index
    arithmetic: N where the offset leaves an open axis, wrapped across a
    periodic seam.

    Which slots leave the grid or wrap depends only on whether a vertex
    is first, interior or last along each axis.  So each vertex gets that
    as a base-3 code (one byte, 3^m codes), and ``table`` (3^m, S) holds
    the index step of every slot per code, N where the slot leaves.  A
    call adds the steps of each vertex's code to its index.
    """

    def __init__(self, shape, periodic):
        m = len(shape)
        self.n = math.prod(shape)
        offsets = stencil(m).offsets
        stride = np.array([math.prod(shape[a + 1:]) for a in range(m)])
        k = np.array(shape)
        code = np.zeros(shape, dtype=np.uint8)
        for axis in range(m):
            at = [slice(None)] * m
            at[axis] = slice(1, None)
            code[tuple(at)] += 3 ** (m - 1 - axis)
            at[axis] = -1
            code[tuple(at)] += 3 ** (m - 1 - axis)
        self.code = code.reshape(-1)
        # per code and slot: which axes step off the first or last vertex
        digits = np.array(list(itertools.product(range(3), repeat=m)),
                          dtype=np.intp).reshape(-1, m)[:, None, :]
        first = (digits == 0) & (offsets == -1)
        last = (digits == 2) & (offsets == 1)
        leaves = np.any((first | last) & ~np.array(periodic, dtype=bool),
                        axis=2)
        # a periodic axis wraps by the axis length
        step = (offsets + k * (first.astype(np.intp) - last)) @ stride
        self.table = np.where(leaves, self.n, step)

    def __call__(self, idx) -> np.ndarray:
        """(R, S) intp neighbour indices of the vertices ``idx``."""
        nb = self.table.take(self.code.take(idx), axis=0)
        nb += idx[:, None]
        return np.minimum(nb, self.n, out=nb)


# ---------------------------------------------------------------------------
# the minimum over one face in closed form; matrices are nested lists of
# arrays, and every quantity is scaled by the Gram determinant so that
# nothing is divided before the last step

def _total(xs):
    xs = iter(xs)
    out = next(xs)
    for x in xs:
        out = out + x
    return out


def _det(g):
    """Determinant by cofactor expansion along the first row."""
    if not g:
        return 1.0
    if len(g) == 1:
        return g[0][0]
    out = g[0][0] * _det([row[1:] for row in g[1:]])
    for j in range(1, len(g)):
        term = g[0][j] * _det([row[:j] + row[j + 1:] for row in g[1:]])
        out = out - term if j % 2 else out + term
    return out


def _simplex_values(w, g):
    """Minimum of I + |.| over the open simplex of k neighbours, from
    their values ``w`` and the local inner products ``g`` of their
    offsets; inf marks a minimiser outside the face or a degenerate face.

    With the adjugate A of g, y = A 1 and q = A (w - w_0), the minimiser
    has the value w_0 + v, v the larger root of
    (1'y) v^2 - 2 (y'dw) v + dw'q - det g = 0, and barycentric weights
    proportional to v y - q, which are also returned.
    """
    k = len(w)
    idx = range(k)
    adj = [[None] * k for _ in idx]
    for i in idx:
        for j in range(i, k):
            minor = _det([[g[r][c] for c in idx if c != i]
                          for r in idx if r != j])
            adj[i][j] = adj[j][i] = -minor if (i + j) % 2 else minor
    det = _total(g[0][j] * adj[j][0] for j in idx)
    dw = [x - w[0] for x in w[1:]]
    y = [_total(row) for row in adj]
    q = [_total(a * d for a, d in zip(row[1:], dw)) for row in adj]
    a = _total(y)
    b = _total(yi * d for yi, d in zip(y[1:], dw))
    c = _total(d * qi for d, qi in zip(dw, q[1:])) - det
    val = (b + np.sqrt(b * b - a * c)) / a
    weights = [val * yi - qi for yi, qi in zip(y, q)]
    inside = det > 0.0
    for x in weights:
        inside &= x >= 0.0
    return np.where(inside, w[0] + val, np.inf), weights


class _Update:
    """Local semi-Lagrangian update over one mesh."""

    def __init__(self, shape, periodic, spacing, metric, lengths, source):
        m = len(shape)
        self.st = stencil(m)
        self.neighbours = NeighbourRows(shape, periodic)
        self.lengths = lengths
        self.metric = metric.reshape(-1, m * m)
        self.spacing = np.asarray(spacing, dtype=float)
        self.step = self.st.offsets * self.spacing
        d = self.step
        p, q = self.st.pairs.T
        # squared norms of the offsets and inner products of the face
        # pairs, both linear in the metric entries
        self.norm_cols = np.einsum("sa,sb->abs", d, d).reshape(m * m, -1)
        self.pair_cols = np.einsum("ea,eb->abe", d[p], d[q]).reshape(m * m, -1)
        self._factoring(shape, periodic, spacing, source)
        self._cone()
        self.rows = max(2, block_len(row_bytes(m)))
        # rows evaluated and rows skipped by the certificate
        self.evaluated = self.skipped = 0

    def _cone(self):
        """The least cosine, in the vertex metric, between two offsets of
        one face of each vertex's stencil (1 without faces), in blocks of
        rows small next to the factoring fields.  The stretch scales the
        offsets but keeps their angles."""
        p, q = self.st.pairs.T
        n, rows = self.metric.shape[0], 1024
        self.cone = np.empty(n)
        for lo in range(0, n, rows):
            gf = self.metric[lo:lo + rows]
            norm = gf @ self.norm_cols
            cos = gf @ self.pair_cols
            cos /= np.sqrt(norm.take(p, axis=1) * norm.take(q, axis=1))
            np.min(cos, axis=1, initial=1.0, out=self.cone[lo:lo + rows])

    def _stretch(self, gf, lx):
        """The local norm's stretch of each offset at the rows ``gf`` of the
        metric with edge lengths ``lx``: lengths from the edges over lengths
        from the metric.  A row's bits do not depend on the rows beside it,
        but a product of one row takes another BLAS path than one of
        several, so one row is computed as a batch of two."""
        if len(gf) == 1:
            return self._stretch(np.repeat(gf, 2, axis=0),
                                 np.repeat(lx, 2, axis=0))[:1]
        stretch = gf @ self.norm_cols
        np.sqrt(stretch, out=stretch)
        np.divide(lx, stretch, out=stretch)
        return stretch

    def _factoring(self, shape, periodic, spacing, source):
        """Distance rho0 of the source metric and the ball it is used in."""
        m = len(shape)
        base = np.array(np.unravel_index(source, shape))
        delta = np.indices(shape).reshape(m, -1).T - base
        g0 = self.metric[source].reshape(m, m)
        ginv = np.linalg.inv(g0)
        reach = []
        for axis, k in enumerate(shape):
            if periodic[axis]:
                delta[:, axis] = (delta[:, axis] + k // 2) % k - k // 2
                gap = 0.5 * k * spacing[axis]
            else:
                gap = spacing[axis] * min(base[axis], k - 1 - base[axis])
            # distance in the source metric to the face or seam
            reach.append(gap / np.sqrt(ginv[axis, axis]))
        disp = delta * np.asarray(spacing, dtype=float)
        rho0 = np.sqrt(np.einsum("na,ab,nb->n", disp, g0, disp))
        self.rho0 = np.append(rho0, 0.0)
        # full weight on the inner half of the ball, tapering smoothly to
        # zero at its rim so that the scheme does not jump there; a source
        # on a domain face gets no ball
        radius = FACTOR_FRACTION * min(reach)
        t = np.clip(2.0 * rho0 / radius - 1.0, 0.0, 1.0) if radius > 0.0 \
            else np.ones_like(rho0)
        self.weight = 1.0 - t * t * (3.0 - 2.0 * t)
        self.weight[source] = 0.0
        self.factored = self.weight > 0.0
        self.disp_g0 = disp @ g0

    def __call__(self, idx, u, last, fall):
        """Semi-Lagrangian values at the vertices ``idx`` from ``u``, in
        blocks of ``self.rows`` rows.  ``last`` holds the round of each
        row's last update (-1 for none) and ``fall`` (N + 1,) the round in
        which each value last fell; a row the certificate of ``_certified``
        holds for keeps its value.

        A matrix product of one row takes another BLAS path than one of
        several, with other last bits.  So no block holds a lone row unless
        ``idx`` does, and the factoring slopes of all of ``idx`` come from
        one product, as if it were one block.
        """
        fac = self.factored[idx]
        rows = idx[fac]
        slope = (self.disp_g0[rows] @ self.step.T) / self.rho0[rows][:, None]
        # slope rows of the factored vertices before each position
        at = np.concatenate(([0], np.cumsum(fac)))
        out = np.empty(idx.size)
        lo = 0
        while lo < idx.size:
            hi = idx.size if idx.size - lo <= self.rows + 1 else lo + self.rows
            out[lo:hi] = self._values(idx[lo:hi], u, fac[lo:hi],
                                      slope[at[lo]:at[hi]], last[lo:hi], fall)
            lo = hi
        return out

    def _values(self, idx, u, fac, slope, last, fall):
        nb = self.neighbours(idx)
        w = u.take(nb)
        if fac.any():
            # interpolate rho - rho0: lower each neighbour by the Taylor
            # remainder of rho0 along its offset
            rows = idx[fac]
            r0 = self.rho0[rows][:, None]
            w[fac] -= (self.weight[rows][:, None]
                       * (self.rho0.take(nb[fac]) - r0 - slope))
        lx = self.lengths.take(idx, axis=0)
        out = u.take(idx)
        keep = ~self._certified(out, nb, w, lx, self.cone.take(idx), last,
                                fall)
        if not keep.all():
            # a product of one row takes another BLAS path than one of
            # several, so a block of several rows passes on at least two
            if idx.size > 1 and np.count_nonzero(keep) == 1:
                keep[np.argmin(keep)] = True
            idx, w, lx = idx[keep], w[keep], lx[keep]
        self.evaluated += idx.size
        self.skipped += keep.size - idx.size
        if idx.size:
            out[keep] = self._lowest(idx, w, lx)
        return out

    @staticmethod
    def _certified(u, nb, w, lx, cone, last, fall):
        """Rows whose update cannot lower their value ``u`` (the module
        docstring gives the proof): updated before, in round ``last``, with
        an acute stencil, ``cone`` > 0, and w_j + cone lx_j >= u for every
        neighbour j whose value fell in that round or later.
        """
        sure = (cone > 0.0) & (last >= 0)
        if sure.any():
            fell = fall.take(nb) >= last[:, None]
            # inf - inf where an obtuse row's offset leaves the grid: that
            # row is not certified anyway
            with np.errstate(invalid="ignore"):
                fell &= w + cone[:, None] * lx < u[:, None]
            sure &= ~fell.any(axis=1)
        return sure

    def _lowest(self, idx, w, lx):
        """The least value over the stencil surface of the rows ``idx``
        from their neighbour values ``w`` and edge lengths ``lx``."""
        gf = self.metric.take(idx, axis=0)
        # the local norm: squared lengths from the edges, angle cosines
        # from the metric
        stretch = self._stretch(gf, lx)
        local = (stretch, gf @ self.pair_cols, lx * lx, w)
        one_step = w + lx
        near = np.argmin(one_step, axis=1)
        rows = np.arange(idx.size)
        best = one_step[rows, near]
        if not self.st.star:
            return best
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            # the faces through the best one-step neighbour, tracking the
            # minimiser as a vector of stretched offsets
            point = stretch[rows, near, None] * self.step[near]
            for slots, pids in self.st.star:
                self._faces(rows, slots.take(near, axis=1),
                            pids.take(near, axis=1), local, best, point)
            # the faces off it on every facet not certified to stay above
            rows, facet = self._open_facets(idx, gf, local, near, best,
                                            point)
            for slots, pids, start, count in self.st.facets:
                at = facet, near[rows]
                each = count[at]
                total = int(each.sum())
                if total:
                    pos = np.arange(total) + np.repeat(
                        start[at] - np.cumsum(each) + each, each)
                    self._faces(np.repeat(rows, each), slots[:, pos, None],
                                pids[:, pos, None], local, best)
        return best

    def _open_facets(self, idx, gf, local, near, best, point):
        """(row, facet) pairs whose faces off ``near`` may go below ``best``.

        On a face, I(p) is a convex combination of the neighbour values w
        and |p| >= <xi, q(p)> for the unit covector xi of the minimiser so
        far and q(p) the same combination of stretched offsets, so the face
        stays above the least w + <xi, q> of its neighbours.  A point p of
        the facet x_a = +-h_a has |p| >= s h_a / sqrt(g^aa), with s the
        least stretch of the facet's offsets, so the face also stays above
        the least w of the facet plus that margin.  A facet is certified
        when either bound reaches ``best``, up to ``LOWER_TOL``.
        """
        stretch, _pair, _sq, w = local
        m = point.shape[1]
        gq = np.einsum("nab,nb->na", gf.reshape(-1, m, m), point)
        xi = gq / np.sqrt(np.einsum("na,na->n", gq, point))[:, None]
        bound = w + stretch * (xi @ self.step.T)
        bound[np.arange(idx.size), near] = np.inf
        top = best * (1.0 - LOWER_TOL)
        # rows without a neighbour below the first bound are certified
        # whole; a nan bound certifies nothing
        rows = np.flatnonzero(~(np.fmin.reduce(bound, axis=1) >= top))
        # the facet margins of those rows only
        g = gf.take(rows, axis=0)
        g = [[g[:, a * m + b] for b in range(m)] for a in range(m)]
        det = _det(g)
        gap = self.spacing * np.sqrt(np.stack(
            [det / _det([row[:a] + row[a + 1:] for row in g[:a] + g[a + 1:]])
             for a in range(m)], axis=1))
        fs = self.st.facet_slots
        margin = (np.min(stretch.take(rows, axis=0).take(fs, axis=1), axis=2)
                  * gap.take(self.st.facet_axis, axis=1))
        below = (~(np.fmin.reduce(bound.take(rows, axis=0).take(fs, axis=1),
                                  axis=2) >= top[rows, None])
                 & (np.min(w.take(rows, axis=0).take(fs, axis=1), axis=2)
                    < best[rows, None] - margin))
        hit, facet = np.nonzero(below)
        return rows[hit], facet

    def _faces(self, rows, slots, pids, local, best, point=None):
        """Lowers ``best`` at ``rows`` in place to the minimum over the
        faces ``slots`` (k, R, F) with edges ``pids``.  With ``point``,
        ``rows`` runs over every row and ``point`` takes the minimiser."""
        stretch, pair, sq, w = local
        sl = slots + (rows * w.shape[1])[:, None]
        pr = pids + (rows * pair.shape[1])[:, None]
        k = len(sl)
        st = stretch.take(sl)
        g = [[sq.take(x) if i == j else None for j in range(k)]
             for i, x in enumerate(sl)]
        for (i, j), e in zip(itertools.combinations(range(k), 2), pr):
            g[i][j] = g[j][i] = st[i] * st[j] * pair.take(e)
        vals, weights = _simplex_values(list(w.take(sl)), g)
        if point is None:
            np.minimum.at(best, rows, np.min(vals, axis=1))
            return
        f = np.argmin(vals, axis=1)
        low = vals[rows, f]
        better = np.flatnonzero(low < best)
        best[better] = low[better]
        f = f[better]
        lam = np.array([x[better, f] for x in weights])
        at = slots[:, better, f]
        q = np.einsum("kn,kna->na", lam * stretch[better, at], self.step[at])
        point[better] = q / lam.sum(axis=0)[:, None]


def row_bytes(m: int) -> int:
    """Working bytes of one vertex in an update: the neighbour values and
    stretches, the face pairs and the faces of its star (fitted to
    tracemalloc peaks, m = 1 to 4, within 30% above them)."""
    st = stencil(m)
    star = sum(slots.shape[0] * slots.shape[2] + pids.shape[0] * pids.shape[2]
               for slots, pids in st.star)
    return 8 * (10 * len(st.offsets) + 4 * len(st.pairs) + 3 * star)


def upwind_distances(shape, periodic, spacing, metric, lengths,
                     source: int) -> np.ndarray:
    """Eikonal distance from ``source`` on a chart grid.

    ``lengths`` (N, S) holds the edge length at each offset of
    ``stencil(m)`` (inf where the offset leaves the grid), and ``metric``
    the vertex metric (N, m, m).  Vertices the grid cannot reach keep inf.
    Each vertex carries the round of its last update and the round its
    value last fell; an update the certificate skips counts as made in its
    round, and a neighbour that fell in the round of the last update counts
    as fallen since.
    """
    update = _Update(shape, periodic, spacing, metric, lengths, source)
    n = lengths.shape[0]
    u = np.full(n + 1, np.inf)
    u[source] = 0.0
    reach = np.min(lengths, axis=1)
    mark = np.zeros(n + 1, dtype=bool)
    # the round of each row's last update and of each value's last fall
    last = np.full(n, -1, dtype=np.int32)
    fall = np.full(n + 1, -1, dtype=np.int32)
    # the open set as a mask: read back sorted and unique each round
    is_open = np.zeros(n, dtype=bool)
    is_open[source] = True
    rnd = 0
    while (opened := np.flatnonzero(is_open)).size:
        vals = u[opened]
        low = vals.min()
        take = vals <= low + reach[opened]
        front = opened[take]
        is_open[front] = False
        mark[update.neighbours(front)] = True
        mark[n] = False
        nb = np.flatnonzero(mark)
        mark[nb] = False
        nb = nb[u[nb] > low]
        new = update(nb, u, last.take(nb), fall)
        last[nb] = rnd
        lower = new < u[nb] * (1.0 - LOWER_TOL)
        changed = nb[lower]
        u[changed] = new[lower]
        fall[changed] = rnd
        is_open[changed] = True
        rnd += 1
    return u[:n]
