"""Reference distances for the tests: exact geodesic distances on the
rotation hypersurface, and shortest paths in a mesh's graph.

The catalog's rotation hypersurface carries the metric ds^2 + f(s)^2 dtheta^2
with f^2 = a cosh 2s - 1/2 (for n = 3 the equatorial slice has the same
metric and is totally geodesic).  Clairaut's relation f^2 theta' = c makes
a geodesic from the waist point (theta, s) = (0, 0) turn by

    Theta(c) = int c ds / (f sqrt(f^2 - c^2))

and run the length  s + int (f / sqrt(f^2 - c^2) - 1) ds  up to height s.
The point (pi, S) on the antipodal meridian is reached by the geodesic
with Theta(c) = pi over [0, S]; since f^2 - c^2 = f(0)^2 - c^2 + 2a sinh^2 s,
the substitution sinh s = k sinh v with k^2 = (f(0)^2 - c^2) / 2a makes
both integrands smooth.  Only scipy quadrature is used, no mesh code.

``every_update_distances`` is the eikonal solve with every row update
evaluated: the round loop of ``eikonal.upwind_distances`` with no row
marked as updated before, so the certificate that skips updates never
holds.

``graph_distances`` is the other reference: Dijkstra over the mesh edges,
an upper bound on the intrinsic distance that tends to the polyhedral norm
of the neighbour stencil instead of converging to it.  ``graph_components``
labels the components of the mesh graph restricted to a vertex mask.

``full_order_mesh`` is ``build_mesh`` the way it first worked:
second-order geometry over the whole refined lattice, its vertices
sliced out of it, and the edge lengths gathered from that lattice's
stored metric (``full_lattice_table``) over an explicit neighbour table
(``lattice_neighbours``), the reference for the grid's index arithmetic.

``cell_nodes`` gathers each cell's 3^m sub-lattice of the refined lattice
with ``np.ix_`` index arrays, the reference for the slices that
``mesh._node_weights`` and ``MeshGraph.fd_step`` walk; ``node_weights``
splits the cell volumes over it.  ``cell_fraction_ball_volumes``
integrates ball volumes cell by cell: each grid cell contributes its
center density times its parameter measure, scaled by the fraction of its
sub-lattice of refined r values inside the ball.  ``cell_r_spans`` gives
the r-span of each such sub-lattice.

``csv_text`` is a CSV file spelled cell by cell, the reference for the
one-format-per-row writer ``reporting.write_csv``.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from extgeo.eikonal import LOWER_TOL, _Update, stencil
from extgeo.errors import GeometryError
from extgeo.immersion import METRIC, ambient_of, grid_geometry
from extgeo.mesh import MeshGraph, _axis_layout, _refined_shape

QUAD_TOL = 1e-13
# integrands decay like 1/(k sinh v)^2; past this the tail is below 1e-34
FAR = 1e17


def _turn_and_excess(a, c, s_max):
    """Turning angle and length excess of the geodesic with Clairaut
    constant c from the waist up to height s_max (may be inf)."""
    k = math.sqrt((a - 0.5 - c * c) / (2.0 * a))
    v_max = math.asinh((FAR if math.isinf(s_max) else math.sinh(s_max)) / k)
    root = math.sqrt(2.0 * a)

    def parts(v):
        kc = k * math.cosh(v)
        f = math.sqrt(c * c + 2.0 * a * kc * kc)
        return f, kc, root * math.sqrt(1.0 + (k * math.sinh(v)) ** 2)

    def turn(v):
        f, _kc, q = parts(v)
        return c / (f * q)

    def excess(v):
        f, kc, q = parts(v)
        return c * c / ((f + root * kc) * q)

    opts = dict(epsabs=0.0, epsrel=QUAD_TOL, limit=400)
    return quad(turn, 0.0, v_max, **opts)[0], quad(excess, 0.0, v_max, **opts)[0]


def antipodal_excess(a, s_max=math.inf):
    """rho(pi, s_max) - s_max from the waist point; with s_max = inf, the
    limit Delta* of that excess along the end."""
    f0 = math.sqrt(a - 0.5)
    c = brentq(lambda c: _turn_and_excess(a, c, s_max)[0] - math.pi,
               1e-12, f0 * (1.0 - 1e-15), xtol=1e-15)
    return _turn_and_excess(a, c, s_max)[1]


def antipodal_distance(a, s):
    """Intrinsic distance from the waist point to (pi, s)."""
    return abs(s) + antipodal_excess(a, abs(s))


def every_update_distances(mesh):
    """``mesh.rho`` with every row update evaluated."""
    lengths = mesh.neighbour_lengths
    update = _Update(mesh.shape, mesh.periodic, mesh.spacing,
                     mesh.vertices.metric, lengths, mesh.basepoint)
    n = lengths.shape[0]
    u = np.full(n + 1, np.inf)
    u[mesh.basepoint] = 0.0
    reach = np.min(lengths, axis=1)
    never = np.full(n + 1, -1, dtype=np.int32)
    is_open = np.zeros(n, dtype=bool)
    is_open[mesh.basepoint] = True
    while (opened := np.flatnonzero(is_open)).size:
        vals = u[opened]
        low = vals.min()
        front = opened[vals <= low + reach[opened]]
        is_open[front] = False
        nb = np.unique(update.neighbours(front))
        nb = nb[nb < n]
        nb = nb[u[nb] > low]
        new = update(nb, u, never[nb], never)
        lower = new < u[nb] * (1.0 - LOWER_TOL)
        u[nb[lower]] = new[lower]
        is_open[nb[lower]] = True
    assert update.skipped == 0
    return u[:n]


def graph_distances(mesh, source=None):
    """Shortest-path distances in the mesh graph from ``source`` (default:
    the basepoint); inf where the graph does not reach."""
    if source is None:
        source = mesh.basepoint
    n = mesh.n_vertices
    u, v = mesh.edges.T
    graph = csr_matrix((mesh.edge_lengths, (u, v)), shape=(n, n))
    return dijkstra(graph, directed=False, indices=source)


def graph_components(mesh, keep):
    """scipy's component labels of the mesh graph restricted to the vertex
    mask ``keep``; -1 outside ``keep``."""
    n = mesh.n_vertices
    u, v = mesh.edges[keep[mesh.edges].all(axis=1)].T
    graph = csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return np.where(keep, labels, -1)


def _cells(shape, periodic):
    """Cell indices per axis: every vertex starts a cell on a periodic
    axis, all but the last on the others."""
    return [np.arange(k if p else k - 1) for k, p in zip(shape, periodic)]


def cell_nodes(shape, periodic):
    """Index tuples into the refined lattice, one per sub-lattice offset d
    in {0, 1, 2}^m (in ``itertools.product`` order): each gathers node
    2c + d of every grid cell c, in cell order, wrapping on periodic axes.
    The reference for the slices of ``mesh._cell_nodes``."""
    cells = _cells(shape, periodic)
    for delta in itertools.product((0, 1, 2), repeat=len(shape)):
        yield np.ix_(*[(2 * c + d) % (2 * k)
                       for c, d, k in zip(cells, delta, shape)])


def node_weights(shape, periodic, centre_density, measure):
    """``mesh._node_weights`` through the gathers of ``cell_nodes``: each
    cell's share added to its 3^m nodes, one offset after the other."""
    nodes = list(cell_nodes(shape, periodic))
    share = centre_density * measure / len(nodes)
    weight = np.zeros(_refined_shape(shape, periodic))
    for ix in nodes:
        weight[ix] += share
    return weight


def _cell_sublattice_r(mesh):
    """(C, 3^m) refined r values on the sub-lattice of every cell."""
    return np.stack([mesh.refined_r[ix].reshape(-1)
                     for ix in cell_nodes(mesh.shape, mesh.periodic)], axis=1)


def cell_fraction_ball_volumes(mesh, radii):
    """Volume of {r < t} for each t: the sum over cells of the center
    density (evaluated afresh at the cell centers) times ``cell_measure``
    times the fraction of the cell's sub-lattice with r < t."""
    axes = [o + h * (c + 0.5) for o, h, c in zip(
        mesh.origin, mesh.spacing, _cells(mesh.shape, mesh.periodic))]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    density = grid_geometry(mesh.chart, centers, level=METRIC,
                            amb=mesh.amb).sqrt_det_g.reshape(-1)
    weight = density * mesh.cell_measure
    sub = _cell_sublattice_r(mesh)
    return np.array([
        np.sum(weight * np.count_nonzero(sub < t, axis=1) / sub.shape[1])
        for t in radii])


def cell_r_spans(mesh):
    """(C,) max minus min of r over each cell's sub-lattice."""
    sub = _cell_sublattice_r(mesh)
    return sub.max(axis=1) - sub.min(axis=1)


def lattice_neighbours(shape, periodic):
    """(N, S) explicit neighbour indices over the slots of ``stencil(m)``:
    each vertex's grid coordinates plus the offset, wrapped on periodic
    axes, flattened in C order; N where the offset leaves an open axis."""
    st = stencil(len(shape))
    n = int(np.prod(shape, dtype=int))
    neighbours = np.full((n, len(st.offsets)), n, dtype=np.intp)
    grid = np.indices(shape).reshape(len(shape), -1)
    for slot, delta in enumerate(st.offsets):
        ahead = grid + delta[:, None]
        inside = np.ones(n, dtype=bool)
        for axis, (k, p) in enumerate(zip(shape, periodic)):
            if p:
                ahead[axis] %= k
            else:
                inside &= (ahead[axis] >= 0) & (ahead[axis] < k)
        neighbours[inside, slot] = np.ravel_multi_index(
            tuple(ahead[:, inside]), shape)
    return neighbours


def full_lattice_table(shape, periodic, spacing, metric, refined_metric):
    """(N, S) neighbour indices (``lattice_neighbours``) and Simpson edge
    lengths over the slots of ``stencil(m)``, the midpoint speeds gathered
    edge by edge from the metric of the whole refined lattice."""
    st = stencil(len(shape))
    neighbours = lattice_neighbours(shape, periodic)
    n = len(neighbours)
    lengths = np.full(neighbours.shape, np.inf)
    grid = np.indices(shape).reshape(len(shape), -1)
    for fwd in np.flatnonzero(st.forward):
        delta = st.offsets[fwd]
        u = np.flatnonzero(neighbours[:, fwd] < n)
        v = neighbours[u, fwd]
        mid = 2 * grid[:, u] + delta[:, None]
        for axis, (k, p) in enumerate(zip(shape, periodic)):
            if p:
                mid[axis] %= 2 * k
        d = delta * spacing

        def speed(gblock):
            q = np.einsum("...ij,i,j->...", gblock, d, d, optimize=True)
            return np.sqrt(np.maximum(q, 0.0))

        # endpoint speeds at every vertex, midpoint speeds per edge
        q = speed(metric)
        q_mid = speed(refined_metric[tuple(mid)])
        edge = (q[u] + 4.0 * q_mid + q[v]) / 6.0
        if np.any(edge <= 0.0):
            bad = int(np.argmax(edge <= 0.0))
            raise GeometryError(
                f"degenerate edge of zero length at vertex index {int(u[bad])}")
        lengths[u, fwd] = lengths[v, st.opposite[fwd]] = edge
    return neighbours, lengths


def full_order_mesh(chart, resolution, pole=None):
    """``build_mesh`` from one ``BENDING`` geometry of the refined
    lattice, with the vertex geometry taken at every second node."""
    shape, origin, spacing = _axis_layout(chart, resolution)
    amb = ambient_of(chart, pole)
    axes = [o + 0.5 * h * np.arange(2 * k if p else 2 * k - 1)
            for o, h, k, p in zip(origin, spacing, shape, chart.periodic)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    refined = grid_geometry(chart, pts, amb=amb)
    evens = tuple([slice(0, None, 2)] * chart.m)
    vertices = refined.map_arrays(lambda arr, k: np.ascontiguousarray(
        arr[evens].reshape((-1,) + arr.shape[arr.ndim - k:])))
    _neighbours, lengths = full_lattice_table(
        shape, chart.periodic, spacing, vertices.metric, refined.metric)
    nodes = list(cell_nodes(shape, chart.periodic))
    centre = nodes[len(nodes) // 2]          # the offset (1, ..., 1)
    return MeshGraph(
        chart=chart, amb=amb, shape=shape, origin=origin, spacing=spacing,
        points=vertices.points, vertices=vertices, neighbour_lengths=lengths,
        basepoint=int(np.argmin(vertices.r)),
        refined_r=np.ascontiguousarray(refined.r),
        refined_weight=node_weights(shape, chart.periodic,
                                    refined.sqrt_det_g[centre],
                                    float(np.prod(spacing))))


def csv_cell(x) -> str:
    """One CSV cell: text as it is, true/false for a bool, an int in
    decimal and anything else as a float with %.17g (nan, inf, -inf)."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def csv_text(header, rows) -> str:
    """The text of a CSV file with these rows, formatted cell by cell."""
    lines = [",".join(header)] + [",".join(csv_cell(c) for c in row)
                                  for row in rows]
    return "\n".join(lines) + "\n"
