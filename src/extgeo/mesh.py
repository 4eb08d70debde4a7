"""Discrete model of an immersed manifold over its parameter box.

A mesh samples the chart on a regular grid and connects each vertex to its
axis and diagonal neighbors.  Edge lengths are induced arc lengths along
parameter segments, integrated with a three-point rule whose midpoint data
comes from a once-refined lattice (so every midpoint is evaluated exactly,
not interpolated).  The intrinsic distance to the basepoint, ``rho``, is
an upwind solve of |grad rho| = 1 on the same grid (``extgeo.eikonal``),
made on first use; it converges at first order.  Shortest paths in the
graph would not: restricted to the 3^m - 1 neighbour directions they tend
to a polyhedral norm, 8% long on a flat plane and 13% in flat 3-space at
every resolution.

The graph is stored once, as a neighbour table over the slots of the
eikonal stencil ``stencil(m)``: ``neighbours`` (N, S) holds the vertex at
each offset (N where the offset leaves the grid) and ``neighbour_lengths``
(N, S) the edge length (inf where there is no neighbour).  Each edge is
measured once, along its forward offset (first nonzero entry positive),
and mirrored into the opposite slot.  ``edges`` and ``edge_lengths`` list
the forward entries, slot by slot and in vertex order within a slot.
The grid graph is connected; the components of {r > R}, which count the
ends, come from the same table by pointer jumping.

The refined lattice is also what the volume integrators consume: each of
its nodes carries r and a volume weight, ``refined_r`` and
``refined_weight``.  A grid cell's volume, its center density times
``cell_measure``, is split evenly over the 3^m nodes of its sub-lattice
(``_cell_nodes``), and the shares add up where cells share a node, so the
volume of {r < t} is one weighted count of nodes.  The same sub-lattices
give ``fd_step``, the radial step of the sphere-volume differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .eikonal import stencil, upwind_distances
from .errors import DomainError, GeometryError
from .exprchart import ChartBase
from .immersion import PointGeometry, ambient_of, grid_geometry
from .reporting import write_csv
from .spaceform import Ambient

__all__ = ["MeshGraph", "EndsReport", "build_mesh", "critical_free_radius",
           "count_ends", "ends_window", "ends_stability", "mesh_dump"]

MIN_RESOLUTION = 3
# default threshold on |grad_M r| below which a vertex counts as critical
EPSILON_CRIT = 1e-3
# ends are only probed strictly inside the sampled region
ENDS_WINDOW_FRACTION = 0.8
# the end-count window: this many radii, the first this fraction of the way
# from the critical-free radius to the window's top
ENDS_RADII = 5
ENDS_MARGIN_FRACTION = 0.2
# exhaustion and volume radii stay below this fraction of the truncation
# radius
RADIUS_CAP_FRACTION = 0.9
# rows converted to Python numbers at once when dumping a mesh
DUMP_BLOCK = 4096


@dataclass
class MeshGraph:
    """Vertex geometry, the weighted neighbor graph and, solved on first
    use, the intrinsic distance ``rho`` to the basepoint."""

    chart: ChartBase
    amb: Ambient
    shape: tuple                     # vertices per axis
    origin: np.ndarray               # lower domain corner
    spacing: np.ndarray              # vertex spacing per axis
    points: np.ndarray               # (N, m) chart coordinates
    vertices: PointGeometry          # flat, N entries
    neighbours: np.ndarray           # (N, S) vertex per stencil slot, or N
    neighbour_lengths: np.ndarray    # (N, S) edge length per slot, or inf
    basepoint: int
    _rho: np.ndarray = field(default=None, repr=False)
    refined_r: np.ndarray = field(default=None, repr=False)
    refined_weight: np.ndarray = field(default=None, repr=False)
    _fd_step: float = field(default=None, repr=False)

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.shape)

    @property
    def n_vertices(self) -> int:
        return int(np.prod(self.shape, dtype=int))

    @property
    def r(self) -> np.ndarray:
        return self.vertices.r

    @property
    def r_max(self) -> float:
        return float(np.max(self.vertices.r))

    @property
    def periodic(self):
        return self.chart.periodic

    def _forward(self):
        """Table entries along the forward offsets, slot by slot: (F, N)
        neighbour indices and the mask of those inside the grid."""
        nb = self.neighbours[:, stencil(self.m).forward].T
        return nb, nb < self.n_vertices

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) vertex pairs, each edge once along its forward offset."""
        nb, inside = self._forward()
        u = np.broadcast_to(np.arange(self.n_vertices), nb.shape)[inside]
        return np.stack([u, nb[inside]], axis=1)

    @property
    def edge_lengths(self) -> np.ndarray:
        """(E,) lengths of ``edges`` in the same order."""
        _nb, inside = self._forward()
        return self.neighbour_lengths[:, stencil(self.m).forward].T[inside]

    @property
    def n_edges(self) -> int:
        """Number of edges: the filled forward slots of the table."""
        return int(np.count_nonzero(self._forward()[1]))

    @property
    def rho(self) -> np.ndarray:
        """(N,) upwind eikonal distance to the basepoint, solved on first
        use; it converges to the intrinsic distance.  The grid graph is
        connected, so every vertex gets a finite value."""
        if self._rho is None:
            self._rho = upwind_distances(
                self.shape, self.periodic, self.spacing, self.vertices.metric,
                self.neighbours, self.neighbour_lengths, self.basepoint)
        return self._rho

    def boundary_vertex_mask(self) -> np.ndarray:
        """Vertices on a truncation face.

        Only axes flagged by the chart count; a trimmed coordinate
        singularity (polar margin of a sphere factor) is not a cut toward
        infinity.
        """
        mask = np.zeros(self.shape, dtype=bool)
        for axis, is_trunc in enumerate(self.chart.truncation_axis_flags()):
            if not is_trunc:
                continue
            sl_lo = [slice(None)] * self.m
            sl_lo[axis] = 0
            mask[tuple(sl_lo)] = True
            sl_hi = [slice(None)] * self.m
            sl_hi[axis] = self.shape[axis] - 1
            mask[tuple(sl_hi)] = True
        return mask.reshape(-1)

    @property
    def r_truncation_min(self) -> float:
        """Smallest radial value on a truncation face.

        Beyond this radius the sampled region no longer surrounds the level
        set, so radially global quantities are unreliable there.  Infinite
        when every axis is periodic (no artificial boundary at all).
        """
        mask = self.boundary_vertex_mask()
        if not mask.any():
            return math.inf
        return float(np.min(self.vertices.r[mask]))

    @property
    def r_reliable(self) -> float:
        """Largest radius the sampled region surrounds: ``r_truncation_min``,
        or ``r_max`` when every axis is periodic."""
        cap = self.r_truncation_min
        return cap if math.isfinite(cap) else self.r_max

    @property
    def cell_measure(self) -> float:
        """Parameter measure of one grid cell (same for all)."""
        return float(np.prod(self.spacing))

    @property
    def fd_step(self) -> float:
        """Two grid cells in radial units: twice the median span of r over
        a cell's sub-lattice, among the cells where r varies.  Computed on
        first use."""
        if self._fd_step is None:
            nodes = _cell_nodes(self.shape, self.periodic)
            rmin = rmax = self.refined_r[next(nodes)]
            for ix in nodes:
                sub = self.refined_r[ix]
                rmin, rmax = np.minimum(rmin, sub), np.maximum(rmax, sub)
            spans = (rmax - rmin).reshape(-1)
            spans = spans[spans > 0.0]
            if spans.size == 0:
                raise DomainError("no cell shows radial variation; the pole "
                                  "map appears constant on this mesh")
            self._fd_step = 2.0 * float(np.median(spans))
        return self._fd_step


@dataclass
class EndsReport:
    R: float
    n_ends: int
    n_bounded: int                # far components not reaching the boundary
    component_sizes: list
    critical_free_radius: float


# ---------------------------------------------------------------------------
# construction

def _axis_layout(chart: ChartBase, resolution):
    m = chart.m
    if np.ndim(resolution) == 0:
        res = [int(resolution)] * m
    else:
        res = [int(k) for k in resolution]
        if len(res) != m:
            raise DomainError(
                f"resolution has {len(res)} entries for an m={m} chart")
    for axis, k in enumerate(res):
        if k < MIN_RESOLUTION:
            raise DomainError(
                f"resolution {k} on axis {axis + 1} is below the minimum "
                f"{MIN_RESOLUTION}")
    origin = np.array([chart.domain[i][0] for i in range(m)])
    spans = np.array([chart.domain[i][1] - chart.domain[i][0] for i in range(m)])
    spacing = np.array([spans[i] / (res[i] if chart.periodic[i] else res[i] - 1)
                        for i in range(m)])
    return tuple(res), origin, spacing


def _neighbour_table(shape, periodic, spacing, metric, refined_metric):
    """(N, S) neighbour indices and Simpson edge lengths over the slots of
    ``stencil(m)``; index N and length inf where an offset leaves the grid.

    The arc length of each edge weighs the speed at both endpoints, from
    the vertex metric, and at the midpoint, from the refined lattice.
    """
    st = stencil(len(shape))
    n = int(np.prod(shape, dtype=int))
    neighbours = np.full((n, len(st.offsets)), n, dtype=np.intp)
    lengths = np.full((n, len(st.offsets)), np.inf)
    grid = np.indices(shape).reshape(len(shape), -1)
    for fwd in np.flatnonzero(st.forward):
        delta = st.offsets[fwd]
        ahead = grid + delta[:, None]
        mid = 2 * grid + delta[:, None]
        inside = np.ones(n, dtype=bool)
        for axis, (k, p) in enumerate(zip(shape, periodic)):
            if p:
                ahead[axis] %= k
                mid[axis] %= 2 * k
            else:
                inside &= (ahead[axis] >= 0) & (ahead[axis] < k)
        u = np.flatnonzero(inside)
        v = np.ravel_multi_index(tuple(ahead[:, u]), shape)
        d = delta * spacing

        def speed(gblock):
            q = np.einsum("...ij,i,j->...", gblock, d, d, optimize=True)
            return np.sqrt(np.maximum(q, 0.0))

        # endpoint speeds at every vertex, midpoint speeds per edge
        q = speed(metric)
        q_mid = speed(refined_metric[tuple(mid[:, u])])
        edge = (q[u] + 4.0 * q_mid + q[v]) / 6.0
        if np.any(edge <= 0.0):
            bad = int(np.argmax(edge <= 0.0))
            raise GeometryError(
                f"degenerate edge of zero length at vertex index {int(u[bad])}")
        back = st.opposite[fwd]
        neighbours[u, fwd], lengths[u, fwd] = v, edge
        neighbours[v, back], lengths[v, back] = u, edge
    return neighbours, lengths


def _cell_nodes(shape, periodic):
    """Index tuples into the refined lattice, one per sub-lattice offset d
    in {0, 1, 2}^m (in ``itertools.product`` order): each picks node 2c + d
    of every grid cell c, in cell order, wrapping on periodic axes."""
    cells = [np.arange(k if p else k - 1) for k, p in zip(shape, periodic)]
    for delta in itertools.product((0, 1, 2), repeat=len(shape)):
        yield np.ix_(*[(2 * c + d) % (2 * k)
                       for c, d, k in zip(cells, delta, shape)])


def _node_weights(shape, periodic, sqrt_det_g, measure) -> np.ndarray:
    """Volume weight of every refined node: each cell's center density
    times its measure, split evenly over the 3^m nodes of its sub-lattice
    and summed where cells share a node."""
    nodes = list(_cell_nodes(shape, periodic))
    center = nodes[len(nodes) // 2]          # the offset (1, ..., 1)
    share = sqrt_det_g[center] * measure / len(nodes)
    weight = np.zeros_like(sqrt_det_g)
    for ix in nodes:
        weight[ix] += share
    return weight


def build_mesh(chart: ChartBase, resolution, pole=None) -> MeshGraph:
    """Sample a chart on a grid and assemble the weighted neighbor graph.

    ``resolution`` is the vertex count per axis (one int broadcasts).
    ``pole`` overrides the radial center, which otherwise sits at the image
    of the chart basepoint.  Periodic axes wrap; the others contribute
    truncation faces.
    """
    shape, origin, spacing = _axis_layout(chart, resolution)
    m = chart.m
    amb = ambient_of(chart, pole)

    refined_axes = [origin[i] + 0.5 * spacing[i] * np.arange(
        2 * shape[i] if chart.periodic[i] else 2 * shape[i] - 1)
        for i in range(m)]
    refined_pts = np.stack(
        np.meshgrid(*refined_axes, indexing="ij"), axis=-1)
    refined = grid_geometry(chart, refined_pts, keep_positions=False, amb=amb)
    del refined_pts

    evens = tuple([slice(0, None, 2)] * m)
    vertices = refined.map_arrays(lambda arr, k: np.ascontiguousarray(
        arr[evens].reshape((-1,) + arr.shape[arr.ndim - k:])))

    neighbours, lengths = _neighbour_table(
        shape, chart.periodic, spacing, vertices.metric, refined.metric)

    return MeshGraph(
        chart=chart,
        amb=amb,
        shape=shape,
        origin=origin,
        spacing=spacing,
        points=vertices.points,
        vertices=vertices,
        neighbours=neighbours,
        neighbour_lengths=lengths,
        basepoint=int(np.argmin(vertices.r)),
        refined_r=np.ascontiguousarray(refined.r),
        refined_weight=_node_weights(shape, chart.periodic, refined.sqrt_det_g,
                                     float(np.prod(spacing))),
    )


# ---------------------------------------------------------------------------
# radial machinery

def critical_free_radius(mesh: MeshGraph,
                         epsilon_crit: float = EPSILON_CRIT) -> float:
    """Largest sampled radius whose vertex has |grad_M r| below the
    threshold; zero when no vertex is flagged.

    The radial distance is guaranteed critical-point free past this value
    only as far as the sampling can see; the estimate is resolution
    dependent near saddle points that fall between vertices.
    """
    flagged = mesh.vertices.grad_r_tan_norm < epsilon_crit
    flagged &= ~mesh.vertices.at_pole
    if not flagged.any():
        return 0.0
    return float(np.max(mesh.vertices.r[flagged]))


def _components(neighbours, keep) -> np.ndarray:
    """(N,) component labels of the graph restricted to ``keep``: the
    least vertex index of each component, N outside ``keep``.  Hooking and
    pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 1982): labels
    only fall and stay vertices of their component, so at the fixed point
    they agree across every edge."""
    n = len(neighbours)
    idx = np.flatnonzero(keep)
    nb = neighbours[idx]
    label = np.full(n + 1, n)           # slot N stands for a missing neighbour
    label[idx] = idx
    while True:
        new = label[np.minimum(label[idx], label[nb].min(axis=1))]
        if np.array_equal(new, label[idx]):
            return label[:n]
        label[idx] = new


def _ends_at(mesh: MeshGraph, R: float, r0: float) -> EndsReport:
    """``count_ends`` at a radius already checked against ``r0``."""
    far = mesh.vertices.r > R
    labels = _components(mesh.neighbours, far)
    touching = set(labels[far & mesh.boundary_vertex_mask()].tolist())
    uniq, counts = np.unique(labels[far], return_counts=True)
    sizes = [{"vertices": cnt, "end": lab in touching}
             for lab, cnt in zip(uniq.tolist(), counts.tolist())]
    n_ends = sum(s["end"] for s in sizes)
    sizes.sort(key=lambda s: (-s["vertices"], not s["end"]))
    return EndsReport(R=float(R), n_ends=n_ends,
                      n_bounded=len(sizes) - n_ends,
                      component_sizes=sizes, critical_free_radius=r0)


def count_ends(mesh: MeshGraph, R: float,
               epsilon_crit: float = EPSILON_CRIT) -> EndsReport:
    """Number of unbounded components of {r > R}.

    A component counts as an end when it reaches a truncation face (the
    discrete stand-in for being unbounded); components that stay interior
    are bounded pockets and are reported separately, not counted.
    """
    r0 = critical_free_radius(mesh, epsilon_crit)
    if not R > r0:
        raise DomainError(
            f"end counting needs R > critical-free radius estimate "
            f"{r0:g}, got R={R:g}")
    if R >= mesh.r_max:
        raise DomainError(
            f"R={R:g} is not below the largest sampled radius {mesh.r_max:g}")
    return _ends_at(mesh, R, r0)


def ends_window(mesh: MeshGraph, epsilon_crit: float = EPSILON_CRIT):
    """``ends_stability`` and the ``EndsReport`` at its outermost radius."""
    r0 = critical_free_radius(mesh, epsilon_crit)
    r_hi = ENDS_WINDOW_FRACTION * mesh.r_reliable
    r_lo = r0 + ENDS_MARGIN_FRACTION * (r_hi - r0)
    if not r0 < r_lo < r_hi:
        raise DomainError(
            f"no radius window clear of the critical region: estimate "
            f"{r0:g} against usable maximum {r_hi:g}")
    radii = np.linspace(r_lo, r_hi, ENDS_RADII)
    reports = [_ends_at(mesh, float(t), r0) for t in radii]
    counts = [rep.n_ends for rep in reports]
    return {
        "radii": [float(t) for t in radii],
        "counts": counts,
        "stable": len(set(counts)) == 1,
        "n_ends": counts[-1],
    }, reports[-1]


def ends_stability(mesh: MeshGraph,
                   epsilon_crit: float = EPSILON_CRIT) -> dict:
    """End counts across a window of radii clear of both the critical
    region and the truncation faces; stable means all counts agree."""
    return ends_window(mesh, epsilon_crit)[0]


def mesh_dump(mesh: MeshGraph, path) -> None:
    """Write per-vertex data as CSV, one row per vertex in grid order."""
    m = mesh.m
    header = (["index"] + [f"u{i + 1}" for i in range(m)]
              + ["r", "rho", "alpha_norm", "grad_r_tan"])
    verts = mesh.vertices
    columns = [mesh.points[:, i] for i in range(m)] + [
        verts.r, mesh.rho, verts.norm_alpha, verts.grad_r_tan_norm]

    def rows():
        # plain Python numbers, a block of columns at a time: indexing
        # numpy arrays one cell at a time costs more than formatting it
        for lo in range(0, mesh.n_vertices, DUMP_BLOCK):
            hi = min(lo + DUMP_BLOCK, mesh.n_vertices)
            yield from zip(range(lo, hi),
                           *[c[lo:hi].tolist() for c in columns])

    write_csv(path, header, rows())
