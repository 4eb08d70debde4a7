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

The grid is the graph: the neighbour of a vertex at each offset of the
eikonal stencil ``stencil(m)`` is index arithmetic on the vertex grid
(wrapping on periodic axes), so no index table is stored.  The mesh
stores the edge lengths over those slots, ``neighbour_lengths`` (N, S),
inf where the offset leaves the grid.  One walker, ``_edge_slabs``, says
where the edges lie: per forward offset (first nonzero entry positive),
the pieces of the vertex grid that hold their start and end vertices, a
periodic seam its own piece.  Each edge is measured once, along its
forward offset, and mirrored into the opposite slot piece by piece;
``forward_slots`` hands the pieces on, ``n_edges`` counts them, and
``edges`` and ``edge_lengths`` list the forward entries from them, slot by
slot and in vertex order within a slot.  The grid graph is connected.

The topology of r reads one order and one sparser complex.  The order is
``MeshGraph.r_rank``, r with ties going to the larger index; the complex
is the Kuhn (Freudenthal) triangulation of the grid, which splits each
cell into the m! simplices of its monotone corner-to-corner paths (its
edges are the offsets in {0, 1}^m and their negatives, ``kuhn_link``).
``critical_vertices`` tests each vertex's link in it, and ``_climb``
steps each vertex up to its latest neighbour until it reaches a peak, so
the components of {r > R} are basins of peaks joined at known ranks.
Every peak and every merge of two components is then a vertex that the
link test flags.  ``ends_stability`` is the one end counter: it counts
the components that reach a truncation face at each radius of a window
that starts past the largest r of a critical vertex, and returns an
``EndsReport`` of the counts and the outermost components.

Only the vertices carry the ``BENDING`` geometry (|alpha|^2 and the radial
split that the invariants read).  Both lattices stream as boxes of
``immersion.stream_lattice``, with chart jets seeded per axis, so each box
runs its metric algebra once per distinct Jacobian.  The refined lattice
is a ``METRIC`` request, streamed in blocks of ``immersion.BLOCK_BYTES``
one parity class at a time (``_refined_pass``), and the vertex lattice is
written box by box into the vertex geometry
(``immersion.collect_geometry``).  Each block of a class writes r in
place, and the cell centres their sqrt det g.  A class holds the midpoints
of the edges along the offsets with its odd axes, so each block turns its
metric into their speeds (``_speed``, whose bits do not depend on the
block) and drops it; no refined metric is stored.  The pieces of
``_edge_slabs`` put the speeds into the forward slots of the length table,
and ``_neighbour_table`` makes them Simpson lengths in place.  A mesh
holds per vertex its ``BENDING`` fields, the lengths of its 3^m - 1 edges,
and rho, and per refined node r and a volume weight.  ``mesh_bytes``
estimates that and the peak of the build and rho solve from the shape
alone, and ``build_mesh`` (and the CLI, before the pole) refuses a mesh
over ``MEMORY_BUDGET``, or a chart of more than ``MAX_MESH_M`` dimensions,
with a ``ConfigError``.

The refined lattice is also what the volume integrators consume: each of
its nodes carries r and a volume weight, ``refined_r`` and
``refined_weight``.  A grid cell's volume, its center density times
``cell_measure``, is split evenly over the 3^m nodes of its sub-lattice
(``_cell_nodes``), and the shares add up where cells share a node, so the
volume of {r < t} is one weighted count of nodes.  The same sub-lattices
give ``fd_step``, the radial step of the sphere-volume differences.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .eikonal import ROW_BLOCK_BYTES, stencil, upwind_distances
from .errors import ConfigError, DomainError, GeometryError
from .exprchart import ChartBase
from .immersion import (BENDING, METRIC, PointGeometry, ambient_of,
                        collect_geometry, stream_lattice)
from .reporting import CSV_CHUNK, write_csv
from .spaceform import Ambient

__all__ = ["MeshGraph", "EndsReport", "build_mesh", "check_budget",
           "critical_free_radius", "critical_vertices", "ends_stability",
           "kuhn_link", "mesh_bytes", "mesh_dump"]

MIN_RESOLUTION = 3
# ends are only probed strictly inside the sampled region
ENDS_WINDOW_FRACTION = 0.8
# the end-count window: this many radii, the first this fraction of the way
# from the critical-free radius to the window's top
ENDS_RADII = 5
ENDS_MARGIN_FRACTION = 0.2
# exhaustion and volume radii stay below this fraction of the truncation
# radius
RADIUS_CAP_FRACTION = 0.9
# the largest estimated peak (``mesh_bytes``) of a mesh build and its rho
# solve; a larger mesh is refused before any chart evaluation
MEMORY_BUDGET = 2 * 2**30
# the largest chart dimension with a mesh: the eikonal stencil of m = 4
# builds in 0.4 s, that of m = 5 took 44 s and a peak RSS of 850 MB (one
# process on a 2-core x86-64 host), so it is refused from m alone
MAX_MESH_M = 4


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
    # (N, S) edge length per slot of ``stencil(m)``, or inf where the
    # offset leaves the grid; the vertex there is index arithmetic
    neighbour_lengths: np.ndarray
    basepoint: int
    _rho: np.ndarray = field(default=None, repr=False)
    _r_rank: np.ndarray = field(default=None, init=False, repr=False)
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

    def forward_slots(self):
        """The edges as slabs of the vertex grid, ``(slot, pieces)`` per
        forward slot (see ``_edge_slabs``).  Each edge is one entry of one
        piece."""
        return _edge_slabs(self.shape, self.periodic)

    def _slot_edges(self):
        """Per forward slot: the slot and the start and end vertices of its
        edges, by start vertex."""
        grid = np.arange(self.n_vertices).reshape(self.shape)
        for slot, pieces in self.forward_slots():
            start, end = (np.concatenate([grid[ix].reshape(-1) for ix in side])
                          for side in zip(*pieces))
            order = np.argsort(start, kind="stable")
            yield slot, start[order], end[order]

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) vertex pairs, each edge once along its forward offset,
        slot by slot and in vertex order within a slot."""
        return np.concatenate([np.stack([start, end], axis=1)
                               for _slot, start, end in self._slot_edges()])

    @property
    def edge_lengths(self) -> np.ndarray:
        """(E,) lengths of ``edges`` in the same order."""
        return np.concatenate([self.neighbour_lengths[start, slot]
                               for slot, start, _end in self._slot_edges()])

    @property
    def n_edges(self) -> int:
        """Number of edges: the in-grid entries of the forward slots."""
        return sum(math.prod(s.stop - s.start for s in here)
                   for _slot, pieces in self.forward_slots()
                   for here, _there in pieces)

    @property
    def rho(self) -> np.ndarray:
        """(N,) upwind eikonal distance to the basepoint, solved on first
        use; it converges to the intrinsic distance.  The grid graph is
        connected, so every vertex gets a finite value."""
        if self._rho is None:
            self._rho = upwind_distances(
                self.shape, self.periodic, self.spacing, self.vertices.metric,
                self.neighbour_lengths, self.basepoint)
        return self._rho

    @property
    def r_rank(self) -> np.ndarray:
        """(N,) each vertex's place in the order of r, ties going to the
        larger index; made on first use."""
        if self._r_rank is None:
            self._r_rank = np.empty(self.n_vertices, dtype=np.intp)
            self._r_rank[np.argsort(self.r, kind="stable")] = np.arange(
                self.n_vertices)
        return self._r_rank

    def boundary_vertex_mask(self) -> np.ndarray:
        """Vertices on a truncation face.

        Only axes flagged by the chart count; a trimmed coordinate
        singularity (polar margin of a sphere factor) is not a cut toward
        infinity.
        """
        mask = np.zeros(self.shape, dtype=bool)
        for axis, is_trunc in enumerate(self.chart.truncation_axis_flags()):
            if is_trunc:
                mask[(slice(None),) * axis + ([0, -1],)] = True
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
            cells = [k if p else k - 1
                     for k, p in zip(self.shape, self.periodic)]
            rmin, rmax = np.full(cells, np.inf), np.full(cells, -np.inf)
            for pieces in _cell_nodes(self.shape, self.periodic):
                for here, there in pieces:
                    sub = self.refined_r[there]
                    np.minimum(rmin[here], sub, out=rmin[here])
                    np.maximum(rmax[here], sub, out=rmax[here])
            spans = (rmax - rmin).reshape(-1)
            spans = spans[spans > 0.0]
            if spans.size == 0:
                raise DomainError("no cell shows radial variation; the pole "
                                  "map appears constant on this mesh")
            # twice the median, from a partition: np.median's NaN check
            # imports numpy.ma
            k = spans.size
            part = np.partition(spans, [(k - 1) // 2, k // 2])
            self._fd_step = float(part[(k - 1) // 2] + part[k // 2])
        return self._fd_step


@dataclass
class EndsReport:
    """End counts over the probe window of ``ends_stability``; the
    components are those of {r > R} at its outermost radius."""

    radii: list
    counts: list                  # ends at each radius
    critical_free_radius: float
    n_bounded: int                # far components not reaching the boundary
    component_sizes: list

    @property
    def n_ends(self) -> int:
        return self.counts[-1]

    @property
    def stable(self) -> bool:
        """Every radius of the window sees the same number of ends."""
        return len(set(self.counts)) == 1

    def window(self) -> dict:
        return {"radii": self.radii, "counts": self.counts,
                "stable": self.stable, "n_ends": self.n_ends}


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


def _speed(metric, d) -> np.ndarray:
    """Speed |d|_g of the offset d under each (m, m) metric of a stack: the
    sum of d_i d_j g_ij over the axes d moves along, entry by entry, the
    upper triangle row by row and doubled off the diagonal, so each speed
    has the bits it would have alone, wherever its metric sits."""
    q = 0.0
    for i, j in itertools.combinations_with_replacement(np.flatnonzero(d), 2):
        q = q + (1.0 if i == j else 2.0) * d[i] * d[j] * metric[..., i, j]
    return np.sqrt(np.maximum(q, 0.0))


def _edge_slabs(shape, periodic):
    """The one walk over the edges of the grid graph: per forward slot of
    ``stencil(m)``, ``(slot, pieces)``, each piece a pair ``(here,
    there)`` of slices of the vertex grid that hold the start and the end
    vertex of each of its edges at the same position.  A periodic axis
    that the offset moves along splits into the run inside the grid and
    the seam that closes it; each edge lies in exactly one piece."""
    st = stencil(len(shape))
    for slot in np.flatnonzero(st.forward):
        runs = []
        for d, k, p in zip(st.offsets[slot], shape, periodic):
            lo, hi = max(0, -d), k - max(0, d)
            runs.append([(slice(lo, hi), slice(lo + d, hi + d))])
            if p and d:
                start = k - 1 if d > 0 else 0
                end = (start + d) % k
                runs[-1].append((slice(start, start + 1),
                                 slice(end, end + 1)))
        yield slot, [tuple(zip(*axes)) for axes in itertools.product(*runs)]


def _neighbour_table(shape, periodic, spacing, metric, lengths):
    """Turns the midpoint speeds that ``_refined_pass`` left in the forward
    slots of ``lengths`` (N, S) into Simpson edge lengths, in place, and
    mirrors each into the opposite slot of the edge's end vertex, piece by
    piece of ``_edge_slabs``.

    The arc length of each edge weighs the speed at both endpoints, from
    the vertex metric (``_speed`` over every vertex, once per slot), and
    at the midpoint.
    """
    st = stencil(len(shape))
    table = lengths.reshape(*shape, -1)
    for fwd, pieces in _edge_slabs(shape, periodic):
        speed = _speed(metric, st.offsets[fwd] * spacing).reshape(shape)
        for here, there in pieces:
            mid = table[..., fwd][here]
            mid[...] = (speed[here] + 4.0 * mid + speed[there]) / 6.0
            table[..., st.opposite[fwd]][there] = mid
        if np.any(lengths[:, fwd] <= 0.0):
            raise GeometryError(
                f"degenerate edge of zero length at vertex index "
                f"{int(np.argmax(lengths[:, fwd] <= 0.0))}")


def _cell_nodes(shape, periodic):
    """Per sub-lattice offset d in {0, 1, 2}^m (in ``itertools.product``
    order), the pieces ``(cells, nodes)`` of slices of the cell grid and of
    the refined lattice that put node 2c + d of each grid cell c at the
    cell's position, wrapping on periodic axes.  On a periodic axis the
    offset 2 splits into the run inside the lattice and the last cell,
    whose node closes the seam; each cell lies in exactly one piece."""
    for delta in itertools.product((0, 1, 2), repeat=len(shape)):
        runs = []
        for d, k, p in zip(delta, shape, periodic):
            if p and d == 2:
                runs.append([(slice(0, k - 1), slice(2, 2 * k - 1, 2)),
                             (slice(k - 1, k), slice(0, 1))])
            else:
                c = k if p else k - 1
                runs.append([(slice(0, c), slice(d, d + 2 * c - 1, 2))])
        yield [tuple(zip(*axes)) for axes in itertools.product(*runs)]


def _refined_shape(shape, periodic):
    return tuple(2 * k if p else 2 * k - 1 for k, p in zip(shape, periodic))


def _node_weights(shape, periodic, centre_density, measure) -> np.ndarray:
    """Volume weight of every refined node: each cell's centre density
    (``centre_density``, in cell order) times its measure, split evenly
    over the 3^m nodes of its sub-lattice and summed where cells share a
    node."""
    nodes = list(_cell_nodes(shape, periodic))
    share = centre_density * measure / len(nodes)
    weight = np.zeros(_refined_shape(shape, periodic))
    for pieces in nodes:
        for here, there in pieces:
            weight[there] += share[here]
    return weight


def mesh_bytes(shape, periodic) -> tuple:
    """``(held, peak)`` estimated bytes of a mesh of this shape: what the
    built mesh holds once rho and ``r_rank`` are made, and that plus the
    most its build or its rho solve holds on top at once.  It reads the
    shape alone; no chart is evaluated and no stencil built."""
    m, n = len(shape), math.prod(shape)
    n_refined = math.prod(_refined_shape(shape, periodic))
    slots = 3 ** m - 1
    # per vertex the BENDING fields (at_pole a bool), rho and the r rank,
    # the edge lengths per slot (held from the refined pass on, which
    # writes the midpoint speeds into them) and, per refined node, r and
    # the volume weight
    held = n * (8 * (m * m + m + 7) + 1 + 8 * slots) + 16 * n_refined
    # on top of that the rho solve holds the factoring fields, the values,
    # the boundary codes, the least face cosine and two int32 round stamps,
    # and one block of rows, which computes its own neighbours, stretches
    # and facet margins.  The build holds less: a geometry block and, per
    # vertex, at most 8 max(2^(m-1) + 2, 5) bytes (a parity class's r,
    # cell-centre density and slot speeds, or the Simpson step's density,
    # vertex speeds and three temporaries), under the solve's 8(2m + 10) + 1
    # for every m <= MAX_MESH_M, so the solve sets the peak
    return held, held + n * (8 * (2 * m + 10) + 1) + ROW_BLOCK_BYTES


def check_budget(chart: ChartBase, resolution) -> None:
    """Refuse a mesh whose estimated peak (``mesh_bytes``) is over
    ``MEMORY_BUDGET``, from the resolution alone, and then a chart of more
    than ``MAX_MESH_M`` dimensions."""
    shape = _axis_layout(chart, resolution)[0]
    held, peak = mesh_bytes(shape, chart.periodic)
    if peak > MEMORY_BUDGET:
        raise ConfigError(
            f"mesh: resolution {list(shape)} holds an estimated "
            f"{held / 2**30:.1f} GiB once built, and more while it is built, "
            f"over the memory budget of {MEMORY_BUDGET / 2**30:g} GiB")
    if chart.m > MAX_MESH_M:
        raise ConfigError(
            f"mesh: an m={chart.m} chart is over the largest mesh dimension "
            f"{MAX_MESH_M}; the eikonal stencil of its 3^m - 1 neighbours "
            f"is too large to build")


def _refined_pass(chart, amb, shape, spacing, refined_axes):
    """The ``METRIC`` geometry of the refined lattice, streamed: refined r,
    the cell-centre sqrt det g (in cell order) and the (N, S) length table
    of ``_neighbour_table`` with the midpoint speed of each edge in its
    forward slot at the edge's start vertex, and inf elsewhere.

    It runs one parity class at a time.  The nodes with odd indices on the
    axes that a slot's offset moves along are the midpoints of its edges,
    so each box of a class writes the speeds of its slots (``_speed``), a
    buffer per slot, and keeps no metric.  The pieces of ``_edge_slabs``
    place them: a midpoint's class index is the piece's start slice, or
    its end slice on an axis the offset steps back on.
    """
    st = stencil(chart.m)
    slabs = dict(_edge_slabs(shape, chart.periodic))
    refined_r = np.empty([len(ax) for ax in refined_axes])
    lengths = np.full((math.prod(shape), len(st.offsets)), np.inf)
    table = lengths.reshape(*shape, -1)
    for parity in itertools.product((0, 1), repeat=chart.m):
        axes = [ax[p::2] for ax, p in zip(refined_axes, parity)]
        lattice = [len(ax) for ax in axes]
        speeds = {fwd: np.empty(lattice) for fwd in slabs
                  if np.array_equal(st.offsets[fwd] != 0, parity)}
        r = np.empty(lattice)
        density = np.empty(lattice) if all(parity) else None

        for lo, geom in stream_lattice(chart, amb, axes, METRIC):
            hi = lo + len(geom.r)
            r.reshape(-1)[lo:hi] = geom.r
            for fwd, speed in speeds.items():
                speed.reshape(-1)[lo:hi] = _speed(geom.metric,
                                                  st.offsets[fwd] * spacing)
            if density is not None:
                density.reshape(-1)[lo:hi] = geom.sqrt_det_g
        refined_r[tuple(slice(p, None, 2) for p in parity)] = r
        if density is not None:
            centre_density = density
        for fwd, speed in speeds.items():
            for here, there in slabs[fwd]:
                mid = tuple(end if d < 0 else start for start, end, d
                            in zip(here, there, st.offsets[fwd]))
                table[..., fwd][here] = speed[mid]
    return refined_r, centre_density, lengths


def build_mesh(chart: ChartBase, resolution, pole=None) -> MeshGraph:
    """Sample a chart on a grid and assemble the weighted neighbor graph.

    ``resolution`` is the vertex count per axis (one int broadcasts).
    ``pole`` overrides the radial center, which otherwise sits at the image
    of the chart basepoint.  Periodic axes wrap; the others contribute
    truncation faces.  A mesh over ``MEMORY_BUDGET`` is refused first.
    """
    check_budget(chart, resolution)
    shape, origin, spacing = _axis_layout(chart, resolution)
    amb = ambient_of(chart, pole)
    refined_axes = [o + 0.5 * h * np.arange(2 * k if p else 2 * k - 1)
                    for o, h, k, p in zip(origin, spacing, shape,
                                          chart.periodic)]
    # the whole lattice first, so its checks fire before the vertices'
    refined_r, centre_density, lengths = _refined_pass(
        chart, amb, shape, spacing, refined_axes)
    vertices = collect_geometry(stream_lattice(
        chart, amb, [ax[::2] for ax in refined_axes], BENDING),
        math.prod(shape))
    _neighbour_table(shape, chart.periodic, spacing, vertices.metric, lengths)

    return MeshGraph(
        chart=chart,
        amb=amb,
        shape=shape,
        origin=origin,
        spacing=spacing,
        points=vertices.points,
        vertices=vertices,
        neighbour_lengths=lengths,
        basepoint=int(np.argmin(vertices.r)),
        refined_r=refined_r,
        refined_weight=_node_weights(shape, chart.periodic, centre_density,
                                     float(np.prod(spacing))),
    )


# ---------------------------------------------------------------------------
# radial machinery

@functools.lru_cache(maxsize=None)
def kuhn_link(m: int):
    """``(offsets, faces)``: the link of a vertex in the Kuhn (Freudenthal)
    triangulation of the grid, which splits each cell into the m!
    simplices of its monotone corner-to-corner paths.  Each face is a
    tuple of indices into ``offsets``, closed under subsets and ordered by
    size: 12 faces at m = 2, 74 at m = 3."""
    centre, tops = (0,) * m, set()
    for lower in itertools.product((-1, 0), repeat=m):
        for order in itertools.permutations(range(m)):
            path = [lower]
            for axis in order:
                path.append(tuple(c + (a == axis)
                                  for a, c in enumerate(path[-1])))
            if centre in path:
                tops.add(frozenset(path) - {centre})
    offsets = tuple(sorted(set().union(*tops)))
    faces = {tuple(sorted(offsets.index(d) for d in sub)) for top in tops
             for k in range(1, m + 1) for sub in itertools.combinations(top, k)}
    return offsets, tuple(sorted(faces, key=lambda f: (len(f), f)))


def critical_vertices(mesh: MeshGraph) -> np.ndarray:
    """Indices of the PL-critical vertices of r, in vertex order: those
    whose upper link does not have the Euler characteristic 1 of a ball
    (Banchoff, J. Diff. Geom. 1, 1967).  The minimum has the whole link, a
    maximum none, and a saddle two or more pieces.  The link is
    ``kuhn_link(m)``, and a neighbour is upper when it is later in
    ``MeshGraph.r_rank``.  Only the vertices whose link lies in the grid
    (periodic axes wrapping) are tested, all at once on shifted views of
    the rank grid."""
    offsets, faces = kuhn_link(mesh.m)
    shape, periodic = mesh.shape, mesh.periodic
    pad = [(1, 1) if p else (0, 0) for p in periodic]
    rank = np.pad(mesh.r_rank.reshape(shape), pad, mode="wrap")
    here = rank[tuple(slice(1, k - 1) for k in rank.shape)]
    uppers = [rank[tuple(slice(1 + e, k - 1 + e)
                         for e, k in zip(d, rank.shape))] > here
              for d in offsets]
    # faces by size: each partial sum is the Euler characteristic of a
    # skeleton of the upper link, within int8 up to m = 4
    chi = np.zeros(here.shape, dtype=np.int8)
    for face in faces:
        inside = functools.reduce(np.logical_and, [uppers[i] for i in face])
        if len(face) % 2:
            chi += inside
        else:
            chi -= inside
    # the tested vertices' coordinates: all of them on a periodic axis
    rows = [np.arange(k) if p else np.arange(1, k - 1)
            for k, p in zip(shape, periodic)]
    return np.ravel_multi_index(
        [row[i] for row, i in zip(rows, np.nonzero(chi != 1))], shape)


def critical_free_radius(mesh: MeshGraph) -> float:
    """Largest r of a critical vertex (``critical_vertices``), 0 when there
    is none: past it r has no critical point that the mesh can see."""
    return float(np.max(mesh.r[critical_vertices(mesh)], initial=0.0))


def _climb(mesh: MeshGraph):
    """``(basin, joins)``: the superlevel sets of r on the Kuhn edges (the
    pieces of ``_edge_slabs`` with offsets in {0, 1}^m, both ways).

    Each vertex steps to its latest neighbour in ``r_rank``, or stays at a
    peak, and pointer jumping takes it to its peak, its entry of ``basin``
    (N,).  A climb only rises, so the components of {r > R} are the basins
    of the peaks above R, joined along the edges between basins whose
    lower end lies above R.  ``joins`` (K, 3) holds per pair of adjacent
    basins the lower end of its latest edge and the two peaks, latest
    first.
    """
    shape, n = mesh.shape, mesh.n_vertices
    offsets = stencil(mesh.m).offsets
    kuhn = {d for d in kuhn_link(mesh.m)[0] if min(d) >= 0}
    slabs = [piece for slot, pieces in _edge_slabs(shape, mesh.periodic)
             if tuple(offsets[slot]) in kuhn for piece in pieces]
    rank = mesh.r_rank.reshape(shape)
    latest = rank.copy()
    for here, there in slabs:
        np.maximum(latest[here], rank[there], out=latest[here])
        np.maximum(latest[there], rank[here], out=latest[there])
    order = np.empty(n, dtype=np.intp)          # the vertex of each rank
    order[mesh.r_rank] = np.arange(n)
    basin = order[latest.reshape(-1)]
    while not np.array_equal(top := basin[basin], basin):
        basin = top
    peak, found = basin.reshape(shape), []
    for here, there in slabs:
        a, b = peak[here], peak[there]
        cross = a != b
        found.append((np.minimum(a, b)[cross] * n + np.maximum(a, b)[cross],
                      np.minimum(rank[here][cross], rank[there][cross])))
    # per pair of peaks, the latest lower end of an edge between them
    pair, low = map(np.concatenate, zip(*found))
    pairs, at = np.unique(pair, return_inverse=True)
    latest = np.full(pairs.size, -1)
    np.maximum.at(latest, at, low)
    by = np.argsort(-latest)
    return basin, np.stack([order[latest[by]], pairs[by] // n,
                            pairs[by] % n], axis=1)


def ends_stability(mesh: MeshGraph) -> EndsReport:
    """End counts across a window of radii clear of both the critical
    region and the truncation faces.

    At each radius R an end is a component of {r > R} that reaches a
    truncation face (the discrete stand-in for being unbounded);
    components that stay interior are bounded pockets, reported at the
    outermost radius and not counted.  A union-find joins ``_climb``'s
    basins.
    """
    r0 = critical_free_radius(mesh)
    r_hi = ENDS_WINDOW_FRACTION * mesh.r_reliable
    r_lo = r0 + ENDS_MARGIN_FRACTION * (r_hi - r0)
    if not r0 < r_lo < r_hi:
        raise DomainError(
            f"no radius window clear of the critical region: estimate "
            f"{r0:g} against usable maximum {r_hi:g}")
    radii = [float(t) for t in np.linspace(r_lo, r_hi, ENDS_RADII)]
    r, boundary = mesh.r, mesh.boundary_vertex_mask()
    basin, joins = _climb(mesh)
    peaks = np.flatnonzero(basin == np.arange(basin.size))
    parent = {p: p for p in peaks.tolist()}

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]       # path halving
        return p

    counts, components = [], None
    # outermost first: {r > R} grows inwards, and each join holds from the
    # first radius below its lower end on
    for t in reversed(radii):
        for _, p, q in joins[r[joins[:, 0]] > t].tolist():
            parent[find(p)] = find(q)
        far = r > t
        touching = {find(p) for p in set(basin[far & boundary].tolist())}
        counts.insert(0, len(touching))
        if components is None:
            sizes, tally = {}, np.bincount(basin[far], minlength=r.size)
            for p in peaks[r[peaks] > t].tolist():
                sizes[find(p)] = sizes.get(find(p), 0) + int(tally[p])
            components = [{"vertices": k, "end": p in touching}
                          for p, k in sizes.items()]
            components.sort(key=lambda s: (-s["vertices"], not s["end"]))
    return EndsReport(radii=radii, counts=counts, critical_free_radius=r0,
                      n_bounded=len(components) - counts[-1],
                      component_sizes=components)


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
        for lo in range(0, mesh.n_vertices, CSV_CHUNK):
            hi = min(lo + CSV_CHUNK, mesh.n_vertices)
            yield from zip(range(lo, hi),
                           *[c[lo:hi].tolist() for c in columns])

    # an int index and then floats: one format for the row, not one per cell
    write_csv(path, header, rows(), "%d" + ",%.17g" * len(columns))
