"""Lattice construction, graph distances, balls and end counting."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import extgeo as xg
import extgeo.cli
import extgeo.immersion
import extgeo.mesh
from extgeo import eikonal, jets
from extgeo.errors import ConfigError, DomainError, GeometryError
from extgeo.catalog import CATALOG
from extgeo.mesh import (MeshGraph, _components, _edge_slabs, _node_weights,
                         _refined_shape)
from extgeo.reporting import CSV_CHUNK, write_csv
from oracles import (antipodal_distance, cell_r_spans, csv_text,
                     every_update_distances, full_order_mesh, graph_components,
                     graph_distances, lattice_neighbours, node_weights)

LINE = """
m = 1; n = 2; ambient = euclidean;
x1 = u1; x2 = 0;
domain u1 in [0, 1];
basepoint 0
"""


# linear charts whose metric shears the neighbour cube
SHEARED = {
    2: """
m = 2; n = 2; ambient = euclidean;
x1 = u1 + 3 * u2; x2 = 0.2 * u2;
domain u1 in [-2, 2], u2 in [-1, 1];
basepoint 0, 0
""",
    3: """
m = 3; n = 3; ambient = euclidean;
x1 = u1 + 0.5 * u2; x2 = u2 + 0.5 * u3; x3 = u3;
domain u1 in [-1, 1], u2 in [-1, 1], u3 in [-1, 1];
basepoint 0, 0, 0
""",
}


def flat_chart(truncation=2.0):
    chart, _ = xg.catalog_build("flat-subspace", m=2, n=3,
                                truncation=truncation)
    return chart


def vertex_at(mesh, coords, tol=1e-9):
    hit = np.nonzero(np.all(np.abs(mesh.points - np.asarray(coords)) < tol,
                            axis=1))[0]
    assert hit.size == 1, f"no unique vertex at {coords}"
    return int(hit[0])


# ---------------------------------------------------------------------------
# construction

def test_flat_grid_counts():
    mesh = xg.build_mesh(flat_chart(), 3)
    assert mesh.n_vertices == 9
    # 6 + 6 axis edges plus 4 + 4 diagonals
    assert mesh.edges.shape == (20, 2)
    assert mesh.shape == (3, 3)


def test_line_chart_exact():
    chart = xg.parse_chart(LINE)
    mesh = xg.build_mesh(chart, 5)
    assert mesh.n_vertices == 5 and len(mesh.edge_lengths) == 4
    np.testing.assert_allclose(mesh.edge_lengths, 0.25, rtol=0, atol=1e-15)
    np.testing.assert_allclose(mesh.rho, [0.0, 0.25, 0.5, 0.75, 1.0],
                               atol=1e-15)
    np.testing.assert_allclose(mesh.r, mesh.points[:, 0], atol=1e-15)
    assert mesh.basepoint == 0


def test_cylinder_wrap_edges():
    chart, _ = xg.catalog_build("cylinder")
    mesh = xg.build_mesh(chart, [5, 8])
    assert mesh.n_vertices == 40
    # the periodic angular axis contributes full rows of edges
    assert len(mesh.edge_lengths) == 40 + 32 + 32 + 32
    # wrap edge between angular neighbors 7 and 0 exists
    a = vertex_at(mesh, [0.0, 7 * 2.0 * math.pi / 8])
    b = vertex_at(mesh, [0.0, 0.0])
    pairs = {(int(u), int(v)) for u, v in mesh.edges}
    assert (a, b) in pairs or (b, a) in pairs


ORDER_CASES = [
    ("catenoid", {}, [33, 32]),
    ("cylinder", {}, 33),
    ("rotation-hypersurface", {"n": 3}, [9, 24, 101]),
    ("flat-subspace", {"m": 3, "n": 4}, 17),
]


@pytest.mark.parametrize("name,params,res", ORDER_CASES,
                         ids=[c[0] for c in ORDER_CASES])
def test_mesh_equals_the_full_order_lattice(name, params, res):
    chart, _ = xg.catalog_build(name, **params)
    mesh = xg.build_mesh(chart, res)
    ref = full_order_mesh(chart, res)
    for f in dataclasses.fields(mesh.vertices):
        got, want = getattr(mesh.vertices, f.name), getattr(ref.vertices, f.name)
        if f.name == "amb":
            assert (got.n, got.kappa) == (want.n, want.kappa)
            np.testing.assert_array_equal(got.pole, want.pole)
            continue
        assert (got is None) == (want is None), f.name
        np.testing.assert_array_equal(got, want, err_msg=f.name)
    for attr in ("points", "neighbour_lengths", "refined_r",
                 "refined_weight", "rho"):
        np.testing.assert_array_equal(getattr(mesh, attr), getattr(ref, attr),
                                      err_msg=attr)
    rows = eikonal.NeighbourRows(mesh.shape, mesh.periodic)(
        np.arange(mesh.n_vertices))
    want = lattice_neighbours(mesh.shape, mesh.periodic)
    np.testing.assert_array_equal(rows, want)
    assert rows.dtype == want.dtype == np.intp
    assert mesh.basepoint == ref.basepoint
    assert mesh.fd_step == ref.fd_step


def test_second_order_geometry_only_at_the_vertices(monkeypatch):
    block = extgeo.immersion._geometry_block
    counted = {xg.METRIC: 0, xg.BENDING: 0}

    def count(chart, amb, pts, level):
        counted[level] += len(pts)
        return block(chart, amb, pts, level)

    monkeypatch.setattr(extgeo.immersion, "_geometry_block", count)
    chart, _ = xg.catalog_build("rotation-hypersurface", n=3)
    mesh = xg.build_mesh(chart, [5, 8, 21])
    assert counted[xg.BENDING] == mesh.n_vertices
    assert counted[xg.METRIC] == mesh.refined_r.size == 9 * 16 * 41


def test_first_order_jets_only_off_the_vertices(monkeypatch):
    seed = jets.seed_point
    seeded = {1: 0, 2: 0}

    def count(points, order=2):
        seeded[order] += len(points)
        return seed(points, order)

    chart, _ = xg.catalog_build("rotation-hypersurface", n=3)
    # the pole given, so the basepoint is not evaluated inside build_mesh
    pole = chart.eval_positions(chart.basepoint)
    monkeypatch.setattr(jets, "seed_point", count)
    mesh = xg.build_mesh(chart, [5, 8, 21], pole=pole)
    assert seeded[2] == mesh.n_vertices
    assert seeded[1] == mesh.refined_r.size == 9 * 16 * 41


@pytest.mark.parametrize("x1,upper,res,near", [
    ("(u1 - 0.05)^3", 1.1, 22, "rank-deficient near [ 0.05 -1.  ]"),
    ("u1^3", 1.0, 21, "not an immersion near [ 0. -1.]"),
], ids=["between-vertices", "through-vertices"])
def test_rank_defect_fails_as_on_the_full_order_lattice(x1, upper, res, near):
    # singular along u1 = 0.05, refined nodes between vertices, or along
    # u1 = 0, a line of vertices
    chart = xg.parse_chart(f"""
m = 2; n = 3; ambient = euclidean;
x1 = {x1}; x2 = u2; x3 = 0;
domain u1 in [-1, {upper}], u2 in [-1, 1];
basepoint 0.5, 0
""")
    with pytest.raises(GeometryError) as want:
        full_order_mesh(chart, res)
    with pytest.raises(GeometryError) as got:
        xg.build_mesh(chart, res)
    assert str(got.value) == str(want.value) == f"chart 'chart' is {near}"


def mesh_arrays(mesh):
    """Every array a mesh holds, rho solved, by name."""
    out = {name: getattr(mesh, name) for name in (
        "points", "neighbour_lengths", "refined_r", "refined_weight",
        "rho")}
    for f in dataclasses.fields(mesh.vertices):
        arr = getattr(mesh.vertices, f.name)
        if isinstance(arr, np.ndarray):
            out[f"vertices.{f.name}"] = arr
    return out


BLOCK_CASES = [
    ("catenoid", {}, [33, 32]),
    ("cylinder", {}, 17),
    ("rotation-hypersurface", {"n": 3}, [5, 8, 21]),
    ("flat-subspace", {"m": 3, "n": 4}, 9),
]


@pytest.mark.parametrize("blocks", ["build-7", "rows-7"])
@pytest.mark.parametrize("name,params,res", BLOCK_CASES,
                         ids=[c[0] for c in BLOCK_CASES])
def test_block_size_does_not_change_the_mesh(name, params, res, blocks,
                                             block_points, row_blocks,
                                             monkeypatch):
    chart, _ = xg.catalog_build(name, **params)
    want = mesh_arrays(xg.build_mesh(chart, res))
    seen = {"points": [], "rows": []}
    block, values = extgeo.immersion._geometry_block, eikonal._Update._values

    def geometry(chart, amb, pts, level):
        if level == xg.METRIC:
            seen["points"].append(len(pts))
        return block(chart, amb, pts, level)

    def rows(self, idx, *args):
        seen["rows"].append(len(idx))
        return values(self, idx, *args)

    monkeypatch.setattr(extgeo.immersion, "_geometry_block", geometry)
    monkeypatch.setattr(eikonal._Update, "_values", rows)
    if blocks == "build-7":
        block_points(chart, xg.METRIC, 7)
    else:
        row_blocks(chart.m, 7)
    got = mesh_arrays(xg.build_mesh(chart, res))
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    if blocks == "build-7":
        assert max(seen["points"]) <= 7
        assert sum(seen["points"]) == got["refined_r"].size
    else:
        # a lone trailing row joins the block before it
        assert 7 in seen["rows"] and max(seen["rows"]) <= 8


def test_streamed_build_and_rho_memory_at_flat3_res41():
    """The build peaks at most at twice what the mesh keeps, and the rho
    solve below 45 MB (4.1 times and 82 MB when the build held the refined
    metric and rho took each round whole)."""
    chart, _ = xg.catalog_build("flat-subspace", m=3, n=4)
    xg.build_mesh(chart, 5).rho          # stencil and other caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mesh = xg.build_mesh(chart, 41)
        held, build_peak = (x - start for x in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        mesh.rho
        rho_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert build_peak <= 2.0 * held
    assert rho_peak <= 45e6


def test_rho_and_ends_memory_at_flat3_res41():
    """The rho solve peaks below 20 MB and ``ends_stability`` below 22 MB
    (29.2 and 31.7 MB when the solve held a stretch per vertex and slot,
    and the end passes gathered (K, 26) int64 labels)."""
    chart, _ = xg.catalog_build("flat-subspace", m=3, n=4)
    xg.ends_stability(xg.build_mesh(chart, 5))   # stencil and other caches
    mesh = xg.build_mesh(chart, 41)
    peaks = []
    tracemalloc.start()
    try:
        for stage in (lambda: mesh.rho, lambda: xg.ends_stability(mesh)):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            stage()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 20e6
    assert peaks[1] <= 22e6


@pytest.mark.parametrize("name,params,res", [
    ("catenoid", {}, [401, 64]),
    ("rotation-hypersurface", {"n": 3}, [9, 24, 101]),
], ids=["catenoid", "rotation-hypersurface"])
def test_build_peaks_within_one_geometry_block_of_the_mesh(name, params, res):
    """The build peaks at most one 4 MiB geometry block and 1 MB of slack
    above what the mesh holds: 3.3 and 4.0 MB above it (6.8 and 7.3 MB with
    8 MiB blocks and ``METRIC`` blocks that built the radial gradient)."""
    chart, _ = xg.catalog_build(name, **params)
    xg.build_mesh(chart, 5)              # stencil and other caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mesh = xg.build_mesh(chart, res)
        held, peak = (x - start for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert mesh.n_vertices == math.prod(res)
    assert peak <= held + 4 * 2**20 + 1e6


@pytest.mark.parametrize("name,params,res", [
    ("catenoid", {}, [33, 32]),
    ("rotation-hypersurface", {"n": 3}, [5, 8, 21]),
    ("flat-subspace", {"m": 3, "n": 4}, 17),
], ids=["catenoid", "rotation-hypersurface", "flat-subspace"])
def test_mesh_bytes_estimate_the_traced_bytes(name, params, res):
    chart, _ = xg.catalog_build(name, **params)
    xg.build_mesh(chart, res).rho        # stencil and other caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mesh = xg.build_mesh(chart, res)
        mesh.rho
        retained, peak = (x - start for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    held, most = xg.mesh.mesh_bytes(mesh.shape, mesh.periodic)
    assert held == pytest.approx(retained, rel=0.05)
    assert peak <= most


@pytest.mark.parametrize("shape,periodic", [
    ((9, 9, 9), (False,) * 3), ((401, 64), (False, True)),
    ((129, 129, 129), (False,) * 3)])
def test_mesh_bytes_do_not_depend_on_the_cpu_count(shape, periodic,
                                                   monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    one = xg.mesh.mesh_bytes(shape, periodic)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert xg.mesh.mesh_bytes(shape, periodic) == one


def assert_refused_before_any_evaluation(immersion, res, match, prefix,
                                         tmp_path, monkeypatch):
    """``build_mesh`` and the CLI refuse the mesh with a ``ConfigError``
    (exit 2) before any chart evaluation or stencil."""
    chart, _ = xg.catalog_build(immersion["catalog"], **immersion["params"])

    def never(*args, **kwargs):
        raise AssertionError("evaluated before the budget check")

    for module, name in [(extgeo.mesh, "grid_geometry"),
                         (extgeo.mesh, "stream_geometry"),
                         (extgeo.mesh, "stencil"), (extgeo.mesh, "ambient_of"),
                         (extgeo.cli, "ambient_of"), (jets, "seed_point"),
                         (eikonal, "stencil")]:
        monkeypatch.setattr(module, name, never)
    with pytest.raises(ConfigError, match=match):
        xg.build_mesh(chart, res)
    monkeypatch.setattr(extgeo.cli, "_build_immersion",
                        lambda cfg: (chart, None, {}))
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"immersion": immersion, "resolution": res}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = extgeo.cli.main(["invariants", "--config", str(config)])
    assert code == 2
    body = json.loads(err.getvalue())
    assert body["error"] == "ConfigError"
    assert body["message"].startswith(prefix)


def test_oversized_mesh_is_refused_before_any_evaluation(tmp_path,
                                                         monkeypatch):
    """flat m=8 at resolution 7 would ask for a 6 GiB refined lattice and a
    282 GiB edge length table; it is refused from its shape alone."""
    assert_refused_before_any_evaluation(
        {"catalog": "flat-subspace", "params": {"m": 8, "n": 9}}, 7,
        "over the memory budget of 2 GiB",
        "mesh: resolution [7, 7, 7, 7, 7, 7, 7, 7]", tmp_path, monkeypatch)


def test_mesh_past_the_largest_dimension_is_refused_before_any_evaluation(
        tmp_path, monkeypatch):
    """flat m=5 at resolution 3 holds 243 vertices, well inside the memory
    budget, but its eikonal stencil would take most of a minute; it is
    refused from m alone."""
    assert_refused_before_any_evaluation(
        {"catalog": "flat-subspace", "params": {"m": 5, "n": 6}}, 3,
        "largest mesh dimension 4", "mesh: an m=5 chart", tmp_path,
        monkeypatch)


def test_resolution_validation():
    chart = flat_chart()
    with pytest.raises(DomainError):
        xg.build_mesh(chart, 2)
    with pytest.raises(DomainError):
        xg.build_mesh(chart, [5])
    with pytest.raises(DomainError):
        xg.build_mesh(chart, [5, 2])


def test_basepoint_has_zero_r_and_rho(catenoid_mesh):
    bp = catenoid_mesh.basepoint
    assert catenoid_mesh.r[bp] == 0.0
    assert catenoid_mesh.rho[bp] == 0.0


@pytest.mark.parametrize("name", list(CATALOG))
def test_grid_graph_is_connected(name):
    # the ground for the CLI header's constant "unreachable": 0
    mesh = xg.build_mesh(CATALOG[name].build()[0], 5)
    assert np.all(np.isfinite(graph_distances(mesh)))
    assert np.all(np.isfinite(mesh.rho))


def assert_same_partition(mesh, keep):
    """``_components`` labels each kept vertex by the least vertex of its
    component in the oracle's partition, and N outside ``keep``."""
    n = mesh.n_vertices
    ref = graph_components(mesh, keep)
    least = np.full(n, n)
    np.minimum.at(least, ref[keep], np.flatnonzero(keep))
    want = np.full(n, n)
    want[keep] = least[ref[keep]]
    np.testing.assert_array_equal(
        _components(mesh.shape, mesh.periodic, keep), want)


@pytest.mark.parametrize("name,params,res", [
    (None, {}, 40),
    ("cylinder", {}, [12, 16]),
    ("flat-subspace", {"m": 3, "n": 4}, 9),
], ids=["line", "cylinder", "flat3"])
def test_components_match_the_oracle(name, params, res):
    chart = (xg.parse_chart(LINE) if name is None
             else xg.catalog_build(name, **params)[0])
    mesh = xg.build_mesh(chart, res)
    rng = np.random.default_rng(11)
    for density in (0.0, 0.3, 0.5, 0.7, 1.0):
        assert_same_partition(mesh, rng.random(mesh.n_vertices) < density)


def test_components_join_diagonal_neighbours():
    # two blocks that meet at one corner: the diagonal offset is an edge
    mesh = xg.build_mesh(flat_chart(), 6)
    keep = np.zeros(mesh.shape, dtype=bool)
    keep[:3, :3] = keep[3:, 3:] = True
    keep = keep.reshape(-1)
    assert_same_partition(mesh, keep)
    assert np.all(_components(mesh.shape, mesh.periodic, keep)[keep] == 0)


@pytest.mark.parametrize("name,params,res", [
    (None, {}, 5),
    ("sphere", {"m": 1, "n": 2}, 6),
    ("flat-subspace", {"m": 2, "n": 3, "truncation": 2.0}, 3),
    ("cylinder", {}, [5, 8]),
    ("flat-subspace", {"m": 3, "n": 4}, 4),
    ("rotation-hypersurface", {"n": 3}, [4, 5, 6]),
], ids=["line", "circle", "plane", "cylinder", "flat3", "rotation3"])
def test_neighbour_table_mirrors_each_edge(name, params, res):
    chart = (xg.parse_chart(LINE) if name is None
             else xg.catalog_build(name, **params)[0])
    mesh = xg.build_mesh(chart, res)
    st = eikonal.stencil(mesh.m)
    n = mesh.n_vertices
    nb = eikonal.NeighbourRows(mesh.shape, mesh.periodic)(np.arange(n))
    lengths = mesh.neighbour_lengths
    assert nb.shape == lengths.shape == (n, len(st.offsets))

    # each slot holds the vertex at its offset, wrapped on periodic axes,
    # or N where the offset leaves a truncated axis
    at = np.array(np.unravel_index(np.arange(n), mesh.shape))
    for s, delta in enumerate(st.offsets):
        target = at + delta[:, None]
        inside = np.ones(n, dtype=bool)
        for axis, (k, p) in enumerate(zip(mesh.shape, mesh.periodic)):
            if p:
                target[axis] %= k
            else:
                inside &= (target[axis] >= 0) & (target[axis] < k)
        want = np.full(n, n)
        want[inside] = np.ravel_multi_index(tuple(target[:, inside]),
                                            mesh.shape)
        np.testing.assert_array_equal(nb[:, s], want)
    assert np.all(np.isinf(lengths[nb == n]))

    # the opposite slot of the neighbour leads back, with the same length
    i, s = np.nonzero(nb < n)
    back = nb[i, s], st.opposite[s]
    np.testing.assert_array_equal(nb[back], i)
    np.testing.assert_array_equal(lengths[back], lengths[i, s])
    assert np.all(lengths[i, s] > 0.0)

    # the forward entries are the edge list, slot by slot in vertex order
    assert all(st.forward[j] == (next(c for c in d if c) > 0)
               and st.forward[j] != st.forward[st.opposite[j]]
               for j, d in enumerate(st.offsets))
    rows = [(u, nb[u, j], lengths[u, j]) for j in np.flatnonzero(st.forward)
            for u in range(n) if nb[u, j] < n]
    np.testing.assert_array_equal(mesh.edges, [[u, v] for u, v, _ in rows])
    np.testing.assert_array_equal(mesh.edge_lengths, [w for *_, w in rows])
    assert i.size == 2 * len(rows)


grid_shapes = pytest.mark.parametrize("shape,periodic", [
    ((3,), (False,)), ((5,), (True,)), ((3,), (True,)),
    ((3, 4), (False, False)), ((4, 3), (False, True)),
    ((3, 5), (True, True)), ((3, 4, 5), (False, False, False)),
    ((5, 3, 4), (True, False, True)), ((3, 3, 3), (True, True, True)),
    ((3, 4, 3, 5), (False, False, False, False)),
    ((4, 3, 3, 3), (True, False, True, False)),
    ((3, 3, 4, 3), (True, True, True, True)),
], ids=lambda x: "x".join(map(str, x)) if isinstance(x[0], int)
    else "".join("p" if p else "o" for p in x))


@grid_shapes
def test_neighbour_rows_equal_the_explicit_table(shape, periodic):
    # every vertex, m = 1 to 4, open and periodic axes of length 3 and more
    rows = eikonal.NeighbourRows(shape, periodic)
    n = math.prod(shape)
    assert rows.code.shape == (n,) and rows.code.dtype == np.uint8
    assert rows.table.shape == (3 ** len(shape), 3 ** len(shape) - 1)
    got = rows(np.arange(n))
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, lattice_neighbours(shape, periodic))
    # any subset of rows, in any order
    pick = np.random.default_rng(3).permutation(n)[: n // 2 + 1]
    np.testing.assert_array_equal(rows(pick), got[pick])


@grid_shapes
def test_edge_slabs_hold_each_forward_edge_once(shape, periodic):
    # the slabs against the explicit table: every forward slot in stencil
    # order, every in-grid edge in exactly one piece, no piece off the grid
    nb = lattice_neighbours(shape, periodic)
    n = math.prod(shape)
    grid = np.arange(n).reshape(shape)
    slots = []
    for slot, pieces in _edge_slabs(shape, periodic):
        slots.append(slot)
        seen = np.zeros(n, dtype=int)
        for here, there in pieces:
            assert len(here) == len(there) == len(shape)
            assert all(0 <= s.start < s.stop <= k and s.step is None
                       for ix in (here, there) for s, k in zip(ix, shape))
            start, end = grid[here].reshape(-1), grid[there].reshape(-1)
            np.testing.assert_array_equal(nb[start, slot], end)
            np.add.at(seen, start, 1)
        np.testing.assert_array_equal(seen, nb[:, slot] < n)
    st = eikonal.stencil(len(shape))
    assert slots == np.flatnonzero(st.forward).tolist()


@grid_shapes
def test_cell_node_slices_equal_the_gathers(shape, periodic):
    # the refined weights and fd_step walk each cell's sub-lattice in
    # slices, a periodic seam its own piece; bit for bit the np.ix_
    # gathers, offset by offset, on random densities and radii
    rng = np.random.default_rng(5)
    cells = tuple(k if p else k - 1 for k, p in zip(shape, periodic))
    density = rng.random(cells)
    np.testing.assert_array_equal(
        _node_weights(shape, periodic, density, 0.3),
        node_weights(shape, periodic, density, 0.3))
    mesh = MeshGraph(chart=type("Chart", (), {"periodic": periodic}),
                     amb=None, shape=shape, origin=None, spacing=None,
                     points=None, vertices=None, neighbour_lengths=None,
                     basepoint=0,
                     refined_r=rng.random(_refined_shape(shape, periodic)))
    spans = cell_r_spans(mesh)
    assert mesh.fd_step == 2.0 * float(np.median(spans[spans > 0.0]))


@pytest.mark.parametrize("name,params,res", [
    ("cylinder", {}, [5, 8]),
    ("catenoid", {}, [6, 7]),
    ("sphere", {"m": 2, "n": 3}, [5, 6]),
    ("sphere", {"m": 1, "n": 2}, 6),
    ("rotation-hypersurface", {"n": 3}, [4, 5, 6]),
], ids=["cylinder", "catenoid", "sphere", "circle", "rotation3"])
def test_neighbour_rows_cross_the_catalog_seams(name, params, res):
    mesh = xg.build_mesh(xg.catalog_build(name, **params)[0], res)
    assert any(mesh.periodic)
    got = eikonal.NeighbourRows(mesh.shape, mesh.periodic)(
        np.arange(mesh.n_vertices))
    np.testing.assert_array_equal(
        got, lattice_neighbours(mesh.shape, mesh.periodic))
    # the rows and the length table agree on where an edge is
    np.testing.assert_array_equal(got < mesh.n_vertices,
                                  np.isfinite(mesh.neighbour_lengths))


@pytest.mark.parametrize("name,params,res", [
    ("cylinder", {}, [9, 16]),
    ("catenoid", {}, [17, 12]),
    ("rotation-hypersurface", {"n": 3}, [5, 8, 11]),
], ids=["cylinder", "catenoid", "rotation3"])
def test_components_across_a_periodic_seam_match_the_oracle(name, params,
                                                            res):
    # {r > R} for R below the median: the basepoint sits on the seam, and
    # the far set crosses it on the way around
    mesh = xg.build_mesh(xg.catalog_build(name, **params)[0], res)
    for t in np.quantile(mesh.r, [0.1, 0.3, 0.5]):
        keep = mesh.r > t
        crossing = [
            np.any(keep.reshape(mesh.shape).take(0, axis=a)
                   & keep.reshape(mesh.shape).take(-1, axis=a))
            for a, p in enumerate(mesh.periodic) if p]
        assert any(crossing)
        assert_same_partition(mesh, keep)
    # a band through the seam alone: one component, not two
    keep = np.zeros(mesh.shape, dtype=bool)
    axis = mesh.periodic.index(True)
    band = [slice(None)] * mesh.m
    band[axis] = [0, 1, mesh.shape[axis] - 1]
    keep[tuple(band)] = True
    keep = keep.reshape(-1)
    assert_same_partition(mesh, keep)
    labels = _components(mesh.shape, mesh.periodic, keep)
    assert np.unique(labels[keep]).tolist() == [0]


@pytest.mark.parametrize("name,params,res", [
    ("cylinder", {}, [5, 8]),
    ("catenoid", {}, [6, 7]),
    ("rotation-hypersurface", {"n": 3}, [4, 5, 6]),
], ids=["cylinder", "catenoid", "rotation3"])
def test_edges_of_a_periodic_mesh_in_slot_and_vertex_order(name, params, res):
    # the edge list from the explicit table: forward slot by forward slot,
    # start vertices ascending, intp pairs
    mesh = xg.build_mesh(xg.catalog_build(name, **params)[0], res)
    nb = lattice_neighbours(mesh.shape, mesh.periodic)
    n = mesh.n_vertices
    st = eikonal.stencil(mesh.m)
    want, lengths = [], []
    for j in np.flatnonzero(st.forward):
        u = np.flatnonzero(nb[:, j] < n)
        want.append(np.stack([u, nb[u, j]], axis=1))
        lengths.append(mesh.neighbour_lengths[u, j])
    want = np.concatenate(want)
    assert mesh.edges.dtype == np.intp and mesh.edges.shape == want.shape
    np.testing.assert_array_equal(mesh.edges, want)
    got = mesh.edge_lengths
    assert got.dtype == np.float64
    assert got.tobytes() == np.concatenate(lengths).tobytes()
    assert mesh.n_edges == len(want) == np.count_nonzero(nb < n) // 2


def test_a_mesh_holds_no_neighbour_index_table():
    chart, _ = xg.catalog_build("rotation-hypersurface", n=3)
    mesh = xg.build_mesh(chart, [4, 5, 6])
    mesh.rho
    assert "neighbours" not in {f.name for f in dataclasses.fields(mesh)}
    slots = 3 ** mesh.m - 1
    held = [getattr(mesh, f.name) for f in dataclasses.fields(mesh)]
    held += [getattr(mesh.vertices, f.name)
             for f in dataclasses.fields(mesh.vertices)]
    assert not [a for a in held if isinstance(a, np.ndarray)
                and a.dtype.kind in "iu" and a.shape[-1:] == (slots,)]


def test_pole_override_shifts_radii():
    mesh = xg.build_mesh(flat_chart(), 11, pole=[0.0, 0.0, 5.0])
    assert float(np.min(mesh.r)) == pytest.approx(5.0, rel=1e-14)
    assert mesh.points[mesh.basepoint] == pytest.approx([0.0, 0.0])


# ---------------------------------------------------------------------------
# graph distances

def test_plane_distances_along_lattice_directions(flat2_mesh):
    mesh = flat2_mesh
    rho = graph_distances(mesh)
    # axis-aligned and diagonal paths are exact on a flat grid
    for coords, want in [((2.0, 0.0), 2.0), ((-2.0, 0.0), 2.0),
                         ((0.0, 2.0), 2.0), ((2.0, 2.0), 2.0 * math.sqrt(2)),
                         ((-2.0, -2.0), 2.0 * math.sqrt(2))]:
        k = vertex_at(mesh, coords)
        assert rho[k] == pytest.approx(want, abs=1e-10)


def test_plane_distances_bound_off_lattice_directions(flat2_mesh):
    mesh = flat2_mesh
    rho = graph_distances(mesh)
    # graph distance can overshoot off-lattice directions, at worst by
    # the 8-neighbor stencil factor, and never undershoots
    assert np.all(rho >= mesh.r - 1e-9)
    k = vertex_at(mesh, (2.0, 1.0))
    true = math.sqrt(5.0)
    stencil = 1.0 + math.sqrt(2.0)  # mixed diagonal/axis path
    assert true - 1e-9 <= rho[k] <= stencil + 1e-9


def test_catenoid_meridian_distance(catenoid_fine_mesh):
    mesh = catenoid_fine_mesh
    angle0 = mesh.points[mesh.basepoint, 1]
    on_meridian = np.abs(mesh.points[:, 1] - angle0) < 1e-12
    u1 = mesh.points[on_meridian, 0]
    rho = graph_distances(mesh)[on_meridian]
    keep = np.abs(u1) >= 0.5
    want = np.sinh(np.abs(u1[keep]))
    rel = np.abs(rho[keep] - want) / want
    assert float(np.max(rel)) < 0.02


def test_distance_symmetry(catenoid_mesh):
    a, b = 137, 4021
    da = graph_distances(catenoid_mesh, source=a)
    db = graph_distances(catenoid_mesh, source=b)
    assert da[b] == pytest.approx(db[a], rel=1e-12)


def test_edge_relaxation(catenoid_mesh):
    # dijkstra output is consistent with every edge, which is the graph
    # triangle inequality
    rho = graph_distances(catenoid_mesh)
    u = catenoid_mesh.edges[:, 0]
    v = catenoid_mesh.edges[:, 1]
    slack = np.abs(rho[u] - rho[v]) - catenoid_mesh.edge_lengths
    assert float(np.max(slack)) <= 1e-9


def test_refinement_never_increases_flat_distances():
    chart = flat_chart()
    coarse = xg.build_mesh(chart, 11)
    fine = xg.build_mesh(chart, 21)
    ix = np.ix_(*(2 * np.arange(k) for k in coarse.shape))
    shared = graph_distances(fine).reshape(fine.shape)[ix].reshape(-1)
    np.testing.assert_allclose(shared, graph_distances(coarse), rtol=0,
                               atol=1e-12)


def test_refinement_improves_curved_distances():
    chart, _ = xg.catalog_build("catenoid")
    coarse = xg.build_mesh(chart, [51, 16])
    fine = xg.build_mesh(chart, [101, 32])
    ix = np.ix_(2 * np.arange(51), 2 * np.arange(16))
    shared = graph_distances(fine).reshape(fine.shape)[ix].reshape(-1)
    diff = shared - graph_distances(coarse)
    assert float(np.max(diff)) <= 1e-12       # never up
    assert float(np.min(diff)) < -1e-7        # strictly better somewhere


# ---------------------------------------------------------------------------
# eikonal distances: the tails' intrinsic distance

def observed_order(errors):
    """Order of convergence over a sequence of halvings of the spacing."""
    errors = np.asarray(errors)
    return float(np.log2(errors[0] / errors[-1]) / (errors.size - 1))


@pytest.mark.parametrize("name,params,resolutions", [
    ("flat-subspace", {"m": 2, "n": 3, "truncation": 2.0}, (51, 101, 201)),
    ("totally-geodesic", {"m": 2, "n": 3, "truncation": 2.0},
     (51, 101, 201)),
    ("flat-subspace", {"m": 3, "n": 4, "truncation": 1.2}, (11, 21, 41)),
    ("totally-geodesic", {"m": 3, "n": 4, "truncation": 1.2}, (11, 21, 41)),
])
def test_eikonal_distance_converges_to_r(name, params, resolutions):
    # totally geodesic charts: the intrinsic distance to the basepoint is r
    chart, _ = xg.catalog_build(name, **params)
    errors = []
    for res in resolutions:
        mesh = xg.build_mesh(chart, res)
        errors.append(float(np.max(np.abs(mesh.rho - mesh.r))))
    assert np.all(np.diff(errors) < 0.0), errors
    assert observed_order(errors) >= 1.0, errors


def test_eikonal_distance_converges_on_the_antipodal_meridian():
    # Clairaut's relation gives the exact distance from the waist point
    # to (pi, s), where the graph distance stays 0.17 too long
    chart, _ = xg.catalog_build("rotation-hypersurface", n=2, a=1.0,
                                truncation=6.0)
    errors = []
    for res in ([16, 101], [32, 201], [64, 401]):
        mesh = xg.build_mesh(chart, res)
        u1, s = mesh.points.T
        far = np.flatnonzero((np.abs(u1 - math.pi) < 1e-12)
                             & (np.abs(s) >= 1.2 - 1e-12))
        want = np.array([antipodal_distance(1.0, x) for x in s[far]])
        errors.append(float(np.max(np.abs(mesh.rho[far] - want))))
    assert np.all(np.diff(errors) < 0.0), errors
    assert observed_order(errors) >= 1.0, errors


@pytest.mark.parametrize("m,res,truncation,graph_err", [
    (2, 101, 2.0, 0.082), (3, 41, 1.2, 0.128)])
def test_eikonal_distance_within_the_graph_error_on_flat_charts(
        m, res, truncation, graph_err):
    chart, _ = xg.catalog_build("flat-subspace", m=m, n=m + 1,
                                truncation=truncation)
    mesh = xg.build_mesh(chart, res)
    far = mesh.r > 0.0
    graph = np.max(np.abs(graph_distances(mesh)[far] / mesh.r[far] - 1.0))
    upwind = np.max(np.abs(mesh.rho[far] / mesh.r[far] - 1.0))
    assert graph == pytest.approx(graph_err, abs=5e-4)
    assert upwind <= graph


def test_eikonal_distance_basics(catenoid_mesh):
    rho = catenoid_mesh.rho
    assert rho is catenoid_mesh.rho                   # solved once
    assert rho[catenoid_mesh.basepoint] == 0.0
    assert np.all(np.isfinite(rho))
    # the graph distance stays the upper bound it was
    assert np.all(rho <= graph_distances(catenoid_mesh) + 1e-9)
    # exact on a line, and a lower-error cousin of the graph distance in 4-d
    line = xg.build_mesh(xg.parse_chart(LINE), 5)
    np.testing.assert_allclose(line.rho, line.points[:, 0],
                               atol=1e-15)
    chart, _ = xg.catalog_build("flat-subspace", m=4, n=5, truncation=1.0)
    mesh = xg.build_mesh(chart, 5)
    far = mesh.r > 0.0
    upwind = np.abs(mesh.rho[far] / mesh.r[far] - 1.0)
    graph = np.abs(graph_distances(mesh)[far] / mesh.r[far] - 1.0)
    assert np.max(upwind) < np.max(graph)


@pytest.mark.parametrize("m,res", [(2, 81), (3, 21)])
def test_eikonal_update_minimises_over_the_whole_stencil_surface(
        monkeypatch, m, res):
    # under a shear the minimum over the stencil surface can lie on a face
    # that misses the best one-step neighbour, so the faces through it
    # alone leave values too high; the facet search must find the minimum
    # over every face
    chart = xg.parse_chart(SHEARED[m])
    mesh = xg.build_mesh(chart, res)
    searched = mesh.rho

    def solve(facets):
        monkeypatch.setattr(eikonal._Update, "_open_facets", facets)
        return xg.build_mesh(chart, res).rho

    every = solve(lambda self, idx, *_: np.nonzero(
        np.ones((idx.size, 2 * m), dtype=bool)))
    star = solve(lambda self, idx, *_: (np.zeros(0, dtype=np.intp),) * 2)
    assert np.max(np.abs(searched - every)) <= 1e-12
    assert np.max(star - every) > 1e-3
    # a flat chart: the intrinsic distance is r
    assert (np.max(np.abs(every - mesh.r))
            < np.max(np.abs(star - mesh.r)))


# the six catalog entries at the default resolution, flat m = 1 and 4,
# totally geodesic m = 3 (few acute stencils), the rotation hypersurface
# n = 3, the catenoid and the cylinder on wide grids, and the sheared charts:
# no acute stencil at m = 2, every stencil acute and the facet search
# active at m = 3
CATALOG_CASES = [(name, {}, 33) for name in CATALOG]
SKIP_CASES = CATALOG_CASES + [
    ("flat-subspace", {"m": 1, "n": 2}, 33),
    ("flat-subspace", {"m": 4, "n": 5}, 5),
    ("totally-geodesic", {"m": 3, "n": 4}, 17),
    ("rotation-hypersurface", {"n": 3}, [5, 8, 21]),
    ("catenoid", {}, [65, 32]),
    ("cylinder", {}, [33, 32]),
    ("sheared", 2, 81),
    ("sheared", 3, 21),
]


def skip_case_chart(name, params):
    if name == "sheared":
        return xg.parse_chart(SHEARED[params])
    return xg.catalog_build(name, **params)[0]


def skip_case_id(case):
    name, params, res = case
    if name == "sheared":
        params = {"m": params}
    return "-".join([name, *(f"{k}{v}" for k, v in params.items()),
                     "x".join(map(str, np.atleast_1d(res)))])


@pytest.mark.parametrize("name,params,res", SKIP_CASES,
                         ids=[skip_case_id(c) for c in SKIP_CASES])
def test_eikonal_skipped_updates_leave_rho_bit_identical(name, params, res):
    # the certificate skips only updates that could not lower a value, so
    # rho equals the solve that evaluates every update, bit for bit
    mesh = xg.build_mesh(skip_case_chart(name, params), res)
    assert mesh.rho.tobytes() == every_update_distances(mesh).tobytes()


@pytest.mark.parametrize("name,params,res",
                         CATALOG_CASES + [("sheared", 2, 81)],
                         ids=list(CATALOG) + ["sheared-m2"])
def test_eikonal_certificate_skips_only_on_acute_stencils(name, params, res,
                                                         monkeypatch):
    made = []

    class Counted(eikonal._Update):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(eikonal, "_Update", Counted)
    mesh = xg.build_mesh(skip_case_chart(name, params), res)
    mesh.rho
    (update,) = made
    assert update.evaluated >= mesh.n_vertices - 1
    if name == "sheared":
        # the shear makes an obtuse angle at every vertex
        assert np.all(update.cone <= 0.0)
        assert update.skipped == 0
    else:
        assert update.skipped > 0


@pytest.mark.parametrize("name,params,res", [
    ("catenoid", {}, [33, 32]),
    ("rotation-hypersurface", {"n": 3}, [5, 8, 21]),
], ids=["catenoid", "rotation-hypersurface"])
def test_stretch_of_a_block_is_that_of_the_whole_mesh(name, params, res):
    # the update computes the stretch per block of rows; each row, a lone
    # row too, must equal that row of one product over every vertex
    mesh = xg.build_mesh(xg.catalog_build(name, **params)[0], res)
    update = eikonal._Update(mesh.shape, mesh.periodic, mesh.spacing,
                             mesh.vertices.metric, mesh.neighbour_lengths,
                             mesh.basepoint)
    whole = update.metric @ update.norm_cols
    whole = mesh.neighbour_lengths / np.sqrt(whole)
    for rows in (1, 2, 7):
        for lo in range(0, mesh.n_vertices - rows + 1, rows):
            got = update._stretch(update.metric[lo:lo + rows],
                                  mesh.neighbour_lengths[lo:lo + rows])
            assert got.tobytes() == whole[lo:lo + rows].tobytes(), (rows, lo)


# ---------------------------------------------------------------------------
# radial machinery

def test_critical_free_radius_plane(flat2_mesh):
    assert xg.critical_free_radius(flat2_mesh) == 0.0


def test_critical_free_radius_catenoid(catenoid_mesh):
    # the saddle of r sits on the waist opposite the basepoint, at
    # ambient distance 2
    r0 = xg.critical_free_radius(catenoid_mesh)
    assert r0 == pytest.approx(2.0, abs=0.05)


def test_circle_with_central_pole_is_all_critical():
    chart, _ = xg.catalog_build("sphere", m=1, n=2, radius=1.0)
    mesh = xg.build_mesh(chart, 64, pole=[0.0, 0.0])
    np.testing.assert_allclose(mesh.r, 1.0, atol=1e-12)
    assert xg.critical_free_radius(mesh) == pytest.approx(1.0, abs=1e-12)
    assert mesh.r_max == pytest.approx(1.0)
    with pytest.raises(DomainError):
        xg.ends_stability(mesh)


def test_count_ends_plane(flat2_mesh):
    report = xg.ends_stability(flat2_mesh)
    assert report.n_ends == 1
    assert report.n_bounded == 0
    assert report.critical_free_radius == 0.0
    assert report.component_sizes[0]["end"]


def test_count_ends_cylinder(cylinder_mesh):
    ends = xg.ends_stability(cylinder_mesh)
    assert ends.stable and ends.n_ends == 2


def test_count_ends_catenoid(catenoid_mesh):
    ends = xg.ends_stability(catenoid_mesh)
    assert ends.stable and ends.n_ends == 2
    assert len(ends.radii) == len(ends.counts) == 5
    assert ends.window() == {"radii": ends.radii, "counts": ends.counts,
                             "stable": True, "n_ends": 2}


@pytest.mark.parametrize("name,params,res", [
    ("cylinder", {}, 33),
    ("rotation-hypersurface", {"n": 3}, [9, 24, 101]),
    ("catenoid", {}, [81, 24]),
    ("flat-subspace", {"m": 3, "n": 4}, 17),
], ids=["cylinder", "rotation3", "catenoid", "flat3"])
def test_ends_match_the_component_oracle(name, params, res):
    # at every window radius, the ends are the oracle's components of
    # {r > R} that reach a truncation face
    mesh = xg.build_mesh(xg.catalog_build(name, **params)[0], res)
    ends = xg.ends_stability(mesh)
    boundary = mesh.boundary_vertex_mask()
    for R, count in zip(ends.radii, ends.counts):
        far = mesh.r > R
        labels = graph_components(mesh, far)
        touching = set(labels[far & boundary].tolist())
        assert count == len(touching), R
    uniq, sizes = np.unique(labels[far], return_counts=True)
    want = sorted(((int(k), lab in touching)
                   for lab, k in zip(uniq.tolist(), sizes.tolist())),
                  key=lambda c: (-c[0], not c[1]))
    assert [(c["vertices"], c["end"]) for c in ends.component_sizes] == want
    assert ends.n_bounded == len(want) - ends.n_ends
    if name == "cylinder":
        # no vertex sits on the saddle at r = 2 (33 angles), so the window
        # straddles it
        assert ends.counts == [1, 1, 2, 2, 2] and not ends.stable


@pytest.mark.parametrize("name", list(CATALOG))
def test_warm_end_passes_equal_passes_from_scratch(name, monkeypatch):
    # ends_stability labels its radii outermost first, each pass seeded
    # with the labels of the one before; every pass must end at the labels
    # of a pass from scratch
    mesh = xg.build_mesh(CATALOG[name].build()[0], 9)
    passes = []

    def checked(shape, periodic, keep, seed=None):
        got = _components(shape, periodic, keep, seed)
        np.testing.assert_array_equal(got, _components(shape, periodic, keep))
        passes.append((keep.sum(), seed is None))
        return got

    monkeypatch.setattr(extgeo.mesh, "_components", checked)
    ends = xg.ends_stability(mesh)
    assert len(passes) == len(ends.radii)
    assert [first for _, first in passes] == [True] + [False] * (
        len(passes) - 1)
    # outermost first, so the sets grow
    assert [k for k, _ in passes] == sorted(k for k, _ in passes)


# ---------------------------------------------------------------------------
# truncation faces

def test_truncation_face_radius_plane(flat2_mesh):
    assert flat2_mesh.r_truncation_min == pytest.approx(2.0, rel=1e-12)


def test_sphere_mesh_has_no_truncation_faces():
    chart, _ = xg.catalog_build("sphere", m=2, n=3)
    mesh = xg.build_mesh(chart, [17, 24])
    assert not mesh.boundary_vertex_mask().any()
    assert mesh.r_truncation_min == math.inf


def test_rotation_mesh_truncates_profile_axis_only():
    chart, _ = xg.catalog_build("rotation-hypersurface", n=3, truncation=2.0)
    mesh = xg.build_mesh(chart, [5, 8, 9])
    mask = mesh.boundary_vertex_mask().reshape(mesh.shape)
    assert int(np.count_nonzero(mask)) == 5 * 8 * 2
    assert mask[:, :, 0].all() and mask[:, :, -1].all()
    assert not mask[0, :, 1:-1].any()


# ---------------------------------------------------------------------------
# dumps

def test_mesh_dump_columns_and_determinism(tmp_path):
    mesh = xg.build_mesh(flat_chart(), 5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    xg.mesh_dump(mesh, p1)
    xg.mesh_dump(mesh, p2)
    text = p1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "index,u1,u2,r,rho,alpha_norm,grad_r_tan"
    assert len(lines) == mesh.n_vertices + 1
    assert text == p2.read_text()


def test_mesh_dump_matches_the_generic_writer(tmp_path, monkeypatch):
    # every CSV the CLI writes, each row through its one format, against
    # the same rows spelled cell by cell
    expected = {}

    def recording(path, header, rows, row_format):
        rows = list(rows)
        write_csv(path, header, rows, row_format)
        expected[path] = csv_text(header, rows)

    monkeypatch.setattr(extgeo.mesh, "write_csv", recording)
    monkeypatch.setattr(extgeo.cli, "write_csv", recording)

    mesh = xg.build_mesh(flat_chart(), 5)
    # a vertex the solve did not reach keeps inf
    mesh._rho = np.where(np.arange(mesh.n_vertices) == 7, np.inf, mesh.rho)
    xg.mesh_dump(mesh, str(tmp_path / "mesh.csv"))
    assert (tmp_path / "mesh.csv").read_text().split("\n")[8].split(",")[4] \
        == "inf"

    config = tmp_path / "rot3.json"
    config.write_text(json.dumps({
        "immersion": {"catalog": "rotation-hypersurface", "params": {"n": 3}},
        "resolution": 5, "samples": 12}))
    runs = [[cmd, "--immersion", "flat-subspace"]
            for cmd in ("invariants", "volume", "ends")]
    runs.append(["curvature", "--config", str(config)])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert extgeo.cli.main(argv + ["--out", str(tmp_path)]) == 0
    names = {os.path.basename(path) for path in expected}
    assert names == {"mesh.csv", "tails.csv", "volume.csv", "ends.csv",
                     "curvature.csv"}
    for path, text in expected.items():
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text, path
    valid = {line.rsplit(",", 1)[1] for line in
             expected[str(tmp_path / "curvature.csv")].split("\n")[1:-1]}
    assert valid <= {"true", "false"} and valid


@pytest.mark.parametrize("count", [0, 1, CSV_CHUNK, CSV_CHUNK + 1])
def test_write_csv_streams_the_bytes_of_one_joined_string(tmp_path, count):
    rows = [(k, 0.1 * k, "true") for k in range(count)]
    row_format = "%d,%.17g,%s"
    path = tmp_path / "rows.csv"
    write_csv(path, ["k", "x", "valid"], iter(rows), row_format)
    lines = ["k,x,valid"] + [row_format % row for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
