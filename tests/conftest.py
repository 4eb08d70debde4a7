"""Shared meshes for the test suite.

The expensive lattice builds are session-scoped; tests treat them as
immutable (MeshGraph mutators are only the lazy caches).
"""

import os
from pathlib import Path

import pytest

import extgeo as xg

# child interpreters do not inherit pytest's ``pythonpath`` setting, so the
# tests that start one find the package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def block_points(monkeypatch):
    """``block_points(chart, level, count)`` shrinks the block budget so
    that geometry blocks of ``level`` on ``chart`` hold ``count`` points."""
    def set_budget(chart, level, count):
        ncoords = len(xg.ambient_of(chart).pole)
        monkeypatch.setattr(xg.immersion, "BLOCK_BYTES", count
                            * xg.immersion.point_bytes(level, chart.m, ncoords))
    return set_budget


@pytest.fixture
def row_blocks(monkeypatch):
    """``row_blocks(m, count)`` shrinks the row budget so that the blocks
    of a rho round on an m-dimensional mesh hold ``count`` rows."""
    def set_budget(m, count):
        monkeypatch.setattr(xg.eikonal, "ROW_BLOCK_BYTES",
                            count * xg.eikonal.row_bytes(m))
    return set_budget


@pytest.fixture(scope="session")
def flat2_mesh():
    chart, _gt = xg.catalog_build("flat-subspace", m=2, n=3, truncation=2.0)
    return xg.build_mesh(chart, 101)


@pytest.fixture(scope="session")
def flat3_mesh():
    chart, _gt = xg.catalog_build("flat-subspace", m=3, n=4, truncation=1.2)
    return xg.build_mesh(chart, 65)


@pytest.fixture(scope="session")
def tg2_mesh():
    chart, _gt = xg.catalog_build("totally-geodesic", m=2, n=3,
                                  kappa=-1.0, truncation=2.0)
    return xg.build_mesh(chart, 201)


@pytest.fixture(scope="session")
def tg3_mesh():
    chart, _gt = xg.catalog_build("totally-geodesic", m=3, n=4,
                                  kappa=-1.0, truncation=1.2)
    return xg.build_mesh(chart, 65)


@pytest.fixture(scope="session")
def cylinder_mesh():
    chart, _gt = xg.catalog_build("cylinder")
    return xg.build_mesh(chart, [121, 48])


@pytest.fixture(scope="session")
def catenoid_mesh():
    chart, _gt = xg.catalog_build("catenoid")
    return xg.build_mesh(chart, [161, 48])


@pytest.fixture(scope="session")
def catenoid_fine_mesh():
    # resolution 400 along the profile, per the distance oracle contract
    chart, _gt = xg.catalog_build("catenoid")
    return xg.build_mesh(chart, [401, 64])
