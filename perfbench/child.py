"""One CLI invocation in a fresh interpreter: python3 perfbench/child.py SPEC

SPEC is a JSON file written by run.py with keys ``argv`` (the arguments
for ``extgeo.cli.main``), ``result`` (where to write the outcome),
``capture`` (which oracle to evaluate after the timed call: "mesh", "probe"
or null), ``immersion`` and, for a traced invocation, ``spans`` and
``run_id``.  The program is found through PYTHONPATH, which run.py points
at the checkout's ``src``.

The result records the import time of extgeo.cli, the wall time of
``extgeo.cli.main(argv)`` with stdout captured, its exit code and stdout,
the process's peak RSS and the oracle error.  Nothing else is timed.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _rho_rel_err_max(mesh) -> float:
    """max |rho / r - 1| over vertices off the pole; rho = r on a flat chart."""
    import numpy as np
    r = mesh.vertices.r
    rho = mesh.rho
    keep = (r > 0.0) & np.isfinite(rho)
    return float(np.max(np.abs(rho[keep] / r[keep] - 1.0)))


def _bending_rel_err_max(immersion) -> float:
    """max relative error of |alpha|^2 from point_geometry against the
    catalog's closed form, on a fixed sweep of the rotation profile.

    The sweep does not depend on the seed, so the value repeats exactly; the
    command's own random samples would make the maximum vary by seed.
    """
    import numpy as np
    from extgeo.catalog import catalog_build
    from extgeo.immersion import point_geometry
    chart, truth = catalog_build(immersion["catalog"],
                                 **immersion.get("params", {}))
    s = np.linspace(-0.95, 0.95, 64) * chart.domain[-1][1]
    pts = np.stack([np.full_like(s, 1.0), np.full_like(s, 0.5), s], axis=1)
    got = np.array([float(point_geometry(chart, p).norm_alpha_sq) for p in pts])
    want = np.asarray(truth.alpha_norm_sq(pts), dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-10)))


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import extgeo.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec.get("spans"):
        from tracer import Tracer     # next to this script, on sys.path
        tracer = Tracer(spec["run_id"])
        tracer.install(sys.modules)

    captured = []
    capture = spec.get("capture")
    if capture == "mesh":
        # pass-through that keeps the MeshGraph the CLI built for the oracle
        build_mesh = extgeo.cli.build_mesh

        def keep_mesh(*args, **kwargs):
            mesh = build_mesh(*args, **kwargs)
            captured.append(mesh)
            return mesh

        extgeo.cli.build_mesh = keep_mesh

    buf = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = extgeo.cli.main(spec["argv"])
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.write(spec["spans"])

    oracle = None
    if rc == 0 and capture == "mesh" and captured:
        oracle = _rho_rel_err_max(captured[-1])
    elif rc == 0 and capture == "probe":
        oracle = _bending_rel_err_max(spec["immersion"])

    result = {"rc": rc, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "stdout": buf.getvalue(),
              "oracle": oracle,
              "missing": tracer.missing if tracer is not None else []}
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
