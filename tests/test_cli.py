"""Command line behaviour: exit codes, payload shapes, report files."""

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import extgeo as xg
import extgeo.cli
import extgeo.mesh
from extgeo.cli import main
from extgeo.errors import ExtGeoError, GeometryError
from extgeo.immersion import extrinsic_sphere_curvature, point_geometry
from extgeo.mesh import MIN_RESOLUTION

INLINE_PLANE = """
m = 2; n = 3; ambient = euclidean;
x1 = u1; x2 = u2; x3 = 0;
domain u1 in [-1, 1], u2 in [-1, 1];
basepoint 0, 0
"""


def run_cli(argv):
    """Invoke main() in process, capturing (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def payload_of(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def error_of(argv, expect_code):
    code, out, err = run_cli(argv)
    assert code == expect_code
    body = json.loads(err)
    assert set(body) >= {"error", "message"}
    return body


def keep_meshes(monkeypatch, edit=None):
    """Route the CLI's build_mesh through ``edit`` (if given) and collect
    the meshes it returns."""
    build, kept = extgeo.cli.build_mesh, []

    def keep(*args, **kwargs):
        mesh = build(*args, **kwargs)
        if edit is not None:
            edit(mesh)
        kept.append(mesh)
        return mesh

    monkeypatch.setattr(extgeo.cli, "build_mesh", keep)
    return kept


def write_config(tmp_path, data):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# catalog and verify

def test_catalog_list_names_and_rows():
    pay = payload_of(["catalog", "list"])
    names = [row["name"] for row in pay["entries"]]
    assert names == ["flat-subspace", "sphere", "cylinder", "catenoid",
                     "totally-geodesic", "rotation-hypersurface"]
    for row in pay["entries"]:
        assert set(row) >= {"name", "summary", "defaults", "validity",
                            "expected_class", "ends", "a_value", "b_value",
                            "compact"}
    flat = pay["entries"][0]
    assert flat["defaults"] == {"m": 2, "n": 3, "truncation": 2.0}
    assert flat["compact"] is False


def test_verify_flat_passes():
    pay = payload_of(["verify", "--immersion", "flat-subspace",
                      "--resolution", "13"])
    assert pay["passed"] is True
    names = [c["check"] for c in pay["checks"]]
    assert names == ["edge-lengths-positive", "distance-triangle-inequality",
                     "basepoint-distance-zero", "comparison-identity",
                     "tails-non-increasing", "bending-ground-truth",
                     "classification-expected", "ends-expected"]
    assert all(c["passed"] for c in pay["checks"])


@pytest.mark.parametrize("name", ["catenoid", "cylinder", "flat-subspace",
                                  "rotation-hypersurface", "sphere",
                                  "totally-geodesic"])
def test_verify_passes_at_the_default_resolution(name):
    code, out, err = run_cli(["verify", "--immersion", name])
    assert code == 0, [c for c in json.loads(out)["checks"]
                       if not c["passed"]]


def test_verify_failure_exits_one():
    # truncated at height 1, the cylinder's saddle at r = 2 lies past the
    # ends window's top (0.8), so the end count is unavailable and exactly
    # that check must go red
    code, out, err = run_cli(["verify", "--immersion", "cylinder",
                              "--truncation", "1"])
    assert code == 1
    pay = json.loads(out)
    assert pay["passed"] is False
    failed = [c for c in pay["checks"] if not c["passed"]]
    assert failed == [{"check": "ends-expected", "passed": False, "detail": {
        "error": "no radius window clear of the critical region: estimate "
                 "1.99773 against usable maximum 0.8"}}]


def identity_check(seed):
    """(exit code, comparison-identity check) of a small hyperbolic verify."""
    code, out, err = run_cli(["verify", "--immersion", "totally-geodesic",
                              "--resolution", "9", "--seed", str(seed)])
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    return code, checks["comparison-identity"]


@pytest.mark.parametrize("seed", [8, 16])
def test_comparison_identity_is_relative_to_c_squared(seed):
    # these seeds draw t near 5, where C^2 = cosh^2 t is about 5500 and
    # rounding alone leaves |C^2 + kappa S^2 - 1| = 1.8e-12 or more
    code, check = identity_check(seed)
    assert check["passed"] is True
    assert check["detail"]["max_residual"] > 1e-12
    assert code == 0


def test_comparison_identity_catches_a_relative_error(monkeypatch):
    import extgeo.cli
    exact = extgeo.cli.c_kappa
    monkeypatch.setattr(extgeo.cli, "c_kappa",
                        lambda kappa, t: exact(kappa, t) * (1.0 + 1e-9))
    code, check = identity_check(8)
    assert check["passed"] is False
    assert code == 1


def test_distance_triangle_inequality_catches_a_raised_vertex(monkeypatch):
    shortest = []

    def raise_farthest(mesh):
        # every neighbour of the farthest vertex is nearer the basepoint,
        # so lifting it past its shortest edge breaks |rho(u) - rho(v)|
        # <= |uv| there
        k = int(np.argmax(mesh.rho))
        shortest.append(float(np.min(mesh.neighbour_lengths[k])))
        mesh.rho[k] += 1.5 * shortest[0]

    keep_meshes(monkeypatch, raise_farthest)
    code, out, err = run_cli(["verify", "--immersion", "flat-subspace",
                              "--resolution", "13"])
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert {k for k, c in checks.items() if not c["passed"]} == {
        "distance-triangle-inequality"}
    violation = checks["distance-triangle-inequality"]["detail"]
    assert violation["max_violation"] >= 0.5 * shortest[0] - 1e-12


@pytest.mark.parametrize("fixture", ["cylinder_mesh", "catenoid_mesh",
                                     "tg3_mesh"])
@pytest.mark.parametrize("edit", ["none", "raised", "unreached"])
def test_edge_checks_per_slot_equal_those_of_the_edge_list(request, fixture,
                                                           edit):
    mesh = request.getfixturevalue(fixture)
    rho = mesh.rho.copy()
    far = int(np.argmax(rho))
    if edit == "raised":
        rho[far] += 1.5 * float(np.min(mesh.neighbour_lengths[far]))
    elif edit == "unreached":
        rho[far] = np.inf
    mesh = dataclasses.replace(mesh, _rho=rho)

    edges, lengths = mesh.edges, mesh.edge_lengths
    u, v = edges.T
    finite = np.isfinite(rho[u]) & np.isfinite(rho[v])
    viol = np.max(np.abs(rho[u[finite]] - rho[v[finite]]) - lengths[finite],
                  initial=0.0)
    assert extgeo.cli._edge_extremes(mesh) == (float(np.min(lengths)),
                                               float(viol))
    assert (viol > 1e-9) == (edit == "raised")


def test_verify_subprocess_byte_identical(tmp_path):
    outs, dumps = [], []
    for sub in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "extgeo", "verify",
             "--immersion", "flat-subspace", "--resolution", "13",
             "--out", str(tmp_path / sub)],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
        dumps.append((tmp_path / sub / "verify.json").read_bytes())
    assert outs[0] == outs[1]
    assert dumps[0] == dumps[1]


# ---------------------------------------------------------------------------
# invariants subcommand

def test_invariants_payload_flat():
    pay = payload_of(["invariants", "--immersion", "flat-subspace",
                      "--resolution", "13"])
    assert pay["resolution"] == [13, 13]
    assert pay["m"] == 2 and pay["kappa"] == 0.0
    assert pay["immersion"] == {"kind": "catalog", "name": "flat-subspace",
                                "params": {}}
    inv = pay["invariants"]
    assert inv["classification"] == "extrinsically-asymptotically-flat"
    assert pay["critical_free_radius"] == 0.0
    assert pay["delta_model"] == "zero"
    assert "pinching" not in pay


def test_invariants_pinching_block_negative_kappa():
    pay = payload_of(["invariants", "--immersion", "totally-geodesic",
                      "--resolution", "15"])
    assert pay["kappa"] == -1.0
    block = pay["pinching"]
    c_star = math.sqrt((23.0 - math.sqrt(337.0)) / 32.0)
    assert block["c_star"] == pytest.approx(c_star, rel=1e-12)
    at = block["at_estimate"]
    assert set(at) == {"c", "t", "F", "lambda0", "lambda", "u_c"}
    # tail estimate of a totally geodesic immersion is jet noise
    assert at["c"] < 1e-8
    assert at["F"] == pytest.approx(1.0, abs=1e-6)


def test_invariants_report_files(tmp_path):
    out_dir = tmp_path / "reports"
    pay = payload_of(["invariants", "--immersion", "flat-subspace",
                      "--resolution", "13", "--out", str(out_dir)])
    names = sorted(os.listdir(out_dir))
    assert names == ["invariants.json", "mesh.csv", "tails.csv"]

    tails = (out_dir / "tails.csv").read_text().splitlines()
    assert tails[0] == "t,a_tail,b_tail"
    assert len(tails) >= 3
    assert all(len(line.split(",")) == 3 for line in tails[1:])

    mesh_lines = (out_dir / "mesh.csv").read_text().splitlines()
    assert mesh_lines[0] == "index,u1,u2,r,rho,alpha_norm,grad_r_tan"
    assert len(mesh_lines) == pay["vertices"] + 1

    stored = json.loads((out_dir / "invariants.json").read_text())
    assert stored == pay


def test_mesh_csv_rho_column_is_the_mesh_distance(tmp_path, monkeypatch):
    kept = keep_meshes(monkeypatch)
    payload_of(["invariants", "--immersion", "catenoid",
                "--resolution", "41x16", "--out", str(tmp_path)])
    lines = (tmp_path / "mesh.csv").read_text().splitlines()
    col = lines[0].split(",").index("rho")
    printed = [float(line.split(",")[col]) for line in lines[1:]]
    np.testing.assert_array_equal(printed, kept[0].rho)


# ---------------------------------------------------------------------------
# volume, ends, curvature subcommands

def test_volume_payload_and_report_files(tmp_path):
    out_dir = tmp_path / "reports"
    pay = payload_of(["volume", "--immersion", "flat-subspace",
                      "--resolution", "33", "--out", str(out_dir)])
    assert [w["category"] for w in pay["warnings"]] == ["RuntimeWarning"]
    assert set(pay) >= {"volume", "coarea_max_dev", "growth", "gap",
                        "ends_stability"}
    assert pay["growth"]["verdict"] == "satisfied"
    assert pay["growth"]["exploratory"] is True
    assert pay["growth"]["ends"] == 1
    # the 0.99 gap gate is calibrated for finer meshes; only the shape of
    # the report is pinned here
    assert pay["gap"]["verdict"] in ("satisfied", "violated")
    assert "min_ratio" in pay["gap"]
    assert pay["ends_stability"]["stable"] is True

    lines = (out_dir / "volume.csv").read_text().splitlines()
    assert lines[0] == "t,ball_vol,sphere_vol,ball_ratio,sphere_ratio"
    assert len(lines) >= 3
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    stored = json.loads((out_dir / "volume.json").read_text())
    assert stored == pay


# the report files README lists for each analysis command
README_FILES = {
    "invariants": ["invariants.json", "mesh.csv", "tails.csv"],
    "volume": ["volume.csv", "volume.json"],
    "ends": ["ends.csv", "ends.json"],
    "curvature": ["curvature.csv", "curvature.json"],
    "verify": ["verify.json"],
}


@pytest.mark.parametrize("command,params,resolution", [
    ("invariants", {}, 13),
    ("volume", {}, 33),
    ("ends", {}, 13),
    ("curvature", {"m": 3, "n": 4}, 9),
    ("verify", {}, 13),
])
@pytest.mark.filterwarnings("ignore:growth bounds are stated:RuntimeWarning")
def test_out_directory_holds_the_listed_files(tmp_path, command, params,
                                              resolution):
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "flat-subspace", "params": params},
        "resolution": resolution, "samples": 6})
    out_dir = tmp_path / "reports"
    code, out, err = run_cli([command, "--config", cfg,
                              "--out", str(out_dir)])
    assert code == 0, err
    assert sorted(os.listdir(out_dir)) == README_FILES[command]
    assert (out_dir / f"{command}.json").read_bytes() == out.encode()


def test_volume_rejects_too_coarse_mesh():
    body = error_of(["volume", "--immersion", "flat-subspace",
                     "--resolution", "17"], expect_code=3)
    assert body["error"] == "DomainError"
    assert "too coarse" in body["message"]


def test_ends_payload_and_csv(tmp_path):
    out_dir = tmp_path / "reports"
    pay = payload_of(["ends", "--immersion", "flat-subspace",
                      "--resolution", "17", "--out", str(out_dir)])
    ends = pay["ends"]
    assert ends["count"] == 1
    assert ends["bounded_components"] == 0
    assert ends["stability"]["stable"] is True

    lines = (out_dir / "ends.csv").read_text().splitlines()
    assert lines[0] == "R,n_ends"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [1] * len(counts)


def test_ends_does_not_solve_the_distance(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("ends solved the eikonal distance")

    monkeypatch.setattr(extgeo.mesh, "upwind_distances", unused)
    pay = payload_of(["ends", "--immersion", "catenoid"])
    assert pay["unreachable"] == 0
    assert pay["ends"]["count"] == 2


def test_curvature_via_config(tmp_path):
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "flat-subspace",
                      "params": {"m": 3, "n": 4}},
        "resolution": 9,
        "samples": 12,
    })
    out_dir = tmp_path / "reports"
    pay = payload_of(["curvature", "--config", cfg, "--out", str(out_dir)])
    assert pay["samples"] == 12
    assert pay["header"] == ["u1", "u2", "u3", "r", "exact", "lower",
                             "upper", "valid"]
    # flat: the sandwich collapses to equality, every sample is admissible
    assert pay["admissible"] == 12
    assert pay["sandwich_ok"] == 12

    lines = (out_dir / "curvature.csv").read_text().splitlines()
    assert lines[0] == ",".join(pay["header"])
    assert len(lines) == 13


def test_curvature_needs_three_dimensions():
    body = error_of(["curvature", "--immersion", "flat-subspace",
                     "--resolution", "9"], expect_code=3)
    assert body["error"] == "DomainError"
    assert "m >= 3" in body["message"]


ROT3 = {"catalog": "rotation-hypersurface", "params": {"n": 3}}


def reference_curvature_rows(chart, samples, seed, geometry=point_geometry):
    """The curvature sampler one candidate at a time: one draw, one
    ``geometry`` call and two single-point curvature calls per candidate.
    Returns (rows, skipped, cond(g) per row)."""
    gen = random.Random(seed)
    lows = np.array([lo for lo, _ in chart.domain])
    spans = np.array([hi - lo for lo, hi in chart.domain])
    rows, conds, skipped, attempts = [], [], 0, 0
    while len(rows) < samples and attempts < 20 * samples:
        attempts += 1
        # the program's stream: random() per coordinate, mapped affinely
        draws = np.array([gen.random() for _ in range(chart.m)])
        pt = lows + spans * (0.02 + (0.98 - 0.02) * draws)
        try:
            geom = geometry(chart, pt)
            exact = extrinsic_sphere_curvature(geom, mode="exact")
            lower, upper, valid = extrinsic_sphere_curvature(geom,
                                                             mode="bounds")
        except ExtGeoError:
            skipped += 1
            continue
        rows.append([*pt, float(geom.r), exact, lower, upper, valid])
        conds.append(np.linalg.cond(geom.metric))
    return rows, skipped, conds


def curvature_csv(path):
    lines = path.read_text().splitlines()[1:]
    return [[float(c) for c in line.split(",")[:-1]]
            + [line.split(",")[-1] == "true"] for line in lines]


def test_curvature_rows_match_the_per_point_sampler(tmp_path):
    cfg = write_config(tmp_path, {"immersion": ROT3, "resolution": 9,
                                  "samples": 500, "seed": 7})
    out_dir = tmp_path / "reports"
    pay = payload_of(["curvature", "--config", cfg, "--out", str(out_dir)])
    assert (pay["samples"], pay["skipped"], pay["admissible"],
            pay["sandwich_ok"]) == (500, 0, 483, 483)

    chart, _ = xg.catalog_build(ROT3["catalog"], **ROT3["params"])
    want, skipped, conds = reference_curvature_rows(chart, 500, 7)
    got = curvature_csv(out_dir / "curvature.csv")
    assert skipped == pay["skipped"] and len(got) == len(want)
    # u1, u2, u3, r, exact, lower, upper and valid bit for bit
    assert got == want
    assert pay["metric_cond"]["max"] == pytest.approx(max(conds), rel=1e-6)
    assert pay["metric_cond"]["median"] == pytest.approx(
        float(np.median(conds)), rel=1e-6)


def test_curvature_rounds_stay_within_a_chunk(tmp_path, monkeypatch,
                                              block_points):
    cfg = write_config(tmp_path, {"immersion": ROT3, "resolution": 9,
                                  "samples": 40, "seed": 3})
    whole = payload_of(["curvature", "--config", cfg])
    sizes, grid = [], extgeo.cli.grid_geometry

    def record(chart, points, **kwargs):
        sizes.append(len(points))
        return grid(chart, points, **kwargs)

    monkeypatch.setattr(extgeo.cli, "grid_geometry", record)
    block_points(xg.catalog_build(ROT3["catalog"], **ROT3["params"])[0],
                 xg.FRAME, 7)
    assert payload_of(["curvature", "--config", cfg]) == whole
    assert sizes and max(sizes) <= 7
    assert sum(sizes) == whole["samples"] + whole["skipped"]


def test_curvature_skips_points_without_geometry(tmp_path, monkeypatch):
    """A candidate whose geometry fails is skipped; the rest of its round
    is kept, as when candidates were evaluated one at a time."""
    chart, _ = xg.catalog_build(ROT3["catalog"], **ROT3["params"])
    middle = 0.5 * (chart.domain[0][0] + chart.domain[0][1])

    def failing(evaluate):
        def geometry(chart, points, **kwargs):
            if np.any(np.asarray(points)[..., 0] > middle):
                raise GeometryError("not an immersion here")
            return evaluate(chart, points, **kwargs)
        return geometry

    want, skipped, _ = reference_curvature_rows(
        chart, 60, 5, geometry=failing(point_geometry))
    monkeypatch.setattr(extgeo.cli, "grid_geometry",
                        failing(extgeo.cli.grid_geometry))
    cfg = write_config(tmp_path, {"immersion": ROT3, "resolution": 9,
                                  "samples": 60, "seed": 5})
    out_dir = tmp_path / "reports"
    pay = payload_of(["curvature", "--config", cfg, "--out", str(out_dir)])
    assert skipped > 0
    assert (pay["samples"], pay["skipped"]) == (len(want), skipped)
    got = curvature_csv(out_dir / "curvature.csv")
    assert [row[:4] for row in got] == [ref[:4] for ref in want]


def test_volume_warning_goes_to_the_payload():
    proc = subprocess.run(
        [sys.executable, "-W", "default::RuntimeWarning", "-m", "extgeo",
         "volume", "--immersion", "cylinder"], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    warned = json.loads(proc.stdout)["warnings"]
    assert [w["category"] for w in warned] == ["RuntimeWarning"]
    assert warned[0]["message"].startswith(
        "growth bounds are stated for dimension >= 3")


def test_benchmark_trace_covers_the_ends_command(tmp_path):
    # the benchmark's traced child on the ends command: the mesh span with
    # its counts and one span of the end counter
    spec = {"argv": ["ends", "--immersion", "cylinder", "--resolution", "17"],
            "result": str(tmp_path / "result.json"), "capture": None,
            "spans": str(tmp_path / "spans.jsonl"), "run_id": "test"}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    child = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "child.py")
    proc = subprocess.run([sys.executable, child, str(tmp_path / "spec.json")],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "result.json").read_text())["rc"] == 0
    spans = [json.loads(line) for line in
             (tmp_path / "spans.jsonl").read_text().splitlines()]
    names = [sp["name"] for sp in spans]
    build = [sp for sp in spans if sp["name"] == "mesh.build_mesh"]
    assert len(build) == 1 and build[0]["vertices"] == 17 * 17
    assert build[0]["edges"] > 0
    assert names.count("mesh.ends_stability") == 1


# ---------------------------------------------------------------------------
# configuration errors (exit code 2)

def test_missing_config_and_immersion():
    body = error_of(["invariants"], expect_code=2)
    assert "required" in body["message"]


def test_config_and_immersion_conflict(tmp_path):
    cfg = write_config(tmp_path, {"immersion": {"catalog": "flat-subspace"},
                                  "resolution": 9})
    body = error_of(["invariants", "--config", cfg,
                     "--immersion", "flat-subspace"], expect_code=2)
    assert "not both" in body["message"]


def test_config_file_not_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{ not json", encoding="utf-8")
    body = error_of(["invariants", "--config", str(path)], expect_code=2)
    assert body["error"] == "ConfigError"
    assert "not valid JSON" in body["message"]


def test_config_unknown_key(tmp_path):
    cfg = write_config(tmp_path, {"immersion": {"catalog": "flat-subspace"},
                                  "resolution": 9, "bogus": 1})
    body = error_of(["invariants", "--config", cfg], expect_code=2)
    assert "unknown config keys" in body["message"]
    assert "bogus" in body["message"]


def test_retired_epsilon_crit_key_is_refused(tmp_path):
    # the critical radius has no threshold any more; an old config that
    # still sets one fails loudly
    cfg = write_config(tmp_path, {"immersion": {"catalog": "flat-subspace"},
                                  "resolution": 9, "epsilon_crit": 0.001})
    body = error_of(["volume", "--config", cfg], expect_code=2)
    assert body == {"error": "ConfigError",
                    "message": "unknown config keys: ['epsilon_crit']"}


def test_config_bad_catalog_parameter(tmp_path):
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "rotation-hypersurface",
                      "params": {"a": 0.4}},
        "resolution": 9,
    })
    body = error_of(["invariants", "--config", cfg], expect_code=2)
    assert "a > 1/2" in body["message"]


def test_unknown_catalog_name():
    body = error_of(["invariants", "--immersion", "bogus",
                     "--resolution", "9"], expect_code=2)
    assert "unknown catalog entry" in body["message"]


@pytest.mark.parametrize("flag,value,needle", [
    ("--threads", "2", "unrecognized"),
    ("--truncation", "-2", "positive"),
    ("--seed", "x", "--seed"),
    ("--truncation", "abc", "--truncation"),
    ("--seed", None, "--seed"),
    ("--resolution", "9y", "--resolution"),
    ("--conf", "x", "unrecognized"),
])
def test_bad_flag_values(flag, value, needle):
    # a value of None leaves the flag as the last token
    body = error_of(["invariants", "--immersion", "flat-subspace",
                     "--resolution", "9", flag,
                     *([] if value is None else [value])], expect_code=2)
    assert body["error"] == "ConfigError"
    assert needle in body["message"]


@pytest.mark.parametrize("argv,needle", [
    ([], "expected a command"),
    (["--seed", "1"], "'--seed'"),
    (["bogus"], "'bogus'"),
    (["catalog"], "catalog takes only 'list'"),
    (["catalog", "show"], "'show'"),
    (["catalog", "list", "extra"], "'extra'"),
], ids=["no-command", "flag-first", "unknown-command", "bare-catalog",
        "catalog-action", "catalog-extra"])
def test_bad_command_lines_are_config_errors(argv, needle):
    body = error_of(argv, expect_code=2)
    assert body["error"] == "ConfigError"
    assert needle in body["message"]


def test_module_without_arguments_is_a_config_error():
    # main(None) reads sys.argv[1:], here empty
    proc = subprocess.run([sys.executable, "-m", "extgeo"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [["--help"], ["verify", "-h"],
                                  ["catalog", "--help"],
                                  ["volume", "--seed", "x", "-h"]])
def test_help_prints_the_usage_and_returns_zero(argv):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: extgeo {invariants,volume,ends,curvature,"
                          "verify} [--config CONFIG]")
    assert out.endswith(extgeo.cli.__doc__)


@pytest.mark.parametrize("flags", [
    ["--resolution=17,9"], ["--resolution", "5", "--resolution", "17,9"],
    ["--immersion=sphere", "--immersion", "catenoid", "--resolution=17,9"]],
    ids=["equals", "last-wins", "mixed"])
def test_flag_forms_give_the_same_bytes(flags):
    base = ["invariants", "--immersion", "catenoid"]
    assert run_cli(base + flags) == run_cli(base + ["--resolution", "17,9"])


def test_unwritable_out_is_a_config_error(tmp_path):
    (tmp_path / "file").write_text("")
    body = error_of(["ends", "--immersion", "flat-subspace", "--resolution",
                     "9", "--out", str(tmp_path / "file" / "dir")],
                    expect_code=2)
    assert body["message"].startswith("cannot write reports to ")


@pytest.mark.parametrize("extra,flags", [
    ({"pole": [math.nan, 0.0, 0.0]}, []),
    ({"truncation": math.inf}, []),
    ({}, ["--truncation", "nan"]),
    ({}, ["--truncation", "inf"]),
    ({"volume_radii": [2.0, 2.5, math.nan]}, []),
    ({"exhaustion_radii": [1.0, -math.inf]}, []),
    ({"delta": {"kind": "power", "d0": math.nan, "t0": 1.0}}, []),
    ({"delta": {"kind": "power", "d0": 0.1, "t0": math.inf}}, []),
], ids=["pole-nan", "truncation-inf", "flag-nan", "flag-inf",
        "volume-radii-nan", "exhaustion-radii-inf",
        "delta-d0-nan", "delta-t0-inf"])
def test_non_finite_numbers_are_config_errors(tmp_path, extra, flags):
    # json.dumps writes NaN and Infinity, which json.load reads back
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "flat-subspace"}, "resolution": 9, **extra})
    body = error_of(["volume", "--config", cfg, *flags], expect_code=2)
    assert body["error"] == "ConfigError"
    assert "finite" in body["message"]


@pytest.mark.parametrize("command", ["ends", "invariants"])
@pytest.mark.parametrize("catalog,pole,needle", [
    ("catenoid", [0.0, 0.0], "3 coordinates"),
    ("totally-geodesic", [0.0, 0.0, 0.0, 0.0], "off the hyperboloid"),
    ("totally-geodesic", [0.0, 0.0, 0.0, -1.0], "wrong sheet"),
], ids=["wrong-length", "off-sheet", "lower-sheet"])
def test_bad_pole_is_a_config_error(tmp_path, command, catalog, pole, needle):
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": catalog}, "resolution": 9, "pole": pole})
    body = error_of([command, "--config", cfg], expect_code=2)
    assert body["error"] == "ConfigError"
    assert body["message"].startswith("pole: ")
    assert needle in body["message"]


@pytest.mark.parametrize("key", ["exhaustion_radii", "volume_radii"])
@pytest.mark.parametrize("radii", [[1.0, 0.5], [0.5, 0.5], [-1.0, 0.5],
                                   [0.0, 0.5]],
                         ids=["decreasing", "repeated", "negative", "zero"])
def test_bad_radius_lists_are_config_errors(tmp_path, key, radii):
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "flat-subspace"}, "resolution": 9,
        key: radii})
    body = error_of(["volume", "--config", cfg], expect_code=2)
    assert body["error"] == "ConfigError"
    assert body["message"] == (
        f"{key} must be strictly increasing positive numbers")


@pytest.mark.parametrize("command", ["curvature", "verify", "volume"])
def test_negative_seed_is_a_config_error(command):
    body = error_of([command, "--immersion", "rotation-hypersurface",
                     "--seed", "-1"], expect_code=2)
    assert body == {"error": "ConfigError",
                    "message": "seed must be a non-negative integer"}


def test_import_leaves_out_scipy():
    code = ("import sys, extgeo.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# runs each command through main after the import and prints the exit codes,
# the modules that the import loaded and those that the commands loaded
LAZY_IMPORT_PROBE = """
import contextlib, io, json, sys
import extgeo.cli
before = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(extgeo.cli.main(argv))
print(json.dumps([codes, sorted(before), sorted(set(sys.modules) - before)]))
"""


@pytest.fixture(scope="module")
def lazy_imports(tmp_path_factory):
    """(modules after the import, modules the commands loaded) of
    LAZY_IMPORT_PROBE over the four benchmark commands, a hyperbolic
    volume, catalog list and --help, each of which exits 0."""
    tmp_path = tmp_path_factory.mktemp("lazy")
    # small grids on which verify passes and volume has a radius window
    rot3 = {"immersion": ROT3, "resolution": [9, 12, 25], "samples": 20}
    flat3 = {"immersion": {"catalog": "flat-subspace",
                           "params": {"m": 3, "n": 4}}, "resolution": 29}
    for name, cfg in (("rot3", rot3), ("flat3", flat3)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    runs = [
        ["curvature", "--config", str(tmp_path / "rot3.json"), "--seed", "3"],
        ["verify", "--config", str(tmp_path / "rot3.json")],
        ["volume", "--config", str(tmp_path / "flat3.json"), "--seed", "5"],
        # hyperbolic model balls integrate with the Gauss-Legendre rule
        ["volume", "--immersion", "totally-geodesic", "--resolution", "25"],
        ["invariants", "--immersion", "catenoid", "--resolution", "17,9",
         "--out", str(tmp_path / "reports")],
        ["catalog", "list"],
        ["--help"],
    ]
    out = subprocess.run([sys.executable, "-c", LAZY_IMPORT_PROBE,
                          json.dumps(runs)], check=True, capture_output=True,
                         text=True).stdout
    codes, imported, loaded = json.loads(out)
    assert codes == [0] * len(runs)
    return imported, loaded


def test_commands_import_no_numpy_module(lazy_imports):
    """numpy.random, numpy.ma through np.union1d or np.median, and
    numpy.polynomial through leggauss, cost their import time in every run
    of a command; none of them loads."""
    _, loaded = lazy_imports
    assert [k for k in loaded if k.split(".")[0] == "numpy"] == []


def test_cli_loads_no_argument_parser(lazy_imports):
    """argparse, and gettext and locale through its help strings, cost
    about 2.5 ms a run; neither the import nor a command loads them."""
    for modules in lazy_imports:
        assert {"argparse", "gettext", "locale"}.isdisjoint(modules)


def test_cli_import_loads_no_thread_pool():
    """concurrent.futures and its thread module cost about 10 ms of import
    time a run, and no command uses them."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, extgeo.cli; print(sorted(k for k "
         "in sys.modules if k.split('.')[0] == 'concurrent'))"],
        check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_truncation_override_rejected_for_inline(tmp_path):
    cfg = write_config(tmp_path, {"immersion": {"source": INLINE_PLANE},
                                  "resolution": 9})
    body = error_of(["volume", "--config", cfg, "--truncation", "3"],
                    expect_code=2)
    assert "inline charts fix their own domain" in body["message"]


def test_truncation_override_needs_catalog_parameter():
    body = error_of(["invariants", "--immersion", "sphere",
                     "--resolution", "9", "--truncation", "3"],
                    expect_code=2)
    assert "no truncation parameter" in body["message"]


def test_parse_error_reports_line_and_col(tmp_path):
    src = "m = 1; n = 1; ambient = euclidean;\nx1 = u1 +;\ndomain u1 in [0, 1]"
    cfg = write_config(tmp_path, {"immersion": {"source": src},
                                  "resolution": 5})
    body = error_of(["invariants", "--config", cfg], expect_code=2)
    assert body["error"] == "ParseError"
    assert body["line"] == 2
    assert body["col"] == 10


def overflow_error(tmp_path, const, x2):
    src = (f"m = 2; n = 3; ambient = euclidean; {const} x1 = u1; x2 = {x2}; "
           "x3 = u2; domain u1 in [-1, 1], u2 in [-1, 1]")
    cfg = write_config(tmp_path, {"immersion": {"source": src},
                                  "resolution": 9})
    return error_of(["invariants", "--config", cfg], expect_code=3)


@pytest.mark.parametrize("const,x2,message", [
    ("const C = 10^400;", "0", "pow: non-finite result"),
    ("const C = exp(1000);", "0", "exp: non-finite result"),
    ("", "exp(1000)*u1", "exp: non-finite result"),
    ("", "(u1+2)^(10^400)", "pow: non-finite result"),
], ids=["const-power", "const-exp", "coefficient", "exponent"])
def test_overflow_in_constant_folding_is_an_evaluation_error(
        tmp_path, const, x2, message):
    body = overflow_error(tmp_path, const, x2)
    assert body == {"error": "EvaluationError", "message": message}


def test_folded_constant_leaves_no_warning(tmp_path):
    # the value is finite, the derivative of the power overflows; the fold
    # keeps no gradient, so it neither fails nor warns
    src = ("const C = (1e-300)^(-1.001);" + INLINE_PLANE).replace(
        "x3 = 0", "x3 = C * 1e-300")
    cfg = write_config(tmp_path, {"immersion": {"source": src},
                                  "resolution": 9})
    pay = payload_of(["invariants", "--config", cfg])
    assert pay["warnings"] == []


@pytest.mark.parametrize("params,message", [
    ({"m": 2.5}, "'m' must be an integer, got 2.5"),
    ({"m": True}, "'m' must be an integer, got True"),
])
def test_catalog_parameter_of_the_wrong_type_is_a_config_error(
        tmp_path, params, message):
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "flat-subspace", "params": params},
        "resolution": 9})
    body = error_of(["invariants", "--config", cfg], expect_code=2)
    assert body == {"error": "ConfigError", "message":
                    f"immersion: 'flat-subspace' parameter {message}"}


def test_folded_and_jet_powers_name_the_overflow_alike(tmp_path):
    # the first overflows while folding 10^400, the second in the jet of a
    # power with a variable base
    folded = overflow_error(tmp_path, "", "(u1+2)^(10^400)")
    jet = overflow_error(tmp_path, "", "u1^(10^300)")
    assert folded == jet == {"error": "EvaluationError",
                             "message": "pow: non-finite result"}


# ---------------------------------------------------------------------------
# resolution flag and inline charts

@pytest.mark.parametrize("text", ["9x9", "9,9"])
def test_resolution_flag_forms(text):
    pay = payload_of(["invariants", "--immersion", "flat-subspace",
                      "--resolution", text])
    assert pay["resolution"] == [9, 9]


def test_resolution_flag_scalar_broadcasts():
    pay = payload_of(["invariants", "--immersion", "flat-subspace",
                      "--resolution", "13"])
    assert pay["resolution"] == [13, 13]


def test_resolution_flag_malformed():
    body = error_of(["invariants", "--immersion", "flat-subspace",
                     "--resolution", "abc"], expect_code=2)
    assert body["error"] == "ConfigError"


@pytest.mark.parametrize("resolution,flags,low", [
    (9, ["--resolution", "0"], 0),
    (9, ["--resolution", "2"], 2),
    (9, ["--resolution", "5,0"], 0),
    (9, ["--resolution", "-3"], -3),
    (2, [], 2),
    ([9, 2], [], 2),
], ids=["flag-zero", "flag-two", "flag-list", "flag-negative",
        "config-two", "config-list"])
def test_resolution_below_the_minimum_is_a_config_error(tmp_path, resolution,
                                                        flags, low):
    cfg = write_config(tmp_path, {"immersion": {"catalog": "flat-subspace"},
                                  "resolution": resolution})
    body = error_of(["invariants", "--config", cfg, *flags], expect_code=2)
    assert body["error"] == "ConfigError"
    assert body["message"] == (
        f"resolution {low} is below the minimum {MIN_RESOLUTION}")


def test_resolution_rank_mismatch():
    body = error_of(["invariants", "--immersion", "flat-subspace",
                     "--resolution", "9x9x9"], expect_code=3)
    assert body["error"] == "DomainError"


def test_inline_source_config(tmp_path):
    cfg = write_config(tmp_path, {"immersion": {"source": INLINE_PLANE},
                                  "resolution": 11})
    pay = payload_of(["invariants", "--config", cfg])
    assert pay["immersion"] == {"kind": "inline", "name": "inline"}
    cls = pay["invariants"]["classification"]
    assert cls == "extrinsically-asymptotically-flat"
