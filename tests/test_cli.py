"""Command line behaviour: exit codes, payload shapes, report files."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import extgeo.cli
import extgeo.mesh
from extgeo.cli import main
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


@pytest.mark.parametrize("name", ["catenoid", "flat-subspace", "sphere",
                                  "totally-geodesic"])
def test_verify_passes_at_the_default_resolution(name):
    code, out, err = run_cli(["verify", "--immersion", name])
    assert code == 0, [c for c in json.loads(out)["checks"]
                       if not c["passed"]]


def test_verify_failure_exits_one(tmp_path):
    # epsilon_crit = 2 marks every vertex critical, so the end count is
    # unavailable and exactly that check must go red
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "flat-subspace"},
        "resolution": 13,
        "epsilon_crit": 2.0,
    })
    code, out, err = run_cli(["verify", "--config", cfg])
    assert code == 1
    pay = json.loads(out)
    assert pay["passed"] is False
    failed = {c["check"] for c in pay["checks"] if not c["passed"]}
    assert failed == {"ends-expected"}


def identity_check(seed):
    """(exit code, comparison-identity check) of a small hyperbolic verify."""
    code, out, err = run_cli(["verify", "--immersion", "totally-geodesic",
                              "--resolution", "9", "--seed", str(seed)])
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    return code, checks["comparison-identity"]


@pytest.mark.parametrize("seed", [8, 11])
def test_comparison_identity_is_relative_to_c_squared(seed):
    # these seeds draw t near 5, where C^2 = cosh^2 t is about 5500 and
    # rounding alone leaves |C^2 + kappa S^2 - 1| = 1.8e-12
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
    with pytest.warns(RuntimeWarning):
        pay = payload_of(["volume", "--immersion", "flat-subspace",
                          "--resolution", "33", "--out", str(out_dir)])
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
])
def test_bad_flag_values(flag, value, needle):
    body = error_of(["invariants", "--immersion", "flat-subspace",
                     "--resolution", "9", flag, value], expect_code=2)
    assert needle in body["message"]


@pytest.mark.parametrize("extra,flags", [
    ({"pole": [math.nan, 0.0, 0.0]}, []),
    ({"truncation": math.inf}, []),
    ({}, ["--truncation", "nan"]),
    ({}, ["--truncation", "inf"]),
    ({"volume_radii": [2.0, 2.5, math.nan]}, []),
    ({"exhaustion_radii": [1.0, -math.inf]}, []),
    ({"epsilon_crit": math.inf}, []),
    ({"delta": {"kind": "power", "d0": math.nan, "t0": 1.0}}, []),
    ({"delta": {"kind": "power", "d0": 0.1, "t0": math.inf}}, []),
], ids=["pole-nan", "truncation-inf", "flag-nan", "flag-inf",
        "volume-radii-nan", "exhaustion-radii-inf", "epsilon-inf",
        "delta-d0-nan", "delta-t0-inf"])
def test_non_finite_numbers_are_config_errors(tmp_path, extra, flags):
    # json.dumps writes NaN and Infinity, which json.load reads back
    cfg = write_config(tmp_path, {
        "immersion": {"catalog": "flat-subspace"}, "resolution": 9, **extra})
    body = error_of(["volume", "--config", cfg, *flags], expect_code=2)
    assert body["error"] == "ConfigError"
    assert "finite" in body["message"]


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


def test_import_leaves_out_scipy():
    code = ("import sys, extgeo.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
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
