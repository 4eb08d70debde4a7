"""Command line entry point: one JSON config in, reports out.

An analysis command reads a config file (--config FILE) or a catalog entry
at its default settings (--immersion NAME); --out DIR also writes report
files.  A flag is spelled in full and takes the next token or the text
after ``=`` as its value, even one that starts with ``-``; the last of a
repeated flag wins.  ``-h`` or ``--help`` anywhere prints the usage line
and this text.

Config schema (all keys optional unless marked):

    {
      "immersion": {"catalog": "<name>", "params": {...}}     (required)
                   | {"source": "<chart source text>"},
      "resolution": 33 | [200, 64],                           (required)
      "pole": null | [n model coordinates; n+1 on the hyperboloid],
      "truncation": null | positive number (catalog override),
      "exhaustion_radii": null | [increasing positive reals],
      "volume_radii": null | [increasing positive reals],
      "delta": {"kind": "zero"} | {"kind": "power", "d0": x, "t0": y},
      "seed": 0,                                              (non-negative)
      "samples": 48
    }

Every number must be finite: JSON NaN and Infinity are malformed config.
Each resolution entry must be at least ``mesh.MIN_RESOLUTION``.

Every analysis command runs through one pipeline, ``_run``: validate the
config, build the immersion, build the mesh (``curvature`` samples the chart
instead), run the command body, merge the mesh header and the warnings
raised on the way (``warnings``) into the body's payload sections, then,
with ``--out``, write the body's report files and ``<command>.json``.
The ``--resolution``, ``--truncation`` and ``--seed`` values are merged
into the config object before it is validated, so they pass exactly the
checks that the config keys pass.  The seed seeds ``random.Random``, whose
draws ``immersion.uniform_draws`` maps to each range.  ``curvature`` draws
its candidates in rounds of at most one geometry block of ``FRAME`` points
(``immersion.BLOCK_BYTES``) and makes one ``FRAME`` geometry request per
round.  A mesh whose estimated memory exceeds ``mesh.MEMORY_BUDGET`` is
refused before the chart is evaluated.

Exit codes: 0 success (help too), 1 verification checks failed, 2
malformed config or command line (a pole off the model and an --out that
cannot be written too), 3 numeric pipeline failure.  Errors print one JSON
object on stderr; identical configs give byte-identical output files.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .catalog import CATALOG, catalog_build
from .errors import (ConfigError, DomainError, ExtGeoError, GeometryError,
                     HypothesisViolatedError, ParseError)
from .exprchart import parse_chart
from .immersion import (FRAME, ambient_of, block_len,
                        extrinsic_sphere_curvature, grid_geometry, point_bytes,
                        uniform_draws)
from .invariants import (DeltaModel, c_star_closed_form, default_tail_radii,
                         invariant_tails, pinching_functions)
from .mesh import (MIN_RESOLUTION, build_mesh, check_budget,
                   critical_free_radius, ends_stability, mesh_dump)
from .reporting import dumps_json, write_csv, write_json
from .spaceform import c_kappa, s_kappa
from .volumetrics import (GrowthVerdict, gap_ratio, verify_growth_bounds,
                          volume_curve)

__all__ = ["RunConfig", "parse_config", "main"]


@dataclass
class RunConfig:
    immersion: dict
    resolution: object
    pole: list = None
    truncation: float = None
    exhaustion_radii: list = None
    volume_radii: list = None
    delta: DeltaModel = field(default_factory=DeltaModel)
    seed: int = 0
    samples: int = 48


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _finite(x) -> bool:
    """A JSON number, not a bool, with a finite value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:       # an integer beyond the float range
        return False


def _number_list(value, name):
    _require(isinstance(value, list) and value, f"{name} must be a nonempty list")
    for x in value:
        _require(_finite(x), f"{name} entries must be finite numbers")
    return [float(x) for x in value]


def _radius_list(value, name):
    """A config radius list: positive and strictly increasing."""
    radii = _number_list(value, name)
    _require(radii[0] > 0 and all(a < b for a, b in zip(radii, radii[1:])),
             f"{name} must be strictly increasing positive numbers")
    return radii


def parse_config(data: dict) -> RunConfig:
    _require(isinstance(data, dict), "config must be a JSON object")
    known = {"immersion", "resolution", "pole", "truncation",
             "exhaustion_radii", "volume_radii", "delta", "seed", "samples"}
    extra = set(data) - known
    _require(not extra, f"unknown config keys: {sorted(extra)}")

    imm = data.get("immersion")
    _require(isinstance(imm, dict), "config needs an 'immersion' object")
    keys = set(imm)
    if "catalog" in keys:
        _require(keys <= {"catalog", "params"},
                 "catalog immersion takes only 'catalog' and 'params'")
        _require(isinstance(imm["catalog"], str), "'catalog' must be a name")
        params = imm.get("params", {})
        _require(isinstance(params, dict), "'params' must be an object")
    elif "source" in keys:
        _require(keys == {"source"}, "inline immersion takes only 'source'")
        _require(isinstance(imm["source"], str) and imm["source"].strip(),
                 "'source' must be nonempty chart text")
    else:
        raise ConfigError("immersion needs either 'catalog' or 'source'")

    res = data.get("resolution")
    counts = res if isinstance(res, list) else [res]
    _require(counts and all(isinstance(k, int) and not isinstance(k, bool)
                            for k in counts),
             "config needs 'resolution' (int or list of ints)")
    _require(min(counts) >= MIN_RESOLUTION,
             f"resolution {min(counts)} is below the minimum {MIN_RESOLUTION}")

    pole = data.get("pole")
    if pole is not None:
        pole = _number_list(pole, "pole")

    trunc = data.get("truncation")
    if trunc is not None:
        _require(_finite(trunc) and trunc > 0,
                 "truncation must be a positive finite number")
        trunc = float(trunc)

    radii = data.get("exhaustion_radii")
    if radii is not None:
        radii = _radius_list(radii, "exhaustion_radii")
    vradii = data.get("volume_radii")
    if vradii is not None:
        vradii = _radius_list(vradii, "volume_radii")

    delta_raw = data.get("delta", {"kind": "zero"})
    _require(isinstance(delta_raw, dict), "delta must be an object")
    d0, t0 = delta_raw.get("d0", 0.0), delta_raw.get("t0", 1.0)
    _require(_finite(d0) and _finite(t0),
             "delta d0 and t0 must be finite numbers")
    try:
        delta = DeltaModel(kind=delta_raw.get("kind", "zero"),
                           d0=float(d0), t0=float(t0))
    except DomainError as exc:
        raise ConfigError(f"delta model: {exc}")

    seed = data.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and seed >= 0, "seed must be a non-negative integer")
    samples = data.get("samples", 48)
    _require(isinstance(samples, int) and not isinstance(samples, bool)
             and samples > 0, "samples must be a positive integer")

    return RunConfig(immersion=imm, resolution=res, pole=pole,
                     truncation=trunc, exhaustion_radii=radii,
                     volume_radii=vradii, delta=delta, seed=seed,
                     samples=samples)


def _read_config(path: str):
    """The JSON value of a config file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


# ---------------------------------------------------------------------------
# pipeline assembly

def _build_immersion(cfg: RunConfig):
    """(chart, ground_truth_or_None, descriptor dict)"""
    imm = cfg.immersion
    if "source" in imm:
        if cfg.truncation is not None:
            raise ConfigError(
                "truncation override applies to catalog entries; inline "
                "charts fix their own domain")
        chart = parse_chart(imm["source"], name="inline")
        return chart, None, {"kind": "inline", "name": chart.name}
    name = imm["catalog"]
    params = dict(imm.get("params", {}))
    if cfg.truncation is not None:
        entry = CATALOG.get(name)
        if entry is not None and "truncation" not in entry.defaults:
            raise ConfigError(
                f"catalog entry '{name}' has no truncation parameter")
        params["truncation"] = cfg.truncation
    try:
        chart, gt = catalog_build(name, **params)
    except DomainError as exc:
        # bad names or parameter values come from the config file
        raise ConfigError(f"immersion: {exc}")
    desc = {"kind": "catalog", "name": name, "params": params}
    return chart, gt, desc


def _mesh_header(mesh, desc) -> dict:
    return {
        "immersion": desc,
        "m": mesh.m,
        "kappa": mesh.vertices.kappa,
        "resolution": list(mesh.shape),
        "vertices": mesh.n_vertices,
        "edges": mesh.n_edges,
        "basepoint": int(mesh.basepoint),
        "r_max": mesh.r_max,
        "r_truncation_min": mesh.r_truncation_min,
        # the grid graph joins every in-grid axis offset, so it is
        # connected
        "unreachable": 0,
    }


def _tails(cfg: RunConfig, mesh):
    """Bending tails over the configured or else the default radii."""
    return invariant_tails(
        mesh, cfg.exhaustion_radii or default_tail_radii(mesh))


# ---------------------------------------------------------------------------
# command bodies: (payload sections, {report file name: writer(path)})

def run_invariants(cfg: RunConfig, mesh, gt):
    report = _tails(cfg, mesh)
    sections = {
        "invariants": report.summary(),
        "critical_free_radius": critical_free_radius(mesh),
        "delta_model": cfg.delta.label,
    }

    kappa = mesh.vertices.kappa
    if kappa < 0.0:
        block = {"c_star": c_star_closed_form()}
        c_val = report.a_estimate
        t_last = float(report.a_tail.x[-1])
        try:
            pv = pinching_functions(c_val, t=t_last,
                                    delta=cfg.delta.value(t_last),
                                    kappa=kappa)
            block["at_estimate"] = {
                "c": c_val, "t": t_last, "F": pv.F, "lambda0": pv.lambda0,
                "lambda": pv.lambda_full, "u_c": pv.u_c,
            }
        except DomainError as exc:
            block["at_estimate"] = {"skipped": str(exc)}
        sections["pinching"] = block

    return sections, {
        "tails.csv": partial(
            write_csv, header=["t", "a_tail", "b_tail"],
            rows=zip(report.a_tail.x, report.a_tail.y, report.b_tail.y),
            row_format=",".join(["%.17g"] * 3)),
        "mesh.csv": partial(mesh_dump, mesh),
    }


def run_volume(cfg: RunConfig, mesh, gt):
    curve = volume_curve(mesh, cfg.volume_radii)
    report = _tails(cfg, mesh)

    try:
        ends = ends_stability(mesh)
    except ExtGeoError as exc:
        stab = {"error": str(exc)}
        growth = GrowthVerdict(
            verdict="inconclusive", reason=f"end count unavailable: {exc}",
            rows=[], exploratory=mesh.m < 3, ends=-1,
            a_estimate=report.a_estimate)
    else:
        stab = ends.window()
        growth = verify_growth_bounds(mesh, report, ends.n_ends, curve)

    try:
        gap = gap_ratio(mesh, radii=cfg.volume_radii, samples=cfg.samples,
                        seed=cfg.seed).summary()
        gap["verdict"] = "satisfied" if gap["min_ratio"] >= 0.99 else "violated"
    except HypothesisViolatedError as exc:
        gap = {"verdict": "inconclusive", "reason": str(exc),
               "offenders": exc.offenders}

    sections = {
        "volume": curve.summary(),
        "coarea_max_dev": curve.coarea_max_dev(),
        "growth": growth.summary(),
        "gap": gap,
        "ends_stability": stab,
    }
    return sections, {"volume.csv": partial(
        write_csv,
        header=["t", "ball_vol", "sphere_vol", "ball_ratio", "sphere_ratio"],
        rows=zip(curve.radii, curve.ball, curve.sphere,
                 curve.ball_ratio, curve.sphere_ratio),
        row_format=",".join(["%.17g"] * 5))}


def run_ends(cfg: RunConfig, mesh, gt):
    ends = ends_stability(mesh)
    sections = {"ends": {
        "count": ends.n_ends,
        "bounded_components": ends.n_bounded,
        "components": ends.component_sizes,
        "critical_free_radius": ends.critical_free_radius,
        "stability": ends.window(),
    }}
    return sections, {"ends.csv": partial(
        write_csv, header=["R", "n_ends"], rows=zip(ends.radii, ends.counts),
        row_format="%.17g,%d")}


def _curvature_rows(chart, pts, amb):
    """``(ok, columns)``: the mask of the candidates with a distance sphere
    and, for those, r, exact, lower, upper, valid and cond(g) (None if
    there are none).  A block whose geometry fails is split in halves
    until each failure is one point."""
    try:
        geom = grid_geometry(chart, pts, level=FRAME, amb=amb)
    except ExtGeoError:
        if len(pts) == 1:
            return np.zeros(1, dtype=bool), None
        parts = [_curvature_rows(chart, half, amb)
                 for half in np.array_split(pts, 2)]
        cols = [c for _, c in parts if c is not None]
        return (np.concatenate([ok for ok, _ in parts]),
                [np.concatenate(c) for c in zip(*cols)] if cols else None)
    exact, bad = extrinsic_sphere_curvature(geom, mode="exact")
    lower, upper, valid, bad_bounds = extrinsic_sphere_curvature(
        geom, mode="bounds")
    ok = ~(bad | bad_bounds)
    return ok, [col[ok] for col in (geom.r, exact, lower, upper, valid,
                                    np.linalg.cond(geom.metric))]


def run_curvature(cfg: RunConfig, chart, gt):
    if chart.m < 3:
        raise DomainError(
            "distance-sphere curvature sampling needs m >= 3 "
            f"(chart has m = {chart.m})")
    gen = random.Random(cfg.seed)
    amb = ambient_of(chart, cfg.pole)
    lows, highs = np.array(chart.domain).T
    budget = 20 * cfg.samples
    rounds, kept, attempts = [], 0, 0
    # each round draws the shortfall, at most one geometry block, so memory
    # stays bounded and the candidates are those one draw per attempt would
    # give
    block = block_len(point_bytes(FRAME, chart.m, len(amb.pole)))
    while kept < cfg.samples and attempts < budget:
        k = min(cfg.samples - kept, block, budget - attempts)
        attempts += k
        pts = lows + (highs - lows) * uniform_draws(gen, 0.02, 0.98,
                                                    (k, chart.m))
        ok, cols = _curvature_rows(chart, pts, amb)
        if cols is not None:
            rounds.append([pts[ok], *cols])
            kept += len(cols[0])
    if not kept:
        raise DomainError("no admissible sample points for curvature rows")
    pts, r, exact, lower, upper, valid, cond = (
        np.concatenate(col) for col in zip(*rounds))
    # the median from one sort: np.median's NaN check imports numpy.ma
    cond = np.sort(cond)
    sections = {
        "samples": kept, "skipped": attempts - kept,
        "header": [f"u{i + 1}" for i in range(chart.m)]
        + ["r", "exact", "lower", "upper", "valid"],
        "admissible": int(np.count_nonzero(valid)),
        "sandwich_ok": int(np.count_nonzero(
            valid & (exact >= lower - 1e-9) & (exact <= upper + 1e-9))),
        "metric_cond": {"max": float(cond[-1]), "median": float(
            0.5 * (cond[(kept - 1) // 2] + cond[kept // 2]))},
    }
    columns = [*pts.T, r, exact, lower, upper]
    return sections, {"curvature.csv": partial(
        write_csv, header=sections["header"],
        rows=zip(*(col.tolist() for col in columns),
                 np.where(valid, "true", "false").tolist()),
        row_format="%.17g," * len(columns) + "%s")}


def _edge_extremes(mesh):
    """(the shortest edge length, the largest |rho(u) - rho(v)| - |uv|
    over the edges with finite rho at both ends or 0 if none is larger),
    one piece of the grid at a time (``MeshGraph.forward_slots``), so no
    edge list is built."""
    rho = mesh.rho.reshape(mesh.shape)
    table = mesh.neighbour_lengths.reshape(*mesh.shape, -1)
    shortest, viol = np.inf, 0.0
    for slot, pieces in mesh.forward_slots():
        for here, there in pieces:
            lengths = table[..., slot][here]
            near, far = rho[here], rho[there]
            finite = np.isfinite(near) & np.isfinite(far)
            shortest = np.min(lengths, initial=shortest)
            viol = np.max(np.abs(near[finite] - far[finite]) - lengths[finite],
                          initial=viol)
    return float(shortest), float(viol)


def run_verify(cfg: RunConfig, mesh, gt):
    """Battery of internal checks on one configured immersion."""
    checks = []

    def check(name, passed, detail):
        checks.append({"check": name, "passed": bool(passed),
                       "detail": detail})

    shortest, viol = _edge_extremes(mesh)
    check("edge-lengths-positive", shortest > 0.0, {"min": shortest})
    check("distance-triangle-inequality", viol <= 1e-9, {"max_violation": viol})
    rho = mesh.rho
    check("basepoint-distance-zero", rho[mesh.basepoint] == 0.0,
          {"value": float(rho[mesh.basepoint])})

    kappa = mesh.vertices.kappa
    ts = uniform_draws(random.Random(cfg.seed), 0.0, 5.0, (64,))
    c_sq = c_kappa(kappa, ts) ** 2
    resid = np.abs(c_sq + kappa * s_kappa(kappa, ts) ** 2 - 1.0)
    # rounding in C^2 and kappa*S^2 alone is a few eps*C^2, so the bound
    # holds relative to C^2 (C = 1 when kappa = 0)
    check("comparison-identity", np.max(resid / c_sq) < 1e-12,
          {"max_residual": float(np.max(resid))})

    report = _tails(cfg, mesh)
    a_mono = bool(np.all(np.diff(report.a_tail.y) <= 1e-12))
    b_mono = bool(np.all(np.diff(report.b_tail.y) <= 1e-12))
    check("tails-non-increasing", a_mono and b_mono,
          {"a": a_mono, "b": b_mono})

    if gt is not None and gt.alpha_norm_sq is not None:
        want = np.asarray(gt.alpha_norm_sq(mesh.points), dtype=float)
        got = mesh.vertices.norm_alpha_sq
        scale = np.maximum(np.abs(want), 1e-10)
        err = float(np.max(np.abs(got - want) / scale))
        check("bending-ground-truth", err < 1e-6, {"max_rel_err": err})
    if gt is not None and gt.expected_class is not None:
        check("classification-expected",
              report.classification == gt.expected_class,
              {"expected": gt.expected_class, "got": report.classification})
    if gt is not None and gt.ends is not None:
        try:
            ends = ends_stability(mesh)
            check("ends-expected", ends.stable and ends.n_ends == gt.ends,
                  {"expected": gt.ends, "got": ends.n_ends,
                   "stable": ends.stable})
        except DomainError as exc:
            check("ends-expected", False, {"error": str(exc)})

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}, {}


_COMMANDS = {
    "invariants": run_invariants,
    "volume": run_volume,
    "ends": run_ends,
    "curvature": run_curvature,
    "verify": run_verify,
}


def _run(args) -> dict:
    """One analysis command, from the command line to its payload and,
    with ``--out``, its report files."""
    cfg = _config_from_args(args)
    # warnings go into the payload, not to stderr with a source line; the
    # filters stay as they are, so a repeated warning is recorded once
    with warnings.catch_warnings(record=True) as caught:
        chart, gt, desc = _build_immersion(cfg)
        if args.command != "curvature":
            # before the chart is evaluated anywhere, the pole included
            check_budget(chart, cfg.resolution)
        try:
            pole = ambient_of(chart, cfg.pole).pole
        except (DomainError, GeometryError) as exc:
            raise ConfigError(f"pole: {exc}")
        # later stages take the checked pole instead of the basepoint's image
        cfg = replace(cfg, pole=pole)
        if args.command == "curvature":
            header, subject = {"immersion": desc}, chart
        else:
            # through the module global, so callers can wrap the mesh build
            subject = build_mesh(chart, cfg.resolution, pole=cfg.pole)
            header = _mesh_header(subject, desc)
        sections, files = _COMMANDS[args.command](cfg, subject, gt)
    payload = {**header, **sections, "warnings": [
        {"category": w.category.__name__, "message": str(w.message)}
        for w in caught]}
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, write in files.items():
                write(os.path.join(args.out, name))
            write_json(os.path.join(args.out, f"{args.command}.json"), payload)
        except OSError as exc:
            raise ConfigError(f"cannot write reports to {args.out!r}: {exc}")
    return payload


def run_catalog_list() -> dict:
    rows = []
    for name, entry in CATALOG.items():
        chart, gt = entry.build()
        rows.append({
            "name": name,
            "summary": entry.summary,
            "defaults": entry.defaults,
            "validity": entry.validity,
            "expected_class": gt.expected_class,
            "ends": gt.ends,
            "a_value": gt.a_value,
            "b_value": gt.b_value,
            "compact": gt.compact,
        })
    return {"entries": rows}


# ---------------------------------------------------------------------------
# argument handling

def _parse_resolution(text: str):
    vals = [int(p) for p in text.replace("x", ",").split(",") if p != ""]
    if not vals:
        raise ValueError(text)
    return vals[0] if len(vals) == 1 else vals


# flag -> converter of its value; every analysis command takes every flag
_FLAGS = {"--config": str, "--immersion": str, "--out": str,
          "--resolution": _parse_resolution, "--truncation": float,
          "--seed": int}


def _usage() -> str:
    flags = " ".join(f"[{flag} {flag[2:].upper()}]" for flag in _FLAGS)
    return (f"usage: extgeo {{{','.join(_COMMANDS)}}} {flags}\n"
            f"       extgeo catalog list\n\n{__doc__ or ''}")


def _parse_args(argv):
    """The command line as ``args`` (``command`` and one field per flag,
    None when not given), or None if it asks for help."""
    if "-h" in argv or "--help" in argv:
        return None
    commands = [*_COMMANDS, "catalog"]
    if not argv or argv[0] not in commands:
        raise ConfigError(f"expected a command, one of {commands}, got "
                          f"{argv[:1]}")
    command, *rest = argv
    if command == "catalog":
        if rest != ["list"]:
            raise ConfigError(f"catalog takes only 'list', got {rest}")
        return SimpleNamespace(command=command)
    args = SimpleNamespace(command=command, **{f[2:]: None for f in _FLAGS})
    tokens = iter(rest)
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag not in _FLAGS:
            raise ConfigError(f"unrecognized argument {token!r}")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ConfigError(f"argument {flag}: expected a value")
        try:
            setattr(args, flag[2:], _FLAGS[flag](text))
        except ValueError:
            raise ConfigError(f"argument {flag}: invalid value {text!r}")
    return args


_DEFAULT_RESOLUTION = 33


def _config_from_args(args) -> RunConfig:
    """The run config: the config file or the catalog shortcut, with the
    command-line values merged in before validation."""
    if args.config:
        data = _read_config(args.config)
        if args.immersion:
            raise ConfigError("give either --config or --immersion, not both")
    elif args.immersion:
        data = {"immersion": {"catalog": args.immersion},
                "resolution": _DEFAULT_RESOLUTION}
    else:
        raise ConfigError("a config file (--config) or a catalog immersion "
                          "(--immersion) is required")
    if isinstance(data, dict):
        # a config that is not an object is left for parse_config to refuse
        flags = {"resolution": args.resolution,
                 "truncation": args.truncation, "seed": args.seed}
        data = {**data, **{k: v for k, v in flags.items() if v is not None}}
    return parse_config(data)


def _emit_error(exc: Exception) -> None:
    body = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        if getattr(exc, "line", None) is not None:
            body["line"] = exc.line
        if getattr(exc, "col", None) is not None:
            body["col"] = exc.col
    if isinstance(exc, HypothesisViolatedError) and exc.offenders:
        body["offenders"] = exc.offenders
    sys.stderr.write(dumps_json(body))


def main(argv=None) -> int:
    try:
        # inside the try: a bad command line raises ConfigError
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(_usage())
            return 0
        if args.command == "catalog":
            payload = run_catalog_list()
        else:
            payload = _run(args)
    except (ConfigError, ParseError) as exc:
        _emit_error(exc)
        return 2
    except ExtGeoError as exc:
        _emit_error(exc)
        return 3
    sys.stdout.write(dumps_json(payload))
    if args.command == "verify" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
