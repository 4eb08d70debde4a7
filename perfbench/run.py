"""extgeo benchmark: python3 perfbench/run.py --workload NAME --seed N
                                          --seconds S --trace 0|1

Runs one workload through the CLI entry ``extgeo.cli.main(argv)`` as a
closed loop with one client: one child interpreter runs one command at a
time and the harness waits for it, until ``--seconds`` are used up.  Every
invocation is checked (exit code, verdicts, byte-identical stdout and report
files across the run); a failed check counts the invocation as failed.

``--trace 0`` prints the end-to-end metrics (medians over the run's
invocations).  ``--trace 1`` alternates untraced and traced invocations and
prints the per-layer metrics: span times of the public functions wrapped
from outside (see tracer.py), import attribution from ``-X importtime`` and
the tracing overhead.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  The checkout's ``src`` holds the
program; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from tracer import IMPORT_GROUPS, import_attribution, layer_metrics, read_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"

# the run has to end within 180 s whatever --seconds says
HARD_LIMIT_S = 170.0
IMPORTTIME_REPEATS = 3

ROT3 = {"catalog": "rotation-hypersurface", "params": {"n": 3}}

# Sizes are small enough that a run of BENCHMARK.json's run_seconds holds
# several invocations, for a steady median; DESIGN.md records how they were
# set.  Only "seeded" workloads pass the benchmark seed on as --seed:
# invariants does not use a seed, and verify keeps the CLI's default seed
# because its comparison-identity check fails for about one seed in five
# (an absolute 1e-12 tolerance on cosh^2 - sinh^2 - 1 for t up to 5).
WORKLOADS = {
    "flat3-volume": {
        "command": "volume",
        "immersion": {"catalog": "flat-subspace", "params": {"m": 3, "n": 4}},
        "resolution": 41,
        "seeded": True,
        "capture": "mesh",
        "items": "vertices",
    },
    "catenoid-invariants": {
        "command": "invariants",
        "immersion": {"catalog": "catenoid"},
        "resolution": [401, 64],
        "out": True,
        "items": "vertices",
    },
    "rot3-verify": {
        "command": "verify",
        "immersion": ROT3,
        "resolution": [9, 24, 101],
        "items": "vertices",
    },
    "rot3-curvature": {
        "command": "curvature",
        "immersion": ROT3,
        "resolution": [9, 24, 201],     # required by the config, unused here
        "samples": 500,
        "seeded": True,
        "capture": "probe",
        "items": "samples",
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "oracle_err": "ratio",
}


# ---------------------------------------------------------------------------
# checks

def check_invocation(name, wl, rec, first) -> list:
    """Reasons the invocation failed; empty when it passed.

    ``first`` is the first completed invocation of the run (same seed), whose
    stdout and report files every later one must reproduce byte for byte.
    """
    if rec.get("error"):
        return [rec["error"]]
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}"]
    try:
        payload = json.loads(rec["stdout"])
    except json.JSONDecodeError:
        return ["stdout is not one JSON payload"]
    bad = []

    def need(cond, why):
        if not cond:
            bad.append(why)

    if name == "flat3-volume":
        need(payload.get("growth", {}).get("verdict") == "satisfied",
             "growth verdict is not satisfied")
        stab = payload.get("ends_stability", {})
        need(stab.get("n_ends") == 1 and stab.get("stable") is True,
             "ends are not 1 and stable")
        need(payload.get("gap", {}).get("verdict") == "satisfied",
             "gap verdict is not satisfied")
    elif name == "catenoid-invariants":
        need(payload.get("invariants", {}).get("classification")
             == "extrinsically-asymptotically-flat",
             "classification is not extrinsically-asymptotically-flat")
        need(rec["files"].get("mesh.csv", {}).get("lines")
             == payload.get("vertices", -1) + 1,
             "mesh.csv does not hold one row per vertex plus a header")
        need(rec["files"].get("invariants.json", {}).get("sha256")
             == _sha256(rec["stdout"].encode("utf-8")),
             "invariants.json differs from the stdout payload")
    elif name == "rot3-verify":
        need(payload.get("passed") is True, "verify checks did not pass")
    elif name == "rot3-curvature":
        need(payload.get("samples") == wl["samples"],
             f"samples is not {wl['samples']}")
        need(payload.get("sandwich_ok") == payload.get("admissible"),
             "sandwich_ok differs from admissible")
    if wl.get("capture"):
        need(isinstance(rec.get("oracle"), float)
             and math.isfinite(rec["oracle"]), "oracle error missing")

    if first is not None and first is not rec:
        need(rec["stdout"] == first["stdout"],
             "stdout differs from the first run with this seed")
        need(_digests(rec["files"]) == _digests(first["files"]),
             "report files differ from the first run with this seed")
    return bad


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(files) -> dict:
    return {k: v["sha256"] for k, v in files.items()}


def _scan_reports(out_dir: Path) -> dict:
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            files[path.name] = {"sha256": _sha256(data),
                                "lines": data.count(b"\n")}
    return files


# ---------------------------------------------------------------------------
# child processes

class Runner:
    """Starts child interpreters inside the run's work directory."""

    def __init__(self, work: Path, seed: int, started: float):
        self.work = work
        self.seed = seed
        self.started = started
        self.count = 0
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.env = env

    def _timeout(self) -> float:
        return max(1.0, self.started + HARD_LIMIT_S - time.monotonic())

    def python(self, args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True,
                              timeout=self._timeout())

    def invoke(self, name, wl, config: Path, traced: bool) -> dict:
        """One CLI invocation; returns the child's record plus report files."""
        self.count += 1
        tag = f"{self.count:03d}"
        argv = [wl["command"], "--config", str(config)]
        if wl.get("seeded"):
            argv += ["--seed", str(self.seed)]
        out_dir = self.work / f"out-{tag}"
        if wl.get("out"):
            argv += ["--out", str(out_dir)]
        spec = {"argv": argv, "result": str(self.work / f"result-{tag}.json"),
                "capture": wl.get("capture"), "immersion": wl["immersion"]}
        if traced:
            spec["spans"] = str(self.work / f"spans-{tag}.jsonl")
            spec["run_id"] = f"{name}-{self.seed}-{tag}"
        spec_path = self.work / f"spec-{tag}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            proc = self.python([str(BENCH_DIR / "child.py"), str(spec_path)])
        except subprocess.TimeoutExpired:
            return {"error": "child timed out", "files": {}}
        if proc.returncode != 0 or not Path(spec["result"]).is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return {"error": f"child exited {proc.returncode}: {tail[0]}",
                    "files": {}}
        rec = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        rec["files"] = _scan_reports(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            rec["spans"] = read_spans(spec["spans"])
        return rec


# ---------------------------------------------------------------------------
# metrics

def _median(values) -> float:
    return float(statistics.median(values))


def _accuracy(name, rec, payload) -> dict:
    """The workload's oracle errors, by the names the summary prints."""
    acc = {}
    if name == "flat3-volume":
        vol = payload["volume"]
        acc["rho_rel_err_max"] = rec["oracle"]
        acc["ball_ratio_err_max"] = max(abs(x - 1.0) for x in vol["ball_ratio"])
        acc["sphere_ratio_err_max"] = max(abs(x - 1.0)
                                          for x in vol["sphere_ratio"])
        acc["oracle_err"] = acc["rho_rel_err_max"]
    elif name == "catenoid-invariants":
        # ground truth a(M) = 0 for the catenoid
        acc["a_est_abs_err"] = abs(payload["invariants"]["a_estimate"])
        acc["oracle_err"] = acc["a_est_abs_err"]
    elif name == "rot3-verify":
        detail = next(c["detail"] for c in payload["checks"]
                      if c["check"] == "bending-ground-truth")
        acc["bending_rel_err_max"] = detail["max_rel_err"]
        acc["oracle_err"] = acc["bending_rel_err_max"]
    elif name == "rot3-curvature":
        acc["bending_rel_err_max"] = rec["oracle"]
        acc["oracle_err"] = acc["bending_rel_err_max"]
    return acc


def end_to_end(name, wl, good) -> tuple:
    """(end-to-end metrics, the workload's accuracy measures by name)."""
    walls = [r["wall_s"] for r in good]
    payloads = [json.loads(r["stdout"]) for r in good]
    acc = [_accuracy(name, r, p) for r, p in zip(good, payloads)]
    return {
        "setup_s": _median(r["setup_s"] for r in good),
        "wall_s": _median(walls),
        "items_per_s": _median(p[wl["items"]] / w
                               for p, w in zip(payloads, walls)),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in good),
        "oracle_err": _median(a["oracle_err"] for a in acc),
    }, {k: _median(a[k] for a in acc) for k in acc[0] if k != "oracle_err"}


PER_LAYER_ACCURACY = {
    "rho_rel_err_max": "mesh.rho_rel_err_max",
    "ball_ratio_err_max": "volumetrics.ball_ratio_err_max",
    "sphere_ratio_err_max": "volumetrics.sphere_ratio_err_max",
    "a_est_abs_err": "invariants.a_est_abs_err",
}


def per_layer(name, traced, untraced, import_texts) -> dict:
    runs = [layer_metrics(r["spans"]) for r in traced]
    metrics = {k: _median(run[k] for run in runs) for k in runs[0]}
    shares = [import_attribution(text) for text in import_texts]
    for metric, _ in IMPORT_GROUPS:
        metrics[metric] = _median(s[metric] for s in shares) if shares else 0.0
    base = _median(r["wall_s"] for r in untraced) if untraced else 0.0
    metrics["trace.overhead_frac"] = (
        _median(r["wall_s"] for r in traced) / base - 1.0 if base else 0.0)
    payload = json.loads(traced[0]["stdout"])
    acc = _accuracy(name, traced[0], payload)
    for key, metric in PER_LAYER_ACCURACY.items():
        metrics[metric] = acc.get(key, 0.0)
    return metrics


# ---------------------------------------------------------------------------
# one run

def run_workload(name, seed, seconds, trace, workloads=WORKLOADS) -> dict:
    """Run one workload for ``seconds``; returns the result object."""
    wl = workloads[name]
    started = time.monotonic()
    work = WORK_DIR / f"{name}-{seed}-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, seed, started)
        config = work / "config.json"
        cfg = {"immersion": wl["immersion"], "resolution": wl["resolution"]}
        if "samples" in wl:
            cfg["samples"] = wl["samples"]
        config.write_text(json.dumps(cfg), encoding="utf-8")

        # fill the bytecode and file caches a user's second run would find
        runner.python(["-c", "import extgeo.cli"])
        import_texts = []
        if trace:
            for _ in range(IMPORTTIME_REPEATS):
                proc = runner.python(["-X", "importtime", "-c",
                                      "import extgeo.cli"])
                if proc.returncode == 0:
                    import_texts.append(proc.stderr)

        # start another round only if the slowest round so far still fits
        deadline = started + seconds
        records, round_s = [], 0.0
        while not records or (time.monotonic() + round_s <= deadline
                              and time.monotonic() - started < HARD_LIMIT_S / 2):
            t0 = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                rec = runner.invoke(name, wl, config, traced)
                rec["traced"] = traced
                records.append(rec)
            round_s = max(round_s, time.monotonic() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    first = next((r for r in records if not r.get("error") and r["rc"] == 0),
                 None)
    failures = []
    for rec in records:
        rec["failures"] = check_invocation(name, wl, rec, first)
        failures.extend(rec["failures"])
    good = [r for r in records if not r["failures"]]
    failed = len(records) - len(good)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "failures": sorted(set(failures))}
    if not good:
        result["metrics"] = None
        return result
    if trace:
        traced = [r for r in good if r["traced"]]
        untraced = [r for r in good if not r["traced"]]
        if not traced:
            result["metrics"] = None
            return result
        result["metrics"] = per_layer(name, traced, untraced, import_texts)
        result["missing"] = sorted({m for r in traced for m in r["missing"]})
    else:
        result["metrics"], result["accuracy"] = end_to_end(name, wl, good)
        result["walls"] = [r["wall_s"] for r in good]
    return result


def unit_of(metric: str) -> str:
    """Unit of a metric, read from its name."""
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith((".calls", ".points", ".vertices", ".edges")):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "extgeo" / "cli.py").is_file():
        sys.stderr.write(f"no extgeo sources under {ROOT / 'src'}; run the "
                         "benchmark from a checkout of the repository\n")
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for reason in result["failures"]:
        print(f"failed: {reason}")
    for target in result.get("missing", ()):
        print(f"not traced, no longer in the program: {target}")
    if result["metrics"] is None:
        sys.stderr.write("no invocation completed; no metrics to report\n")
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"invocations {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed'] / result['attempted']:.4g} ratio")
    for key, value in result["metrics"].items():
        print(f"  {key:44s} {value:.6g} {unit_of(key)}")
    for key, value in result.get("accuracy", {}).items():
        print(f"  {key:44s} {value:.6g} ratio")
    if not args.trace:
        wl = WORKLOADS[args.workload]
        walls = " ".join(f"{w:.3f}" for w in result["walls"])
        print(f"  items_per_s counts {wl['items']}; wall_s is the median of "
              f"{len(result['walls'])}: {walls} s")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
