"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs in seconds from a checkout.  It checks that

- every function the traced run wraps exists in the program,
- BENCHMARK.json names exactly the metrics run.py prints, with their units,
- all four workloads pass their checks at small sizes, and so does a
  traced run of flat3-volume,
- spans from many threads keep distinct ids and the open main-thread span
  as parent, and self time subtracts the union of overlapping children,
- a tampered payload, a stdout that differs between invocations and a
  nonzero exit each count as a failed invocation.

Exits 0 when all hold and prints one line per failed check otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time
import uuid
from concurrent.futures import ThreadPoolExecutor

import run
from tracer import Tracer, resolve_targets, span_stats

# Smaller sizes at which every check still holds.  flat3-volume cannot go
# lower: below resolution 33 its volume and gap verdicts fail.
SMOKE = copy.deepcopy(run.WORKLOADS)
SMOKE["flat3-volume"]["resolution"] = 33
SMOKE["catenoid-invariants"]["resolution"] = [161, 48]
SMOKE["rot3-verify"]["resolution"] = [9, 24, 51]
SMOKE["rot3-curvature"]["samples"] = 20


def check_targets(problems):
    sys.path.insert(0, str(run.ROOT / "src"))
    import extgeo.cli  # noqa: F401  (loads every extgeo module)
    for name in resolve_targets(sys.modules):
        problems.append(f"wrapped name does not exist: {name}")


def check_tracer_threads(problems):
    tracer = Tracer("selftest")
    leaf = tracer.wrap("leaf", lambda k: time.sleep(0.001 * (k % 3)))

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(leaf, range(n)))

    root = tracer.wrap("root", fan_out)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        root(800)
    finally:
        sys.setswitchinterval(interval)
    spans = tracer.spans
    root_id = next(sp["id"] for sp in spans if sp["name"] == "root")
    leaves = [sp for sp in spans if sp["name"] == "leaf"]
    if len({sp["id"] for sp in spans}) != 801 or len(leaves) != 800:
        problems.append("tracer: span ids repeat or spans were lost")
    if any(sp["parent"] != root_id for sp in leaves):
        problems.append("tracer: worker spans lost their main-thread parent")

    fake = [{"id": 1, "name": "p", "start": 0.0, "end": 10.0, "parent": None},
            {"id": 2, "name": "c", "start": 1.0, "end": 4.0, "parent": 1},
            {"id": 3, "name": "c", "start": 2.0, "end": 6.0, "parent": 1}]
    st = span_stats(fake)
    if st["p"]["self_s"] != 5.0 or st["c"]["s"] != 5.0:
        problems.append("tracer: self time is not taken from interval unions")


def check_manifest(problems, layer_names):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end in BENCHMARK.json is {e2e}, "
                        f"run.py prints {run.END_TO_END_UNITS}")
    if {w["name"] for w in bench["workloads"]} != set(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from run.py")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    want = {name: run.unit_of(name) for name in layer_names}
    if layer != want:
        problems.append("per_layer in BENCHMARK.json differs from the traced "
                        f"run: only in file {sorted(set(layer) - set(want))}, "
                        f"only in run {sorted(set(want) - set(layer))}, "
                        "or a unit differs")


TRACED = "flat3-volume"        # calls the most layers


def check_smoke(problems) -> list:
    layer_names = []
    for name in SMOKE:
        for trace in ((0, 1) if name == TRACED else (0,)):
            t0 = time.monotonic()
            res = run.run_workload(name, seed=7, seconds=0, trace=trace,
                                   workloads=SMOKE)
            took = time.monotonic() - t0
            tag = f"{name} trace {trace}"
            if not res["correct"] or res["metrics"] is None:
                problems.append(f"{tag}: {res['failures']}")
                continue
            if not trace:
                zero = [k for k, v in res["metrics"].items() if not v > 0]
                if zero:
                    problems.append(f"{tag}: metrics not positive: {zero}")
            else:
                layer_names = list(res["metrics"])
            print(f"ok  {tag}  {res['attempted']} invocations  {took:.1f} s")
    return layer_names


def check_negative(problems):
    before = len(problems)
    name = "rot3-curvature"
    wl = SMOKE[name]
    work = run.WORK_DIR / f"selftest-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    try:
        runner = run.Runner(work, seed=7, started=time.monotonic())
        config = work / "config.json"
        config.write_text(json.dumps({"immersion": wl["immersion"],
                                      "resolution": wl["resolution"],
                                      "samples": wl["samples"]}), "utf-8")
        good = runner.invoke(name, wl, config, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.check_invocation(name, wl, good, good):
        problems.append("negative case: the untampered invocation failed")
        return

    payload = json.loads(good["stdout"])
    payload["sandwich_ok"] = payload["admissible"] - 1
    tampered = dict(good, stdout=json.dumps(payload))
    if not run.check_invocation(name, wl, tampered, None):
        problems.append("negative case: a tampered payload passed")

    # same payload, different bytes: only the byte-identity check sees it
    changed = dict(good, stdout=good["stdout"] + " ")
    if not run.check_invocation(name, wl, changed, good):
        problems.append("negative case: differing stdout passed")

    broken = copy.deepcopy(SMOKE)
    broken[name]["immersion"] = {"catalog": "no-such-entry"}
    res = run.run_workload(name, seed=7, seconds=0, trace=0, workloads=broken)
    if res["correct"] or res["failed"] != res["attempted"]:
        problems.append("negative case: a nonzero exit was not a failure")
    if len(problems) == before:
        print("ok  negative cases")


def main() -> int:
    problems = []
    check_targets(problems)
    check_tracer_threads(problems)
    layer_names = check_smoke(problems)
    check_manifest(problems, layer_names)
    check_negative(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
