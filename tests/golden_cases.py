"""Golden CLI runs: the byte contract of the command line as files.

Each case is one ``extgeo.cli.main(argv)`` call, run in process.  Its
stdout is kept byte for byte in ``golden/<case>.out``; its exit code and
stderr (empty on success, one JSON error object otherwise) go into
``golden/cases.json``.  The files pin outcomes, not correctness: a red
``verify`` or a failing ``volume`` is recorded as it is.

Regenerate every file from the checkout's ``src``:

    PYTHONPATH=src python tests/golden_cases.py

A change that moves a golden file must say which payload keys moved and
why.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

CATALOG = ["flat-subspace", "sphere", "cylinder", "catenoid",
           "totally-geodesic", "rotation-hypersurface"]
COMMANDS = ["invariants", "ends", "verify", "volume"]

INLINE_PLANE = """
m = 2; n = 3; ambient = euclidean;
x1 = u1; x2 = u2; x3 = 0;
domain u1 in [-1, 1], u2 in [-1, 1];
basepoint 0, 0
"""

# a constant beyond the float range: a typed evaluation error, exit 3
INLINE_OVERFLOW = "const C = 10^400;" + INLINE_PLANE
# finite jets whose metric overflows (g11 = 1 + 1e400): also exit 3
INLINE_OVERFLOW_METRIC = """
m = 2; n = 3; ambient = euclidean;
x1 = u1; x2 = 1e200 * u1; x3 = u2;
domain u1 in [-1, 1], u2 in [-1, 1];
basepoint 0, 0
"""
# a chart variable where a constant is due: a parse error, exit 2
INLINE_VARIABLE_CONSTANT = "const A = u1;" + INLINE_PLANE

# catalog parameters of the wrong JSON type: config errors, exit 2
BAD_PARAMS = {"catenoid": {"truncation": None}, "cylinder": {"radius": []},
              "sphere": {"n": None}, "rotation-hypersurface": {"a": "catenoid"}}

# name -> (argv, config written to a file and passed as --config, or None)
CASES = {
    **{f"{command}-{name}": ([command, "--immersion", name], None)
       for name in CATALOG for command in COMMANDS},
    "catalog-list": (["catalog", "list"], None),
    "error-no-config": (["invariants"], None),
    "error-resolution-below-minimum": (
        ["invariants", "--immersion", "sphere", "--resolution", "2"], None),
    "error-bad-pole": (["ends"], {
        "immersion": {"catalog": "totally-geodesic"}, "resolution": 9,
        "pole": [0.0, 0.0, 0.0, -1.0]}),
    "error-inline-truncation": (["volume", "--truncation", "3"], {
        "immersion": {"source": INLINE_PLANE}, "resolution": 9}),
    "error-overflow-constant": (["invariants"], {
        "immersion": {"source": INLINE_OVERFLOW}, "resolution": 9}),
    "error-overflow-metric": (["invariants"], {
        "immersion": {"source": INLINE_OVERFLOW_METRIC}, "resolution": 9}),
    "error-variable-in-constant": (["invariants"], {
        "immersion": {"source": INLINE_VARIABLE_CONSTANT}, "resolution": 9}),
    # a mesh over the memory budget: refused from its shape, exit 2
    "error-mesh-over-budget": (["invariants"], {
        "immersion": {"catalog": "flat-subspace", "params": {"m": 8, "n": 9}},
        "resolution": 7}),
    # a chart past the largest mesh dimension: refused from m, exit 2
    "error-mesh-over-dimension": (["invariants"], {
        "immersion": {"catalog": "flat-subspace", "params": {"m": 5, "n": 6}},
        "resolution": 3}),
    # a seed the generator would take but the config refuses: exit 2
    "error-negative-seed": (
        ["volume", "--immersion", "flat-subspace", "--seed", "-1"], None),
    **{f"error-param-{name}-{key}": (["invariants"], {
        "immersion": {"catalog": name, "params": {key: value}},
        "resolution": 9})
       for name, params in BAD_PARAMS.items()
       for key, value in params.items()},
}


def run_case(name):
    """``(exit code, stdout, stderr)`` of one case, run through
    ``cli.main`` in this process."""
    from extgeo.cli import main

    argv, config = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv = argv + ["--config", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def stdout_path(name) -> Path:
    return GOLDEN / f"{name}.out"


def load_index() -> dict:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name in CASES:
        code, out, err = run_case(name)
        stdout_path(name).write_text(out, encoding="utf-8", newline="")
        index[name] = {"exit": code, "stderr": err}
        print(f"{name}: exit {code}, {len(out)} bytes")
    (GOLDEN / "cases.json").write_text(
        json.dumps(index, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
