"""Property-based fuzzing of the command line: whatever the config, the
catalog parameters or the chart text, ``cli.main`` returns a documented
exit code and never lets an exception out.

The examples are derandomized and no example database is kept, so every
run draws the same examples.  Each strategy mostly draws values a command
accepts, so that most examples reach the mesh and the command body, and
now and then a value of the wrong type or out of range.  Meshes stay
small: m <= 2 up to 7 points an axis, 3 and more dimensions up to 4.
"""

import contextlib
import io
import json
import math

import hypothesis.strategies as st
from hypothesis import HealthCheck, event, given, settings

from extgeo.catalog import CATALOG
from extgeo.cli import main

COMMANDS = ("invariants", "volume", "ends", "curvature", "verify")
# the payload values that are not finite numbers by definition: a mesh
# with every axis periodic has no truncation face
# (``MeshGraph.r_truncation_min``)
DOCUMENTED = {"r_truncation_min": {"inf"}}

# a value of any JSON type, including those no key accepts
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                 st.floats(), st.text(max_size=3),
                 st.lists(st.integers(-2, 9), max_size=3), st.just({}))


def mostly(draw, good, bad=JUNK):
    """A draw from ``good`` eleven times in twelve, else from ``bad``."""
    return draw(bad if draw(st.integers(0, 11)) == 7 else good)


def number(lo, hi):
    return st.one_of(st.integers(lo, hi), st.floats(lo, hi))


def catalog_immersion(draw):
    name = mostly(draw, st.sampled_from(sorted(CATALOG)),
                  st.just("no-such-entry"))
    defaults = CATALOG[name].defaults if name in CATALOG else {"m": 2}
    # about a third of the keys; the bounds of a range are drawn more often
    # than its inner values
    keys = [k for k in sorted(defaults) if draw(st.integers(0, 2)) == 1]
    if draw(st.integers(0, 11)) == 7:
        keys.append("bogus")
    # a third of the values of a type no parameter takes
    params = {key: draw(st.one_of(st.integers(0, 5), number(-1, 4), JUNK))
              for key in keys}
    imm = {"catalog": name}
    if params or draw(st.booleans()):
        imm["params"] = params
    return imm


def expression(m):
    atoms = st.sampled_from([f"u{i + 1}" for i in range(m)]
                            + ["T", "0", "1", "0.5", "2", "-1", "1e308"])
    return st.recursive(atoms, lambda e: st.one_of(
        st.builds("{}({})".format, st.sampled_from(
            ["sqrt", "exp", "log", "sin", "cos", "sinh", "cosh", "tanh"]), e),
        st.builds("({} {} {})".format, e, st.sampled_from("+-*/^"), e),
        st.builds("-{}".format, e)), max_leaves=4)


EXPRESSIONS = {m: expression(m) for m in (1, 2)}


def source_immersion(draw):
    m = draw(st.integers(1, 2))
    n = draw(st.integers(m, m + 1))
    hyperbolic = draw(st.booleans())
    coords = [draw(EXPRESSIONS[m]) for _ in range(n)]
    if draw(st.booleans()):
        # a graph over the chart: an immersion whatever the rest is
        coords[:m] = [f"u{i + 1}" for i in range(m)]
    if hyperbolic:
        # the last coordinate puts the point on the hyperboloid
        coords.append("sqrt(1 + " + " + ".join(f"({c})^2" for c in coords)
                      + ")")
    lo, hi = draw(st.sampled_from(
        [(-1, 1), (0, 1), (0.1, 2), (1, 1), (0, 6.283185307179586)]))
    domain = ", ".join(f"u{i + 1} in [{lo}, {hi}]" for i in range(m))
    text = "\n".join(
        [f"m = {m}; n = {n};",
         "ambient = " + ("hyperbolic(-1)" if hyperbolic else "euclidean")
         + ";"]
        + [f"x{i + 1} = {c};" for i, c in enumerate(coords)]
        + [f"domain {domain}{' periodic' if draw(st.booleans()) else ''};",
           f"const T = {draw(st.sampled_from(['1', '0.5', '1e300']))}"])
    if draw(st.integers(0, 9)) == 7:
        # one character replaced: mostly a parse error
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from([";", "(", "u9", "", "@"])) \
            + text[k + 1:]
    return {"source": text}


def is_large(imm):
    """A catalog immersion of three or more dimensions."""
    params = imm.get("params", {}) if isinstance(imm, dict) else {}
    return isinstance(params, dict) and (
        params.get("m") in (3, 4) or params.get("n") == 3
        and imm.get("catalog") == "rotation-hypersurface")


OPTIONAL = {
    "pole": st.lists(number(-3, 3), max_size=4),
    "truncation": number(-1, 8),
    "exhaustion_radii": st.lists(number(0, 5), max_size=4,
                                 unique=True).map(sorted),
    "volume_radii": st.lists(number(0, 5), max_size=4,
                             unique=True).map(sorted),
    "delta": st.fixed_dictionaries(
        {"kind": st.sampled_from(["zero", "power", "nope"])},
        optional={"d0": number(-1, 2), "t0": number(-1, 2)}),
    "seed": st.integers(-2, 50),
    "samples": st.integers(-1, 20),
}


@st.composite
def config(draw):
    if draw(st.integers(0, 7)) == 5:
        imm = draw(JUNK)
    elif draw(st.booleans()):
        imm = catalog_immersion(draw)
    else:
        imm = source_immersion(draw)
    res = st.integers(3, 4 if is_large(imm) else 7)
    cfg = {"immersion": imm, "resolution": mostly(
        draw, st.one_of(res, st.lists(res, min_size=1, max_size=3)),
        st.one_of(st.integers(-1, 2), JUNK))}
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(OPTIONAL)))
        cfg[key] = mostly(draw, OPTIONAL[key])
    if draw(st.integers(0, 15)) == 9:
        cfg["unknown"] = draw(JUNK)
    return cfg


def assert_plain_values(value, key=None):
    """Finite numbers, and non-finite spellings only where documented."""
    if isinstance(value, dict):
        for k, v in value.items():
            assert_plain_values(v, k)
    elif isinstance(value, list):
        for v in value:
            assert_plain_values(v, key)
    elif value in ("nan", "inf", "-inf") or value is None:
        assert value in DOCUMENTED.get(key, ()), (key, value)
    elif isinstance(value, float):
        assert math.isfinite(value), (key, value)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(command=st.sampled_from(COMMANDS), cfg=config())
def test_every_input_ends_in_a_documented_exit_code(tmp_path_factory,
                                                     command, cfg):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    # the share of each outcome: --hypothesis-show-statistics
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert code != 1 or command == "verify"
    if code in (2, 3):
        assert out.getvalue() == ""
        body = json.loads(err.getvalue())
        assert isinstance(body, dict) and {"error", "message"} <= set(body)
    else:
        assert err.getvalue() == ""
        assert_plain_values(json.loads(out.getvalue()))
