"""The golden CLI runs (``golden_cases.py``): stdout, exit code and stderr
equal the committed files byte for byte."""

import pytest

from golden_cases import CASES, load_index, run_case, stdout_path

INDEX = load_index()


def test_every_case_has_golden_files():
    assert sorted(INDEX) == sorted(CASES)
    assert all(stdout_path(name).is_file() for name in CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_run(name):
    code, out, err = run_case(name)
    assert out.encode("utf-8") == stdout_path(name).read_bytes()
    assert code == INDEX[name]["exit"]
    assert err == INDEX[name]["stderr"]
