import importlib.util
import pathlib

import numpy as np
import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = np.array([1.00, 1.01, 1.02, 1.03, 1.04])


@pytest.mark.parametrize("change, bound, higher, expected", [
    (PARENT * 1.10, 0.05, False, "worse beyond bound"),
    (PARENT * 0.90, 0.05, True, "worse beyond bound"),
    (PARENT * 1.04, 0.05, False, "within bound"),
    (PARENT * 1.10, 0.05, True, "within bound"),
    # the parent's quartiles are 0.02 apart, wider than a 1% bound
    (PARENT * 1.005, 0.01, False, "unresolved"),
    (PARENT * 0.99, 0.01, False, "unresolved"),
    # unless every change run beats every parent run
    (PARENT - 0.05, 0.01, False, "within bound"),
])
def test_verdict(change, bound, higher, expected):
    assert bench_pairs.verdict(PARENT, change, bound, higher) == expected
