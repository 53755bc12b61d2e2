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


# ten pairs; the parent's quartiles are 0.045 apart
PARENT10 = np.linspace(1.00, 1.09, 10)
NINE_WINS = PARENT10 - 0.1
NINE_WINS[0] = PARENT10[0] + 0.01
EIGHT_WINS = NINE_WINS.copy()
EIGHT_WINS[1] = PARENT10[1] + 0.01


@pytest.mark.parametrize("change, higher, parent_failed, change_failed, expected", [
    (NINE_WINS, False, 0, 0, "met"),
    (EIGHT_WINS, False, 0, 0, "not met"),
    # beyond the parent's interquartile distance, in the worse direction
    (NINE_WINS, True, 0, 0, "not met"),
    # every pair won, by less than the parent's interquartile distance
    (PARENT10 - 0.001, False, 0, 0, "not met"),
    (NINE_WINS, False, 3, 4, "not met"),
], ids=["nine-of-ten", "eight-of-ten", "worse-direction", "within-iqr", "more-failed"])
def test_gain(change, higher, parent_failed, change_failed, expected):
    assert bench_pairs.gain(PARENT10, change, higher, parent_failed, change_failed) == expected
