"""Smoke test of ``tools/ab_inprocess.py``, the call-by-call comparison that
speed-up claims rest on: this checkout against itself must read identical,
to the bit, on every stage, a change of stream-file notation alone must
read as one, and a count below 1 is a usage error."""
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def compare(change, workload, out):
    """The stages of one workload, this checkout as the parent."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--parent", str(ROOT),
         "--change", str(change), "--workload", workload, "--seed", "1",
         "--streams", "1", "--rounds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["workloads"][workload]


def test_a_checkout_against_itself_is_identical(tmp_path):
    stages = compare(ROOT, "h66-wholebody", tmp_path / "ab.json")
    assert {"run_method", "summarize_run", "solve_whole_body", "project_to_so3",
            "fk", "jacobian", "fk_batch"} <= set(stages)
    assert set(stages["save_stream"]["parts"]) == {"bytes", "values"}
    for name, stage in stages.items():
        assert (name, stage["identical"], stage["max_abs_diff"]) == (name, True, 0.0)
        for part, seen in stage.get("parts", {}).items():
            assert (part, seen["identical"], seen["max_abs_diff"]) == (part, True, 0.0)


# appended to the change's harness: its stream files gain a space after each
# comma, which changes their bytes and none of their values
SPACED_WRITER = '''

_save_stream = save_stream


def save_stream(path, samples):
    _save_stream(path, samples)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data.replace(b",", b", "))
'''


def test_a_change_of_notation_reads_values_identical(tmp_path):
    change = tmp_path / "change"
    for part in ("src", "perfbench", "fixtures"):
        shutil.copytree(ROOT / part, change / part,
                        ignore=shutil.ignore_patterns("__pycache__", "runs"))
    with open(change / "src" / "iktrack" / "harness.py", "a") as fh:
        fh.write(SPACED_WRITER)
    stages = compare(change, "h66-run", tmp_path / "ab.json")
    saved = stages["save_stream"]
    assert (saved["identical"], saved["max_abs_diff"]) == (False, float("inf"))
    assert saved["parts"] == {"bytes": {"identical": False, "max_abs_diff": float("inf")},
                              "values": {"identical": True, "max_abs_diff": 0.0}}
    for name in ("load_stream", "run_method", "summarize_run"):
        assert (name, stages[name]["identical"]) == (name, True)


@pytest.mark.parametrize("flag, value", [("--streams", "0"), ("--rounds", "0"),
                                         ("--streams", "-1")])
def test_a_count_below_one_is_a_usage_error(flag, value, tmp_path):
    """A count below 1 would leave a stage with no timing to summarise; it is
    refused before any checkout is imported."""
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--seed", "1", flag, value, "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument {flag}: must be at least 1, got {value}")
    assert "Traceback" not in proc.stderr and not out.exists()
