"""Smoke test of ``tools/ab_inprocess.py``, the call-by-call comparison that
speed-up claims rest on: this checkout against itself must read identical,
to the bit, on every stage."""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_checkout_against_itself_is_identical(tmp_path):
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--workload", "h66-wholebody", "--seed", "1",
         "--streams", "1", "--rounds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(out.read_text())["workloads"]["h66-wholebody"]
    assert {"run_method", "summarize_run", "solve_whole_body", "project_to_so3",
            "fk", "jacobian", "fk_batch"} <= set(stages)
    for name, stage in stages.items():
        assert (name, stage["identical"], stage["max_abs_diff"]) == (name, True, 0.0)
        for part, seen in stage.get("parts", {}).items():
            assert (part, seen["identical"], seen["max_abs_diff"]) == (part, True, 0.0)
