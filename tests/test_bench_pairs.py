import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "bench_pairs.py"
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


DECLARED = {"workloads": [{"name": "w"}], "per_layer": [],
            "end_to_end": [{"name": "solve_s", "better": "lower", "bound": 0.25}]}


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """A parent and a change checkout whose heads the test sets, and a
    benchmark that returns one fake run without running anything."""
    paths = {}
    for side in bench_pairs.SIDES:
        paths[side] = tmp_path / side
        paths[side].mkdir()
        (paths[side] / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    heads = {str(paths["parent"]): "aaaaaaa", str(paths["change"]): "bbbbbbb"}
    monkeypatch.setattr(bench_pairs, "_git_head", lambda path: heads[path])
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, *_: {
        "correct": True, "failed": 0, "metrics": {"solve_s": {"value": 1.0 + seed / 100}}})
    return paths, heads


def run_batch(paths, out, description):
    return bench_pairs.main(["--parent", str(paths["parent"]), "--change", str(paths["change"]),
                             "--pairs", "2", "--first-seed", "1", "--out", str(out),
                             "--description", description])


def test_each_batch_keeps_its_description(checkouts, tmp_path):
    paths, _ = checkouts
    out = tmp_path / "bench.json"
    assert run_batch(paths, out, "untraced") == 0
    assert run_batch(paths, out, "second") == 0
    doc = json.loads(out.read_text())
    assert (doc["parent"], doc["change"]) == ("aaaaaaa", "bbbbbbb")
    assert doc["batches"] == [{"description": "untraced", "first_order": 0},
                              {"description": "second", "first_order": 4}]
    assert [r["order"] for r in doc["runs"]] == list(range(8))


def test_a_file_of_other_checkouts_is_not_extended(checkouts, tmp_path):
    paths, heads = checkouts
    out = tmp_path / "bench.json"
    run_batch(paths, out, "first")
    before = out.read_bytes()
    heads[str(paths["change"])] = "ccccccc"
    with pytest.raises(SystemExit) as exc:
        run_batch(paths, out, "second")
    assert exc.value.code == (f"error: {out} records change bbbbbbb, but "
                              f"{paths['change']} is at ccccccc")
    assert out.read_bytes() == before


def test_a_file_without_batches_gains_them(checkouts, tmp_path):
    """A file written before batches were recorded counts as one batch."""
    paths, _ = checkouts
    out = tmp_path / "bench.json"
    run_batch(paths, out, "first")
    doc = json.loads(out.read_text())
    del doc["batches"]
    out.write_text(json.dumps(doc))
    run_batch(paths, out, "second")
    assert json.loads(out.read_text())["batches"] == [
        {"description": "first", "first_order": 0}, {"description": "second", "first_order": 4}]


def test_a_checkout_without_git_has_a_null_head(tmp_path):
    """A ``git archive`` checkout has no ``.git``; its head is recorded as
    null."""
    assert bench_pairs._git_head(str(tmp_path)) is None


def test_readme_table_holds_the_change_medians_of_end_to_end_metrics():
    """One row per untraced workload; a metric without a verdict is
    per-layer and left out."""
    entry = {"seeds": [1, 2], "parent": {}, "change": {},
             "solve_s": {"change_median": 0.281271, "verdict": "within bound"},
             "model.fk_ms_p50": {"change_median": 0.1}}
    doc = {"summary": {"w": entry, "w traced": entry}}
    assert bench_pairs.readme_table(doc) == ("| workload | pairs | `solve_s` |\n"
                                             "| --- | --- | --- |\n"
                                             "| `w` | 2 | 0.281 |")


def newest_bench(directory):
    """The ``BENCH_<n>.json`` in ``directory`` with the highest n, as a number."""
    numbered = {int(m.group(1)): path for path in directory.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))}
    return numbered[max(numbered)]


def test_newest_bench_file_has_the_highest_number(tmp_path):
    for name in ("BENCH_8.json", "BENCH_35.json", "BENCH_9.json", "BENCH_new.json"):
        (tmp_path / name).write_text("{}")
    assert newest_bench(tmp_path).name == "BENCH_35.json"


def test_readme_table_is_the_newest_bench_files():
    """README's "Performance and accuracy" section names the newest BENCH
    file and holds the table ``readme_table`` renders from it, so a new
    BENCH file needs its table pasted into README."""
    path = newest_bench(ROOT)
    table = bench_pairs.readme_table(json.loads(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    heading = "\n## Performance and accuracy\n"
    assert heading in readme, "README has no Performance and accuracy section"
    section = readme.split(heading, 1)[1].split("\n## ", 1)[0]
    assert f"`{path.name}`" in section and table in section, (
        f"README's Performance and accuracy section does not name {path.name} and hold "
        f"its table; paste this:\n\n{table}\n")
