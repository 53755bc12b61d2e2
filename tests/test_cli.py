import copy
import json

import numpy as np
import pytest

import iktrack as ik
from iktrack.cli import main


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "human66.json"
    path.write_text(ik.serialize_model(ik.generate_human_chain(66, seed=7)))
    return str(path)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "spec.json"
    path.write_text(json.dumps({"kind": "sinusoidal", "duration": 0.3, "dt": 0.01,
                                "amplitude": 0.2, "freq_band": [0.5, 1.5], "seed": 3}))
    return str(path)


def test_models_gen_human(tmp_path):
    out = tmp_path / "model.json"
    assert main(["models", "gen-human", "--dofs", "48", "--seed", "2",
                 "--out", str(out)]) == 0
    model = ik.load_model(out.read_text())
    assert model.n == 48


def test_gen_then_solve(model_file, spec_file, tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", spec_file,
                 "--seed", "5", "--out", str(stream)]) == 0
    out_csv = tmp_path / "run.csv"
    assert main(["solve", "--model", model_file, "--stream", str(stream),
                 "--method", "dynamical", "--gain", "2.0", "--gain-limit", "10.0",
                 "--dt", "0.01", "--rho", "10.0", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "step,t,mnte,rmse_angvel,step_time_ms"
    assert len(lines) == 31
    captured = capsys.readouterr()
    assert "gain=2.0" in captured.out
    assert "mnte_median=" in captured.out


def test_solve_all_methods(model_file, spec_file, tmp_path):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    for method in ("whole-body", "pairwise"):
        out_csv = tmp_path / f"{method}.csv"
        assert main(["solve", "--model", model_file, "--stream", str(stream),
                     "--method", method, "--out", str(out_csv)]) == 0


def test_solve_csv_fields_are_plain_numbers(model_file, spec_file, tmp_path):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    out_csv = tmp_path / "run.csv"
    assert main(["solve", "--model", model_file, "--stream", str(stream),
                 "--method", "dynamical", "--out", str(out_csv)]) == 0
    for line in out_csv.read_text().splitlines()[1:]:
        step, *values = line.split(",")
        int(step)
        assert all(np.isfinite(float(v)) for v in values)


def test_bench(model_file, tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "models": [{"id": "h66", "path": model_file},
                   {"id": "h48", "gen_human": {"dofs": 48, "seed": 7}}],
        "specs": [{"id": "static", "kind": "static_pose", "duration": 0.1,
                   "dt": 0.01, "amplitude": 0.1, "seed": 3}],
        "methods": ["dynamical", "pairwise"],
        "config": {"stop_tol": 1e-4},
    }))
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(config), "--out", str(out_dir)]) == 0
    table = (out_dir / "results.csv").read_text().splitlines()
    assert len(table) == 5
    runs = json.loads((out_dir / "runs.json").read_text())
    assert {r["model"] for r in runs} == {"h66", "h48"}
    assert all(r["config"]["stop_tol"] == 1e-4 for r in runs)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model"])
    assert exc.value.code == 1


def test_unknown_method_rejected(model_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", model_file, "--stream", "x", "--method", "magic",
              "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 1


def test_data_error_exit_code(tmp_path, model_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--model", str(bad), "--stream", "x", "--method",
                 "dynamical", "--out", str(tmp_path / "o.csv")]) == 2
    missing = tmp_path / "missing.jsonl"
    assert main(["solve", "--model", model_file, "--stream", str(missing),
                 "--method", "dynamical", "--out", str(tmp_path / "o.csv")]) == 2


def test_non_finite_model_geometry_is_data_error(model_file, spec_file, tmp_path):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    with open(model_file) as fh:
        doc = json.load(fh)
    doc["joints"][3]["axis"][1] = float("nan")
    bad = tmp_path / "nan_axis.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", "--model", str(bad), "--stream", str(stream),
                 "--method", "dynamical", "--out", str(tmp_path / "o.csv")]) == 2


def test_stream_model_mismatch_is_data_error(model_file, tmp_path):
    m = ik.KinematicModel(links=[ik.Link("base")], joints=[], base_link="base",
                          position_targets=["base"])
    sample = ik.TargetSample(t=0.0, positions=[[0.0, 0.0, 0.0]],
                             rotations=np.zeros((0, 3, 3)),
                             lin_vels=[[0.0, 0.0, 0.0]], ang_vels=np.zeros((0, 3)))
    stream = tmp_path / "tiny.jsonl"
    ik.save_stream(stream, [sample])
    assert main(["solve", "--model", model_file, "--stream", str(stream),
                 "--method", "dynamical", "--out", str(tmp_path / "o.csv")]) == 2


def test_dt_mismatch_is_data_error(model_file, spec_file, tmp_path):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    assert main(["solve", "--model", model_file, "--stream", str(stream),
                 "--method", "dynamical", "--dt", "0.02",
                 "--out", str(tmp_path / "o.csv")]) == 2


def test_gen_determinism(model_file, spec_file, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--seed", "9", "--out", str(a)])
    main(["gen", "--model", model_file, "--spec", spec_file, "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_solve_within_transient_discard_says_so(model_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "sinusoidal", "duration": 1.0, "dt": 0.01,
                                "amplitude": 0.2, "seed": 3}))
    stream = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", str(spec), "--out", str(stream)]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "run.csv"
    assert main(["solve", "--model", model_file, "--stream", str(stream),
                 "--method", "dynamical", "--out", str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 101
    err = capsys.readouterr().err
    assert "all 100 samples fall inside the 2 s transient discard" in err


def small_model_document():
    """Three joints below a floating base, with a dummy link, limits, a
    velocity limit and a coupling row: every field a model file can hold."""
    return {
        "base_link": "b",
        "links": [{"name": "b"}, {"name": "m", "dummy": True}, {"name": "x"}, {"name": "y"}],
        "joints": [
            {"name": "j1", "parent": "b", "child": "m", "axis": [0.0, 0.0, 1.0],
             "origin": {"xyz": [0.0, 0.0, 0.1], "rpy": [0.0, 0.0, 0.0]},
             "pos_limits": [-1.0, 1.0], "vel_limit": 5.0},
            {"name": "j2", "parent": "m", "child": "x", "axis": [1.0, 0.0, 0.0],
             "origin": {"xyz": [0.2, 0.0, 0.0], "rpy": [0.0, 0.1, 0.0]}},
            {"name": "j3", "parent": "b", "child": "y", "axis": [0.0, 1.0, 0.0],
             "pos_limits": [-0.5, 0.5]},
        ],
        "position_targets": ["b"],
        "orientation_targets": ["b", "x", "y"],
        "constraints": {"A": [[1.0, 1.0, 0.0]], "b_q": [0.9], "b_nu": [None]},
    }


def _slots(doc):
    """Every (container, key) slot of a JSON document, depth first."""
    for key in (list(doc) if isinstance(doc, dict) else range(len(doc))):
        yield doc, key
        if isinstance(doc[key], (dict, list)):
            yield from _slots(doc[key])


_REPLACEMENTS = ("a", 5, 1.5, True, None, [], {}, [1.0], float("nan"), float("inf"))


def _mutate(doc, rng):
    """One random edit: delete a key or entry, change a value's type, or
    shorten an array."""
    doc = copy.deepcopy(doc)
    slots = list(_slots(doc))
    op = rng.integers(3)
    if op == 2:
        slots = [(c, k) for c, k in slots if isinstance(c[k], list) and c[k]] or slots
    container, key = slots[rng.integers(len(slots))]
    if op == 0:
        del container[key]
    elif op == 1:
        container[key] = copy.deepcopy(_REPLACEMENTS[rng.integers(len(_REPLACEMENTS))])
    elif isinstance(container[key], list) and container[key]:
        container[key].pop()
    else:
        del container[key]
    return doc


@pytest.mark.parametrize("seed", range(3))
def test_fuzzed_model_documents_are_data_errors(seed, tmp_path):
    base = small_model_document()
    model = ik.load_model(json.dumps(base))
    stream = tmp_path / "stream.jsonl"
    sample = ik.TargetSample(t=0.0, positions=np.zeros((1, 3)),
                             rotations=np.tile(np.eye(3), (3, 1, 1)),
                             lin_vels=np.zeros((1, 3)), ang_vels=np.zeros((3, 3)))
    sample.check_model(model)
    ik.save_stream(stream, [sample])
    path = tmp_path / "model.json"
    rng = np.random.default_rng(seed)
    rejected = 0
    for _ in range(60):
        text = json.dumps(_mutate(base, rng))
        try:
            ik.load_model(text)
        except ik.IkTrackError:
            rejected += 1
            path.write_text(text)
            assert main(["solve", "--model", str(path), "--stream", str(stream),
                         "--method", "dynamical", "--out", str(tmp_path / "o.csv")]) == 2, text
        except Exception as e:
            pytest.fail(f"{type(e).__name__}: {e} from {text}")
    assert rejected >= 20


def test_bench_config_without_specs_is_data_error(model_file, tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"models": [{"id": "h66", "path": model_file}]}))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
