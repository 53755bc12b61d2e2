import copy
import json
import pathlib

import numpy as np
import pytest

import iktrack as ik
from iktrack.cli import main

from conftest import inconsistent_model


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "human66.json"
    path.write_text(ik.generate_human_chain(66, seed=7).serialize())
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


def test_dt_mismatch_is_data_error(model_file, spec_file, tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    capsys.readouterr()
    assert main(["solve", "--model", model_file, "--stream", str(stream),
                 "--method", "dynamical", "--dt", "0.02",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "are spaced 0.01, not --dt 0.02" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--gain", "200"], "stability guard: gain * dt must be <= 1"),
    (["--gain", "-1"], "gain must be"),
    (["--gain", "nan"], "gain must be"),
    (["--gain-limit", "0"], "limit_slope must be"),
    (["--rho", "0"], "rho must be"),
    (["--dt", "nan"], "dt must be"),
])
@pytest.mark.parametrize("method", ["dynamical", "whole-body"])
def test_bad_solve_flag_is_a_usage_error(model_file, spec_file, tmp_path, capsys, flags,
                                         message, method):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    capsys.readouterr()
    out = tmp_path / "o.csv"
    assert main(["solve", "--model", model_file, "--stream", str(stream), "--method", method,
                 "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {message}")
    assert not out.exists()


def test_unstable_rho_is_a_usage_error(tmp_path, capsys):
    """rho * dt past 1 makes the drift correction overshoot: exit 1 with one
    line, before either file (neither exists) is read."""
    out = tmp_path / "o.csv"
    assert main(["solve", "--model", str(tmp_path / "model.json"), "--stream",
                 str(tmp_path / "stream.jsonl"), "--method", "dynamical", "--rho", "210",
                 "--dt", "0.01", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage error: stability guard: rho * dt must be <= 1, got 210.0 * 0.01"]
    assert not out.exists()


def test_rho_at_the_guard_runs(model_file, spec_file, tmp_path):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    assert main(["solve", "--model", model_file, "--stream", str(stream), "--method",
                 "dynamical", "--rho", "100", "--dt", "0.01",
                 "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("setting, message", [
    ({"rho": 210.0}, "stability guard: rho * dt must be <= 1, got 210.0 * 0.01"),
    ({"gain": 200.0}, "stability guard: gain * dt must be <= 1, got 200.0 * 0.01"),
    ({"stop_tol": -1}, "stop_tol must be a positive finite number, got -1"),
    ({"damping": -1}, "damping must be a non-negative finite number, got -1"),
], ids=["rho", "gain", "stop_tol", "damping"])
def test_bench_unstable_rho_is_a_usage_error(model_file, tmp_path, capsys, monkeypatch,
                                             setting, message):
    """A setting out of range, or a gain or rho past its guard, stops a
    sweep before any stream is generated, whether or not a method reads it:
    the sweep here runs no dynamical method."""
    def generate(*_):
        raise AssertionError("a stream was generated")
    monkeypatch.setattr(ik.harness, "generate_stream", generate)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "models": [{"id": "h66", "path": model_file}],
        "specs": [{"id": "static", "kind": "static_pose", "duration": 0.05,
                   "dt": 0.01, "amplitude": 0.1, "seed": 3}],
        "methods": ["whole-body"],
        "config": setting,
    }))
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(config), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not out_dir.exists()


def test_bench_bad_setting_is_a_usage_error(model_file, tmp_path, capsys):
    """A bad setting under ``config`` stops the sweep with one line; it is
    not recorded as a failed cell."""
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "models": [{"id": "h66", "path": model_file}],
        "specs": [{"id": "static", "kind": "static_pose", "duration": 0.05,
                   "dt": 0.01, "amplitude": 0.1, "seed": 3}],
        "methods": ["dynamical"],
        "config": {"gain": 200.0},
    }))
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(config), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: stability guard")
    assert not out_dir.exists()


@pytest.mark.parametrize("change, message", [
    ({"config": {"gian": 200}}, "unknown setting 'gian'"),
    ({"config": 5}, "config must be a mapping of settings, got 5"),
    ({"methods": ["dynamic"]}, "unknown method 'dynamic'"),
    ({"methods": "dynamical"}, "methods must be a list of method names"),
])
def test_bench_unknown_setting_or_method_is_a_usage_error(model_file, tmp_path, capsys,
                                                          change, message):
    """A misspelt setting is not dropped, and a config or method list of the
    wrong kind is not a traceback: each stops the sweep with one line."""
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "models": [{"id": "h66", "path": model_file}],
        "specs": [{"id": "static", "kind": "static_pose", "duration": 0.05,
                   "dt": 0.01, "amplitude": 0.1, "seed": 3}],
        "methods": ["dynamical"],
        **change,
    }))
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(config), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {message}")
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ['"x"', "1.5", "1e30", "-1", "true"])
def test_gen_bad_seed_is_bad_spec(model_file, tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "sinusoidal", "duration": 0.3, "dt": 0.01, "amplitude": 0.2, '
                    f'"seed": {text}}}')
    out = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: bad spec: seed must be")
    assert not out.exists()


def test_models_gen_human_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["models", "gen-human", "--dofs", "66", "--seed", "-1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: seed must be a non-negative integer, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("field, text", [("duration", "NaN"), ("duration", "Infinity"),
                                         ("noise_std", "NaN"), ("noise_std", "-0.1")])
def test_gen_non_finite_or_negative_spec_value_is_bad_spec(model_file, tmp_path, capsys,
                                                            field, text):
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "sinusoidal", "duration": 0.3, "dt": 0.01, "amplitude": 0.2, '
                    f'"{field}": {text}}}')
    out = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: bad spec: {field} must be")
    assert not out.exists()


def _drop_orientation_target(record):
    record["R"].pop()
    record["w"].pop()


def _shift_time(record):
    record["t"] += 0.005


@pytest.mark.parametrize("method", ["dynamical", "whole-body", "pairwise"])
@pytest.mark.parametrize("defect", [_drop_orientation_target, _shift_time])
def test_defect_past_the_first_sample_is_data_error(model_file, spec_file, tmp_path, method,
                                                    defect):
    stream = tmp_path / "stream.jsonl"
    main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)])
    records = [json.loads(line) for line in stream.read_text().splitlines()]
    defect(records[10])
    stream.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "o.csv"
    assert main(["solve", "--model", model_file, "--stream", str(stream),
                 "--method", method, "--out", str(out)]) == 2
    assert not out.exists()


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


def test_gen_unknown_spec_key_is_data_error(model_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "sinusoidal", "duration": 0.03, "dt": 0.01,
                                "amplitude": 0.2, "freq_band": [0.5, 1.5], "seed": 3,
                                "noise_std": 0.01, "speed": 2.0}))
    out = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: unknown key: spec: speed\n"
    assert not out.exists()


@pytest.mark.parametrize("change, line", [
    ({"speed": 2.0}, "data error: unknown key: spec: speed"),
    ({"amplitude": -1}, "data error: bad spec: amplitude must be"),
    ({"freq_band": [2.0, 1.0]}, "data error: bad spec: freq_band must run from low to high"),
], ids=["unknown-key", "negative-amplitude", "inverted-freq-band"])
def test_gen_and_bench_report_a_bad_spec_alike(model_file, tmp_path, capsys, change, line):
    """``bench`` reads each ``specs`` entry, less its ``id``, as ``gen`` reads
    its spec file: the same one line, and exit 2."""
    fields = {"kind": "static_pose", "duration": 0.05, "dt": 0.01, "amplitude": 0.1,
              "seed": 3, **change}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields))
    out = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", str(spec), "--out", str(out)]) == 2
    gen_err = capsys.readouterr().err
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"models": [{"id": "h66", "path": model_file}],
                                  "specs": [{"id": "s", **fields}], "methods": ["dynamical"]}))
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(config), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == gen_err
    assert gen_err.startswith(line) and gen_err.count("\n") == 1
    assert not out.exists() and not out_dir.exists()


def test_bench_entries_that_are_not_objects_are_data_errors(model_file, tmp_path, capsys):
    """A ``specs`` entry that is not an object reads as ``gen``'s spec file
    ``5`` does, and a ``models`` entry likewise names itself: one line each,
    and exit 2."""
    spec = tmp_path / "spec.json"
    spec.write_text("5")
    assert main(["gen", "--model", model_file, "--spec", str(spec),
                 "--out", str(tmp_path / "stream.jsonl")]) == 2
    gen_err = capsys.readouterr().err
    assert gen_err == "data error: bad spec: expected an object\n"
    model = {"id": "h66", "path": model_file}
    spec = {"id": "s", "kind": "static_pose", "duration": 0.05, "dt": 0.01, "amplitude": 0.1}
    for doc, line in (({"models": [model], "specs": [5]}, gen_err),
                      ({"models": [5], "specs": [spec]},
                       "data error: bad model entry: expected an object\n")):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({**doc, "methods": ["dynamical"]}))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == line
    assert not (tmp_path / "r").exists()


SPEC_ENTRY = {"id": "s", "kind": "static_pose", "duration": 0.05, "dt": 0.01, "amplitude": 0.1}
HUMAN_ENTRY = {"id": "h", "gen_human": {"dofs": 66, "seed": 0}}


@pytest.mark.parametrize("models, specs, line", [
    ([{"id": "h66", "path": True}], [],
     "bad type: models entry 0 path: expected a file name, got True"),
    ([{"id": "h66", "path": 0}], [], "bad type: models entry 0 path: expected a file name, got 0"),
    ([{"path": "model.json"}], [], "missing key: models entry 0: id"),
    ([{"id": 5, "path": "model.json"}], [],
     "bad type: models entry 0 id: expected a string, got 5"),
    ([{"id": "h", "gen_human": {"dofs": 66}}], [],
     "missing key: models entry 0 gen_human: seed"),
    ([HUMAN_ENTRY], [{k: v for k, v in SPEC_ENTRY.items() if k != "id"}],
     "missing key: specs entry 0: id"),
    ([{"id": "h"}], [], "bad model entry: h: needs a path or gen_human"),
], ids=["path-true", "path-zero", "model-no-id", "model-int-id", "no-seed", "spec-no-id",
        "model-no-source"])
def test_bench_entry_is_checked_before_any_file(tmp_path, capsys, monkeypatch, models, specs,
                                                line):
    """A ``path`` that is not a string is not opened (``open(True)`` would
    read standard output, ``open(0)`` standard input), a missing key is
    named, not reported as a Python exception, and an ``id`` that is not a
    string stops the sweep before it runs (the results CSV joins ids as
    strings): one line each, and exit 2."""
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"models": models, "specs": specs}))
    monkeypatch.setattr(ik.cli, "load_model", lambda _: pytest.fail("a model was read"))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"data error: {line}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("gen_human, line", [
    ({"dofs": 50, "seed": 0}, "dofs must be 66 or 48, got 50"),
    ({"dofs": 66, "seed": -1}, "seed must be a non-negative integer, got -1"),
], ids=["dofs", "seed"])
def test_bench_gen_human_bad_setting_is_a_usage_error(tmp_path, capsys, gen_human, line):
    """A ``gen_human`` entry's ``dofs`` or ``seed`` out of range is a usage
    error, as in ``models gen-human`` and as a bad ``config`` setting is."""
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"models": [{"id": "h", "gen_human": gen_human}],
                                  "specs": [SPEC_ENTRY], "methods": ["dynamical"]}))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"usage error: {line}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, flag, kind", [
    *((command, flag, "directory") for command, flag in (
        ("gen", "--model"), ("gen", "--spec"), ("gen", "--out"), ("solve", "--stream"),
        ("solve", "--out"), ("bench", "--config"), ("bench", "--out"))),
    *((command, flag, kind) for command, flag in (
        ("gen", "--model"), ("gen", "--spec"), ("solve", "--stream"), ("bench", "--config"))
      for kind in ("not-utf8", "too-deep", "long-integer")),
])
def test_unreadable_input_is_a_data_error(model_file, spec_file, tmp_path, capsys, command,
                                          flag, kind):
    """A directory where a file is read or written (for ``bench --out``, a
    file where the results directory goes), an input whose bytes are not
    UTF-8, or JSON that Python does not parse (nested past the recursion
    limit, an integer of more than 4300 digits): one line, and exit 2."""
    stream = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)]) == 0
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"models": [{"id": "h66", "path": model_file}],
                                  "specs": [SPEC_ENTRY], "methods": ["dynamical"]}))
    files = {"--model": model_file, "--spec": spec_file, "--stream": str(stream),
             "--config": str(config), "--out": str(tmp_path / "out")}
    if kind != "directory":
        bad = tmp_path / "bad"
        text = pathlib.Path(files[flag]).read_bytes()
        bad.write_bytes({"not-utf8": text.replace(b"0", b"\xff", 1), "too-deep": b"[" * 10**5,
                         "long-integer": b'{"t": ' + b"1" * 5000 + b"}\n"}[kind])
        files[flag] = str(bad)
    else:
        files[flag] = model_file if (command, flag) == ("bench", "--out") else str(tmp_path)
    capsys.readouterr()
    argv = {"gen": ["gen", "--model", files["--model"], "--spec", files["--spec"]],
            "solve": ["solve", "--model", files["--model"], "--stream", files["--stream"],
                      "--method", "dynamical"],
            "bench": ["bench", "--config", files["--config"]]}[command]
    assert main(argv + ["--out", files["--out"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err


def test_link_below_a_parentless_link_is_a_data_error(spec_file, tmp_path, capsys):
    """Links b c a with the one joint a -> c: c is named as disconnected, on
    one line and with exit 2, not a traceback."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "base_link": "b", "links": [{"name": n} for n in "bca"],
        "joints": [{"name": "j", "parent": "a", "child": "c", "axis": [0, 0, 1]}]}))
    out = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", str(model), "--spec", spec_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: disconnected link: c\n"
    assert not out.exists()


def test_solve_empty_stream_is_data_error(model_file, tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    stream.write_text("")
    assert _solve(model_file, stream, tmp_path) == 2
    assert capsys.readouterr().err == f"data error: {stream}: empty stream\n"
    assert not (tmp_path / "o.csv").exists()


def test_pairwise_without_a_base_orientation_target_is_data_error(human66, tmp_path, capsys):
    """Pairwise reads the base's pose off its targets; a model without a base
    orientation target cannot be split, and ``solve`` says so and exits 2."""
    model = ik.KinematicModel(human66.links, human66.joints, human66.base_link,
                              position_targets=human66.position_target_frames,
                              orientation_targets=[f for f in human66.orientation_target_frames
                                                   if f != human66.base_link])
    model_path = tmp_path / "model.json"
    model_path.write_text(model.serialize())
    spec = ik.TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01, amplitude=0.1, seed=3)
    stream = tmp_path / "stream.jsonl"
    ik.save_stream(stream, ik.generate_stream(model, spec)[1])
    assert _solve(model_path, stream, tmp_path, method="pairwise") == 2
    assert capsys.readouterr().err == "error: base frame needs an orientation target\n"


def test_inconsistent_constraints_are_a_solver_failure(human48, tmp_path, capsys):
    model = inconsistent_model(human48)
    model_path = tmp_path / "model.json"
    model_path.write_text(model.serialize())
    spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.05, dt=0.01, amplitude=0.3, seed=5)
    stream = tmp_path / "stream.jsonl"
    ik.save_stream(stream, ik.generate_stream(model, spec)[1])
    assert _solve(model_path, stream, tmp_path, method="whole-body") == 3
    assert capsys.readouterr().err == ("aborted: step 0: the joint constraints A s <= b_q "
                                       "are inconsistent\n")
    assert (tmp_path / "o.csv").read_text() == "step,t,mnte,rmse_angvel,step_time_ms\n"


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
HUGE = 10 ** 400  # an integer past the float range
DEEP = "[" * 5000 + "]" * 5000  # deeper than the recursion limit
_DEEP_MARK = "__nested_5000_deep__"


def _mutate(doc, rng):
    """One random edit: delete a key or entry, change a value's type, shorten
    an array, put in an oversized integer, or nest deeply (write the result
    with ``_dumps``)."""
    doc = copy.deepcopy(doc)
    slots = list(_slots(doc))
    op = rng.integers(5)
    if op == 2:
        slots = [(c, k) for c, k in slots if isinstance(c[k], list) and c[k]] or slots
    container, key = slots[rng.integers(len(slots))]
    if op == 0:
        del container[key]
    elif op == 1:
        container[key] = copy.deepcopy(_REPLACEMENTS[rng.integers(len(_REPLACEMENTS))])
    elif op == 3:
        container[key] = HUGE
    elif op == 4:
        container[key] = _DEEP_MARK
    elif isinstance(container[key], list) and container[key]:
        container[key].pop()
    else:
        del container[key]
    return doc


def _dumps(doc):
    """JSON text of a document; a deep-nesting mark becomes the nested array,
    which ``json.dumps`` itself cannot write."""
    return json.dumps(doc).replace(json.dumps(_DEEP_MARK), DEEP)


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
        text = _dumps(_mutate(base, rng))
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


def test_bench_config_with_no_specs_checks_its_settings(tmp_path, capsys):
    """A sweep over no spec still checks its settings, as one over a spec does."""
    config = tmp_path / "bench.json"
    for specs in ([], [SPEC_ENTRY]):
        config.write_text(json.dumps({"models": [{"id": "a", "gen_human": {"dofs": 66,
                                                                           "seed": 0}}],
                                      "specs": specs, "config": {"gain": -1}}))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            "usage error: gain must be a positive finite number, got -1\n")
        assert not (tmp_path / "r").exists()


def test_a_malformed_model_file_is_named(model_file, tmp_path, capsys):
    """Of the model files a bench config names, the one that does not parse is
    named, as the one whose bytes are not UTF-8 is."""
    bad = tmp_path / "bad.json"
    bad.write_text("{\n")
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"models": [{"id": "a", "path": model_file},
                                             {"id": "b", "path": str(bad)}],
                                  "specs": [SPEC_ENTRY]}))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {bad}: line 2, column 1: Expecting property name enclosed in double "
        f"quotes\n")


def test_bench_out_is_made_before_the_sweep(model_file, tmp_path, capsys, monkeypatch):
    """An existing file where the results directory goes stops ``bench``
    before any sweep runs."""
    calls = []
    monkeypatch.setattr(ik.cli, "run_benchmark", lambda *a: calls.append(a))
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"models": [{"id": "h66", "path": model_file}],
                                  "specs": [SPEC_ENTRY], "methods": ["dynamical"]}))
    assert main(["bench", "--config", str(config), "--out", model_file]) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert calls == []


def test_solve_out_is_opened_before_tracking(model_file, spec_file, tmp_path, capsys,
                                             monkeypatch):
    """A directory where the per-step CSV goes stops ``solve`` before any
    sample is tracked."""
    stream = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)]) == 0
    calls = []
    monkeypatch.setattr(ik.cli, "run_method", lambda *a: calls.append(a))
    assert main(["solve", "--model", model_file, "--stream", str(stream), "--method",
                 "dynamical", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert calls == []


def _solve(model, stream, tmp_path, method="dynamical"):
    return main(["solve", "--model", str(model), "--stream", str(stream), "--method", method,
                 "--out", str(tmp_path / "o.csv")])


@pytest.mark.parametrize("seed", range(3))
def test_fuzzed_stream_lines_are_data_errors(seed, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(small_model_document()))
    model = ik.load_model(model_path.read_text())
    spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.03, dt=0.01, amplitude=0.2,
                             seed=seed)
    clean = tmp_path / "clean.jsonl"
    ik.save_stream(clean, ik.generate_stream(model, spec)[1])
    records = [json.loads(line) for line in clean.read_text().splitlines()]
    stream = tmp_path / "stream.jsonl"
    rng = np.random.default_rng(seed)
    rejected = 0
    for _ in range(60):
        lines = [json.dumps(r) for r in records]
        k = rng.integers(len(lines))
        lines[k] = _dumps(_mutate(records[k], rng))
        stream.write_text("\n".join(lines) + "\n")
        try:
            ik.load_stream(stream)
        except ik.IkTrackError:
            rejected += 1
            assert _solve(model_path, stream, tmp_path) == 2, lines[k][:200]
        except Exception as e:
            pytest.fail(f"{type(e).__name__}: {e} from {lines[k][:200]}")
        else:
            assert _solve(model_path, stream, tmp_path) in (0, 2), lines[k][:200]
    assert rejected >= 20


def _case_id(value):
    """Short test ids for the oversized integer and the nesting mark."""
    if isinstance(value, int) and value == HUGE:
        return "huge"
    if value == _DEEP_MARK:
        return "deep"
    return None


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path", [("joints", 0, "axis", 0), ("joints", 0, "vel_limit"),
                                  ("constraints", "b_q", 0), ("joints",)])
@pytest.mark.parametrize("value", [HUGE, _DEEP_MARK], ids=_case_id)
def test_oversized_number_or_deep_nesting_in_model_is_parse_or_validation_error(
        path, value, tmp_path):
    doc = small_model_document()
    _set_path(doc, path, value)
    text = _dumps(doc)
    with pytest.raises((ik.errors.ParseError, ik.errors.ValidationError)):
        ik.load_model(text)
    model_path = tmp_path / "model.json"
    model_path.write_text(text)
    assert _solve(model_path, tmp_path / "unread.jsonl", tmp_path) == 2


@pytest.mark.parametrize("path, value", [
    *[(path, value) for path in [("t",), ("p", 0, 1), ("R", 2, 4), ("w",)]
      for value in (HUGE, _DEEP_MARK, "0.5")],
    (("t",), True), (("w",), True), (("v", 0), [True, False, True]),
    # a boolean among numbers, which numpy reads as 1 or 0
    (("p", 0, 1), True), (("R", 2, 4), False), (("v", 0, 2), True), (("w", 1, 0), False)],
    ids=_case_id)
def test_bad_stream_values_are_parse_errors(path, value, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(small_model_document()))
    model = ik.load_model(model_path.read_text())
    spec = ik.TrajectorySpec(kind="static_pose", duration=0.03, dt=0.01, amplitude=0.2)
    stream = tmp_path / "stream.jsonl"
    ik.save_stream(stream, ik.generate_stream(model, spec)[1])
    records = [json.loads(line) for line in stream.read_text().splitlines()]
    _set_path(records[1], path, value)
    stream.write_text("".join(_dumps(r) + "\n" for r in records))
    with pytest.raises(ik.errors.ParseError):
        ik.load_stream(stream)
    assert _solve(model_path, stream, tmp_path) == 2


def test_rank_deficient_solve_is_a_solver_failure(model_file, spec_file, tmp_path, monkeypatch,
                                                 capsys):
    stream = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)]) == 0

    def singular(*_):
        raise ik.errors.RankDeficient("normal matrix is singular")
    monkeypatch.setattr(ik.cli, "run_method", singular)
    assert _solve(model_file, stream, tmp_path) == 3
    assert "solver failure: normal matrix is singular" in capsys.readouterr().err


def test_huge_finite_target_aborts_as_solver_failure(model_file, spec_file, tmp_path, capsys):
    # a finite angular-velocity target the QP cannot solve in float range
    stream = tmp_path / "stream.jsonl"
    assert main(["gen", "--model", model_file, "--spec", spec_file, "--out", str(stream)]) == 0
    records = [json.loads(line) for line in stream.read_text().splitlines()]
    records[5]["w"][0][0] = 1e200
    stream.write_text("".join(json.dumps(r) + "\n" for r in records))
    with np.errstate(all="ignore"):
        code = _solve(model_file, stream, tmp_path)
    assert code == 3
    assert "aborted: " in capsys.readouterr().err
