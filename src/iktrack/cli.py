"""Command-line interface.

Exit codes: 0 success, 1 usage error (a setting out of range, wherever it is
given), 2 data error (parsing/validation/schema, or a file that cannot be read
or written), 3 solver failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import (IkTrackError, InvalidSetting, ParseError, QPInfeasible, RankDeficient,
                     SchemaMismatch, SpecInfeasible, StaleSample, ValidationError)
from .harness import (DEFAULT_CONFIG, METHODS, TrajectorySpec, _merged_config, _settings,
                      _sweep_settings, generate_stream, load_stream, run_benchmark,
                      run_method, save_stream, summarize_run)
from .model import _parse_json, _required, _typed, generate_human_chain, load_model
from .so3 import BaumgarteConfig

USAGE_ERROR = 1
DATA_ERROR = 2
SOLVER_ERROR = 3

# OSError: a file that is missing, a directory or otherwise unreadable or
# unwritable
_DATA_ERRORS = (ParseError, ValidationError, SchemaMismatch, SpecInfeasible, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _read(path):
    """The text of the file at ``path``; ``ParseError`` naming the file when
    its bytes are not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 at byte {e.start}") from None


def _load_model_file(path):
    """The model in the file at ``path``; a ``ParseError`` names the file."""
    text = _read(path)
    try:
        return load_model(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}", line=e.line, column=e.column) from None


def _cmd_solve(args):
    config = {"gain": args.gain, "limit_slope": args.gain_limit, "rho": args.rho,
              "dt": args.dt}
    # the flags are checked as run_method checks them, before any file is read
    _settings(_merged_config(config), args.dt)
    model = _load_model_file(args.model)
    samples = load_stream(args.stream)
    if not samples:
        raise ParseError(f"{args.stream}: empty stream")
    samples.check_model(model)
    samples.check_spacing(args.dt, name="--dt")
    # opened before tracking, so an unwritable --out costs no run
    with open(args.out, "w") as fh:
        fh.write("step,t,mnte,rmse_angvel,step_time_ms\n")
        run = run_method(args.method, model, samples, config)
        metrics = summarize_run(model, samples, run)
        for i in range(len(run.step_time)):
            fh.write(f"{i},{samples[i].t!r},{float(metrics.mnte_series[i])!r},"
                     f"{float(metrics.rmse_series[i])!r},"
                     f"{float(metrics.time_series[i] * 1e3)!r}\n")
    print(f"method={args.method} gain={args.gain} gain_limit={args.gain_limit} "
          f"dt={args.dt} rho={args.rho}")
    print(f"steps={len(run.step_time)} mnte_median={metrics.mnte_stats.median:.6g} "
          f"rmse_median={metrics.rmse_stats.median:.6g} "
          f"time_median_ms={metrics.time_stats.median * 1e3:.6g}")
    if len(run.step_time) and not metrics.steady_window().any():
        print(f"note: all {len(run.step_time)} samples fall inside the "
              f"{metrics.transient_discard:g} s transient discard, so the medians "
              f"are undefined; the per-step CSV holds every sample", file=sys.stderr)
    if run.error is not None:
        print(f"aborted: {run.error}", file=sys.stderr)
        return SOLVER_ERROR
    return 0


def _object(raw, rule):
    """``raw`` when it is a JSON object, else ``ValidationError(rule, ...)``."""
    if not isinstance(raw, dict):
        raise ValidationError(rule, "expected an object")
    return raw


def _parse_spec(raw, seed=None):
    """``TrajectorySpec(**raw)``, ``seed`` replacing raw's when given;
    ``ValidationError`` for a non-object, an unknown key or a bad value."""
    _object(raw, "bad spec")
    unknown = set(raw) - {f.name for f in dataclasses.fields(TrajectorySpec)}
    if unknown:
        raise ValidationError("unknown key", f"spec: {sorted(unknown)[0]}")
    try:
        return TrajectorySpec(**(raw if seed is None else {**raw, "seed": seed}))
    except (TypeError, ValueError) as e:
        raise ValidationError("bad spec", str(e)) from None


def _cmd_gen(args):
    model = _load_model_file(args.model)
    spec = _parse_spec(_parse_json(_read(args.spec)), args.seed)
    _, samples = generate_stream(model, spec)
    save_stream(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _bench_grid(cfg):
    """Models, trajectory specs, methods and solver settings of a bench
    config document. A malformed entry raises ``ValidationError``; a
    ``gen_human`` entry's ``dofs`` or ``seed`` out of range raises
    ``InvalidSetting``, as ``models gen-human`` does."""
    _object(cfg, "bad bench config")
    models = []
    for i, entry in enumerate(_required(cfg, "models", list, "bench config", "an array")):
        where = f"models entry {i}"
        model_id = _required(_object(entry, "bad model entry"), "id", str, where, "a string")
        if "path" in entry:
            model = _load_model_file(_typed(entry["path"], str, f"{where} path", "a file name"))
        elif "gen_human" in entry:
            gen = _typed(entry["gen_human"], dict, f"{where} gen_human", "an object")
            model = generate_human_chain(*(_required(gen, key, object, f"{where} gen_human",
                                                     "a number") for key in ("dofs", "seed")))
        else:
            raise ValidationError("bad model entry", f"{model_id}: needs a path or gen_human")
        models.append((model_id, model))
    specs = []
    for i, entry in enumerate(_required(cfg, "specs", list, "bench config", "an array")):
        entry = _object(entry, "bad spec")
        specs.append((_required(entry, "id", str, f"specs entry {i}", "a string"),
                      _parse_spec({k: v for k, v in entry.items() if k != "id"})))
    return models, specs, cfg.get("methods", list(METHODS)), cfg.get("config", {})


def _cmd_bench(args):
    models, specs, methods, config = _bench_grid(_parse_json(_read(args.config)))
    # the settings are checked before --out is made, so a usage error leaves no
    # directory, and --out is made before the sweep, so an unwritable one
    # costs no sweep
    _sweep_settings(specs, methods, config)
    os.makedirs(args.out, exist_ok=True)
    records, table = run_benchmark(models, specs, methods, config)
    csv_path = os.path.join(args.out, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(table)
    runs = [{"method": r.method, "model": r.model_id, "scenario": r.trajectory_id,
             "config": r.config, "steps": r.steps, "failures": r.failures,
             "error": r.error} for r in records]
    with open(os.path.join(args.out, "runs.json"), "w") as fh:
        json.dump(runs, fh, indent=2)
    print(table, end="")
    print(f"wrote {csv_path}")
    return 0


def _cmd_models_gen_human(args):
    model = generate_human_chain(args.dofs, args.seed)
    with open(args.out, "w") as fh:
        fh.write(model.serialize())
    print(f"wrote {args.dofs}-DoF model ({len(model.links)} links) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iktrack",
                     description="Motion tracking by inverse kinematics on "
                                 "floating-base chains")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="track a target stream with one method")
    p_solve.add_argument("--model", required=True)
    p_solve.add_argument("--stream", required=True)
    p_solve.add_argument("--method", required=True, choices=list(METHODS))
    p_solve.add_argument("--gain", type=float, default=DEFAULT_CONFIG["gain"])
    p_solve.add_argument("--gain-limit", type=float, default=DEFAULT_CONFIG["limit_slope"])
    p_solve.add_argument("--dt", type=float, default=BaumgarteConfig.dt)
    p_solve.add_argument("--rho", type=float, default=DEFAULT_CONFIG["rho"])
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a synthetic target stream")
    p_gen.add_argument("--model", required=True)
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run the benchmark grid")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=_cmd_bench)

    p_models = sub.add_parser("models", help="model fixtures")
    models_sub = p_models.add_subparsers(dest="models_command", required=True)
    p_human = models_sub.add_parser("gen-human", help="generate a human-like chain")
    p_human.add_argument("--dofs", type=int, required=True, choices=[66, 48])
    p_human.add_argument("--seed", type=int, default=0)
    p_human.add_argument("--out", required=True)
    p_human.set_defaults(func=_cmd_models_gen_human)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidSetting as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except _DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return DATA_ERROR
    except (QPInfeasible, RankDeficient, StaleSample) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return SOLVER_ERROR
    except IkTrackError as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR
    except np.linalg.LinAlgError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
