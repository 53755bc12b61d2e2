"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (parsing/validation/schema),
3 solver failure.
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
                      generate_stream, load_stream, run_benchmark, run_method,
                      save_stream, summarize_run)
from .model import generate_human_chain, load_model
from .so3 import BaumgarteConfig

USAGE_ERROR = 1
DATA_ERROR = 2
SOLVER_ERROR = 3

_DATA_ERRORS = (ParseError, ValidationError, SchemaMismatch, SpecInfeasible,
                FileNotFoundError, json.JSONDecodeError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _load_model_file(path):
    with open(path) as fh:
        return load_model(fh.read())


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
    run = run_method(args.method, model, samples, config)
    metrics = summarize_run(model, samples, run)
    with open(args.out, "w") as fh:
        fh.write("step,t,mnte,rmse_angvel,step_time_ms\n")
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
    with open(args.spec) as fh:
        spec = _parse_spec(json.load(fh), args.seed)
    _, samples = generate_stream(model, spec)
    save_stream(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _bench_grid(cfg):
    """Models, trajectory specs, methods and solver settings of a bench
    config document."""
    try:
        models = []
        for entry in cfg["models"]:
            entry = _object(entry, "bad model entry")
            if "path" in entry:
                models.append((entry["id"], _load_model_file(entry["path"])))
            elif "gen_human" in entry:
                gen = entry["gen_human"]
                models.append((entry["id"], generate_human_chain(gen["dofs"], gen["seed"])))
            else:
                raise ValidationError("bad model entry", entry.get("id", "?"))
        specs = []
        for entry in cfg["specs"]:
            fields = dict(_object(entry, "bad spec"))
            specs.append((fields.pop("id"), _parse_spec(fields)))
        return models, specs, cfg.get("methods", list(METHODS)), cfg.get("config", {})
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValidationError("bad bench config", f"{type(e).__name__}: {e}") from None


def _cmd_bench(args):
    with open(args.config) as fh:
        cfg = json.load(fh)
    models, specs, methods, config = _bench_grid(cfg)
    records, table = run_benchmark(models, specs, methods, config)
    os.makedirs(args.out, exist_ok=True)
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
