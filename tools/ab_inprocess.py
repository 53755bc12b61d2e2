"""Compare two checkouts of iktrack in one process, call by call.

Usage (from any directory):

    python3 tools/ab_inprocess.py --parent <checkout> --change <checkout> \\
        --seed 101 --streams 2 --rounds 10 --out ab.json

Each checkout's ``src/iktrack`` is imported under its own package name, so
both run in this process on the same inputs. For every workload of
``perfbench/run.py`` (the change's recipes: model, source model, amplitude
and band, with the sample spacing ``DT``, stream length ``DURATION`` and
``STREAMS`` of the change's ``perfbench/bench.py``), stream i is generated
from seed ``seed * STREAMS + i`` as perfbench does, and the stages are timed
in alternation:

- per sample, one call on each side, the parent first on even samples and
  the change first on odd ones: ``step`` (the dynamical workloads; compared
  on the new state's configuration, velocity and ``last_active_set``, the
  warm start it hands on, and the residual fed back) or
  ``solve_whole_body`` (the whole-body workload), each side following its
  own state, then ``project_to_so3`` of the base rotation that call
  produced, ``fk_arrays`` and ``stacked_jacobian`` at the configuration
  the call started from, and, once ``harness.CHUNK`` samples are in,
  ``fk_batch`` over the configurations the last ``CHUNK`` calls started
  from (the batch that ``generate_stream`` and ``summarize_run`` run);
- per round, the set-up stages once on each side, in the same alternation:
  ``load_model`` (compared on the serialized document and on every array
  the model precomputes: tree, support tables, depth layout, limit rows),
  ``generate_stream``, ``save_stream`` (compared on the file's bytes, and
  under ``parts`` on its ``bytes`` and on the ``values`` that the parent's
  ``load_stream`` reads from it, so a change of notation alone reads values
  identical), ``load_stream``,
  ``run_method`` (the workload's method over that stream, compared on its
  record's configuration and velocity arrays and its ``error``, so a run
  that stops early must stop at the same sample with the same message) and
  ``summarize_run`` (on that run, also compared on its MNTE and RMSE series
  each on its own, under ``parts``).

The JSON output holds, per workload and stage, both sides' median and
quartiles in microseconds, the ratio of the medians (change / parent), the
number of alternations the change was faster in, whether the two sides'
outputs were identical bit for bit on every call, and the largest absolute
difference between them over all calls (``max_abs_diff``), so a change in
the last bits shows as a number. BLAS runs on one thread, as in perfbench.
"""
import os

# one thread, as perfbench runs: pin the BLAS pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
# perfbench's sample spacing (s), stream length (s) and streams per run (stream
# i uses seed * STREAMS + i), read from perfbench/bench.py by ``_recipes``
BENCH_CONSTANTS = ("DT", "DURATION", "STREAMS")


def _count(text):
    """An argparse type: an integer of at least 1, so that every stage has a
    timing to summarise."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="perfbench workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--streams", type=_count, default=2,
                        help="streams per workload (at least 1)")
    parser.add_argument("--rounds", type=_count, default=10,
                        help="rounds of the set-up stages (at least 1)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    return parser.parse_args(argv)


def _import_checkout(checkout, name):
    """The checkout's ``src/iktrack`` package, imported as ``name``."""
    init = os.path.join(checkout, "src", "iktrack", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no iktrack sources under {checkout}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _recipes(checkout):
    """``WORKLOADS`` and ``FIXTURES`` of the checkout's ``perfbench/run.py``,
    and the ``BENCH_CONSTANTS`` of its ``perfbench/bench.py`` as a dict. The
    constants are read from bench.py's source, not imported: importing it
    imports perfbench's reference kinematics and the package by its own name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(checkout, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = os.path.join(checkout, "perfbench", "bench.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    bench = {target.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in BENCH_CONSTANTS}
    return module.WORKLOADS, module.FIXTURES, bench


def _git_head(path):
    try:
        return subprocess.run(["git", "-C", path, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _same(a, b):
    """Bit-for-bit equality of two outputs made of arrays, numbers, tuples
    and lists."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


def _max_abs_diff(a, b):
    """The largest absolute difference between two outputs of the shape
    ``_same`` compares: 0.0 when they are identical, inf where their shapes
    or non-numeric entries differ or only one side is NaN."""
    if isinstance(a, (tuple, list)):
        if len(a) != len(b):
            return math.inf
        return max((_max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    if a.dtype.kind not in "biuf" or b.dtype.kind not in "biuf":
        return 0.0 if np.array_equal(a, b) else math.inf
    if not a.size:
        return 0.0
    a, b = a.astype(float), b.astype(float)
    with np.errstate(invalid="ignore"):
        diff = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
    return float(np.nan_to_num(diff, nan=math.inf).max())


def _model_arrays(model, vel_bound_default):
    """A model's document and every array it precomputes: the per-link tree,
    joint, origin and axis arrays, the support tables, the depth layout (a
    level's parent rows as a slice's bounds or an index array) and the limit
    rows at ``vel_bound_default``."""
    layout = model._layout
    levels = [(start, stop, (rows.start, rows.stop) if isinstance(rows, slice) else rows)
              for start, stop, rows in layout.levels]
    return (model.serialize(), model._parent, model._joint_of, model._origin_p,
            model._origin_r, model._axis, model._joint_link, model._joint_axis,
            model._pos_lo, model._pos_hi, model._support, model._pos_idx, model._ori_idx,
            model._pos_cols, model._pos_support, model._ori_support, layout.rank, levels,
            layout.joints, layout.factors, layout.origin_r, layout.origins,
            model.constraint_matrix, model.config_bounds, model.vel_bounds,
            model.limit_rows(vel_bound_default))


def _stream_arrays(stream):
    return (stream.t, stream.positions, stream.rotations, stream.lin_vels, stream.ang_vels)


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _q_arrays(q):
    return (q.base_pos, q.base_rot.m, q.s)


class Stage:
    """Timings and output agreement of one stage."""

    def __init__(self):
        self.times = {side: [] for side in SIDES}
        self.wins = 0
        self.identical = True
        self.max_abs_diff = 0.0
        self.parts = {}   # name -> [identical, max_abs_diff] of one part of the output

    def alternate(self, index, calls, key=lambda out: out, parts=None):
        """Run ``calls[side]()`` for both sides, the parent first when
        ``index`` is even, and compare ``key`` of their outputs, and each of
        ``parts`` (name -> key) on its own; returns both outputs."""
        out, spent = {}, {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            start = perf_counter()
            out[side] = calls[side]()
            spent[side] = perf_counter() - start
        for side in SIDES:
            self.times[side].append(spent[side])
        self.wins += spent["change"] < spent["parent"]
        parent, change = key(out["parent"]), key(out["change"])
        self.identical &= bool(_same(parent, change))
        self.max_abs_diff = max(self.max_abs_diff, _max_abs_diff(parent, change))
        for name, part in (parts or {}).items():
            parent, change = part(out["parent"]), part(out["change"])
            seen = self.parts.setdefault(name, [True, 0.0])
            seen[0] &= bool(_same(parent, change))
            seen[1] = max(seen[1], _max_abs_diff(parent, change))
        return out

    def summary(self):
        entry = {}
        for side in SIDES:
            q25, q50, q75 = np.percentile(np.array(self.times[side]) * 1e6, [25, 50, 75])
            entry[f"{side}_median_us"] = float(q50)
            entry[f"{side}_q25_us"] = float(q25)
            entry[f"{side}_q75_us"] = float(q75)
        entry["ratio"] = entry["change_median_us"] / entry["parent_median_us"]
        entry["change_faster"] = self.wins
        entry["count"] = len(self.times["parent"])
        entry["identical"] = self.identical
        entry["max_abs_diff"] = self.max_abs_diff
        if self.parts:
            entry["parts"] = {name: {"identical": same, "max_abs_diff": diff}
                              for name, (same, diff) in self.parts.items()}
        return entry


class Pass:
    """One side's pass over a stream, each call made from that side's own
    iterate, with the harness's default settings as perfbench uses them."""

    def __init__(self, ik, model, stream, dynamical, dt):
        cfg = ik.harness.DEFAULT_CONFIG
        self.ik, self.model, self.stream, self.dynamical = ik, model, stream, dynamical
        self.q = ik.initial_configuration(model, stream[0])
        self.state = ik.SolverState.initial(model, self.q)
        self.gains = ik.GainConfig.build(model, dt=dt, gain=cfg["gain"],
                                         limit_slope=cfg["limit_slope"],
                                         vel_bound_default=cfg["vel_bound_default"])
        self.baumgarte = ik.BaumgarteConfig(rho=cfg["rho"], dt=dt)
        self.solver = ik.ActiveSetSolver(damping=cfg["damping"])
        self.ik_config = ik.InstantaneousConfig(stop_tol=cfg["stop_tol"],
                                                max_iters=cfg["max_iters"],
                                                lm_lambda0=cfg["lm_lambda0"])

    def call(self, i):
        """``step`` or ``solve_whole_body`` on sample i; advances the iterate."""
        if self.dynamical:
            out = self.ik.step(self.state, self.stream[i], self.model, self.gains,
                               self.baumgarte, self.solver)
            self.state, self.q = out[0], out[0].q
        else:
            out = self.ik.solve_whole_body(self.model, self.stream[i], self.q, self.ik_config)
            self.q = out.q
        return out


def _step_key(out):
    state, report = out
    return _q_arrays(state.q), state.nu.stacked(), report.residual_r, state.last_active_set


def _solve_key(out):
    return _q_arrays(out.q), out.iterations, out.pose_error


def _per_sample(stages, passes, dynamical):
    """Alternate the per-sample call, the projection of the base rotation it
    produced, then FK and the Jacobian at the configuration it started from,
    and FK over the last ``CHUNK`` such configurations, on every sample of
    every pair of passes."""
    method, project, fk, jac, fk_chunk = (stages.setdefault(k, Stage()) for k in (
        "step" if dynamical else "solve_whole_body", "project_to_so3", "fk", "jacobian",
        "fk_batch"))
    index = 0
    for pair in passes:
        chunk = pair["change"].ik.harness.CHUNK
        history = {side: [] for side in SIDES}
        for i in range(len(pair["parent"].stream)):
            starts = {side: pair[side].q for side in SIDES}
            method.alternate(index, {side: (lambda s=side: pair[s].call(i)) for side in SIDES},
                             key=_step_key if dynamical else _solve_key)
            project.alternate(index, {side: (lambda s=side: pair[s].ik.project_to_so3(
                pair[s].q.base_rot.m)) for side in SIDES}, key=lambda r: r.m)
            poses = fk.alternate(index, {side: (lambda s=side: pair[s].model.fk_arrays(starts[s]))
                                         for side in SIDES})
            jac.alternate(index, {side: (lambda s=side: pair[s].model.stacked_jacobian(
                starts[s], fk=poses[s])) for side in SIDES})
            for side in SIDES:
                history[side].append(starts[side])
            if len(history["parent"]) >= chunk:
                batch = {side: [np.array(part) for part in zip(
                    *map(_q_arrays, history[side][-chunk:]))] for side in SIDES}
                fk_chunk.alternate(index, {side: (lambda s=side: pair[s].model.fk_batch(
                    *batch[s])) for side in SIDES})
            index += 1


def _trajectory(ik, spec, bench, seed):
    """The stream recipe of workload ``spec`` at perfbench's spacing and
    length, from ``seed``."""
    return ik.TrajectorySpec(kind="random_smooth", duration=bench["DURATION"], dt=bench["DT"],
                             amplitude=spec["amplitude"], freq_band=spec["band"], seed=seed)


def _set_up(stages, iks, spec, bench, fixtures, seed, rounds, workdir):
    """Alternate the set-up stages round by round on stream 0."""
    texts = {}
    for key in ("model", "source"):
        with open(os.path.join(fixtures, spec[key])) as fh:
            texts[key] = fh.read()
    files = {side: os.path.join(workdir, f"{side}.jsonl") for side in SIDES}
    method = "dynamical" if spec["method"] == "dynamical" else "whole-body"
    config = dict(iks["parent"].harness.DEFAULT_CONFIG, dt=bench["DT"])
    for r in range(rounds):
        def stage(name, fn, key=lambda out: out, parts=None):
            return stages.setdefault(name, Stage()).alternate(
                r, {side: (lambda s=side: fn(s)) for side in SIDES}, key, parts)
        models = stage("load_model", lambda s: iks[s].load_model(texts["model"]),
                       key=lambda m: _model_arrays(m, config["vel_bound_default"]))
        sources = {s: iks[s].load_model(texts["source"]) for s in SIDES}
        traj = {s: _trajectory(iks[s], spec, bench, seed * bench["STREAMS"]) for s in SIDES}
        generated = stage("generate_stream",
                          lambda s: iks[s].generate_stream(sources[s], traj[s]),
                          key=lambda g: (_stream_arrays(g[1]),
                                         [(_q_arrays(q), v.stacked()) for q, v in g[0]]))
        def save(s):
            iks[s].save_stream(files[s], generated[s][1])
            return files[s]
        # a file differs by bytes, where a difference has no size, or by the
        # values the parent's reader gives
        stage("save_stream", save, key=_file_bytes,
              parts={"bytes": _file_bytes,
                     "values": lambda path: _stream_arrays(iks["parent"].load_stream(path))})
        loaded = stage("load_stream", lambda s: iks[s].load_stream(files[s]),
                       key=_stream_arrays)
        runs = stage("run_method",
                     lambda s: iks[s].run_method(method, models[s], loaded[s], config),
                     key=lambda run: (run.base_pos, run.base_rot, run.s, run.nu, run.error))
        stage("summarize_run",
              lambda s: iks[s].summarize_run(models[s], loaded[s], runs[s]),
              key=lambda m: (m.mnte_series, m.rmse_series),
              parts={"mnte_series": lambda m: m.mnte_series,
                     "rmse_series": lambda m: m.rmse_series})


def main(argv=None):
    args = _parse_args(argv)
    iks = {side: _import_checkout(getattr(args, side), f"iktrack_{side}") for side in SIDES}
    recipes, fixtures, bench = _recipes(args.change)
    doc = {"command": " ".join(["python3", "tools/ab_inprocess.py", *sys.argv[1:]]),
           "parent": _git_head(args.parent), "change": _git_head(args.change),
           "machine": f"{platform.machine()} {platform.system()}, {os.cpu_count()} CPUs, "
                      f"Python {platform.python_version()}, numpy {np.__version__}",
           "workloads": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for name in args.workload or list(recipes):
            spec = recipes[name]
            stages = {}
            _set_up(stages, iks, spec, bench, fixtures, args.seed, args.rounds, workdir)
            dynamical = spec["method"] == "dynamical"
            passes = [{} for _ in range(args.streams)]
            for side in SIDES:
                ik = iks[side]
                with open(os.path.join(fixtures, spec["model"])) as fh:
                    model = ik.load_model(fh.read())
                with open(os.path.join(fixtures, spec["source"])) as fh:
                    source = ik.load_model(fh.read())
                for i, pair in enumerate(passes):
                    stream = ik.generate_stream(source, _trajectory(
                        ik, spec, bench, args.seed * bench["STREAMS"] + i))[1]
                    pair[side] = Pass(ik, model, stream, dynamical, bench["DT"])
            _per_sample(stages, passes, dynamical)
            doc["workloads"][name] = {k: v.summary() for k, v in stages.items()}
            for stage, s in doc["workloads"][name].items():
                print(f"{name:14s} {stage:17s} parent {s['parent_median_us']:10.1f} us  "
                      f"change {s['change_median_us']:10.1f} us  ratio {s['ratio']:.3f}  "
                      f"faster {s['change_faster']}/{s['count']}  "
                      f"identical {s['identical']}  max_abs_diff {s['max_abs_diff']:.3g}",
                      file=sys.stderr)
                for part, p in s.get("parts", {}).items():
                    print(f"{'':14s}   {part:15s} identical {p['identical']}  "
                          f"max_abs_diff {p['max_abs_diff']:.3g}", file=sys.stderr)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
