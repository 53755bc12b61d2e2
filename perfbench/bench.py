"""One benchmark run: set-up, the real-time loop, the ``solve`` command, the
correctness checks and the metrics.

A run uses ``STREAMS`` short target streams, each generated from its own
seed (derived from the run's seed), so that the accuracy figures average
over many motions: how accurately a method tracks differs more between
motions than within one. Setting up one stream (load the model, generate the
stream, save it to a file) is one set-up; ``setup_s`` is their median.

The loop is closed and single-threaded: each sample goes to the method's
public per-sample call (``iktrack.step`` or ``iktrack.solve_whole_body``)
only after the previous call returned, without pacing. A pass tracks one
stream from the initial configuration; a round is one pass over every
stream. Rounds repeat until the run's seconds are spent, so every run
attempts whole rounds.

Reported times are scaled to a reference machine speed (see ``speed``);
the unscaled figures go to standard error. The traced run reports unscaled
per-layer times.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import refkin
from speed import SpeedMeter
from tracing import Tracer

DT = 0.01
DURATION = 5.0
TRANSIENT = 2.0
STREAMS = 8


def _spent(meter):
    return meter.spent if meter is not None else 0.0


def _timed(meter, fn, *args):
    """Call ``fn``; returns its result and its span (start, end, wall time
    without the speed probes that ran inside it)."""
    before = _spent(meter)
    start = perf_counter()
    result = fn(*args)
    end = perf_counter()
    return result, (start, end, end - start - (_spent(meter) - before))


@dataclass(eq=False)
class Pass:
    """One pass over a stream."""

    raw: np.ndarray     # per-sample latency as measured (s)
    starts: np.ndarray  # perf_counter() at each call
    failed: int
    outputs: list       # per-sample outputs when kept; None for a failed sample
    error: str | None
    last: object        # the last configuration

    def scaled(self, meter):
        return self.raw * meter.factor(self.starts, self.starts + self.raw)


class Workload:
    """Set-up and per-sample calls of one workload."""

    def __init__(self, ik, spec, seed, fixtures, workdir):
        self.ik = ik
        self.spec = spec
        self.seed = seed
        self.dynamical = spec["method"] == "dynamical"
        self.model_path = os.path.join(fixtures, spec["model"])
        self.source_path = os.path.join(fixtures, spec["source"])
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "solve.csv")
        self.config = dict(ik.harness.DEFAULT_CONFIG, dt=DT)

    def stream_path(self, index):
        return os.path.join(self.workdir, f"stream{index}.jsonl")

    def setup(self, index):
        """Load the model, generate stream ``index`` and save it; returns the
        model, the ground truth and the samples."""
        ik = self.ik
        with open(self.model_path) as fh:
            model = ik.load_model(fh.read())
        source = model
        if self.source_path != self.model_path:
            with open(self.source_path) as fh:
                source = ik.load_model(fh.read())
        traj = ik.TrajectorySpec(kind="random_smooth", duration=DURATION, dt=DT,
                                 amplitude=self.spec["amplitude"],
                                 freq_band=self.spec["band"],
                                 seed=self.seed * STREAMS + index)
        truth, samples = ik.harness.generate_stream(source, traj)
        ik.harness.save_stream(self.stream_path(index), samples)
        return model, truth, samples

    def prepare(self, model):
        ik, cfg = self.ik, self.config
        self.model = model
        self.gains = ik.GainConfig.build(model, dt=DT, gain=cfg["gain"],
                                         limit_slope=cfg["limit_slope"],
                                         vel_bound_default=cfg["vel_bound_default"])
        self.baumgarte = ik.BaumgarteConfig(rho=cfg["rho"], dt=DT)
        self.solver = ik.ActiveSetSolver(damping=cfg["damping"])
        self.ik_config = ik.InstantaneousConfig(stop_tol=cfg["stop_tol"],
                                                max_iters=cfg["max_iters"],
                                                lm_lambda0=cfg["lm_lambda0"])

    def run_pass(self, samples, call, meter=None, tracer=None, traced_call=None, keep=False):
        """Track one stream. With a tracer, every even-numbered sample goes
        through ``traced_call`` with the span recorders installed, so traced
        and untraced calls share the machine's speed phases."""
        ik, model = self.ik, self.model
        lat = np.empty(len(samples))
        starts = np.empty(len(samples))
        failed, outputs, error, last = 0, [], None, None
        q = ik.initial_configuration(model, samples[0])
        state = ik.SolverState.initial(model, q)
        fn = call
        for k, sample in enumerate(samples):
            if tracer is not None:
                tracer.request = tracer.offset + k
                fn = call if k % 2 else traced_call
                if not k % 2:
                    tracer.install()
            probed = _spent(meter)
            start = starts[k] = perf_counter()
            try:
                if self.dynamical:
                    state, report = fn(state, sample, model, self.gains,
                                       self.baumgarte, self.solver)
                else:
                    res = fn(model, sample, q, self.ik_config)
            except Exception as e:  # a raising call is a failed sample
                lat[k] = perf_counter() - start - (_spent(meter) - probed)
                if tracer is not None:
                    tracer.restore()
                failed += 1
                error = error or f"sample {k}: {type(e).__name__}: {e}"
                outputs.append(None)
                continue
            lat[k] = perf_counter() - start - (_spent(meter) - probed)
            if tracer is not None:
                tracer.restore()
            if self.dynamical:
                ok = report.qp_status is ik.QPStatus.SOLVED
                out = (state.q, state.nu.stacked(), report)
            else:
                q = res.q
                ok = res.converged
                out = (res.q, None, res)
            if not ok:
                failed += 1
                error = error or f"sample {k}: not solved"
            last = out[0]
            if keep:
                outputs.append(out)
        return Pass(lat, starts, failed, outputs, error, last)

    def velocity(self, q, sample):
        """Joint-velocity stage of the whole-body baseline at a solved
        configuration (the one the solve command runs), under the constant
        velocity bounds."""
        ik, model = self.ik, self.model
        finite = np.isfinite(model.vel_bounds)
        G = g = None
        if np.any(finite):
            G = np.zeros((int(finite.sum()), model.n + 6))
            G[:, 6:] = model.constraint_matrix[finite]
            g = model.vel_bounds[finite]
        prob = ik.LeastSquaresQP(model.stacked_jacobian(q), sample.velocity_stack(), G, g,
                                 damping=self.solver.damping)
        return self.solver.solve(prob).x


def _patch_all(tracer, ik):
    """Span recorders at the names the program's callers look up."""
    kin = ik.KinematicModel
    tracer.patch(kin, "fk_arrays", "model.fk")
    tracer.patch(kin, "stacked_jacobian", "model.jacobian")
    tracer.patch(kin, "pose_residual_arrays", "model.residual")
    tracer.patch(ik.tracker, "build_limit_constraints", "tracker.limits")
    tracer.patch(ik.tracker, "baumgarte_step", "so3.integrate")
    tracer.patch(ik.ActiveSetSolver, "solve", "qp.solve", note=_qp_note)
    tracer.patch(ik.harness, "solve_whole_body", "baselines.wb")
    tracer.patch(ik.harness, "generate_stream", "harness.generate")
    tracer.patch(ik.harness, "save_stream", "harness.save")
    cli = importlib.import_module("iktrack.cli")
    tracer.patch(cli, "load_stream", "harness.load")
    tracer.patch(cli, "run_method", "harness.run_method")
    tracer.patch(cli, "summarize_run", "harness.summarize")


def _qp_note(args, kwargs, result):
    warm = kwargs.get("warm_start", args[2] if len(args) > 2 else ())
    kept = tuple(sorted({int(i) for i in warm})) == tuple(result.active_set)
    return [result.iterations, len(result.active_set), kept]


def _same_configuration(a, b):
    if a is None or b is None:
        return a is b
    return (np.array_equal(a.base_pos, b.base_pos) and np.array_equal(a.base_rot.m, b.base_rot.m)
            and np.array_equal(a.s, b.s))


def _arrays(configs):
    return {"base_pos": np.array([q.base_pos for q in configs]),
            "base_rot": np.array([q.base_rot.m for q in configs]),
            "s": np.array([q.s for q in configs])}


def _stream_arrays(samples):
    return {"t": np.array([x.t for x in samples]),
            "pos": np.array([x.positions for x in samples]),
            "rot": np.array([x.rotations for x in samples]),
            "ang": np.array([x.ang_vels for x in samples])}


def _solve(ik, wl, tracer, meter):
    """Run ``iktrack solve`` on the first stream in this process; returns
    the exit code, its span (see ``_timed``), the CSV rows and the standard
    error."""
    cli = importlib.import_module("iktrack.cli")
    argv = ["solve", "--model", wl.model_path, "--stream", wl.stream_path(0),
            "--method", wl.spec["method"], "--dt", repr(DT), "--out", wl.csv_path]
    main = cli.main if tracer is None else tracer.wrap("cli.solve", cli.main)
    out, err = io.StringIO(), io.StringIO()

    def solve():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return main(argv)
            except SystemExit as e:
                return e.code

    code, span = _timed(meter, solve)
    rows = []
    if os.path.exists(wl.csv_path):
        with open(wl.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return code, span, rows, err.getvalue()


def run(ik, spec, args, fixtures, workdir):
    """One run of a workload; returns the checks, the counts, the end-to-end
    metrics and, when traced, the per-layer metrics."""
    r = Run(ik, spec, args, fixtures, workdir)
    with r.meter or contextlib.nullcontext():
        r.measure()
    return r.results()


class Run:
    """State of one run, from set-up to metrics."""

    def __init__(self, ik, spec, args, fixtures, workdir):
        self.ik, self.args, self.workdir = ik, args, workdir
        self.wl = Workload(ik, spec, args.seed, fixtures, workdir)
        self.tracer = Tracer() if args.trace else None
        self.meter = None if self.tracer else SpeedMeter()

    def tally(self, p, samples):
        self.failed += p.failed
        self.attempted += len(samples)
        self.error = self.error or p.error

    def measure(self):
        """Set-up, the real-time loop and the solve command."""
        # -- set-up, once per stream; the median is setup_s ------------------
        if self.tracer:
            _patch_all(self.tracer, self.ik)
            self.tracer.install()
        self.setups, self.truths, self.streams = [], [], []
        for i in range(STREAMS):
            if self.tracer:
                self.tracer.pass_no = i
            (self.model, truth, samples), span = _timed(self.meter, self.wl.setup, i)
            self.setups.append(span)
            self.truths.append(truth)
            self.streams.append(samples)
        if self.tracer:
            self.tracer.restore()
        self.wl.prepare(self.model)
        count = len(self.streams[0])
        if (checks.tail_percentile(STREAMS * count) or 0.0) < 99.0:
            raise SystemExit(f"error: a round of {STREAMS} x {count} samples leaves under ten "
                             "beyond p99")

        # -- the real-time loop ----------------------------------------------
        # the first round is never traced: its outputs feed the checks
        call = self.ik.step if self.wl.dynamical else self.ik.solve_whole_body
        traced_call = None
        if self.tracer:
            root = "tracker.step" if self.wl.dynamical else "baselines.wb"
            traced_call = self.tracer.wrap(root, call)
            self.tracer.phase = "loop"
        start = perf_counter()
        self.plain, self.traced, self.mixed, self.outputs, firsts = [], [], [], [], []
        self.failed = self.attempted = self.differing = 0
        self.error = None
        for samples in self.streams:
            p = self.wl.run_pass(samples, call, self.meter, keep=True)
            self.plain.append(p)
            self.outputs += p.outputs
            firsts.append(p.last)
            self.tally(p, samples)
        self.rounds = 1
        while perf_counter() - start < self.args.seconds or (self.tracer and not self.traced):
            for i, samples in enumerate(self.streams):
                if self.tracer:
                    self.tracer.pass_no, self.tracer.offset = self.rounds - 1, i * len(samples)
                    p = self.wl.run_pass(samples, call, tracer=self.tracer,
                                         traced_call=traced_call)
                    self.traced.append(p.raw[0::2])
                    self.mixed.append(p.raw[1::2])
                else:
                    p = self.wl.run_pass(samples, call, self.meter)
                    self.plain.append(p)
                self.tally(p, samples)
                self.differing += not _same_configuration(p.last, firsts[i])
            self.rounds += 1

        # -- the solve command, on the first stream -------------------------
        if self.tracer:
            self.tracer.phase, self.tracer.pass_no, self.tracer.request = "solve", 0, -1
            self.tracer.install()
        self.code, self.solve_span, self.rows, solve_err = _solve(self.ik, self.wl, self.tracer,
                                                                   self.meter)
        if self.tracer:
            self.tracer.restore()
        self.attempted += count
        if self.code != 0:
            self.failed += count
            self.error = self.error or f"solve exited {self.code}: {solve_err.strip()}"

    def results(self):
        """Reference kinematics, checks and metrics."""
        spec, count = self.wl.spec, len(self.streams[0])

        # -- reference kinematics and checks ---------------------------------
        with open(self.wl.model_path) as fh:
            ref = refkin.RefChain(fh.read())
        with open(self.wl.source_path) as fh:
            ref_src = refkin.RefChain(fh.read())
        every = [x for samples in self.streams for x in samples]
        stream = _stream_arrays(every)
        gt = _arrays([q for truth in self.truths for q, _ in truth])
        gt["nu"] = np.array([nu.stacked() for truth in self.truths for _, nu in truth])
        trips = [checks.check_round_trip(s, self.ik.load_stream(self.wl.stream_path(i)))
                 for i, s in enumerate(self.streams)]
        results = {
            "targets": checks.check_targets(ref_src, gt, stream),
            "angvel_targets": checks.check_angvel_targets(ref_src, gt, stream),
            "round_trip": (all(ok for ok, _ in trips), "; ".join(d for _, d in trips)),
            # every pass starts from the same state and sees the same samples
            "passes_identical": (self.differing == 0,
                                 f"{self.differing} of {(self.rounds - 1) * STREAMS} later "
                                 "passes end elsewhere than the first"),
        }
        good = np.array([k for k, o in enumerate(self.outputs) if o is not None], dtype=int)
        config = _arrays([self.outputs[k][0] for k in good])
        if self.wl.dynamical:
            nu = np.array([self.outputs[k][1] for k in good])
        else:
            nu = np.array([self.wl.velocity(self.outputs[k][0], every[k]) for k in good])
        sub = {key: val[good] for key, val in stream.items()}
        polar = refkin.polar_factor(config["base_rot"])
        _, est_rot = ref.targets(config["base_pos"], polar, config["s"])
        ori_deg = refkin.geodesic_deg(est_rot, sub["rot"]).mean(axis=1)
        fd_angvel = ref.frame_angvel(config["base_pos"], polar, config["s"], nu)
        fd_rmse = checks.rmse(fd_angvel - sub["ang"])
        window = sub["t"] >= sub["t"].min() + TRANSIENT
        ori_err = float(np.median(ori_deg[window]))
        angvel = float(np.median(fd_rmse[window]))
        if spec.get("ori_ceiling"):
            results["ori_ceiling"] = checks.check_ori_ceiling(ori_err)
        if ref.limit_rows.shape[0]:
            results["limits"] = checks.check_limits(ref, config["s"])
        if not self.wl.dynamical:
            converged = np.array([self.outputs[k][2].converged for k in good])
            weights = self.wl.ik_config.weight_vector(self.model)
            results["converged_residual"] = checks.check_converged_residual(
                ref, config, sub, converged, weights, self.wl.ik_config.stop_tol)
        first = good < count   # samples of the stream the solve command tracked
        csv_rmse = np.full(count, np.nan)
        if len(self.rows) == count:
            csv_rmse = np.array([float(r["rmse_angvel"]) for r in self.rows])
        slack = checks.drift_slack(refkin.orthonormality_error(config["base_rot"][first]),
                                   fd_angvel[first] - nu[first, None, 3:6])
        results["solve"] = checks.check_solve(self.code, len(self.rows), count,
                                              csv_rmse[good[first]], fd_rmse[first], slack)

        out = {"checks": results, "attempted": self.attempted, "failed": self.failed,
               "error": self.error}
        if self.meter:
            meter = self.meter

            def scaled(span):
                return span[2] * float(meter.factor(span[0], span[1])[0])

            lat = [p.scaled(meter) for p in self.plain]
            out["end_to_end"] = {
                "setup_s": float(np.median([scaled(s) for s in self.setups])),
                "sample_ms_p50": 1e3 * checks.per_pass(lat, 50),
                "solve_s": scaled(self.solve_span),
                "ori_err_deg_p50": ori_err,
                "angvel_rmse_p50": angvel,
            }
            out["unscaled"] = {
                "setup_s": float(np.median([s[2] for s in self.setups])),
                "sample_ms_p50": 1e3 * checks.per_pass([p.raw for p in self.plain], 50),
                "solve_s": self.solve_span[2],
                "probe_ms_p50": 1e3 * meter.median_probe(),
            }
        if self.tracer:
            first_round = np.concatenate([p.raw for p in self.plain])
            out["per_layer"] = per_layer(self.tracer, self.wl, self.outputs, good, config,
                                         first_round, self.mixed, self.traced, count)
            self.tracer.write(os.path.join(os.path.dirname(self.workdir),
                                           f"trace-{self.args.workload}-s{self.args.seed}.jsonl"))
        return out


def per_layer(tracer, wl, outputs, good, config, first_round, plain, traced, count):
    """Per-layer metrics from the spans. Timings use the traced samples of
    the loop (self time: a span minus its child spans). Counts use the
    traced samples of the first traced round, or the solve command where
    named. ``first_round`` holds the latencies of the untraced first round;
    ``plain`` and ``traced`` are the untraced and traced latencies of the
    later passes. A layer that does not run on the workload reports 0."""
    total, own = tracer.durations()
    spans = tracer.spans

    def pct(name, q, which=own):
        idx = tracer.select(name, "loop")
        return 1e3 * float(np.percentile(which[idx], q)) if idx else 0.0

    def per_sample(name, phase):
        idx = tracer.select(name, phase)
        return float(np.median(total[idx])) * 1e3 / count if idx else 0.0

    if wl.dynamical:   # the step's own calls are fixed; the solve command's are not
        calls = ("solve", None, count)
    else:
        calls = ("loop", 0, sum(len(lat) for lat in traced[:STREAMS]))
    qp_notes = [spans[i][7] for i in tracer.select("qp.solve", "loop", 0)]
    solve_root = tracer.select("cli.solve", "solve")
    m = {
        "loop.sample_ms_p99": 1e3 * float(np.percentile(first_round, 99)),
        "model.fk_ms_p50": pct("model.fk", 50), "model.fk_ms_p95": pct("model.fk", 95),
        "model.jacobian_ms_p50": pct("model.jacobian", 50),
        "model.jacobian_ms_p95": pct("model.jacobian", 95),
        "model.residual_ms_p50": pct("model.residual", 50),
        "model.residual_ms_p95": pct("model.residual", 95),
        "model.fk_calls_per_sample": len(tracer.select("model.fk", *calls[:2])) / calls[2],
        "model.jacobian_calls_per_sample":
            len(tracer.select("model.jacobian", *calls[:2])) / calls[2],
        "qp.solve_ms_p50": pct("qp.solve", 50), "qp.solve_ms_p95": pct("qp.solve", 95),
        "qp.iterations_mean": float(np.mean([n[0] for n in qp_notes])) if qp_notes else 0.0,
        "qp.working_set_mean": float(np.mean([n[1] for n in qp_notes])) if qp_notes else 0.0,
        "qp.warm_start_kept": float(np.mean([n[2] for n in qp_notes])) if qp_notes else 0.0,
        "qp.warm_start_base": len(qp_notes),
        "tracker.limits_ms_p50": pct("tracker.limits", 50),
        "tracker.step_self_ms_p50": pct("tracker.step", 50),
        "so3.integrate_ms_p50": pct("so3.integrate", 50),
        "so3.orth_err_max":
            float(np.max(refkin.orthonormality_error(config["base_rot"])))
            if wl.dynamical else 0.0,
        "baselines.wb_ms_p50": pct("baselines.wb", 50, which=total),
        "baselines.wb_ms_p95": pct("baselines.wb", 95, which=total),
        "baselines.wb_self_ms_p50": pct("baselines.wb", 50),
        "baselines.wb_iterations_mean":
            0.0 if wl.dynamical else float(np.mean([outputs[k][2].iterations for k in good])),
        "harness.generate_ms_per_sample": per_sample("harness.generate", "setup"),
        "harness.save_ms_per_sample": per_sample("harness.save", "setup"),
        "harness.load_ms_per_sample": per_sample("harness.load", "solve"),
        "harness.run_method_ms_per_sample": per_sample("harness.run_method", "solve"),
        "harness.summarize_ms_per_sample": per_sample("harness.summarize", "solve"),
        "cli.solve_self_s": float(own[solve_root[0]]) if solve_root else 0.0,
        "trace.overhead_ratio": checks.per_pass(traced, 50) / checks.per_pass(plain, 50),
    }
    return m
