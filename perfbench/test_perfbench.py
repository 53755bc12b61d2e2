"""Tests of the benchmark's own code: reference kinematics, the percentile
helper, and every correctness check failing on a corrupted output.

Run from the repository root: python -m pytest perfbench
"""
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import iktrack as ik  # noqa: E402

import checks  # noqa: E402
import refkin  # noqa: E402

FIXTURE = os.path.join(ROOT, "fixtures", "human66.json")

# base "b" -- joint j (axis z, origin (1, 0, 0), roll pi/2) -- link "l"
ONE_JOINT = {
    "base_link": "b",
    "links": [{"name": "b"}, {"name": "l"}],
    "joints": [{"name": "j", "parent": "b", "child": "l", "axis": [0.0, 0.0, 1.0],
                "origin": {"xyz": [1.0, 0.0, 0.0], "rpy": [math.pi / 2, 0.0, 0.0]},
                "pos_limits": [-0.5, 0.5]}],
    "position_targets": ["l"],
    "orientation_targets": ["b", "l"],
}
RZ90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.fixture(scope="module")
def chain():
    return refkin.RefChain(json.dumps(ONE_JOINT))


@pytest.fixture(scope="module")
def h66():
    with open(FIXTURE) as fh:
        text = fh.read()
    return ik.load_model(text), refkin.RefChain(text)


@pytest.fixture(scope="module")
def short_stream(h66):
    model, _ = h66
    spec = ik.TrajectorySpec(kind="random_smooth", duration=0.2, dt=0.01, amplitude=0.5,
                             freq_band=(1.5, 3.0), seed=4)
    return ik.generate_stream(model, spec)


def truth_arrays(truth):
    return {"base_pos": np.array([q.base_pos for q, _ in truth]),
            "base_rot": np.array([q.base_rot.m for q, _ in truth]),
            "s": np.array([q.s for q, _ in truth]),
            "nu": np.array([nu.stacked() for _, nu in truth])}


def stream_arrays(samples):
    return {"pos": np.array([x.positions for x in samples]),
            "rot": np.array([x.rotations for x in samples]),
            "ang": np.array([x.ang_vels for x in samples])}


# -- reference kinematics -------------------------------------------------------

def test_one_joint_pose_by_hand(chain):
    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    pos, rot = chain.fk([[0.0, 0.0, 1.0]], [RZ90], [[theta]])
    # p = p_base + Rz90 (1, 0, 0); R = Rz90 Rx90 Rz(theta)
    assert np.allclose(pos[0, 1], [0.0, 1.0, 1.0], atol=1e-15)
    expected = np.array([[0.0, 0.0, 1.0], [c, -s, 0.0], [s, c, 0.0]])
    assert np.allclose(rot[0, 1], expected, atol=1e-15)
    assert np.array_equal(rot[0, 0], RZ90)


def test_one_joint_angular_velocity_by_hand(chain):
    # the joint axis z of the link points along world x at this pose, so a
    # joint rate of 2 turns the link about x; the base rate adds on top
    nu = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 2.0]])
    w = chain.frame_angvel([[0.0, 0.0, 1.0]], [RZ90], [[0.3]], nu)
    assert np.allclose(w[0, 0], [0.0, 0.0, 0.5], atol=1e-8)
    assert np.allclose(w[0, 1], [2.0, 0.0, 0.5], atol=1e-8)


def test_limit_rows_from_json(chain):
    assert np.array_equal(chain.limit_rows, [[1.0], [-1.0]])
    assert np.array_equal(chain.limit_bounds, [0.5, 0.5])


def test_reference_matches_program_on_fixture(h66, short_stream):
    _, ref = h66
    truth, samples = short_stream
    assert checks.check_targets(ref, truth_arrays(truth), stream_arrays(samples))[0]
    assert checks.check_angvel_targets(ref, truth_arrays(truth), stream_arrays(samples))[0]


def test_polar_factor_and_geodesic():
    r = ik.Rotation.about_axis([1.0, 2.0, 3.0], 0.7).m
    u = refkin.polar_factor([r @ (np.eye(3) + 0.01 * np.diag([1.0, -2.0, 0.5]))])[0]
    assert np.allclose(u, r, atol=1e-12)
    b = ik.Rotation.about_axis([0.0, 0.0, 1.0], math.radians(5.0)).m
    assert np.isclose(refkin.geodesic_deg(np.eye(3)[None], b[None])[0], 5.0)


# -- the percentile helper --------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, None), (0, None)])
def test_tail_percentile(count, expected):
    assert checks.tail_percentile(count) == expected


@pytest.mark.parametrize("count", [40, 100, 1_000, 10_000])
def test_tail_percentile_leaves_ten_beyond(count):
    values = np.random.default_rng(count).normal(size=count)
    p = checks.tail_percentile(count)
    assert np.sum(values > np.percentile(values, p)) >= 10
    higher = [x / 10 for x in (999, 990, 950, 900, 750) if x / 10 > p]
    if higher:
        assert np.sum(values > np.percentile(values, min(higher))) < 10


# -- each check fails on a corrupted output ---------------------------------------

def test_targets_check_catches_corruption(h66, short_stream):
    _, ref = h66
    truth, samples = short_stream
    stream = stream_arrays(samples)
    stream["pos"][5, 0, 1] += 1e-6
    assert not checks.check_targets(ref, truth_arrays(truth), stream)[0]
    stream = stream_arrays(samples)
    stream["rot"][7, 3] = stream["rot"][7, 3] @ ik.Rotation.about_axis([1, 0, 0], 1e-6).m
    assert not checks.check_targets(ref, truth_arrays(truth), stream)[0]


def test_angvel_targets_check_catches_corruption(h66, short_stream):
    _, ref = h66
    truth, samples = short_stream
    stream = stream_arrays(samples)
    stream["ang"][3, 10, 2] += 1e-4
    assert not checks.check_angvel_targets(ref, truth_arrays(truth), stream)[0]


def test_round_trip_check(tmp_path, short_stream):
    _, samples = short_stream
    path = tmp_path / "s.jsonl"
    ik.save_stream(path, samples)
    loaded = ik.load_stream(path)
    assert checks.check_round_trip(samples, loaded)[0]
    loaded[4].ang_vels[2, 1] = np.nextafter(loaded[4].ang_vels[2, 1], np.inf)
    assert not checks.check_round_trip(samples, loaded)[0]
    assert not checks.check_round_trip(samples, loaded[:-1])[0]


def test_ori_ceiling_check():
    assert math.isclose(checks.ORI_CEILING_DEG, math.degrees(math.acos(0.99)))
    assert checks.check_ori_ceiling(3.2)[0]
    assert not checks.check_ori_ceiling(8.2)[0]


def test_limits_check(chain):
    assert checks.check_limits(chain, [[0.1], [0.4995], [-0.2]])[0]
    # outside a limit by more than the tolerance
    assert not checks.check_limits(chain, [[0.1], [0.502]])[0]
    # never at a bound
    assert not checks.check_limits(chain, [[0.1], [0.2], [-0.3]])[0]


def test_converged_residual_check(h66, short_stream):
    model, ref = h66
    truth, samples = short_stream
    cfg = ik.InstantaneousConfig()
    q = ik.initial_configuration(model, samples[0])
    results = []
    for sample in samples[:4]:
        res = ik.solve_whole_body(model, sample, q, cfg)
        q = res.q
        results.append(res)
    config = {"base_pos": np.array([r.q.base_pos for r in results]),
              "base_rot": np.array([r.q.base_rot.m for r in results]),
              "s": np.array([r.q.s for r in results])}
    stream = stream_arrays(samples[:4])
    converged = np.array([r.converged for r in results])
    assert converged.all()
    weights = cfg.weight_vector(model)
    assert checks.check_converged_residual(ref, config, stream, converged, weights,
                                           cfg.stop_tol)[0]
    config["s"][2, 30] += 1e-3
    assert not checks.check_converged_residual(ref, config, stream, converged, weights,
                                               cfg.stop_tol)[0]


def test_drift_slack_bounds_the_rmse_difference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = ik.Rotation.about_axis(rng.normal(size=3), rng.uniform(0, 3)).m
        e = rng.normal(scale=0.005, size=(3, 3))
        b = u @ (np.eye(3) + 0.5 * (e + e.T))
        v = rng.normal(size=(1, 23, 3))
        target = rng.normal(size=(1, 23, 3))
        orth = refkin.orthonormality_error(b[None])
        diff = abs(checks.rmse(target - v @ b.T) - checks.rmse(target - v @ u.T))
        assert diff <= checks.drift_slack(orth, v)


def test_solve_check():
    fd = np.array([0.2, 0.3, 0.25])
    slack = np.full(3, 1e-4)
    assert checks.check_solve(0, 3, 3, fd + 5e-5, fd, slack)[0]
    assert not checks.check_solve(3, 3, 3, fd, fd, slack)[0]
    assert not checks.check_solve(0, 2, 3, fd[:2], fd, slack)[0]
    assert not checks.check_solve(0, 3, 3, fd + np.array([0.0, 2e-4, 0.0]), fd, slack)[0]


# -- the command itself -------------------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only the benchmark it exits non-zero, printing no
    result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "h66-run",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
