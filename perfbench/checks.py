"""Correctness checks and summary statistics of the benchmark.

Every check compares the program's output with the reference kinematics in
``refkin`` or with a stated property of the method, and returns
``(passed, detail)``. None of them reads a stored copy of earlier output.
"""
from __future__ import annotations

import math

import numpy as np

import refkin

# MNTE <= 1e-2 (acceptance criterion 9) bounds 1 - cos(angle), so the mean
# geodesic error it admits is at most acos(0.99)
ORI_CEILING_DEG = math.degrees(math.acos(0.99))
TARGET_TOL = 1e-9
ANGVEL_TARGET_TOL = 1e-6
LIMIT_TOL = 1e-3
RMSE_AGREE_ATOL = 1e-6

_TAIL_PERMILLE = (999, 990, 950, 900, 750)


def tail_percentile(count):
    """The highest of the percentiles 99.9, 99, 95, 90 and 75 that leaves at
    least ten of ``count`` samples beyond it, or None below forty samples,
    where no percentile above the median is a tail."""
    for permille in _TAIL_PERMILLE:
        if count * (1000 - permille) >= 10_000:
            return permille / 10.0
    return None


def per_pass(passes, q):
    """Median over passes of the q-th percentile within each pass."""
    return float(np.median([np.percentile(p, q) for p in passes]))


def rmse(err):
    """Per-sample RMSE over frames of 3-vectors (T, F, 3), with the harness's
    normalisation: mean over frames of |e|^2 / 3."""
    return np.sqrt(np.mean(np.sum(err * err, axis=-1) / 3.0, axis=-1))


# -- the checks ----------------------------------------------------------------

def check_targets(ref, truth, stream):
    """Pose targets equal the reference kinematics of the ground truth."""
    pos, rot = ref.targets(truth["base_pos"], truth["base_rot"], truth["s"])
    err = max(float(np.max(np.abs(pos - stream["pos"]), initial=0.0)),
              float(np.max(np.abs(rot - stream["rot"]), initial=0.0)))
    return err <= TARGET_TOL, f"max |target - reference FK| = {err:.3e} (tol {TARGET_TOL:g})"


def check_angvel_targets(ref, truth, stream):
    """Angular-velocity targets equal the finite-difference frame velocities
    of the ground truth along its own velocity."""
    est = ref.frame_angvel(truth["base_pos"], truth["base_rot"], truth["s"], truth["nu"])
    err = float(np.max(np.abs(est - stream["ang"]), initial=0.0))
    return err <= ANGVEL_TARGET_TOL, (f"max |w target - FD reference| = {err:.3e} "
                                      f"(tol {ANGVEL_TARGET_TOL:g})")


def check_round_trip(saved, loaded):
    """Every field of every sample survives save/load bit for bit."""
    if len(saved) != len(loaded):
        return False, f"{len(loaded)} samples loaded, {len(saved)} saved"
    for k, (a, b) in enumerate(zip(saved, loaded)):
        same = a.t == b.t and all(np.array_equal(getattr(a, f), getattr(b, f))
                                  for f in ("positions", "rotations", "lin_vels", "ang_vels"))
        if not same:
            return False, f"sample {k} differs after the round trip"
    return True, f"{len(saved)} samples identical"


def check_ori_ceiling(ori_err_deg_p50):
    ok = ori_err_deg_p50 <= ORI_CEILING_DEG
    return ok, f"ori_err_deg_p50 {ori_err_deg_p50:.4f} (ceiling {ORI_CEILING_DEG:.4f})"


def check_limits(ref, s):
    """Every configuration within the model's limit rows (tol 1e-3) and at
    least one row at its bound (within 1e-3) on some step."""
    if ref.limit_rows.shape[0] == 0:
        return False, "model declares no limit rows"
    slack = np.asarray(s) @ ref.limit_rows.T - ref.limit_bounds
    worst = float(np.max(slack))
    touching = int(np.sum(np.any(slack >= -LIMIT_TOL, axis=1)))
    ok = worst <= LIMIT_TOL and touching > 0
    return ok, f"worst violation {worst:.3e}, {touching} steps with a row at its bound"


def check_converged_residual(ref, config, stream, converged, weights, stop_tol):
    """Samples reported converged have a weighted pose residual of at most
    ``stop_tol`` under the reference kinematics."""
    pos, rot = ref.targets(config["base_pos"], config["base_rot"], config["s"])
    resid = refkin.pose_residual(pos, rot, stream["pos"], stream["rot"])
    norms = np.linalg.norm(weights * resid, axis=1)[converged]
    worst = float(np.max(norms, initial=0.0))
    # the program's own kernels may round the last digit differently
    ok = worst <= stop_tol + 1e-12
    return ok, (f"{int(np.sum(converged))} converged samples, worst reference residual "
                f"{worst:.3e} (stop_tol {stop_tol:g})")


def drift_slack(orth_err, rel_angvel):
    """Largest RMSE difference that a base rotation off SO(3) can explain.

    With the polar decomposition B = U (I + E), the program maps the
    base-relative angular velocity v of a frame through B and the reference
    through U, so the two differ by U E v, and |E| <= orth_err / 2 to first
    order (orth_err = |B^T B - I|). Per sample this bounds the RMSE difference
    by orth_err / 2 times the RMSE of v over the frames; 1% covers the
    second-order term.
    """
    return 0.505 * np.asarray(orth_err) * rmse(np.asarray(rel_angvel))


def check_solve(exit_code, rows, count, csv_rmse, fd_rmse, slack):
    """The solve command exits 0, writes one row per sample, and its
    rmse_angvel column agrees with the reference finite difference within
    the finite-difference error plus ``slack`` (see ``drift_slack``)."""
    if exit_code != 0:
        return False, f"solve exited {exit_code}"
    if rows != count:
        return False, f"solve wrote {rows} rows for {count} samples"
    diff = np.abs(np.asarray(csv_rmse) - np.asarray(fd_rmse))
    excess = diff - (RMSE_AGREE_ATOL + np.asarray(slack))
    return bool(np.all(excess <= 0.0)), (f"max |rmse_angvel - FD reference| = "
                                         f"{float(np.max(diff)):.3e}, largest excess over "
                                         f"the allowed {float(np.max(excess)):.3e}")
