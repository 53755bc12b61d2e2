"""Scaling measured times to a reference machine speed.

The machine the benchmark was built on drifts in speed by up to 2x over
seconds to minutes (see README.md), which no amount of repetition inside a
30-second run averages out. ``SpeedMeter`` samples that speed throughout the
timed parts of a run: a SIGALRM timer runs ``speed_probe`` every
``INTERVAL`` seconds in the main thread (no second thread competes with the
program). The probe is fixed code that is not part of the program, of the
same kind as the program's kernels: Rodrigues rotations and 3x3 products of
small numpy arrays in a Python loop, which the drift slows down as much as
it slows the tracker. A span of wall time is reported as its length, minus
the probe time spent inside it, times ``REFERENCE_S`` divided by the mean
probe time around it.
"""
from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.25
LINKS = 96
# best-of-three probe time at the median speed of the machine the reference
# figures in README.md were measured on
REFERENCE_S = 0.85e-3

_rng = np.random.default_rng(0)
_AXES = _rng.normal(size=(LINKS, 3))
_AXES /= np.linalg.norm(_AXES, axis=1)[:, None]
_OFFSETS = _rng.normal(size=(LINKS, 3))
_ANGLES = _rng.uniform(-1.0, 1.0, size=LINKS)


def _rotation(axis, angle):
    x, y, z = axis[0], axis[1], axis[2]
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    out = np.empty((3, 3))
    out[0, 0] = c + t * x * x
    out[0, 1] = t * x * y - s * z
    out[0, 2] = t * x * z + s * y
    out[1, 0] = t * x * y + s * z
    out[1, 1] = c + t * y * y
    out[1, 2] = t * y * z - s * x
    out[2, 0] = t * x * z - s * y
    out[2, 1] = t * y * z + s * x
    out[2, 2] = c + t * z * z
    return out


def _chain():
    pos, rot = np.zeros(3), np.eye(3)
    for l in range(LINKS):
        pos = pos + np.dot(rot, _OFFSETS[l])
        rot = np.dot(rot, _rotation(_AXES[l], _ANGLES[l]))
    return pos


def speed_probe():
    """Seconds the probe chain takes now (best of three)."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _chain()
        best = min(best, perf_counter() - start)
    return best


class SpeedMeter:
    def __init__(self):
        self.at = []        # perf_counter() at the end of each probe
        self.probe = []     # probe result (s)
        self.spent = 0.0    # wall time spent probing so far (s)
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.probe.append(speed_probe())
        end = perf_counter()
        self.at.append(end)
        self.spent += end - start
        self._busy = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def factor(self, starts, ends):
        """Reference-speed factor for each span [start, end]: REFERENCE_S over
        the mean of the probes taken inside it, or over the probe
        interpolated at its middle when none was."""
        at, probe = np.asarray(self.at), np.asarray(self.probe)
        starts, ends = np.atleast_1d(starts), np.atleast_1d(ends)
        lo = np.searchsorted(at, starts)
        hi = np.searchsorted(at, ends)
        sums = np.concatenate([[0.0], np.cumsum(probe)])
        inside = hi > lo
        mean = np.interp(0.5 * (starts + ends), at, probe)
        mean[inside] = (sums[hi] - sums[lo])[inside] / (hi - lo)[inside]
        return REFERENCE_S / mean

    def median_probe(self):
        return float(np.median(self.probe))
