"""In-memory span recorder for the traced benchmark run.

``Tracer.patch`` prepares a wrapper for a function at the name its callers
look it up (a class attribute or a module global); ``install`` puts the
wrappers there and ``restore`` puts every original back, so untraced calls
run the unmodified program. A wrapper records one span per call: name,
start, end, parent span, the benchmark phase and pass, and the sample index
(the request the span belongs to). Spans stay in memory until ``write`` is
called at the end of the run.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, phase, pass, request, note]
        self._stack = []
        self._patched = []
        self.phase = "setup"
        self.pass_no = 0
        self.request = -1   # index of the sample over all streams of a pass
        self.offset = 0     # index of the current stream's first sample

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped in a span recorder. ``note(args, kwargs,
        result)`` may attach a small value computed from the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase,
                    tracer.pass_no, tracer.request, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if note is not None:
                span[7] = note(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, note=None):
        """Prepare a recorder for ``owner.attr``; ``install`` puts it in place."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, self.wrap(name, original, note)))

    def install(self):
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, _ in self._patched:
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- analysis ------------------------------------------------------------

    def durations(self):
        """Total and self time of every span, in seconds."""
        total = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, dur in zip(self.spans, total):
            if s[3] >= 0:
                child[s[3]] += dur
        return total, total - child

    def select(self, name, phase=None, pass_no=None):
        """Indices of the spans called ``name``, optionally in one phase and
        pass."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (phase is None or s[4] == phase)
                and (pass_no is None or s[5] == pass_no)]
