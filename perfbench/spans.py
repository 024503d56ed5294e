"""In-memory span recorder for the traced run and its per-layer reduction.

A span is ``(frame, name, parent, start_ns, end_ns)``; ``parent`` is the
index of the enclosing span or -1.  A layer's self time is its spans'
duration minus the part covered by their direct children.  Counters are
summed per layer at the same call sites.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# Layers the traced run reports, with the end-to-end metrics each should move.
LAYERS = (
    "waveform.synth",
    "channel.propagate",
    "channel.noise",
    "channel.gate",
    "ambiguity.surface",
    "ambiguity.normalize",
    "estimator.detect",
    "ambiguity.extend",
    "estimator.refine_sinc2d",
    "estimator.refine_quadratic",
)
ROOTS = ("bench.run_trial", "estimator.estimate")
COUNTERS = (
    ("ambiguity.surface.lags", "count"),
    ("ambiguity.surface.bytes", "bytes"),
    ("ambiguity.normalize.bytes", "bytes"),
    ("estimator.detect.hits", "count"),
    ("estimator.detect.kept", "count"),
    ("estimator.refine_sinc2d.calls", "count"),
    ("estimator.refine_sinc2d.not_converged", "count"),
    ("estimator.refine_quadratic.calls", "count"),
    ("estimator.refine_quadratic.degenerate", "count"),
    ("ambiguity.extend.lags", "count"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.frame = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        parent = self._stack[-2] if len(self._stack) > 1 else -1
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self.frame, name, parent, start, end)

    def count_surface(self, raw, normalized, detections) -> None:
        """Bytes are computed from the array shapes, not measured."""
        self.counts["ambiguity.surface.lags"] += raw.values.shape[0]
        self.counts["ambiguity.surface.bytes"] += raw.values.nbytes
        self.counts["ambiguity.normalize.bytes"] += normalized.values.nbytes
        self.counts["estimator.detect.kept"] += len(detections)

    def count_hits(self, surface, theta: float) -> None:
        """Cells over threshold; called after the frame's root span has closed."""
        self.counts["estimator.detect.hits"] += int(np.count_nonzero(np.abs(surface.values) > theta))

    def count_extend(self, before, after) -> None:
        self.counts["ambiguity.extend.lags"] += after.values.shape[0] - before.values.shape[0]

    def count_refine(self, method: str, est) -> None:
        self.counts[f"estimator.refine_{method}.calls"] += 1
        if method == "sinc2d":
            self.counts["estimator.refine_sinc2d.not_converged"] += not est.converged
        else:
            self.counts["estimator.refine_quadratic.degenerate"] += est.degenerate

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        out: dict[str, int] = defaultdict(int)
        for _, name, parent, start, end in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][1]] -= end - start
        return out

    def root_ns(self, root: str) -> list[int]:
        return [end - start for _, name, _, start, end in self.spans if name == root]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["frame", "name", "parent", "start_ns", "end_ns"], "spans": self.spans}, fh)
