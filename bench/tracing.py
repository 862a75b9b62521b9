"""
Spans around the calls the benchmark makes into each toepsys layer.

A span records name, layer, workload, problem id, start, end and parent.
Spans stay in memory and are written out once, when the run ends.  With
tracing off, ``call`` runs the function and records nothing.
"""

import contextlib
import json
import time


class Tracer:
    def __init__(self, workload, enabled):
        self.workload = workload
        self.enabled = enabled
        self.spans = []
        self._problem = None
        self._parent = None

    def call(self, layer, key, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); when enabled, record a span keyed by the
        per-layer metric name ``key``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append({
                "id": len(self.spans), "name": key, "layer": layer,
                "workload": self.workload, "problem": self._problem,
                "start": start, "end": time.perf_counter(),
                "parent": self._parent})

    @contextlib.contextmanager
    def problem(self, problem_id):
        """A span for one whole problem, parent of the layer spans recorded
        inside it."""
        if not self.enabled:
            yield
            return
        span = {"id": len(self.spans), "name": "problem", "layer": "bench",
                "workload": self.workload, "problem": problem_id,
                "start": time.perf_counter(), "end": None, "parent": None}
        self.spans.append(span)
        self._problem, self._parent = problem_id, span["id"]
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._problem = self._parent = None

    def durations(self, key):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == key]

    def layer_time(self, layer):
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["layer"] == layer and s["parent"] is not None)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

