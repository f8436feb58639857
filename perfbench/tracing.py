"""In-memory spans around the benchmark's calls into frozenhill.

A span is recorded for every public call the benchmark makes: its name
(``<layer>.<function>``), start and end on the ``perf_counter`` clock, the
index of the enclosing span and the id of the job it belongs to.  Nothing is
recorded inside the package itself, so a span's self time is the time the
call spent anywhere below that public entry point.  With tracing off,
``call`` is a plain function call.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

#: layers whose public functions the benchmark calls inside jobs.  core and io
#: are called only by the probes, so they have per-call metrics but no job totals.
JOB_LAYERS = ("forward", "inverse", "basis", "cli")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.job: str | None = None
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        """Add n to a per-layer counter; counters are kept only while tracing."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        """Keep one derived per-job value, such as a time difference."""
        if self.enabled:
            self.samples.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> list[float]:
        """Duration of each span minus the time covered by its direct children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def _in_job(self, index: int) -> bool:
        while self.spans[index]["parent"] is not None:
            index = self.spans[index]["parent"]
        return self.spans[index]["name"] == "bench.job"

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Summed self time and call count of each layer's spans inside jobs."""
        totals = {layer: [0.0, 0] for layer in JOB_LAYERS}
        for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
            layer = s["name"].split(".", 1)[0]
            if layer in totals and self._in_job(i):
                totals[layer][0] += own
                totals[layer][1] += 1
        return {layer: (t, n) for layer, (t, n) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
