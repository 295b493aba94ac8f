"""Spans recorded around calls into the program during a traced pass.

Each span holds its name, instance, start and end (perf_counter seconds),
the id of the span that encloses it and the run id. With memory=True, a span
that names its table's bytes (``table_bytes``) also holds the tracemalloc
peak reached while it was open, as bytes allocated above the memory in use
at its start. tracemalloc runs only inside those spans, because it slows
Python-heavy code several times over; span times still come from a pass
with memory=False. Spans and counts stay in memory and are handed back when
the pass ends.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self, run_id: str, memory: bool):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, instance: str | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "run_id": self.run_id,
            "name": name,
            "instance": instance,
            **attrs,
        }
        self.spans.append(rec)
        # Only allocations made after start() are traced, so the traced
        # peak is the peak above the memory in use at the start.
        peak = self.memory and "table_bytes" in attrs
        if peak:
            tracemalloc.start()
        self._open.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()
            if peak:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def count(self, name: str, value, instance: str | None = None) -> None:
        self.counts.append({"name": name, "instance": instance, "value": value})
