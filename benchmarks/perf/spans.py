"""The harness's own span list: recorded around each call it makes.

Nothing under `src/` is instrumented for the benchmark.  A span is
`(name, start, end, parent, query)`; spans of one request share its
query id; a layer's self time is its span minus the part of that
interval its child spans cover (children may overlap each other).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    query: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory spans; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, name, start, end, parent=None, query=None) -> int:
        """Record one finished span; returns its index (a child's `parent`)."""
        self.spans.append(Span(name, start, end, parent, query))
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        """Per span, its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                lo, hi = max(span.start, parent.start), min(span.end, parent.end)
                if hi > lo:
                    children[span.parent].append((lo, hi))
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for lo, hi in sorted(children[index]):
                if hi > reach:
                    covered += hi - max(lo, reach)
                    reach = hi
            out.append(span.duration - covered)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
