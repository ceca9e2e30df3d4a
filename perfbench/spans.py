"""In-memory spans, self-time arithmetic and the percentile rule.

A span records a name, its start and end in nanoseconds, the index of the
span that was open when it started (its parent) and the deployment it belongs
to. Spans stay in a list until the run ends, when ``write_ndjson`` saves them.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    dep: Optional[tuple]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Span recorder; ``with tracer.span(name, dep):`` times the block.

    Open spans are kept in flat lists of ints and strings, which the garbage
    collector does not scan, so a long trace does not slow the code it times.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[Optional[int]] = []
        self._deps: list[Optional[tuple]] = []
        self._stack: list[int] = []

    def span(self, name: str, dep: Optional[tuple] = None) -> "Tracer":
        """Open a span now; it closes when the ``with`` block exits."""
        self._parents.append(self._stack[-1] if self._stack else None)
        self._stack.append(len(self._names))
        self._names.append(name)
        self._deps.append(dep)
        self._ends.append(0)
        self._starts.append(time.perf_counter_ns())
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self._ends[self._stack.pop()] = time.perf_counter_ns()

    @property
    def spans(self) -> list[Span]:
        return [
            Span(*fields)
            for fields in zip(self._names, self._starts, self._ends, self._parents, self._deps)
        ]


def write_ndjson(spans: Sequence[Span], path: str) -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps(dict(asdict(s), id=i)) + "\n")


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover, in ns.

    Children are clipped to the parent's interval and merged where they
    overlap, so time covered twice is subtracted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration_ns - covered)
    return out


def nearest_rank(sorted_values: Sequence[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    n = len(sorted_values)
    # ceil(pct/100 * n) in integers: 99.9/100 * 10000 is not exact in floats
    rank = max(1, -(-round(pct * 1000) * n // 100_000))
    return sorted_values[rank - 1], n - rank


def highest_percentile(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """(pct, value) for the highest ladder percentile with MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    ordered = sorted(values)
    best = None
    for pct in PERCENTILE_LADDER:
        if not ordered:
            break
        value, beyond = nearest_rank(ordered, pct)
        if beyond < MIN_BEYOND:
            break
        best = (pct, value)
    return best
