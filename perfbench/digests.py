"""Per-sweep-point digests of a run's output bundle, and their comparison.

A bundle is what ``runner.run`` writes: ``rows.csv``, ``aggregates.csv``,
``results.json`` and, with events on, ``events/*.ndjson``. Rows are in grid
order, ``k`` per point, so point ``i`` owns ``rows.csv`` lines
``[i*k, (i+1)*k)`` after the header, ``aggregates.csv`` line ``i``, the same
records of the ``rows`` and ``aggregates`` lists in ``results.json`` and the
ndjson files named ``t<test>_p<i>_d<dep>.ndjson``.

A point's digest is ``rows:aggregate:json[:events]``, each part the first
DIGEST_CHARS hex digits of a sha256 over the exact bytes. The CSV headers,
the record counts and the set of ndjson files are checked per run: if one of
them is wrong, every point of the run counts as failed, and so does a
``results.json`` that differs only outside its records.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

DIGEST_CHARS = 16
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _h(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


def _lines(path: str) -> list[bytes]:
    """The file's lines with their terminators; empty if it is missing."""
    try:
        with open(path, "rb") as fh:
            return fh.readlines()
    except FileNotFoundError:
        return []


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
    except FileNotFoundError:
        return "missing"
    return h.hexdigest()[:DIGEST_CHARS]


def _json_records(text: str, key: str) -> list[str]:
    """Exact text of each element of the top-level list ``key`` of a compact
    JSON document, decoding one element at a time."""
    decoder = json.JSONDecoder()
    i = text.index(f'"{key}":[') + len(key) + 4
    out = []
    while text[i] != "]":
        _, end = decoder.raw_decode(text, i)
        out.append(text[i:end])
        i = end + (text[end] == ",")
    return out


def events_name(test_id: str, point_index: int, dep: int) -> str:
    """File name ``runner.evaluate_point`` gives a deployment's frame trace."""
    return f"t{test_id}_p{point_index:04d}_d{dep:05d}.ndjson"


def bundle_digests(bundle: str, test_id: str, n_points: int, k: int, events: bool) -> dict:
    """Digests of one output bundle laid out as ``n_points`` points of ``k`` rows."""
    rows = _lines(os.path.join(bundle, "rows.csv"))
    aggs = _lines(os.path.join(bundle, "aggregates.csv"))
    try:
        with open(os.path.join(bundle, "results.json")) as fh:
            text = fh.read()
        json_rows = _json_records(text, "rows")
        json_aggs = _json_records(text, "aggregates")
    except (OSError, ValueError, IndexError):  # missing, or not the compact layout
        json_rows, json_aggs = [], []
    points = []
    for i in range(n_points):
        parts = [
            _h(b"".join(rows[1 + i * k : 1 + (i + 1) * k])),
            _h(aggs[1 + i] if 1 + i < len(aggs) else b""),
            _h("\n".join(json_rows[i * k : (i + 1) * k] + json_aggs[i : i + 1]).encode()),
        ]
        if events:
            h = hashlib.sha256()
            for dep in range(k):
                name = events_name(test_id, i, dep)
                h.update(name.encode() + b"\n")
                h.update(_file_digest(os.path.join(bundle, "events", name)).encode())
            parts.append(h.hexdigest()[:DIGEST_CHARS])
        points.append(":".join(parts))
    n_events = 0
    if events and os.path.isdir(os.path.join(bundle, "events")):
        n_events = len(os.listdir(os.path.join(bundle, "events")))
    return {
        "rows_header": _h(rows[0] if rows else b""),
        "agg_header": _h(aggs[0] if aggs else b""),
        "results_json": _file_digest(os.path.join(bundle, "results.json")),
        "extra": {
            "rows_lines": len(rows) - 1 - n_points * k,
            "agg_lines": len(aggs) - 1 - n_points,
            "json_rows": len(json_rows) - n_points * k,
            "json_aggregates": len(json_aggs) - n_points,
            "event_files": n_events - (n_points * k if events else 0),
        },
        "points": points,
    }


@dataclass(frozen=True)
class Check:
    """Outcome of comparing one bundle with its pinned digests."""

    attempted: int
    failed: tuple[int, ...]  # indices of the points that differ
    run_level: tuple[str, ...]  # run-wide parts that differ

    @property
    def ok(self) -> bool:
        return not self.failed


def compare(got: dict, pinned: dict) -> Check:
    """Failed points of ``got`` against ``pinned``; a run-wide mismatch fails all."""
    n = len(pinned["points"])
    run_level = tuple(
        key for key in ("rows_header", "agg_header") if got[key] != pinned[key]
    ) + tuple(f"extra {key}" for key, extra in got["extra"].items() if extra)
    if len(got["points"]) != n:
        run_level += ("point count",)
    if not run_level:
        failed = tuple(i for i in range(n) if got["points"][i] != pinned["points"][i])
        if failed:
            return Check(n, failed, ())
        if got["results_json"] == pinned["results_json"]:
            return Check(n, (), ())
        run_level = ("results_json",)
    return Check(n, tuple(range(n)), run_level)


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_golden(workload: str) -> dict:
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def check_bundle(bundle: str, golden: dict, seed: str) -> Check:
    """Compare a bundle with the pinned digests of ``golden`` for ``seed``."""
    got = bundle_digests(
        bundle, golden["test_id"], golden["n_points"], golden["k"], golden["events"]
    )
    return compare(got, golden["seeds"][seed])
