"""Tests of the benchmark's own arithmetic and output checking.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from digests import bundle_digests, compare, events_name  # noqa: E402
from spans import Span, Tracer, highest_percentile, nearest_rank, self_times  # noqa: E402


# --- percentile rule ---------------------------------------------------------


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == (50, 50)
    assert nearest_rank(values, 90) == (90, 10)
    assert nearest_rank(values, 95) == (95, 5)


def test_highest_percentile_keeps_ten_samples_beyond():
    assert highest_percentile(range(1, 101)) == (90.0, 90)
    assert highest_percentile(range(1, 1001)) == (99.0, 990)
    assert highest_percentile(range(1, 10001)) == (99.9, 9990)


def test_highest_percentile_is_order_free():
    values = list(range(1, 101))
    assert highest_percentile(values[::-1]) == highest_percentile(values)


def test_highest_percentile_needs_ten_beyond_the_median():
    assert highest_percentile(range(20)) == (50.0, 9)
    assert highest_percentile(range(19)) is None
    assert highest_percentile([]) is None


# --- self time ----------------------------------------------------------------


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, None)


def test_self_time_subtracts_children():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 30, 0),
        _span("b", 40, 70, 0),
        _span("b.inner", 45, 55, 2),
    ]
    assert self_times(spans) == [50, 20, 20, 10]


def test_self_time_merges_overlaps_and_clips_to_parent():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 30, 0),
        _span("b", 20, 50, 0),  # overlaps a: [10, 50] is covered once
        _span("c", 90, 120, 0),  # runs past the parent: only [90, 100] counts
    ]
    assert self_times(spans) == [100 - 40 - 10, 20, 30, 30]


def test_stage_spans_plus_self_equal_the_wall():
    spans = [
        _span("runner.point", 0, 1000),
        _span("scenarios.build_topology", 5, 25, 0),
        _span("runner.deployment", 30, 500, 0),
        _span("perf.evaluate", 100, 400, 2),
        _span("runner.deployment", 510, 990, 0),
        _span("perf.evaluate", 600, 700, 4),
    ]
    selfs = self_times(spans)
    stages = sum(s.duration_ns for s in spans if s.name not in ("runner.point", "runner.deployment"))
    runner_self = selfs[0] + selfs[2] + selfs[4]
    assert stages + runner_self == spans[0].duration_ns


def test_tracer_records_nesting_and_deployment():
    tracer = Tracer()
    with tracer.span("outer", (0, None)):
        with tracer.span("inner", (0, 3)):
            pass
    with tracer.span("next"):
        pass
    outer, inner, nxt = tracer.spans
    assert (outer.parent, inner.parent, nxt.parent) == (None, 0, None)
    assert inner.dep == (0, 3)
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns <= nxt.start_ns


# --- digests ------------------------------------------------------------------


def _bundle(path, events):
    """Two points of two rows each, with one ndjson trace per deployment."""
    os.makedirs(path)
    with open(os.path.join(path, "rows.csv"), "w") as fh:
        fh.write("test_id,deployment_index,throughput_pct\n")
        fh.write("9.9,0,100.0\n9.9,1,98.5\n9.9,0,71.25\n9.9,1,64.0\n")
    with open(os.path.join(path, "aggregates.csv"), "w") as fh:
        fh.write("test_id,k,mean_throughput_pct\n9.9,2,99.25\n9.9,2,67.625\n")
    with open(os.path.join(path, "results.json"), "w") as fh:
        fh.write(
            '{"aggregates":[{"k":2,"m":99.25},{"k":2,"m":67.625}],'
            '"rows":[{"d":0,"t":100.0},{"d":1,"t":98.5},{"d":0,"t":71.25},{"d":1,"t":64.0}]}\n'
        )
    if events:
        os.makedirs(os.path.join(path, "events"))
        for i in range(2):
            for dep in range(2):
                with open(os.path.join(path, "events", events_name("9.9", i, dep)), "w") as fh:
                    fh.write(f'{{"step": 0, "point": {i}, "dep": {dep}}}\n')


def _flip_byte(path, offset):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[offset] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def _digests(path, events=True):
    return bundle_digests(path, "9.9", 2, 2, events)


def test_identical_bundles_match(tmp_path):
    _bundle(tmp_path / "a", True)
    check = compare(_digests(tmp_path / "a"), _digests(tmp_path / "a"))
    assert check.ok and check.attempted == 2


def test_one_byte_in_a_row_fails_only_its_point(tmp_path):
    _bundle(tmp_path / "a", True)
    pinned = _digests(tmp_path / "a")
    rows = tmp_path / "a" / "rows.csv"
    second_point = rows.read_bytes().index(b"71.25")
    _flip_byte(rows, second_point)
    check = compare(_digests(tmp_path / "a"), pinned)
    assert check.failed == (1,) and check.run_level == ()


def test_one_byte_in_an_aggregate_line_fails_its_point(tmp_path):
    _bundle(tmp_path / "a", True)
    pinned = _digests(tmp_path / "a")
    aggs = tmp_path / "a" / "aggregates.csv"
    _flip_byte(aggs, aggs.read_bytes().index(b"99.25"))
    assert compare(_digests(tmp_path / "a"), pinned).failed == (0,)


def test_one_byte_in_a_json_record_fails_its_point(tmp_path):
    _bundle(tmp_path / "a", True)
    pinned = _digests(tmp_path / "a")
    results = tmp_path / "a" / "results.json"
    _flip_byte(results, results.read_bytes().index(b"64.0"))
    assert compare(_digests(tmp_path / "a"), pinned).failed == (1,)


def test_one_byte_in_a_trace_fails_its_point(tmp_path):
    _bundle(tmp_path / "a", True)
    pinned = _digests(tmp_path / "a")
    _flip_byte(tmp_path / "a" / "events" / events_name("9.9", 1, 1), 3)
    assert compare(_digests(tmp_path / "a"), pinned).failed == (1,)


def test_run_wide_damage_fails_every_point(tmp_path):
    _bundle(tmp_path / "a", True)
    pinned = _digests(tmp_path / "a")
    with open(tmp_path / "a" / "results.json", "a") as fh:
        fh.write(" ")  # outside every record
    check = compare(_digests(tmp_path / "a"), pinned)
    assert check.failed == (0, 1) and check.run_level == ("results_json",)

    _bundle(tmp_path / "b", True)
    _flip_byte(tmp_path / "b" / "rows.csv", 0)
    check = compare(_digests(tmp_path / "b"), pinned)
    assert check.failed == (0, 1) and check.run_level == ("rows_header",)


def test_extra_or_missing_output_fails_every_point(tmp_path):
    _bundle(tmp_path / "a", True)
    pinned = _digests(tmp_path / "a")
    with open(tmp_path / "a" / "rows.csv", "a") as fh:
        fh.write("9.9,2,50.0\n")
    assert compare(_digests(tmp_path / "a"), pinned).failed == (0, 1)

    _bundle(tmp_path / "b", True)
    os.remove(tmp_path / "b" / "events" / events_name("9.9", 0, 0))
    check = compare(_digests(tmp_path / "b"), pinned)
    assert check.failed == (0, 1) and "extra event_files" in check.run_level
