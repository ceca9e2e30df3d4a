"""The benchmark harness, run in-process against the runner.

``perfbench/walk.py`` repeats ``evaluate_point`` call by call through the
single-topology API, and ``perfbench/measure.py`` checks what ``run`` writes
against the pinned ``perfbench/golden`` digests, so a change that removes
something the harness reads, or changes an output it pins, shows here.
"""
import os
from collections import Counter
from dataclasses import replace

import pytest

from wlansteer.runner import EngineParams, Mechanism, build_test, evaluate_point, export_rows_csv

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_walk_rows_match_evaluate_point(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from spans import Tracer
    from walk import walk

    point = next(p for p in build_test("1.3")
                 if p.selection.mechanism is Mechanism.LOAD_AWARE
                 and p.scenario.n_extenders == 4 and p.b_t_bps == 18.0e6)
    point = replace(point, scenario=replace(point.scenario, k=1))
    params = EngineParams()
    events, probes = tmp_path / "events", tmp_path / "probes"
    events.mkdir()
    probes.mkdir()
    rows, aggs = walk([point], params, Tracer(), Counter(), str(events), str(probes))
    want_rows, want_agg = evaluate_point(0, point, params)
    export_rows_csv(rows, str(tmp_path / "walk.csv"))
    export_rows_csv(want_rows, str(tmp_path / "runner.csv"))
    assert (tmp_path / "walk.csv").read_bytes() == (tmp_path / "runner.csv").read_bytes()
    assert aggs == [want_agg]
    assert len(os.listdir(events)) == 1


@pytest.mark.parametrize("workload", ["stock-circle", "reach-pool"])
def test_the_gated_workloads_match_their_pinned_digests(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(PERFBENCH)
    from digests import load_golden
    from measure import Context, untraced
    from workloads import WORKLOADS, seed_key, seed_value

    seed = seed_value(0)
    ctx = Context(WORKLOADS[workload], seed, seed_key(seed), load_golden(workload), str(tmp_path))
    metrics = untraced(ctx, 0.0, lambda: None)
    # a warm-up run and one timed run, every sweep point of each checked
    assert ctx.tally.attempted == 2 * ctx.golden["n_points"]
    assert ctx.tally.failed == 0, ctx.tally.notes
    assert metrics["deployments_per_s"][0] > 0
