"""The benchmark harness's traced walk, run in-process against the runner.

``perfbench/walk.py`` repeats ``evaluate_point`` call by call through the
single-topology API, so a change that removes something it reads shows here.
"""
import os
from collections import Counter
from dataclasses import replace

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
