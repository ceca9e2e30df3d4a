"""Campaign-level acceptance checks.

Twelve checks, one per release target. Each prints a single PASS/FAIL
line (run pytest with -s to see them all); the heavy campaign runs are
session fixtures shared across checks, and the slow ones assert their
runtime budgets as part of the check.
"""
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import CH1, ap_node, extender_node, sta_node, traffic, two_cell

from wlansteer.model import Band, Topology, TrafficProfile, make_node_map
from wlansteer.perf import (
    SimEnv,
    build_flows,
    busy_fractions,
    channel_utilization,
    evaluate,
)
from wlansteer.protocol import run_mechanism
from wlansteer.radio import DEFAULT_MCS_TABLES, mcs_for_rssi
from wlansteer.runner import (
    EngineParams,
    RunConfig,
    build_test,
    evaluate_point,
    export_aggregates_csv,
    export_rows_csv,
    operational_range,
    run,
)
from wlansteer.scenarios import (
    AreaKind,
    circle_radius_m,
    extender_distance_m,
    fixture_topology,
    bench_fixture,
)
from wlansteer.selection import (
    Mechanism,
    SelectionConfig,
    initial_association,
    rank_candidates,
    reassociation_pass,
    weighted_rssi,
)

LA = Mechanism.LOAD_AWARE
RSSI = Mechanism.RSSI_BASED


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[accept {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"check {num}: {detail}"


# --- shared campaign runs ---------------------------------------------------

@pytest.fixture(scope="session")
def reach_survey():
    started = time.perf_counter()
    res = run(RunConfig(test_id="1.2", k=10000, workers=1))
    return res, time.perf_counter() - started


@pytest.fixture(scope="session")
def demand_sweep():
    started = time.perf_counter()
    res = run(RunConfig(test_id="1.3", workers=1))
    return res, time.perf_counter() - started


@pytest.fixture(scope="session")
def single_plan_sweep():
    started = time.perf_counter()
    res = run(RunConfig(test_id="2.1", channel_plan="single", workers=1))
    return res, time.perf_counter() - started


@pytest.fixture(scope="session")
def interference_sweep():
    res = run(RunConfig(test_id="2.4", workers=1))
    return res


def _ranges_by_curve(aggregates, criterion="no_congestion"):
    groups = defaultdict(list)
    for a in aggregates:
        groups[(a.mechanism, a.n_ext)].append(a)
    return {key: operational_range(aggs, criterion) for key, aggs in groups.items()}


# --- the twelve checks ------------------------------------------------------

def test_01_association_rates_at_extended_radius(reach_survey):
    res, elapsed = reach_survey
    rates = {(a.mechanism, a.n_ext): a.association_rate_pct for a in res.aggregates}
    expected = {0: 83.489, 2: 90.330, 4: 93.432}
    within = all(abs(rates[("rssi", n)] - want) <= 1.0 for n, want in expected.items())
    mechanisms_agree = all(rates[("rssi", n)] == rates[("loadaware", n)] for n in (2, 4))
    ok = within and mechanisms_agree and elapsed < 30.0
    _report(1, ok,
            f"association rates 0E/2E/4E = {rates[('rssi', 0)]:.3f}/"
            f"{rates[('rssi', 2)]:.3f}/{rates[('rssi', 4)]:.3f} %"
            f" (targets 83.489/90.330/93.432 +-1.0), mechanisms agree={mechanisms_agree},"
            f" {elapsed:.1f} s")


def test_02_rssi_weighting_fixed_points():
    ok = (weighted_rssi(-35.0, 20.0, -90.0) == 0.5
          and weighted_rssi(20.0, 20.0, -90.0) == 0.0
          and weighted_rssi(-90.0, 20.0, -90.0) == 1.0
          and weighted_rssi(35.0, 20.0, -90.0) == 0.0
          and weighted_rssi(-120.0, 20.0, -90.0) == 1.0)
    _report(2, ok, "midpoint 0.5 and both saturation values exact")


def test_03_score_recomposition():
    rng = np.random.default_rng(90125)
    n_scores = 0
    max_err = 0.0
    while n_scores < 1000:
        t, env = two_cell(
            n_sta=4,
            per_sta_bps=float(rng.uniform(2e5, 4e6)),
            sta_rssi_ap=float(rng.uniform(-88.0, -35.0)),
            sta_rssi_ext=float(rng.uniform(-88.0, -35.0)),
            backhaul_rssi=float(rng.uniform(-85.0, -45.0)),
        )
        t = initial_association(t, env)
        loads = busy_fractions(t, env)
        cfg = SelectionConfig(mechanism=LA, alpha=float(rng.uniform(0.0, 1.0)))
        for sta in (10, 11, 12, 13):
            ranked = rank_candidates(t, env, sta, cfg, loads)
            for s in ranked.details:
                rebuilt = (s.alpha * (s.weighted_rssi + s.access_load)
                           + (1.0 - s.alpha) * s.backhaul_load_sum)
                max_err = max(max_err, abs(rebuilt - s.score))
                n_scores += 1
    ok = max_err <= 1e-12
    _report(3, ok, f"{n_scores} randomized scores recompose, max error {max_err:.2e}")


def test_04_coverage_constants_vs_independent_calculator():
    script = Path(__file__).resolve().parents[1] / "scripts" / "derive_constants.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, check=True).stdout
    vals = {k: float(v) for k, v in
            (line.split("=", 1) for line in out.strip().splitlines())}
    d_max = vals["MAX_RANGE_2G4_M"]
    d_70 = vals["DIST_M70DBM_5G_M"]
    ok = (186.0 <= d_max <= 187.0 and 26.0 <= d_70 <= 27.0
          and abs(circle_radius_m(AreaKind.CIRCLE_DMAX) - d_max) <= 1e-9
          and abs(extender_distance_m(-70.0) - d_70) <= 1e-9)
    _report(4, ok, f"2.4 GHz reach {d_max:.3f} m in [186,187];"
                   f" -70 dBm backhaul distance {d_70:.3f} m in [26,27];"
                   f" library matches the standalone calculator")


def test_05_5ghz_low_rssi_rate_anchor():
    got = mcs_for_rssi(DEFAULT_MCS_TABLES[Band.GHZ_5], -77.0, 2)
    ok = got is not None and got[0] == 1
    _report(5, ok, f"-77 dBm on 5 GHz resolves to index {got and got[0]}"
                   f" at {got and got[1] / 1e6:g} Mbps")


def test_06_mechanism_equivalences():
    # (a) with no measurement-capable stations the steered result is the stock one
    pts = build_test("1.3")
    rssi_pt = next(p for p in pts if p.scenario.n_extenders == 2
                   and p.b_t_bps == 6.0e6 and p.selection.mechanism is RSSI)
    la_pt = next(p for p in pts if p.scenario.n_extenders == 2
                 and p.b_t_bps == 6.0e6 and p.selection.mechanism is LA)
    la_pt = replace(la_pt, selection=replace(la_pt.selection, beta_pct=0.0))
    params = EngineParams()
    shrink = lambda p: replace(p, scenario=replace(p.scenario, k=40))
    rows_r, _ = evaluate_point(0, shrink(rssi_pt), params)
    rows_l, _ = evaluate_point(0, shrink(la_pt), params)
    no_capable = [r.associations for r in rows_r] == [r.associations for r in rows_l]

    # (b) with the access weight at 1 on one shared channel, the top choice
    # is the strongest signal
    rng = np.random.default_rng(61)
    argmax_matches = True
    cfg_access_only = SelectionConfig(mechanism=LA, alpha=1.0)
    for _ in range(50):
        n_sta = 4
        nodes = [ap_node(), extender_node(1, (20.0, 0.0), access_channel=CH1)]
        nodes += [sta_node(10 + i, (10.0, float(i))) for i in range(n_sta)]
        t = Topology(nodes=make_node_map(nodes), associations={},
                     backhaul_parent={1: 0})
        overrides = {(1, 0, Band.GHZ_5): -65.0}
        for i in range(n_sta):
            overrides[(10 + i, 0, Band.GHZ_2_4)] = float(rng.uniform(-89.0, -40.0))
            overrides[(10 + i, 1, Band.GHZ_2_4)] = float(rng.uniform(-89.0, -40.0))
        env = SimEnv(traffic=traffic(float(rng.uniform(2e5, 3e6)), n_sta),
                     rssi_overrides=overrides)
        t1 = initial_association(t, env)
        loads = busy_fractions(t1, env)
        for i in range(n_sta):
            sta = 10 + i
            ranked = rank_candidates(t1, env, sta, cfg_access_only, loads)
            strongest = max((0, 1), key=lambda n: overrides[(sta, n, Band.GHZ_2_4)])
            argmax_matches &= ranked.entries[0].target == strongest

    # (c) the staged frame exchange lands exactly where the direct pass lands
    t, env = two_cell(n_sta=6, per_sta_bps=8e6, sta_rssi_ap=-50.0, sta_rssi_ext=-55.0)
    la_cfg = SelectionConfig(mechanism=LA, alpha=0.5)
    steered, _ = run_mechanism(t, env, la_cfg)
    direct, _ = reassociation_pass(initial_association(t, env), env, la_cfg)
    stock, _ = run_mechanism(t, env, SelectionConfig(mechanism=RSSI))
    composes = (steered.associations == direct.associations
                and stock.associations == initial_association(t, env).associations)

    ok = no_capable and argmax_matches and composes
    _report(6, ok, f"no-capable-stations identity={no_capable},"
                   f" access-only argmax identity={argmax_matches},"
                   f" staged/direct identity={composes}")


def test_07_bench_fixture_reproduction():
    fix = bench_fixture()

    def bench_env(overrides, total_mbps, n_sta=5):
        return SimEnv(traffic=TrafficProfile(packet_length_bits=12000,
                                             per_sta_load_bps=total_mbps * 1e6 / n_sta,
                                             total_load_bps=total_mbps * 1e6),
                      rssi_overrides=overrides)

    rssi_cases = [
        (("testbed1_only_ap_rssi", None), (1, 2, 3, 4, 5), False),
        (("testbed1_rssi", None), (1, 2, 3, 4, 5), True),
        (("testbed2_rssi", None), (1, 2, 3, 6, 7), True),
    ]
    stock_exact = True
    for key, stas, with_ext in rssi_cases:
        t, ov = fixture_topology(stas=stas, with_extender=with_ext)
        t1 = initial_association(t, bench_env(ov, 5.0))
        stock_exact &= dict(sorted(t1.associations.items())) == fix.expected_associations[key]

    extender_used = True
    diffs = []
    for b_t in (5.0, 37.5, 50.0, 75.0, 100.0):
        t, ov = fixture_topology(stas=(1, 2, 3, 6, 7), with_extender=True)
        env = bench_env(ov, b_t)
        cfg = SelectionConfig(mechanism=LA, alpha=0.5)
        t2, _ = reassociation_pass(initial_association(t, env), env, cfg,
                                   include_self_load=False)
        got = dict(sorted(t2.associations.items()))
        extender_used &= any(parent == 1 for parent in got.values())
        want = fix.expected_associations[("testbed2_load_aware", b_t)]
        if got != want:
            diffs.append(f"B_T={b_t:g}M got {got} want {want}")
    for line in diffs:
        print(f"[accept 07]   steered-column diff: {line}")
    ok = stock_exact and extender_used
    _report(7, ok, f"stock columns exact={stock_exact}, extender used at every"
                   f" demand={extender_used}, steered columns differing: {len(diffs)}/5")


def test_08_operational_range_ordering(demand_sweep):
    res, elapsed = demand_sweep
    ranges = _ranges_by_curve(res.aggregates)
    no_ext = ranges[("rssi", 0)]
    r2, r4 = ranges[("rssi", 2)], ranges[("rssi", 4)]
    l2, l4 = ranges[("loadaware", 2)], ranges[("loadaware", 4)]
    stock_between = [r for r in (r2, r4) if no_ext < r < l2 and r < l4]
    ratio_2e = l2 / r2
    ok = bool(stock_between) and ratio_2e >= 1.35 and elapsed < 300.0
    _report(8, ok,
            f"congestion-free ranges Mbps: noExt={no_ext / 1e6:g}"
            f" stock2E={r2 / 1e6:g} stock4E={r4 / 1e6:g}"
            f" steered2E={l2 / 1e6:g} steered4E={l4 / 1e6:g};"
            f" 2E gain {ratio_2e:.3f}x (>=1.35), 4E gain {l4 / r4:.3f}x;"
            f" {elapsed:.0f} s")


def test_09_single_channel_second_extender(single_plan_sweep):
    res, elapsed = single_plan_sweep
    ranges = _ranges_by_curve(res.aggregates)
    changes = {}
    for mech in ("rssi", "loadaware"):
        one, two = ranges[(mech, 1)], ranges[(mech, 2)]
        changes[mech] = abs(two - one) / one
    ok = all(c < 0.10 for c in changes.values())
    _report(9, ok,
            f"second extender on a shared channel moves the range by"
            f" {changes['rssi'] * 100:.2f}% (stock) /"
            f" {changes['loadaware'] * 100:.2f}% (steered), both < 10%;"
            f" {elapsed:.0f} s")


def test_10_performance_model_properties():
    rng = np.random.default_rng(10101)

    # conservation when nothing is congested
    conserved = True
    uncongested = 0
    for _ in range(300):
        t, env = two_cell(
            n_sta=int(rng.integers(2, 7)),
            per_sta_bps=float(rng.uniform(2e5, 1.5e6)),
            sta_rssi_ap=float(rng.uniform(-80.0, -40.0)),
            sta_rssi_ext=float(rng.uniform(-80.0, -40.0)),
            backhaul_rssi=float(rng.uniform(-75.0, -45.0)),
        )
        t = initial_association(t, env)
        rep = evaluate(t, env)
        if rep.congested:
            continue
        uncongested += 1
        for sp in rep.per_sta.values():
            conserved &= sp.delivered_bps == env.traffic.per_sta_load_bps

    # single-collision-domain shares against an exact rational oracle
    rate_for_rssi = {-57.0: 144_400_000, -62.0: 117_000_000, -67.0: 104_000_000,
                     -72.0: 78_000_000, -90.0: 13_000_000}
    rssi_levels = sorted(rate_for_rssi)
    overhead = Fraction(1775, 10 ** 7)  # 177.5 us fixed DCF cost at 2.4 GHz
    max_u_err = 0.0
    max_share_err = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        levels = [rssi_levels[int(j)] for j in rng.integers(0, len(rssi_levels), n)]
        load = int(rng.integers(1, 80)) * 100_000
        nodes = [ap_node()] + [sta_node(10 + i, (5.0, float(i))) for i in range(n)]
        t = Topology(nodes=make_node_map(nodes),
                     associations={10 + i: 0 for i in range(n)},
                     backhaul_parent={})
        ov = {(10 + i, 0, Band.GHZ_2_4): levels[i] for i in range(n)}
        env = SimEnv(traffic=traffic(float(load), n), rssi_overrides=ov)
        lam = Fraction(load, 12000)
        u_exact = sum(lam * (overhead + Fraction(12000, rate_for_rssi[lv]))
                      for lv in levels)
        u_pkg = channel_utilization(build_flows(t, env), env)[CH1]
        max_u_err = max(max_u_err, abs(u_pkg - float(u_exact)))
        share_exact = float(min(Fraction(1), 1 / u_exact))
        rep = evaluate(t, env)
        for sp in rep.per_sta.values():
            max_share_err = max(max_share_err,
                                abs(sp.delivered_bps / load - share_exact))

    # busy-fraction bounds and monotone response to scaling every load up
    violations = 0
    for _ in range(1000):
        t, env = two_cell(
            n_sta=int(rng.integers(1, 6)),
            per_sta_bps=float(rng.uniform(1e5, 6e6)),
            sta_rssi_ap=float(rng.uniform(-85.0, -40.0)),
            sta_rssi_ext=float(rng.uniform(-85.0, -40.0)),
            backhaul_rssi=float(rng.uniform(-80.0, -45.0)),
        )
        t = initial_association(t, env)
        busy = busy_fractions(t, env)
        if not all(0.0 <= b <= 1.0 for b in busy.values()):
            violations += 1
            continue
        gamma = float(rng.uniform(1.2, 4.0))
        env_up = replace(env, traffic=replace(
            env.traffic,
            per_sta_load_bps=env.traffic.per_sta_load_bps * gamma,
            total_load_bps=env.traffic.total_load_bps * gamma))
        u_lo = channel_utilization(build_flows(t, env), env)
        u_hi = channel_utilization(build_flows(t, env_up), env_up)
        if any(u_hi[ch] < u_lo[ch] - 1e-12 for ch in u_lo):
            violations += 1
            continue
        rep_lo, rep_hi = evaluate(t, env), evaluate(t, env_up)
        for sid in rep_lo.per_sta:
            f_lo = rep_lo.per_sta[sid].delivered_bps / env.traffic.per_sta_load_bps
            f_hi = rep_hi.per_sta[sid].delivered_bps / env_up.traffic.per_sta_load_bps
            if f_hi > f_lo + 1e-12:
                violations += 1
                break

    ok = (conserved and uncongested >= 150
          and max_u_err <= 1e-9 and max_share_err <= 1e-9 and violations == 0)
    _report(10, ok,
            f"conservation exact on {uncongested} uncongested nets;"
            f" oracle errors u={max_u_err:.2e} share={max_share_err:.2e} (<=1e-9);"
            f" 1000 scaling instances, {violations} violations")


def test_11_worker_count_determinism(tmp_path):
    res_serial = run(RunConfig(test_id="1.2", k=5, workers=1))
    res_pool = run(RunConfig(test_id="1.2", k=5, workers=8))
    paths = {}
    for name, res in (("serial", res_serial), ("pool", res_pool)):
        rows = tmp_path / f"{name}_rows.csv"
        aggs = tmp_path / f"{name}_aggs.csv"
        export_rows_csv(res.rows, str(rows))
        export_aggregates_csv(res.aggregates, str(aggs))
        paths[name] = (rows.read_bytes(), aggs.read_bytes())
    ok = paths["serial"] == paths["pool"]
    _report(11, ok, f"1 worker vs 8 workers: rows+aggregates CSV byte-identical={ok}")


def test_12_interference_driven_reselection(interference_sweep):
    res = interference_sweep
    curves = defaultdict(dict)
    for r in res.rows:
        curves[(r.mechanism, r.alpha, r.n_ext)][r.b_ext_bps] = (
            r.avg_delay_ms, r.throughput_pct, tuple(sorted(r.associations.items())))
    baseline = curves[("rssi", 0.5, 1)]
    sweep = sorted(baseline)
    alphas = sorted(a for (m, a, n) in curves if m == "loadaware")
    throughput_never_below = True
    delay_dominant = []
    excesses = {}
    flips = {}
    for alpha in alphas:
        curve = curves[("loadaware", alpha, 1)]
        throughput_never_below &= all(
            curve[b][1] >= baseline[b][1] for b in sweep)
        worse = [(b, curve[b][0] - baseline[b][0]) for b in sweep
                 if curve[b][0] > baseline[b][0]]
        excesses[alpha] = worse
        if not worse:
            delay_dominant.append(alpha)
        flips[alpha] = sum(1 for a, b in zip(sweep, sweep[1:])
                           if curve[a][2] != curve[b][2])
    ok = (throughput_never_below and bool(delay_dominant)
          and all(n >= 1 for n in flips.values()))
    excess_note = "; ".join(
        f"a={a:g} above baseline at {len(w)}/{len(sweep)} points"
        f" (max +{max(d for _, d in w):.3f} ms)"
        for a, w in excesses.items() if w) or "none"
    _report(12, ok,
            f"throughput never below stock={throughput_never_below};"
            f" delay-dominant weight rows {delay_dominant};"
            f" parent flips per row {dict(sorted(flips.items()))};"
            f" residual delay excesses: {excess_note}")
