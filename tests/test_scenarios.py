"""Scenario generators: layouts, channel plans, seeded deployment draws."""
import hashlib
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlansteer import scenarios
from wlansteer.model import DEFAULT_BAND_MHZ, Band, NodeKind, validate_topology
from wlansteer.radio import DEFAULT_PROPAGATION, PropagationParams, rssi_dbm
from wlansteer.scenarios import (
    TEST_IDS,
    AreaKind,
    BACKHAUL_CHANNEL,
    FIXED_DEPLOYMENT_SEED,
    HOME_HEIGHT_M,
    HOME_WIDTH_M,
    ScenarioSpec,
    add_stations,
    build_test,
    build_topology,
    capable_count,
    capable_set_for,
    circle_radius_m,
    deployment_draw,
    draw_key,
    draw_slice,
    extender_distance_m,
    fixed_home_positions,
    fixture_topology,
    bench_fixture,
    topology_key,
)

D_EXT_70 = 26.303851985165995  # 5 GHz inversion of a -70 dBm target
D_MAX_24 = 186.5655517978639


# --- placement geometry -----------------------------------------------------

def _circle(n_ext, plan="multi"):
    return ScenarioSpec(area=AreaKind.CIRCLE_DMAX, n_extenders=n_ext, channel_plan=plan)


def _home(n_ext, plan="multi"):
    return ScenarioSpec(area=AreaKind.HOME_RECT, n_extenders=n_ext, channel_plan=plan)


def test_extender_distance_reference():
    assert extender_distance_m(-70.0) == pytest.approx(D_EXT_70, abs=1e-9)


def test_circle_radii():
    assert circle_radius_m(AreaKind.CIRCLE_DMAX) == pytest.approx(D_MAX_24, abs=1e-9)
    assert circle_radius_m(AreaKind.CIRCLE_1P2_DMAX) == pytest.approx(1.2 * D_MAX_24, abs=1e-9)


def test_circle_extenders_sit_at_the_target_backhaul_rssi():
    for target in (-50.0, -70.0, -90.0):
        t = build_topology(_circle(2), target)
        ap = t.nodes[0]
        for ext_id in t.extenders():
            got = rssi_dbm(ap.radios[1], ap.position, t.nodes[ext_id].position,
                           DEFAULT_PROPAGATION, DEFAULT_BAND_MHZ[Band.GHZ_5])
            assert got == pytest.approx(target, abs=0.01)


def test_circle_two_extenders_are_an_opposite_pair():
    t = build_topology(_circle(2))
    assert t.nodes[1].position == (D_EXT_70, 0.0)
    assert t.nodes[2].position == (-D_EXT_70, 0.0)
    assert t.backhaul_parent == {1: 0, 2: 0}


def test_circle_four_extenders_form_a_cross():
    t = build_topology(_circle(4))
    pos = {i: t.nodes[i].position for i in t.extenders()}
    assert pos == {1: (D_EXT_70, 0.0), 2: (-D_EXT_70, 0.0),
                   3: (0.0, D_EXT_70), 4: (0.0, -D_EXT_70)}
    assert t.backhaul_parent == {1: 0, 2: 0, 3: 0, 4: 0}


def test_circle_rejects_odd_extender_counts():
    with pytest.raises(ValueError):
        build_topology(_circle(3))


def test_home_layout_chains_the_second_extender():
    t = build_topology(_home(2))
    assert t.nodes[0].position == (2.5, 5.0)
    assert t.nodes[1].position == (2.5 + D_EXT_70, 5.0)
    assert t.nodes[2].position == (2.5 + 2 * D_EXT_70, 5.0)
    assert t.backhaul_parent == {1: 0, 2: 1}
    assert validate_topology(t) == []


def test_channel_plans():
    multi = build_topology(_home(2, "multi"))
    assert [multi.nodes[i].access_radio.channel.number for i in (0, 1, 2)] == [1, 6, 11]
    single = build_topology(_home(2, "single"))
    assert [single.nodes[i].access_radio.channel.number for i in (0, 1, 2)] == [1, 1, 1]
    # the dedicated uplink stays on 5 GHz under either plan
    for t in (multi, single):
        for ext in t.extenders():
            assert t.nodes[ext].backhaul_radio.channel == BACKHAUL_CHANNEL
    four = build_topology(_circle(4, "multi"))
    assert [four.nodes[i].access_radio.channel.number for i in range(5)] == [1, 6, 6, 11, 11]


# --- deployment draws -------------------------------------------------------

CIRCLE_SPEC = ScenarioSpec(area=AreaKind.CIRCLE_1P2_DMAX, n_sta=10, n_extenders=0,
                           k=100, seed=7)


def test_draws_are_reproducible_and_index_independent():
    a, perm_a = deployment_draw(CIRCLE_SPEC, 3)
    b, perm_b = deployment_draw(CIRCLE_SPEC, 3)
    assert a == b
    assert (perm_a == perm_b).all()
    c, _ = deployment_draw(CIRCLE_SPEC, 4)
    assert a != c
    # the draw for index i must not depend on sweep bookkeeping such as k
    d, _ = deployment_draw(replace(CIRCLE_SPEC, k=9999), 3)
    assert a == d


def test_draws_differ_across_seeds():
    a, _ = deployment_draw(CIRCLE_SPEC, 0)
    b, _ = deployment_draw(replace(CIRCLE_SPEC, seed=8), 0)
    assert a != b


def _generator_draw(spec, index, p=DEFAULT_PROPAGATION, band_mhz=DEFAULT_BAND_MHZ):
    """Deployment ``index`` as numpy's ``Generator`` draws it from
    ``SeedSequence([seed, index])``: the oracle of ``draw_slice``."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    n = spec.n_sta
    if spec.fixed_positions is not None:
        positions = list(spec.fixed_positions)
    elif spec.area is AreaKind.HOME_RECT:
        xs = rng.uniform(0.0, HOME_WIDTH_M, n)
        ys = rng.uniform(0.0, HOME_HEIGHT_M, n)
        positions = list(zip(xs.tolist(), ys.tolist()))
    else:
        r = rng.uniform(0.0, circle_radius_m(spec.area, p, band_mhz), n)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        positions = list(zip((r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist()))
    return positions, rng.permutation(n)


def _assert_slice_is_the_draws(spec, lo, hi, **kwargs):
    positions, perms = draw_slice(spec, lo, hi, **kwargs)
    assert positions.shape[0] == perms.shape[0] == hi - lo
    for d in range(lo, hi):
        want_pos, want_perm = _generator_draw(spec, d, **kwargs)
        assert positions[d - lo].tolist() == [list(xy) for xy in want_pos], d
        assert perms[d - lo].tolist() == want_perm.tolist(), d


_FIXED = tuple((0.5 * i, 9.0 - i) for i in range(12))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.one_of(st.integers(0, 2**32 + 1), st.integers(0, 2**128)),
    lo=st.one_of(st.integers(0, 2000), st.integers(2**32 - 300, 2**32 + 300),
                 st.integers(2**32, 2**40)),
    length=st.integers(1, 300),
    n_sta=st.integers(1, 12),
    area=st.sampled_from(AreaKind),
    fixed=st.booleans(),
)
def test_a_slice_draws_each_deployment_bit_for_bit(seed, lo, length, n_sta, area, fixed):
    spec = ScenarioSpec(area=area, n_sta=n_sta, seed=seed,
                        fixed_positions=_FIXED[:n_sta] if fixed else None)
    _assert_slice_is_the_draws(spec, lo, lo + length)


@pytest.mark.parametrize("area", list(AreaKind))
def test_lanes_that_run_out_of_draws_extend_their_stream(monkeypatch, area):
    """With one PCG64 output made ahead for the permutation, every lane runs
    out of draws and extends its stream, most of them several times."""
    monkeypatch.setattr(scenarios, "_PERM_OUTPUTS", 1)
    spec = ScenarioSpec(area=area, n_sta=12, seed=2026)
    _assert_slice_is_the_draws(spec, 0, 300)
    _assert_slice_is_the_draws(spec, 2**32 - 150, 2**32 + 150)


@pytest.mark.parametrize("area", list(AreaKind))
def test_one_deployment_draw_is_the_generator_draw(area):
    spec = ScenarioSpec(area=area, n_sta=10, seed=2**40 + 3)
    for index in (0, 1, 2**32 - 1, 2**32, 2**64 - 1):
        positions, perm = deployment_draw(spec, index)
        want_pos, want_perm = _generator_draw(spec, index)
        assert positions == want_pos, index  # a list of (x, y) tuples
        assert perm.tolist() == want_perm.tolist(), index


@pytest.mark.parametrize("area", [AreaKind.CIRCLE_DMAX, AreaKind.CIRCLE_1P2_DMAX])
def test_circle_draws_read_the_band_table_and_the_propagation(area):
    """The disk's radius is the AP's reach on the run's own link model."""
    spec = ScenarioSpec(area=area, n_sta=10, seed=9)
    bands = {**DEFAULT_BAND_MHZ, Band.GHZ_2_4: 2462.0}
    steep = PropagationParams(distance_power_loss_coeff=35.0)
    for kwargs in (dict(band_mhz=bands), dict(p=steep)):
        assert circle_radius_m(area, **kwargs) != circle_radius_m(area)
        _assert_slice_is_the_draws(spec, 0, 40, **kwargs)
        assert deployment_draw(spec, 5, **kwargs)[0] == _generator_draw(spec, 5, **kwargs)[0]


def test_a_slice_rejects_an_empty_or_negative_range():
    for lo, hi in ((-1, 3), (3, 3), (0, 2**64 + 1)):
        with pytest.raises(ValueError):
            draw_slice(CIRCLE_SPEC, lo, hi)


def test_whole_slice_trig_equals_the_per_deployment_calls():
    """A slice takes ``np.cos`` and ``np.sin`` of all its angles at once, a
    deployment of its own ten; SIMD paths depend on the host, and the
    slice's draws are only exact where the two agree."""
    theta = (2.0 * np.pi) * np.random.default_rng(5).random((2048, 10))
    for trig in (np.cos, np.sin):
        whole = trig(theta)
        for lanes in (theta[:1], theta[:7], theta[:200], theta):
            assert trig(lanes).tobytes() == whole[: len(lanes)].tobytes()
        assert all(trig(row).tobytes() == whole[d].tobytes() for d, row in enumerate(theta))


# a second valid value of every ScenarioSpec field, against CIRCLE_SPEC
OTHER_VALUES = {
    "area": AreaKind.CIRCLE_DMAX,
    "n_sta": 11,
    "n_extenders": 4,
    "channel_plan": "single",
    "k": 7,
    "seed": 8,
    "fixed_positions": tuple((float(i), 0.0) for i in range(10)),
}


def test_every_spec_field_is_keyed():
    """Shared draws and link geometries are cached by ``draw_key`` and
    ``topology_key``; a field that changes neither would reuse the wrong one.
    Only ``k``, the number of deployments, is in no key."""
    def keys(spec):
        return draw_key(spec), topology_key(spec)

    for f in fields(ScenarioSpec):
        assert f.name in OTHER_VALUES, f"no second value for ScenarioSpec.{f.name}"
        changed = replace(CIRCLE_SPEC, **{f.name: OTHER_VALUES[f.name]})
        assert changed != CIRCLE_SPEC
        assert (keys(changed) == keys(CIRCLE_SPEC)) is (f.name == "k"), f.name


def test_the_area_picks_the_layout_family():
    home = ScenarioSpec(area=AreaKind.HOME_RECT, n_extenders=2)
    assert build_topology(home).backhaul_parent == {1: 0, 2: 1}
    circle = ScenarioSpec(area=AreaKind.CIRCLE_DMAX, n_extenders=2)
    assert build_topology(circle).backhaul_parent == {1: 0, 2: 0}
    with pytest.raises(ValueError, match="^home layouts support 0, 1 or 2 extenders$"):
        ScenarioSpec(area=AreaKind.HOME_RECT, n_extenders=4)
    with pytest.raises(ValueError, match="^circle layouts support 0, 2 or 4 extenders$"):
        ScenarioSpec(area=AreaKind.CIRCLE_1P2_DMAX, n_extenders=1)
    with pytest.raises(ValueError, match="^unknown area 'home_rect'$"):
        ScenarioSpec(area="home_rect")


def test_fixed_positions_must_hold_one_position_per_station():
    # a mismatch used to end the engine's run in a reshape naming no field,
    # and the scalar draw to build a deployment of the wrong size
    spec = build_test("2.4")[0].scenario
    assert len(spec.fixed_positions) == spec.n_sta == 10
    for changed, got in ((dict(fixed_positions=spec.fixed_positions[:3]), 3),
                         (dict(fixed_positions=spec.fixed_positions * 2), 20),
                         (dict(n_sta=12), 10)):
        with pytest.raises(ValueError, match=f"^fixed_positions must hold n_sta positions, "
                                             f"got {got}$"):
            replace(spec, **changed)


def test_deployment_draw_rejects_negative_index():
    for index in (-1, 2**64):
        with pytest.raises(ValueError,
                           match=rf"^deployment index {index} is outside \[0, 2\*\*64\)$"):
            deployment_draw(CIRCLE_SPEC, index)


def test_radial_sampling_follows_the_uniform_radius_law():
    """r ~ U[0, R]: the share of points inside R/1.2 approaches 1/1.2."""
    R = circle_radius_m(AreaKind.CIRCLE_1P2_DMAX)
    inner = R / 1.2
    positions, _ = draw_slice(CIRCLE_SPEC, 0, 10_000)
    xs, ys = positions[..., 0], positions[..., 1]
    n_inside = int(((xs * xs + ys * ys) ** 0.5 <= inner).sum())
    n_total = xs.size
    assert n_total == 100_000
    assert n_inside / n_total == pytest.approx(1.0 / 1.2, abs=0.004)


def test_home_rect_draws_stay_inside_the_rectangle():
    spec = ScenarioSpec(area=AreaKind.HOME_RECT, n_sta=10, n_extenders=1, k=10, seed=3)
    positions, _ = draw_slice(spec, 0, 50)
    xs, ys = positions[..., 0], positions[..., 1]
    assert xs.shape == (50, 10)
    assert ((0.0 <= xs) & (xs <= HOME_WIDTH_M)).all()
    assert ((0.0 <= ys) & (ys <= HOME_HEIGHT_M)).all()


def test_add_stations_appends_numbered_stations():
    spec = ScenarioSpec(area=AreaKind.HOME_RECT, n_sta=4, n_extenders=1, k=1, seed=3)
    base = build_topology(spec)
    pos = deployment_draw(spec, 0)[0]
    t = add_stations(base, pos, capable=frozenset({10, 12}))
    stas = {i: n for i, n in t.nodes.items() if n.kind is NodeKind.STA}
    assert sorted(stas) == [10, 11, 12, 13]
    assert [stas[i].supports_11kv for i in (10, 11, 12, 13)] == [True, False, True, False]
    assert [stas[10 + k].position for k in range(4)] == list(pos)
    assert validate_topology(t) == []


# --- capability sampling ----------------------------------------------------

def test_capable_count_rounds_half_up():
    assert [capable_count(b, 10) for b in (0, 5, 25, 37.5, 50, 75, 100)] == \
        [0, 1, 3, 4, 5, 8, 10]
    assert capable_count(50, 5) == 3
    assert capable_count(30, 5) == 2


def test_capable_sets_nest_as_the_share_grows():
    _, perm = deployment_draw(CIRCLE_SPEC, 11)
    sets = [capable_set_for(CIRCLE_SPEC, perm, b) for b in (0, 25, 50, 75, 100)]
    for lo, hi in zip(sets, sets[1:]):
        assert lo <= hi
    assert len(sets[0]) == 0
    assert len(sets[-1]) == 10
    assert all(10 <= s <= 19 for s in sets[-1])


# --- fixed deployment -------------------------------------------------------

def _drawn_home_positions(seed):
    """The interference study's stations as numpy's ``Generator`` draws them
    from ``seed``: the oracle of ``fixed_home_positions``' table."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    left_x = rng.uniform(2.0, 13.0, 5)
    right_x = rng.uniform(19.0, 43.0, 5)
    ys = rng.uniform(0.5, 9.5, 10)
    xs = np.concatenate([left_x, right_x])
    return tuple((float(x), float(y)) for x, y in zip(xs, ys))


def test_fixed_home_positions_are_frozen():
    pos = fixed_home_positions()
    assert len(pos) == 10
    assert pos[0] == (9.109470469807022, 1.8982192332891215)
    assert pos[5] == (34.711391563818935, 4.739254610295635)
    # the table is the seeded draw, to the last bit
    assert repr(_drawn_home_positions(FIXED_DEPLOYMENT_SEED)) == repr(pos)
    # first half near the root, second half toward the extender end
    assert all(2.0 <= x <= 13.0 for x, _ in pos[:5])
    assert all(19.0 <= x <= 43.0 for x, _ in pos[5:])
    assert all(0.5 <= y <= 9.5 for _, y in pos)


def test_fixed_home_positions_change_with_the_seed():
    assert _drawn_home_positions(1) != fixed_home_positions()


@pytest.mark.parametrize("test_id", ["1.3", "2.4"])
def test_a_run_imports_no_numpy_random(test_id):
    """No output byte depends on numpy's generator code: every test id of
    ``test_id``'s family (circle 1.x or home 2.x) runs, and the public draw
    draws, in one interpreter that never imports it."""
    family = [t for t in TEST_IDS if t.split(".")[0] == test_id.split(".")[0]]
    assert test_id in family and len(family) >= 3
    code = ("import sys\n"
            "from wlansteer.runner import RunConfig, run\n"
            "from wlansteer.scenarios import ScenarioSpec, AreaKind, deployment_draw\n"
            f"for test_id in {family!r}:\n"
            "    run(RunConfig(test_id=test_id, k=1))\n"
            "deployment_draw(ScenarioSpec(AreaKind.CIRCLE_DMAX), 0)\n"
            "print('numpy.random' in sys.modules)\n")
    package = Path(scenarios.__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(package.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")
    sources = [path for path in package.rglob("*")
               if path.is_file() and "__pycache__" not in path.parts]
    assert len(sources) >= 10
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert "np.random" not in text and "numpy.random" not in text, path


# --- bench fixture ----------------------------------------------------------

def test_bench_fixture_rssi_matrix_spot_values():
    fix = bench_fixture()
    assert fix.rssi_matrix[(10, 0)] == -43.0
    assert fix.rssi_matrix[(11, 0)] == -31.0
    assert fix.rssi_matrix[(10, 1)] == -66.0


def test_bench_fixture_topology_matches_the_matrix():
    t, overrides = fixture_topology(stas=(1, 2, 3, 6, 7), with_extender=True)
    assert sorted(t.nodes) == [0, 1, 10, 11, 12, 15, 16]
    assert overrides[(1, 0, Band.GHZ_5)] == -70.0
    fix = bench_fixture()
    for (sta, target), rssi in fix.rssi_matrix.items():
        if sta in t.nodes and target in t.nodes:
            assert overrides[(sta, target, Band.GHZ_2_4)] == rssi
    t1, ov1 = fixture_topology(stas=(1, 2, 3, 4, 5), with_extender=False)
    assert sorted(t1.nodes) == [0, 10, 11, 12, 13, 14]
    assert not any(k[1] == 1 for k in ov1)


# --- sweep construction -----------------------------------------------------

GRID_SIZES = {"1.1": 165, "1.2": 5, "1.3": 305, "2.1": 909, "2.2": 40, "2.3": 40, "2.4": 125}


def test_manifest_counts_match_built_grids():
    for test_id, expected in GRID_SIZES.items():
        assert len(build_test(test_id)) == expected


# sha256 of repr(build_test(t)): every field of every point, the grid's own k
# and seed included, in grid order
GRID_DIGESTS = {
    "1.1": "361d02debb8a708f0228a3b3fc1d00efc0740565a725e0c2df30c24cf457f102",
    "1.2": "f7b78bd2b3dc8670bde25b30192546f8722d9ce7c885d425c796bd7a1b018d2a",
    "1.3": "9d73c330617b74aadf90400aa7c9458e37764565fc664a13ce2de02733fa5b85",
    "2.1": "d7ef16b15216d82958e1f31d210e1af2e0ac2b973b63be07f3c476a13b7a3bbf",
    "2.2": "c400dbe8bca85525cf3fa09c43c4170171c61b016e07f66ab24e27800c912fde",
    "2.3": "f868b7458e26282f5200d8cb8208236f0fea11ffbd1e122eb0149484026bdeb5",
    "2.4": "03bdd9acaed6a8c3447a6d44f27e3d93eff40a99b00c86b602bf9150d3d32f1a",
}


@pytest.mark.parametrize("test_id", sorted(GRID_DIGESTS))
def test_each_grid_is_pinned_point_for_point(test_id):
    text = repr(build_test(test_id))
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_DIGESTS[test_id]


def test_build_test_rejects_unknown_ids():
    with pytest.raises(ValueError):
        build_test("9.9")


def test_sweep_points_are_self_consistent():
    for test_id in GRID_SIZES:
        for p in build_test(test_id):
            assert p.test_id == test_id
            assert p.traffic.total_load_bps == pytest.approx(
                p.traffic.per_sta_load_bps * p.scenario.n_sta)
            assert p.scenario.n_extenders in (0, 1, 2, 4)
            t = build_topology(p.scenario, p.rssi_ap_e_dbm)
            assert validate_topology(t) == []
