"""JSON config parsing and the command line front end."""
import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wlansteer.config import (
    ConfigError,
    default_config,
    load_config,
    run_config_from,
    save_config,
    topology_from_scenario,
)
from wlansteer import cli, runner
from wlansteer.cli import main
from wlansteer.model import Band, NodeKind
from wlansteer.perf import DEFAULT_OVERHEADS, EngineParams
from wlansteer.radio import DEFAULT_MCS_TABLES
from wlansteer.runner import MAX_WORKERS, RunConfig, RunResult
from wlansteer.scenarios import AreaKind, ScenarioSpec


def test_default_config_survives_a_save_load_cycle(tmp_path):
    cfg = default_config()
    path = tmp_path / "cfg.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_default_sections_reconstruct_the_builtin_tables():
    params = run_config_from(default_config()).params
    assert params.mcs_tables == DEFAULT_MCS_TABLES
    assert params.overheads == DEFAULT_OVERHEADS
    assert params.band_mhz == {Band.GHZ_2_4: 2400.0, Band.GHZ_5: 5000.0}
    assert params.propagation.distance_power_loss_coeff == 31.0
    assert params.congested_hop_delay_ms == 10000.0


def test_selection_and_run_sections():
    cfg = default_config()
    rc = run_config_from(cfg)
    assert rc.test_id == "1.3"
    assert rc.workers == 1
    assert rc.mechanism is None
    assert (rc.alpha, rc.beta_pct) == (None, None)
    rc = run_config_from({"selection": {"alpha": 0.25, "beta_pct": 40}})
    assert (rc.alpha, rc.beta_pct) == (0.25, 40.0)


def test_malformed_inputs_raise_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        run_config_from({"mcs_tables": {"2.4": "nope"}})
    with pytest.raises(ConfigError):
        topology_from_scenario({"kind": "mesh"})
    with pytest.raises(ConfigError):
        topology_from_scenario("not a mapping")


@pytest.mark.parametrize("key, value", [
    ("k", "5"),
    ("workers", "two"),
    ("emit_events", "false"),
])
def test_badly_typed_run_values_name_their_key(key, value):
    with pytest.raises(ConfigError, match=rf"^run\.{key} "):
        run_config_from({"run": {key: value}})


@pytest.mark.parametrize("key", ["k", "workers"])
@pytest.mark.parametrize("value", [0, -2])
def test_out_of_range_run_values_name_their_key(key, value):
    with pytest.raises(ConfigError, match=rf"^run\.{key} must be at least 1$"):
        run_config_from({"run": {key: value}})


def test_scenario_section_builds_layouts():
    home = topology_from_scenario({"kind": "home", "n_extenders": 2})
    assert sorted(home.nodes) == [0, 1, 2]
    assert home.backhaul_parent == {1: 0, 2: 1}
    circle = topology_from_scenario(
        {"kind": "circle", "n_extenders": 4, "extender_rssi_dbm": -60.0})
    assert len(circle.extenders()) == 4
    explicit = topology_from_scenario({
        "kind": "explicit",
        "nodes": [
            {"id": 0, "kind": "ap", "position": [0, 0], "access_channel": 1},
            {"id": 1, "kind": "extender", "position": [10, 0],
             "access_channel": 6, "backhaul_parent": 0},
            {"id": 10, "kind": "sta", "position": [5, 0], "supports_11kv": True},
        ],
        "associations": {"10": 0},
    })
    assert explicit.nodes[0].kind is NodeKind.AP
    assert explicit.backhaul_parent == {1: 0}
    assert explicit.associations == {10: 0}
    assert explicit.nodes[10].supports_11kv
    with pytest.raises(ConfigError):
        topology_from_scenario({
            "kind": "explicit",
            "nodes": [{"id": 1, "kind": "extender", "position": [1, 0]}],
        })


def _run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


def test_cli_lists_every_campaign_test():
    rc, out, _ = _run_cli(["list-tests"])
    assert rc == 0
    assert len(out.strip().splitlines()) == 7
    assert out.startswith("1.1")


def test_cli_run_writes_the_output_bundle(tmp_path):
    out_dir = tmp_path / "out"
    rc, out, _ = _run_cli(["run", "--test", "1.2", "--k", "1",
                           "--out", str(out_dir), "--workers", "1"])
    assert rc == 0
    assert {p.name for p in out_dir.iterdir()} == \
        {"rows.csv", "aggregates.csv", "results.json"}
    data = json.loads((out_dir / "results.json").read_text())
    assert len(data["rows"]) == 5
    assert "test 1.2" in out


def test_cli_workers_flag_overrides_the_config_only_when_given(tmp_path, monkeypatch):
    seen = []

    def fake_run(cfg):
        seen.append(cfg.workers)
        return RunResult(points=(), rows=(), aggregates=())

    monkeypatch.setattr(cli, "run", fake_run)
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"run": {"test": "1.2", "workers": 4}}))
    assert _run_cli(["run", "--config", str(conf)])[0] == 0
    assert _run_cli(["run", "--config", str(conf), "--workers", "2"])[0] == 0
    assert _run_cli(["run", "--test", "1.2"])[0] == 0
    assert seen == [4, 2, 1]
    for flag in ("--workers", "--k"):
        rc, _, err = _run_cli(["run", "--config", str(conf), flag, "0"])
        assert (rc, err) == (1, f"error: {flag} must be at least 1\n")
    assert seen == [4, 2, 1]


def test_worker_count_is_bounded_before_any_pool_starts(monkeypatch):
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("run must not start"))
    rc, _, err = _run_cli(["run", "--test", "1.2", "--workers", str(MAX_WORKERS + 1)])
    assert (rc, err) == (1, f"error: --workers must be at most {MAX_WORKERS}\n")
    with pytest.raises(ValueError, match=f"^workers must be at most {MAX_WORKERS}$"):
        RunConfig(test_id="1.2", workers=MAX_WORKERS + 1)
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        RunConfig(test_id="1.2", k=0)
    assert run_config_from({"run": {"workers": MAX_WORKERS}}).workers == MAX_WORKERS


# (RunConfig field, a value of the wrong type, the rule it breaks); each
# used to fail only once the run had started, to run as 1, or to fail
# naming no field
_WRONG_TYPE_INPUTS = [
    ("workers", 2.0, "must be an integer"),
    ("workers", True, "must be an integer"),
    ("k", 2.5, "must be an integer"),
    ("k", True, "must be an integer"),
    ("seed", 1.5, "must be an integer"),
    ("b_t_bps", 5e6, "must be a sequence of numbers"),
    ("b_t_bps", "6e6", "must be a sequence of numbers"),
    ("b_t_bps", (6e6, True), "must be a sequence of numbers"),
    ("alpha", True, "must be a number"),
    ("alpha", "0.5", "must be a number"),
    ("beta_pct", False, "must be a number"),
    ("beta_pct", [50.0], "must be a number"),
    ("mechanism", "x", "must be rssi or loadaware"),
    ("mechanism", 1, "must be rssi or loadaware"),
    ("n_ext", True, "must be an integer"),
    ("n_ext", 2.0, "must be an integer"),
    ("channel_plan", 3, "must be multi or single"),
    ("channel_plan", "Multi", "must be multi or single"),
]


@pytest.mark.parametrize("field, value, rule", _WRONG_TYPE_INPUTS,
                         ids=[f"{row[0]}={row[1]!r}" for row in _WRONG_TYPE_INPUTS])
def test_run_sizes_of_the_wrong_type_fail_before_the_run_naming_their_field(
        field, value, rule):
    with pytest.raises(ValueError, match=f"^{field} {rule}$"):
        RunConfig(**{"test_id": "2.4", field: value})


def test_scenario_counts_must_be_integers():
    for name in ("n_sta", "n_extenders", "k", "seed"):
        for value in (2.0, True):
            with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
                ScenarioSpec(AreaKind.CIRCLE_DMAX, **{name: value})
    spec = ScenarioSpec(AreaKind.CIRCLE_DMAX, n_sta=np.int64(4), k=np.int32(3), seed=np.uint8(0))
    assert (spec.n_sta, spec.k, spec.seed) == (4, 3, 0)
    cfg = RunConfig(test_id="2.4", workers=np.int64(2), k=3, seed=0, b_t_bps=[6e6, 12, 1.5],
                    n_ext=np.int64(1))
    assert (cfg.workers, cfg.b_t_bps, cfg.n_ext) == (2, (6e6, 12.0, 1.5), 1)


# (RunConfig field, config key, flag, bad value, the rule it breaks)
_OUT_OF_RANGE_INPUTS = [
    ("alpha", "selection.alpha", "--alpha", 2, "must lie in [0, 1]"),
    ("beta_pct", "selection.beta_pct", "--beta", 200, "must lie in [0, 100]"),
    ("seed", "run.seed", "--seed", -1, "must be non-negative"),
    ("test_id", "run.test", "--test", "9.9",
     "'9.9' is an unknown test id; known: 1.1, 1.2, 1.3, 2.1, 2.2, 2.3, 2.4"),
]


@pytest.mark.parametrize("field, key, flag, value, rule", _OUT_OF_RANGE_INPUTS,
                         ids=[row[0] for row in _OUT_OF_RANGE_INPUTS])
def test_out_of_range_run_inputs_fail_before_the_run_naming_their_source(
        field, key, flag, value, rule, monkeypatch):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} {rule}')}$"):
        RunConfig(**{"test_id": "1.2", field: value})
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{key} {rule}')}$"):
        run_config_from({section: {name: value}})
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("run must not start"))
    test = [] if flag == "--test" else ["--test", "2.4"]
    rc, _, err = _run_cli(["run", *test, flag, str(value)])
    assert (rc, err) == (1, f"error: {flag} {rule}\n")


def test_a_config_that_emits_events_needs_an_output_directory(tmp_path):
    with pytest.raises(ConfigError, match=r"^run\.emit_events needs run\.out_dir"):
        run_config_from({"run": {"test": "2.4", "emit_events": True}})
    rc = run_config_from({"run": {"emit_events": True, "out_dir": str(tmp_path)}})
    assert rc.emit_events and rc.out_dir == str(tmp_path)


def test_cli_emit_events_needs_out(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("run must not start"))
    rc, out, err = _run_cli(["run", "--test", "2.4", "--emit-events"])
    assert (rc, out) == (1, "")
    assert err.startswith("error: --emit-events needs --out")


def test_cli_reports_unknown_test_ids():
    rc, _, err = _run_cli(["run", "--test", "9.9", "--k", "1"])
    assert rc == 1
    assert "unknown test id" in err


@pytest.mark.parametrize("flags, wanted", [
    (["--test", "1.3", "--b-t", "999"], "b_t_bps=(999000000.0,)"),
    (["--test", "2.4", "--n-ext", "3"], "n_ext=3"),
    (["--test", "2.2", "--mechanism", "rssi"], "mechanism=rssi"),
    (["--test", "1.2", "--channel-plan", "single", "--n-ext", "4"],
     "channel_plan=single, n_ext=4"),
])
def test_cli_run_fails_when_the_filters_keep_no_sweep_point(tmp_path, flags, wanted):
    out_dir = tmp_path / "out"
    rc, out, err = _run_cli(["run", *flags, "--out", str(out_dir)])
    assert (rc, out) == (1, "")
    assert err == f"error: test {flags[1]} has no sweep point with {wanted}\n"
    assert not out_dir.exists()


def test_cli_validate(tmp_path):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"scenario": {"kind": "home", "n_extenders": 1}}))
    rc, out, _ = _run_cli(["validate", "--scenario", str(sc)])
    assert rc == 0
    assert out.startswith("ok:")
    rc2, _, err = _run_cli(["validate", "--scenario", str(tmp_path / "no.json")])
    assert rc2 == 1
    assert "error" in err


def test_cli_validate_builds_on_the_documents_physics(tmp_path, monkeypatch):
    built = []

    def recording(section, propagation, band_mhz):
        built.append((propagation, band_mhz))
        return topology_from_scenario(section, propagation, band_mhz)

    monkeypatch.setattr(cli, "topology_from_scenario", recording)
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({
        "scenario": {"kind": "home", "n_extenders": 2},
        "band_mhz": {"5": 5500},
        "propagation": {"floor_penetration_db": 3},
    }))
    assert _run_cli(["validate", "--scenario", str(sc)])[:2] == \
        (0, "ok: 3 nodes, 2 extender links\n")
    (propagation, band_mhz), = built
    assert propagation.floor_penetration_db == 3.0
    assert band_mhz == {Band.GHZ_2_4: 2400.0, Band.GHZ_5: 5500.0}
    # a higher backhaul frequency loses more per metre, so the extender sits closer
    near = recording({"kind": "home", "n_extenders": 1}, propagation, band_mhz)
    far = topology_from_scenario({"kind": "home", "n_extenders": 1}, propagation)
    assert near.nodes[1].position[0] < far.nodes[1].position[0]


def _bad(doc, key, suffix=""):
    """A case whose id is its key and ``suffix``, which a case that shares
    its key sets, so that no edit of one case renames another."""
    return pytest.param(doc, key, id=key + suffix)


# every section of default_config() has a typo'd, mistyped or rejected variant
# that must come back as a ConfigError starting with its dotted key
_BAD_DOCUMENTS = [
    _bad({"mcs_tables": [1]}, "mcs_tables"),
    _bad({"band_mhz": [1]}, "band_mhz"),
    _bad({"mac_overheads": [1]}, "mac_overheads"),
    _bad({"band_mhz": {"2.4": "abc"}}, "band_mhz.2.4"),
    _bad({"band_mhz": {"6": 6000.0}}, "band_mhz.6"),
    # band frequencies lie in [1, 100000) MHz
    _bad({"band_mhz": {"5": 0}}, "band_mhz.5", "_0"),
    _bad({"band_mhz": {"5": -1}}, "band_mhz.5", "_1"),
    _bad({"band_mhz": {"5": 1e6}}, "band_mhz.5", "_2"),
    _bad({"band_mhz": {"5": 1e-300}}, "band_mhz.5", "_3"),
    _bad({"band_mhz": {"5": 0.5}}, "band_mhz.5", "_4"),
    _bad({"propagation": {"min_distance_m": "1"}}, "propagation.min_distance_m", "0"),
    _bad({"propagation": {"floor_penetration_db": True}}, "propagation.floor_penetration_db"),
    _bad({"propagation": {"min_distance_m": 0}}, "propagation"),
    _bad({"congested_hop_delay_ms": [1]}, "congested_hop_delay_ms", "0"),
    _bad({"congested_hop_delay_ms": 0}, "congested_hop_delay_ms", "1"),
    _bad({"mac_overheads": {"2.4": {"difs_us": "x"}}}, "mac_overheads.2.4.difs_us"),
    _bad({"mac_overheads": {"5": {"slot_us": -9.0}}}, "mac_overheads.5"),
    _bad({"mcs_tables": {"5": {"entries": "x"}}}, "mcs_tables.5.entries"),
    _bad({"mcs_tables": {"5": {"entries": [[0, -90.0, 1.0]]}}}, "mcs_tables.5.entries.0"),
    _bad({"mcs_tables": {"5": {"entries": [[0.5, -90.0, 1.0, 2.0]]}}}, "mcs_tables.5.entries.0.0"),
    _bad({"mcs_tables": {"2.4": {"channel_width_mhz": 20.0}}}, "mcs_tables.2.4.channel_width_mhz"),
    _bad({"mcs_tables": {"2.4": {"entries": [[0, -90.0, -1.0, 2.0]]}}}, "mcs_tables.2.4"),
    _bad({"runn": {}}, "runn"),
    _bad({"bogus": 1}, "bogus"),
    _bad({"traffic": {}}, "traffic"),
    _bad({"selection": {"passes": 2}}, "selection.passes"),
    _bad({"selection": {"mechanism": "loadaware"}}, "selection.mechanism"),
    _bad({"selection": {"alpha": 1.5}}, "selection.alpha"),
    _bad({"selection": {"beta_pct": "50"}}, "selection.beta_pct"),
    _bad({"selection": None}, "selection"),
    _bad({"run": {"seed": 1.0}}, "run.seed"),
    _bad({"run": {"out_dir": 3}}, "run.out_dir"),
    _bad({"propagation": {"min_distance_m": 10**400}}, "propagation.min_distance_m", "1"),
    # values whose ranges, 10 ** (budget / coeff), would overflow a float
    _bad({"propagation": {"distance_power_loss_coeff": 1e-300}, "run": {"test": "1.2", "k": 1}},
         "propagation: distance_power_loss_coeff"),
    _bad({"propagation": {"floor_penetration_db": -1e300}}, "propagation: floor_penetration_db"),
    _bad({"run": {"workers": MAX_WORKERS + 1}}, "run.workers"),
    # json reads Infinity, -Infinity and NaN
    _bad({"congested_hop_delay_ms": float("inf")}, "congested_hop_delay_ms", "2"),
    _bad({"mac_overheads": {"5": {"slot_us": float("-inf")}}}, "mac_overheads.5.slot_us"),
    _bad({"propagation": {"distance_power_loss_coeff": float("nan")}},
         "propagation.distance_power_loss_coeff"),
    _bad({"run": {"alpha": float("nan")}}, "run.alpha"),
]


def test_bad_documents_have_unique_ids():
    ids = [case.id for case in _BAD_DOCUMENTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("doc, key", _BAD_DOCUMENTS)
def test_bad_config_documents_name_their_key(doc, key, tmp_path, monkeypatch):
    pattern = rf"^{re.escape(key)}[ :]"
    with pytest.raises(ConfigError, match=pattern):
        run_config_from(doc)
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("run must not start"))
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps(doc))
    # validate checks what a document holds beside its scenario section
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"scenario": {"kind": "home", "n_extenders": 2}, **doc}))
    for args in (["run", "--config", str(conf)], ["validate", "--scenario", str(sc)]):
        rc, _, err = _run_cli(args)
        assert rc == 1
        assert re.match(pattern, err.removeprefix("error: "))
        assert err.count("\n") == 1


@pytest.mark.parametrize("doc, key, shown", [
    ({"congested_hop_delay_ms": float("inf")}, "congested_hop_delay_ms", "inf"),
    ({"mac_overheads": {"2.4": {"ack_us": float("-inf")}}}, "mac_overheads.2.4.ack_us", "-inf"),
    ({"propagation": {"constant_offset_db": float("nan")}}, "propagation.constant_offset_db",
     "nan"),
])
def test_non_finite_numbers_are_rejected(doc, key, shown, tmp_path):
    message = f"{key} must be a finite number, got {shown}"
    with pytest.raises(ConfigError) as err:
        run_config_from(doc)
    assert str(err.value) == message
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps(doc))
    assert "Infinity" in conf.read_text() or "NaN" in conf.read_text()
    assert _run_cli(["run", "--config", str(conf)])[::2] == (1, f"error: {message}\n")


def test_numbers_accept_integers_and_keep_the_defaults_elsewhere():
    params = run_config_from({
        "propagation": {"floor_penetration_db": 3},
        "band_mhz": {"5": 5200},
        "mac_overheads": {"5": {"ack_us": 30}},
    }).params
    assert params.propagation.floor_penetration_db == 3.0
    assert type(params.propagation.floor_penetration_db) is float
    assert params.propagation.distance_power_loss_coeff == 31.0
    assert params.band_mhz == {Band.GHZ_2_4: 2400.0, Band.GHZ_5: 5200.0}
    assert params.overheads[Band.GHZ_5].ack_us == 30.0
    assert params.overheads[Band.GHZ_5].difs_us == 34.0
    assert params.overheads[Band.GHZ_2_4] == DEFAULT_OVERHEADS[Band.GHZ_2_4]
    assert params.mcs_tables == DEFAULT_MCS_TABLES


@pytest.mark.parametrize("mhz", [0.0, -1.0, 1e6, 1e-300, 0.5])
def test_engine_params_reject_frequencies_the_path_loss_model_lacks(mhz):
    message = rf"^band_mhz\.2\.4 must lie in \[1, 100000\) MHz, got {mhz!r}$"
    with pytest.raises(ValueError, match=message):
        EngineParams(band_mhz={Band.GHZ_2_4: mhz, Band.GHZ_5: 5000.0})


def test_a_band_frequency_below_1_mhz_fails_naming_its_key(tmp_path):
    # with the loss terms at their floors, 1e-300 MHz would give the AP a
    # reach beyond any float; 1 MHz, the lowest accepted, runs
    doc = {
        "band_mhz": {"2.4": 1e-300},
        "propagation": {"floor_penetration_db": -1000, "constant_offset_db": -1000,
                        "distance_power_loss_coeff": 10},
        "run": {"test": "1.2", "k": 1},
    }
    conf = tmp_path / "low.json"
    conf.write_text(json.dumps(doc))
    rc, _, err = _run_cli(["run", "--config", str(conf)])
    assert (rc, err) == (1, "error: band_mhz.2.4 must lie in [1, 100000) MHz, got 1e-300\n")
    doc["band_mhz"]["2.4"] = 1.0
    conf.write_text(json.dumps(doc))
    assert _run_cli(["run", "--config", str(conf)])[0] == 0


def test_selection_section_rewrites_every_load_aware_point(tmp_path, monkeypatch):
    results = []

    def recording_run(cfg):
        results.append(runner.run(cfg))
        return results[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    conf = tmp_path / "alpha.json"
    conf.write_text(json.dumps({"selection": {"alpha": 0.0}, "run": {"test": "2.4"}}))
    assert _run_cli(["run", "--config", str(conf)])[0] == 0
    assert _run_cli(["run", "--config", str(conf), "--alpha", "0.75"])[0] == 0
    stock = {a.alpha for r in results for a in r.aggregates if a.mechanism == "rssi"}
    assert stock == {0.5}
    for res, alpha in zip(results, (0.0, 0.75)):
        steered = [a for a in res.aggregates if a.mechanism == "loadaware"]
        assert steered and {a.alpha for a in steered} == {alpha}
        assert {r.alpha for r in res.rows if r.mechanism == "loadaware"} == {alpha}


def _explicit(**extra):
    """An AP, an extender and a station, the station carrying ``extra``."""
    return {"kind": "explicit", "nodes": [
        {"id": 0, "kind": "ap", "position": [0, 0]},
        {"id": 1, "kind": "extender", "position": [10, 0], "backhaul_parent": 0},
        {"id": 10, "kind": "sta", "position": [5, 0], **extra},
    ]}


_BAD_SCENARIOS = [
    ({"kind": "explicit", "nodes": [1]}, "scenario.nodes.0"),
    (_explicit(tx_power_dbm=[20]), "scenario.nodes.2.tx_power_dbm"),
    (_explicit(position=[1, 2, 3]), "scenario.nodes.2.position"),
    (_explicit(position="ab"), "scenario.nodes.2.position"),
    (_explicit(spatial_streams=2.0), "scenario.nodes.2.spatial_streams"),
    (_explicit(spatial_streams=9), "scenario.nodes.2"),
    (_explicit(supports_11kv="yes"), "scenario.nodes.2.supports_11kv"),
    (_explicit(txpower=20), "scenario.nodes.2.txpower"),
    (_explicit(kind="phone"), "scenario.nodes.2.kind"),
    ({**_explicit(), "associations": [10]}, "scenario.associations"),
    ({**_explicit(), "associations": {"ten": 0}}, "scenario.associations.ten"),
    ({**_explicit(), "associations": {"10": "0"}}, "scenario.associations.10"),
    ({**_explicit(), "associations": {"10": True}}, "scenario.associations.10"),
    ({**_explicit(), "layout": 1}, "scenario.layout"),
    ({"kind": "explicit", "nodes": [{"kind": "ap", "position": [0, 0]}]}, "scenario.nodes.0.id"),
    ({"kind": "explicit", "nodes": [{"id": 0, "kind": "ap", "position": [0, 0]},
                                    {"id": 0, "kind": "ap", "position": [1, 0]}]},
     "scenario.nodes"),
    ({"kind": "circle", "n_extenders": [1]}, "scenario.n_extenders"),
    ({"kind": "circle", "n_extenders": 3}, "scenario"),
    ({"kind": "home", "channel_plan": "triple"}, "scenario"),
    ({"kind": "home", "n_extenders": 1, "extender_rssi_dbm": -1e6}, "scenario"),
    ({"kind": "home", "extenders": 1}, "scenario.extenders"),
    ({"kind": "home", "n_extenders": 1, "extender_rssi_dbm": -95.0}, "scenario"),
]


@pytest.mark.parametrize("section, key", _BAD_SCENARIOS,
                         ids=[f"{i}-{k}" for i, (_, k) in enumerate(_BAD_SCENARIOS)])
def test_bad_scenarios_name_the_node_and_key(section, key, tmp_path):
    pattern = rf"^{re.escape(key)}[ :]"
    with pytest.raises(ConfigError, match=pattern):
        topology_from_scenario(section)
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"scenario": section}))
    rc, _, err = _run_cli(["validate", "--scenario", str(sc)])
    assert rc == 1
    assert re.match(pattern, err.removeprefix("error: "))


def _paths(node, prefix=()):
    """Every key path into ``node``, through objects and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_CONFIG_PATHS = list(_paths(default_config()))
_SCENARIO = {"scenario": {**_explicit(supports_11kv=True), "associations": {"10": 1}}}
_SCENARIO_PATHS = list(_paths(_SCENARIO)) + [
    ("scenario", "kind"), ("scenario", "n_extenders"), ("scenario", "channel_plan"),
    ("scenario", "extender_rssi_dbm"),
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, template, paths):
    """``template`` with a few random JSON values put at known keys, at list
    indices and at unknown keys beside them."""
    doc = json.loads(json.dumps(template))
    for _ in range(draw(st.integers(1, 3))):
        path = list(draw(st.sampled_from(paths)))
        if draw(st.booleans()):
            path[-1] = draw(st.text(max_size=4) | st.sampled_from(["kind", "2.4", "5"]))
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = draw(_JSON | st.sampled_from(["home", "circle", "explicit"]))
        except (KeyError, IndexError, TypeError):
            continue
    return doc


_FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(doc=_mutated(default_config(), _CONFIG_PATHS))
def test_fuzzed_configs_fail_only_with_config_errors(doc, tmp_path, monkeypatch):
    try:
        run_config_from(doc)
    except ConfigError:
        pass
    monkeypatch.setattr(cli, "run", lambda cfg: RunResult(points=(), rows=(), aggregates=()))
    conf = tmp_path / "fuzz.json"
    conf.write_text(json.dumps(doc))
    assert _run_cli(["run", "--config", str(conf)])[0] in (0, 1)
    assert _run_cli(["validate", "--scenario", str(conf)])[0] in (0, 1)


@_FUZZ
@given(doc=_mutated(_SCENARIO, _SCENARIO_PATHS))
def test_fuzzed_scenarios_fail_only_with_config_errors(doc, tmp_path):
    try:
        topology_from_scenario(doc["scenario"])
    except ConfigError:
        pass
    sc = tmp_path / "fuzz.json"
    sc.write_text(json.dumps(doc))
    assert _run_cli(["validate", "--scenario", str(sc)])[0] in (0, 1)
