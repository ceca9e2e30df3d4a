"""JSON config parsing and the command line front end."""
import contextlib
import io
import json

import pytest

from wlansteer.config import (
    ConfigError,
    default_config,
    engine_params_from,
    load_config,
    mcs_tables_from,
    overheads_from,
    run_config_from,
    save_config,
    selection_from,
    topology_from_scenario,
)
from wlansteer import cli
from wlansteer.cli import main
from wlansteer.model import Band, NodeKind
from wlansteer.selection import Mechanism
from wlansteer.perf import DEFAULT_OVERHEADS
from wlansteer.radio import DEFAULT_MCS_TABLES
from wlansteer.runner import RunResult


def test_default_config_survives_a_save_load_cycle(tmp_path):
    cfg = default_config()
    path = tmp_path / "cfg.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_default_sections_reconstruct_the_builtin_tables():
    cfg = default_config()
    assert mcs_tables_from(cfg) == DEFAULT_MCS_TABLES
    assert overheads_from(cfg) == DEFAULT_OVERHEADS
    params = engine_params_from(cfg)
    assert params.band_mhz == {Band.GHZ_2_4: 2400.0, Band.GHZ_5: 5000.0}
    assert params.propagation.distance_power_loss_coeff == 31.0
    assert params.congested_hop_delay_ms == 10000.0


def test_selection_and_run_sections():
    cfg = default_config()
    sel = selection_from(cfg)
    assert sel.mechanism is Mechanism.LOAD_AWARE
    assert (sel.alpha, sel.beta_pct, sel.passes) == (0.5, 100.0, 1)
    rc = run_config_from(cfg)
    assert rc.test_id == "1.3"
    assert rc.workers == 1
    assert rc.mechanism is None


def test_malformed_inputs_raise_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        mcs_tables_from({"mcs_tables": {"2.4": "nope"}})
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


def test_cli_reports_unknown_test_ids():
    rc, _, err = _run_cli(["run", "--test", "9.9", "--k", "1"])
    assert rc == 1
    assert "unknown test id" in err


def test_cli_validate(tmp_path):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"scenario": {"kind": "home", "n_extenders": 1}}))
    rc, out, _ = _run_cli(["validate", "--scenario", str(sc)])
    assert rc == 0
    assert out.startswith("ok:")
    rc2, _, err = _run_cli(["validate", "--scenario", str(tmp_path / "no.json")])
    assert rc2 == 1
    assert "error" in err
