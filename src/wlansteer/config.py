"""JSON configuration: defaults, load/save, and scenario parsing.

A config file is a plain JSON object; every section is optional and missing
keys fall back to the built-in defaults, so a file only needs to spell out
what it changes.  Sections:

* ``propagation``, ``band_mhz``, ``mcs_tables``, ``mac_overheads``,
  ``congested_hop_delay_ms``: the physics bundle;
* ``selection``: mechanism and its knobs;
* ``traffic``: packet length and per-station demand;
* ``run``: campaign test id plus execution options;
* ``scenario``: a generator spec or an explicit node list, used by the
  ``validate`` command and by library callers that want a one-off layout.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from .model import (
    DEFAULT_BAND_MHZ,
    Band,
    ChannelId,
    Node,
    NodeKind,
    RadioConfig,
    Topology,
    make_node_map,
)
from .perf import CONGESTED_HOP_DELAY_MS, DEFAULT_OVERHEADS, MacOverheads
from .radio import (
    DEFAULT_MCS_TABLES,
    DEFAULT_PROPAGATION,
    McsEntry,
    McsTable,
    PropagationParams,
)
from .runner import EngineParams, RunConfig
from .scenarios import gen_circle, gen_home
from .selection import Mechanism, SelectionConfig


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def _band(key: str) -> Band:
    try:
        return Band(key)
    except ValueError:
        raise ConfigError(f"unknown band {key!r}; expected '2.4' or '5'") from None


def default_config() -> dict[str, Any]:
    """The full built-in configuration as a JSON-ready dict."""
    return {
        "propagation": {
            "distance_power_loss_coeff": DEFAULT_PROPAGATION.distance_power_loss_coeff,
            "floor_penetration_db": DEFAULT_PROPAGATION.floor_penetration_db,
            "constant_offset_db": DEFAULT_PROPAGATION.constant_offset_db,
            "min_distance_m": DEFAULT_PROPAGATION.min_distance_m,
        },
        "band_mhz": {band.value: mhz for band, mhz in DEFAULT_BAND_MHZ.items()},
        "mcs_tables": {
            band.value: {
                "channel_width_mhz": table.channel_width_mhz,
                "entries": [
                    [e.mcs, e.min_rssi_dbm, e.rate_bps_1ss, e.rate_bps_2ss]
                    for e in table.entries
                ],
            }
            for band, table in DEFAULT_MCS_TABLES.items()
        },
        "mac_overheads": {
            band.value: {
                "difs_us": o.difs_us,
                "sifs_us": o.sifs_us,
                "slot_us": o.slot_us,
                "avg_backoff_slots": o.avg_backoff_slots,
                "preamble_us": o.preamble_us,
                "ack_us": o.ack_us,
            }
            for band, o in DEFAULT_OVERHEADS.items()
        },
        "congested_hop_delay_ms": CONGESTED_HOP_DELAY_MS,
        "selection": {
            "mechanism": Mechanism.LOAD_AWARE.value,
            "alpha": 0.5,
            "beta_pct": 100.0,
            "passes": 1,
            "refresh_loads": True,
            "include_self_load": True,
        },
        "traffic": {"packet_length_bits": 12000, "per_sta_load_bps": 2.4e6},
        "run": {
            "test": "1.3",
            "k": None,
            "seed": None,
            "workers": 1,
            "out_dir": None,
            "emit_events": False,
        },
    }


def load_config(path: str) -> dict[str, Any]:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def save_config(cfg: Mapping[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _merged(section: Optional[Mapping[str, Any]], defaults: Mapping[str, Any], where: str) -> dict:
    out = dict(defaults)
    if section is None:
        return out
    if not isinstance(section, Mapping):
        raise ConfigError(f"section {where!r} must be an object")
    for key, value in section.items():
        if key not in defaults:
            raise ConfigError(f"section {where!r}: unknown key {key!r}")
        out[key] = value
    return out


def propagation_from(cfg: Mapping[str, Any]) -> PropagationParams:
    d = _merged(cfg.get("propagation"), default_config()["propagation"], "propagation")
    return PropagationParams(**d)


def mcs_tables_from(cfg: Mapping[str, Any]) -> dict[Band, McsTable]:
    section = cfg.get("mcs_tables")
    if section is None:
        return dict(DEFAULT_MCS_TABLES)
    tables: dict[Band, McsTable] = dict(DEFAULT_MCS_TABLES)
    for key, spec in section.items():
        band = _band(key)
        try:
            entries = tuple(
                McsEntry(int(m), float(rssi), float(r1), float(r2))
                for m, rssi, r1, r2 in spec["entries"]
            )
            tables[band] = McsTable(
                band=band,
                channel_width_mhz=int(spec["channel_width_mhz"]),
                entries=entries,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"mcs_tables[{key!r}]: {exc}") from None
    return tables


def overheads_from(cfg: Mapping[str, Any]) -> dict[Band, MacOverheads]:
    section = cfg.get("mac_overheads")
    out = dict(DEFAULT_OVERHEADS)
    if section is None:
        return out
    defaults = default_config()["mac_overheads"]
    for key, spec in section.items():
        band = _band(key)
        d = _merged(spec, defaults[key], f"mac_overheads[{key!r}]")
        out[band] = MacOverheads(**d)
    return out


def band_mhz_from(cfg: Mapping[str, Any]) -> dict[Band, float]:
    section = cfg.get("band_mhz")
    out = dict(DEFAULT_BAND_MHZ)
    if section is None:
        return out
    for key, value in section.items():
        out[_band(key)] = float(value)
    return out


def engine_params_from(cfg: Mapping[str, Any]) -> EngineParams:
    return EngineParams(
        propagation=propagation_from(cfg),
        mcs_tables=mcs_tables_from(cfg),
        overheads=overheads_from(cfg),
        band_mhz=band_mhz_from(cfg),
        congested_hop_delay_ms=float(
            cfg.get("congested_hop_delay_ms", CONGESTED_HOP_DELAY_MS)
        ),
    )


def selection_from(cfg: Mapping[str, Any]) -> SelectionConfig:
    d = _merged(cfg.get("selection"), default_config()["selection"], "selection")
    try:
        mechanism = Mechanism(d.pop("mechanism"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        return SelectionConfig(mechanism=mechanism, **d)
    except ValueError as exc:
        raise ConfigError(f"selection: {exc}") from None


# the JSON types each run key accepts, compared exactly so that true is no integer
_RUN_TYPES = {
    "test": (str,),
    "k": (int, type(None)),
    "seed": (int, type(None)),
    "workers": (int,),
    "out_dir": (str, type(None)),
    "emit_events": (bool,),
}


def run_config_from(cfg: Mapping[str, Any]) -> RunConfig:
    d = _merged(cfg.get("run"), default_config()["run"], "run")
    for key, kinds in _RUN_TYPES.items():
        if type(d[key]) not in kinds:
            wanted = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ConfigError(f"run.{key} must be {wanted}, got {d[key]!r}")
    for key in ("k", "workers"):
        if d[key] is not None and d[key] < 1:
            raise ConfigError(f"run.{key} must be at least 1")
    return RunConfig(
        test_id=d["test"],
        k=d["k"],
        seed=d["seed"],
        workers=d["workers"],
        out_dir=d["out_dir"],
        emit_events=d["emit_events"],
        params=engine_params_from(cfg),
    )


# --- scenario parsing -------------------------------------------------------

_NODE_KINDS = {k.value: k for k in NodeKind}


def _radio_pair(
    spec: Mapping[str, Any], access_channel: int, where: str
) -> tuple[RadioConfig, RadioConfig]:
    common = {
        "tx_power_dbm": float(spec.get("tx_power_dbm", 20.0)),
        "sensitivity_dbm": float(spec.get("sensitivity_dbm", -90.0)),
        "spatial_streams": int(spec.get("spatial_streams", 2)),
    }
    try:
        access = RadioConfig(
            band=Band.GHZ_2_4,
            channel=ChannelId(Band.GHZ_2_4, access_channel),
            **common,
        )
        backhaul = RadioConfig(
            band=Band.GHZ_5,
            channel=ChannelId(Band.GHZ_5, int(spec.get("backhaul_channel", 36))),
            **common,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return access, backhaul


def _explicit_topology(section: Mapping[str, Any]) -> Topology:
    nodes = []
    parents: dict[int, int] = {}
    raw_nodes = section.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ConfigError("scenario.nodes must be a non-empty list")
    for spec in raw_nodes:
        where = f"scenario node {spec.get('id')!r}"
        try:
            node_id = int(spec["id"])
            kind = _NODE_KINDS[spec["kind"]]
            x, y = spec["position"]
            position = (float(x), float(y))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if kind is NodeKind.STA:
            radio = RadioConfig(
                band=Band.GHZ_2_4,
                channel=ChannelId(Band.GHZ_2_4, 1),
                tx_power_dbm=float(spec.get("tx_power_dbm", 20.0)),
                sensitivity_dbm=float(spec.get("sensitivity_dbm", -90.0)),
                spatial_streams=int(spec.get("spatial_streams", 2)),
            )
            nodes.append(
                Node(node_id, kind, position, (radio,),
                     supports_11kv=bool(spec.get("supports_11kv", False)))
            )
            continue
        access, backhaul = _radio_pair(spec, int(spec.get("access_channel", 1)), where)
        nodes.append(Node(node_id, kind, position, (access, backhaul)))
        if kind is NodeKind.EXTENDER:
            try:
                parents[node_id] = int(spec["backhaul_parent"])
            except (KeyError, TypeError, ValueError):
                raise ConfigError(f"{where}: extender needs a backhaul_parent") from None
    associations = {
        int(k): int(v) for k, v in (section.get("associations") or {}).items()
    }
    try:
        return Topology(
            nodes=make_node_map(nodes),
            associations=associations,
            backhaul_parent=parents,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def topology_from_scenario(
    section: Mapping[str, Any], propagation: PropagationParams = DEFAULT_PROPAGATION
) -> Topology:
    """Build the layout a ``scenario`` config section describes."""
    if not isinstance(section, Mapping):
        raise ConfigError("scenario section must be an object")
    kind = section.get("kind")
    if kind == "explicit":
        return _explicit_topology(section)
    if kind == "circle":
        return gen_circle(
            n_ext=int(section.get("n_extenders", 0)),
            rssi_ap_e_dbm=float(section.get("extender_rssi_dbm", -70.0)),
            channel_plan=section.get("channel_plan", "multi"),
            p=propagation,
        )
    if kind == "home":
        return gen_home(
            n_ext=int(section.get("n_extenders", 0)),
            channel_plan=section.get("channel_plan", "multi"),
            extender_rssi_dbm=float(section.get("extender_rssi_dbm", -70.0)),
            p=propagation,
        )
    raise ConfigError(
        f"scenario.kind must be 'explicit', 'circle' or 'home', got {kind!r}"
    )
