"""JSON configuration: one checked schema, load/save, and scenario parsing.

A config file is a plain JSON object.  ``default_config()`` is its schema:
every section and key is optional and a missing one keeps its default, so a
file only spells out what it changes.  Every document is checked against the
schema before anything is built from it, and an unknown section or key, a
value of the wrong JSON type, or a value a constructor rejects raises
``ConfigError`` naming the dotted key.  Sections:

* ``propagation``, ``band_mhz``, ``mcs_tables``, ``mac_overheads``,
  ``congested_hop_delay_ms``: the physics bundle, ``EngineParams``;
* ``selection``: ``alpha`` and ``beta_pct``, which rewrite every load-aware
  sweep point as ``--alpha`` and ``--beta`` do, or leave the grid's own
  values when null;
* ``run``: campaign test id plus execution options.

A ``scenario`` section, read by the ``validate`` command and by library
callers that want a one-off layout, is a generator spec or an explicit node
list, checked the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Any, Callable, Mapping

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
from .perf import CONGESTED_HOP_DELAY_MS, DEFAULT_OVERHEADS, EngineParams, MacOverheads
from .radio import (
    DEFAULT_MCS_TABLES,
    DEFAULT_PROPAGATION,
    McsEntry,
    McsTable,
    PropagationParams,
)
from .runner import RunConfig
from .scenarios import DEFAULT_EXTENDER_RSSI_DBM, AreaKind, ScenarioSpec, build_topology


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def default_config() -> dict[str, Any]:
    """The full built-in configuration as a JSON-ready dict."""
    return {
        "propagation": asdict(DEFAULT_PROPAGATION),
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
        "mac_overheads": {band.value: asdict(o) for band, o in DEFAULT_OVERHEADS.items()},
        "congested_hop_delay_ms": CONGESTED_HOP_DELAY_MS,
        "selection": {"alpha": None, "beta_pct": None},
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


# --- the schema check -------------------------------------------------------

# the keys whose default is null, with the JSON type of their other values
_NULLABLE = {
    "selection.alpha": float,
    "selection.beta_pct": float,
    "run.k": int,
    "run.seed": int,
    "run.out_dir": str,
}

# JSON types compare exactly, so that true is no number, but an integer is a float
_ACCEPTS = {float: (int, float)}
_TYPE_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _overlay(value: Any, default: Any, where: str) -> Any:
    """``value`` checked against the schema entry ``default`` at the dotted
    key ``where``, with the default filling in the keys an object leaves out.

    A list of lists or objects is a table whose rows are shaped like its
    first row; any other list is one row of fixed length.  Integers come back
    as floats where the schema has a float, which must be finite.
    """
    if value is None and where in _NULLABLE:
        return None
    kind = _NULLABLE.get(where, type(default))
    if type(value) not in _ACCEPTS.get(kind, (kind,)):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is dict:
        out = dict(default)
        for key, item in value.items():
            path = f"{where}.{key}" if where else str(key)
            if key not in default:
                raise ConfigError(f"{path} is not a known key")
            out[key] = _overlay(item, default[key], path)
        return out
    if kind is list:
        if default and type(default[0]) in (list, dict):
            return [_overlay(v, default[0], f"{where}.{i}") for i, v in enumerate(value)]
        if len(value) != len(default):
            raise ConfigError(f"{where} must have {len(default)} items, got {value!r}")
        return [_overlay(v, d, f"{where}.{i}") for i, (v, d) in enumerate(zip(value, default))]
    if kind is float:
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{where} is out of range") from None
        if not math.isfinite(number):
            raise ConfigError(f"{where} must be a finite number, got {number}")
        return number
    return value


def _checked(cfg: Mapping[str, Any]) -> dict[str, Any]:
    """``cfg`` checked against ``default_config()`` and laid over it."""
    if type(cfg) is not dict:
        raise ConfigError("a config must be a JSON object")
    return _overlay(cfg, default_config(), "")


def _build(where: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, its ``ValueError`` a ``ConfigError`` at ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# --- the physics bundle and the run -----------------------------------------

# the keys of the run config fields that are not run.<field>
_KEYS = {"test_id": "run.test", "alpha": "selection.alpha", "beta_pct": "selection.beta_pct"}


def run_config_from(cfg: Mapping[str, Any]) -> RunConfig:
    """The run a config document describes, its physics bundle included."""
    d = _checked(cfg)
    run, sel = d["run"], d["selection"]
    physics = dict(
        propagation=_build("propagation", PropagationParams, **d["propagation"]),
        mcs_tables={
            Band(key): _build(
                f"mcs_tables.{key}",
                McsTable,
                band=Band(key),
                channel_width_mhz=spec["channel_width_mhz"],
                entries=tuple(McsEntry(*row) for row in spec["entries"]),
            )
            for key, spec in d["mcs_tables"].items()
        },
        overheads={
            Band(key): _build(f"mac_overheads.{key}", MacOverheads, **spec)
            for key, spec in d["mac_overheads"].items()
        },
        band_mhz={Band(key): mhz for key, mhz in d["band_mhz"].items()},
        congested_hop_delay_ms=d["congested_hop_delay_ms"],
    )
    try:
        params = EngineParams(**physics)
    except ValueError as exc:  # its message opens with the key's name
        raise ConfigError(str(exc)) from None
    if run["emit_events"] and run["out_dir"] is None:
        raise ConfigError("run.emit_events needs run.out_dir, the directory its traces go to")
    try:
        return RunConfig(
            test_id=run["test"],
            alpha=sel["alpha"],
            beta_pct=sel["beta_pct"],
            k=run["k"],
            seed=run["seed"],
            workers=run["workers"],
            out_dir=run["out_dir"],
            emit_events=run["emit_events"],
            params=params,
        )
    except ValueError as exc:  # its message opens with the field's name
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_KEYS.get(name, 'run.' + name)} {rest}") from None


# --- scenario parsing -------------------------------------------------------

_NODE_KINDS = {k.value: k for k in NodeKind}

# the keys of a generated layout, and of an explicit node, with their defaults
_LAYOUT = {
    "kind": "circle",
    "n_extenders": 0,
    "extender_rssi_dbm": DEFAULT_EXTENDER_RSSI_DBM,
    "channel_plan": "multi",
}
_NODE = {
    "id": 0,
    "kind": "sta",
    "position": [0.0, 0.0],
    "backhaul_parent": 0,
    "access_channel": 1,
    "backhaul_channel": 36,
    "tx_power_dbm": 20.0,
    "sensitivity_dbm": -90.0,
    "spatial_streams": 2,
    "supports_11kv": False,
}


def _explicit_topology(section: Mapping[str, Any]) -> Topology:
    for key in section:
        if key not in ("kind", "nodes", "associations"):
            raise ConfigError(f"scenario.{key} is not a known key")
    raw_nodes = section.get("nodes")
    if type(raw_nodes) is not list or not raw_nodes:
        raise ConfigError("scenario.nodes must be a non-empty list")
    nodes = []
    parents: dict[int, int] = {}
    for i, spec in enumerate(raw_nodes):
        where = f"scenario.nodes.{i}"
        d = _overlay(spec, _NODE, where)
        kind = _NODE_KINDS.get(d["kind"])
        if kind is None:
            raise ConfigError(f"{where}.kind must be one of {sorted(_NODE_KINDS)}")
        required = ("id", "kind", "position")
        if kind is NodeKind.EXTENDER:
            required += ("backhaul_parent",)
            parents[d["id"]] = d["backhaul_parent"]
        for key in required:
            if key not in spec:
                raise ConfigError(f"{where}.{key} is required")
        # a station has the access radio only
        channels = ((Band.GHZ_2_4, d["access_channel"]), (Band.GHZ_5, d["backhaul_channel"]))
        try:
            radios = tuple(
                RadioConfig(
                    band=band,
                    channel=ChannelId(band, number),
                    tx_power_dbm=d["tx_power_dbm"],
                    sensitivity_dbm=d["sensitivity_dbm"],
                    spatial_streams=d["spatial_streams"],
                )
                for band, number in channels[: 1 if kind is NodeKind.STA else 2]
            )
            nodes.append(Node(d["id"], kind, tuple(d["position"]), radios,
                              supports_11kv=d["supports_11kv"]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raw_assoc = section.get("associations", {})
    if type(raw_assoc) is not dict:
        raise ConfigError(f"scenario.associations must be an object, got {raw_assoc!r}")
    for key, parent in raw_assoc.items():
        if not str(key).isdecimal() or type(parent) is not int:
            raise ConfigError(
                f"scenario.associations.{key} must map a station id to a node id"
            )
    return Topology(
        nodes=_build("scenario.nodes", make_node_map, nodes),
        associations={int(key): parent for key, parent in raw_assoc.items()},
        backhaul_parent=parents,
    )


def topology_from_scenario(
    section: Mapping[str, Any],
    propagation: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> Topology:
    """Build the layout a ``scenario`` config section describes."""
    if type(section) is not dict:
        raise ConfigError("scenario section must be an object")
    kind = section.get("kind")
    if kind == "explicit":
        return _explicit_topology(section)
    if kind not in ("circle", "home"):
        raise ConfigError(
            f"scenario.kind must be 'explicit', 'circle' or 'home', got {kind!r}"
        )
    d = _overlay(section, _LAYOUT, "scenario")
    area = AreaKind.HOME_RECT if kind == "home" else AreaKind.CIRCLE_DMAX
    try:
        spec = ScenarioSpec(area=area, n_extenders=d["n_extenders"],
                            channel_plan=d["channel_plan"])
        return build_topology(spec, d["extender_rssi_dbm"], propagation, band_mhz)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"scenario: {exc}") from None
