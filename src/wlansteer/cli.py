"""Command line front end.

    wlansteer run --test 1.3 --out results/t13
    wlansteer run --test 2.2 --alpha 0.75 --workers 8
    wlansteer list-tests
    wlansteer validate --scenario layout.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .config import ConfigError, load_config, run_config_from, topology_from_scenario
from .model import validate_topology
from .runner import MAX_WORKERS, RunConfig, run
from .scenarios import TEST_IDS, build_test
from .selection import Mechanism


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    """The options of ``wlansteer run``, which ``_run_config`` reads."""
    p.add_argument("--test", help="campaign test id, e.g. 1.3")
    p.add_argument("--config", help="JSON config file with defaults")
    p.add_argument("--alpha", type=float, help="access/backhaul weight in [0,1]")
    p.add_argument("--beta", type=float, dest="beta_pct",
                   help="share of stations supporting measurements, in percent")
    p.add_argument("--k", type=int, help="deployments per sweep point")
    p.add_argument("--seed", type=int, help="base seed for station draws")
    p.add_argument("--mechanism", choices=[m.value for m in Mechanism],
                   help="run only this mechanism's grid rows")
    p.add_argument("--channel-plan", choices=["multi", "single"],
                   help="run only this channel plan's grid rows")
    p.add_argument("--n-ext", type=int, help="run only rows with this extender count")
    p.add_argument("--b-t", type=float, nargs="+", metavar="MBPS",
                   help="run only these total demands (Mbps)")
    p.add_argument("--out", help="directory for rows.csv / aggregates.csv / results.json")
    p.add_argument("--workers", type=int,
                   help=f"worker processes, at most {MAX_WORKERS}"
                   " (default: the config's, else 1)")
    p.add_argument("--emit-events", action="store_true",
                   help="write per-deployment message traces (ndjson)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlansteer",
        description="Monte-Carlo simulator for AP/extender selection in home WiFi",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_arguments(sub.add_parser("run", help="execute one campaign test"))

    sub.add_parser("list-tests", help="show known campaign test ids")

    p_val = sub.add_parser("validate", help="check a scenario config file")
    p_val.add_argument("--scenario", required=True, help="JSON file describing a layout")
    return parser


# the run config fields whose flag has another name
_FLAGS = {"test_id": "test", "beta_pct": "beta"}


def _run_config(args: argparse.Namespace) -> RunConfig:
    if args.config is None and args.test is None:
        raise ConfigError("either --test or --config is required")
    base = None if args.config is None else run_config_from(load_config(args.config))
    flags = dict(
        test_id=args.test, alpha=args.alpha, beta_pct=args.beta_pct, k=args.k,
        seed=args.seed, mechanism=args.mechanism, channel_plan=args.channel_plan,
        n_ext=args.n_ext, out_dir=args.out, workers=args.workers,
        b_t_bps=None if args.b_t is None else tuple(x * 1e6 for x in args.b_t),
        emit_events=args.emit_events or None,
    )
    given = {f: v for f, v in flags.items() if v is not None}
    try:  # RunConfig checks its fields; each message opens with the field's name
        cfg = RunConfig(**given) if base is None else replace(base, **given)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"--{_FLAGS.get(name, name)} {rest}") from None
    if cfg.emit_events and cfg.out_dir is None:
        raise ConfigError("--emit-events needs --out, the directory its traces go to")
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    result = run(cfg)
    print(f"test {cfg.test_id}: {len(result.points)} sweep points, "
          f"{len(result.rows)} deployment rows")
    for a in result.aggregates:
        extras = []
        if a.rssi_ap_e_dbm is not None:
            extras.append(f"ap-e={a.rssi_ap_e_dbm:g}dBm")
        if a.b_ext_bps:
            extras.append(f"ext={a.b_ext_bps / 1e6:g}Mbps")
        tag = (" " + " ".join(extras)) if extras else ""
        print(
            f"  {a.mechanism:9s} ext={a.n_ext} plan={a.channel_plan} "
            f"a={a.alpha:g} b={a.beta_pct:g} B_T={a.b_t_bps / 1e6:g}Mbps{tag}: "
            f"thr={a.mean_throughput_pct:.2f}% delay={a.mean_delay_ms:.3f}ms "
            f"congested={a.congested_pct:.1f}% assoc={a.association_rate_pct:.2f}%"
        )
    if cfg.out_dir:
        print(f"wrote {cfg.out_dir}/rows.csv, aggregates.csv, results.json")
    return 0


def _cmd_list_tests() -> int:
    for test_id in sorted(TEST_IDS):
        print(f"{test_id}  [{len(build_test(test_id)):4d} points]  {TEST_IDS[test_id]}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    raw = load_config(args.scenario)
    if "scenario" in raw:  # the rest of the document is a run config
        section = raw.pop("scenario")
    else:  # the whole document is the scenario section
        section, raw = raw, {}
    params = run_config_from(raw).params
    topo = topology_from_scenario(section, params.propagation, params.band_mhz)
    problems = validate_topology(topo)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    print(f"ok: {len(topo.nodes)} nodes, {len(topo.backhaul_parent)} extender links")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-tests":
            return _cmd_list_tests()
        if args.command == "validate":
            return _cmd_validate(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
