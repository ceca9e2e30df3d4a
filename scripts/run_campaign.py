#!/usr/bin/env python3
"""Run one campaign test end to end and print a digest of the results.

Takes the options of ``wlansteer run`` (``--test`` or ``--config``, grid
filters and overrides, ``--out``, ``--workers``, ``--emit-events``); with
``--out`` it writes rows.csv, aggregates.csv and results.json there. For
tests that sweep the offered demand, also prints the operational range each
curve sustains under the three stop criteria.
"""
import argparse
import sys
import time
from collections import defaultdict

from wlansteer import cli
from wlansteer.config import ConfigError
from wlansteer.runner import RANGE_CRITERIA, operational_range, run


def digest(res) -> None:
    groups = defaultdict(list)
    for a in res.aggregates:
        key = (a.mechanism, a.n_ext, a.channel_plan, a.alpha, a.beta_pct,
               a.rssi_ap_e_dbm, a.b_ext_bps)
        groups[key].append(a)
    sweeps_demand = len({a.b_t_bps for a in res.aggregates}) > 1
    for key in sorted(groups, key=str):
        mech, n_ext, plan, alpha, beta, rssi, b_ext = key
        aggs = sorted(groups[key], key=lambda a: a.b_t_bps)
        label = f"{mech:<9} ext={n_ext} plan={plan} a={alpha} b={beta:g}"
        if rssi is not None:
            label += f" rssi={rssi:g}"
        if b_ext:
            label += f" bext={b_ext / 1e6:g}M"
        if sweeps_demand and len(aggs) > 1:
            ranges = "  ".join(
                f"{c}={operational_range(aggs, c) / 1e6:.2f}M" for c in RANGE_CRITERIA)
            print(f"{label}  {ranges}")
        else:
            for a in aggs:
                print(f"{label}  B_T={a.b_t_bps / 1e6:g}M thr={a.mean_throughput_pct:.2f}%"
                      f" delay={a.mean_delay_ms:.3f}ms congested={a.congested_pct:.1f}%"
                      f" assoc={a.association_rate_pct:.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli._add_run_arguments(parser)
    try:
        cfg = cli._run_config(parser.parse_args(argv))
        started = time.time()
        res = run(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    digest(res)
    where = f" -> {cfg.out_dir}/" if cfg.out_dir else ""
    print(f"{len(res.rows)} rows from {len(res.points)} sweep points"
          f" in {time.time() - started:.1f} s{where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
