"""Time a workload's set-up in a fresh interpreter and print it as JSON.

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload stock-circle --seed 0

Set-up is importing ``wlansteer``, building the workload's campaign grid with
``scenarios.build_test`` and filtering it with ``runner.apply_overrides``.
"""

import argparse
import json
import time

from workloads import WORKLOADS, run_config, seed_value


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import wlansteer  # noqa: F401
    from wlansteer.runner import apply_overrides
    from wlansteer.scenarios import build_test

    t1 = time.perf_counter()
    cfg = run_config(workload, seed_value(args.seed, args.held_out), None)
    points = apply_overrides(build_test(cfg.test_id), cfg)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "grid_s": t2 - t1, "points": len(points)}))


if __name__ == "__main__":
    main()
