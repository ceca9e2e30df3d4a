"""Pin the golden digests of every workload from the code in ``src/``.

    python3 perfbench/pin.py [workload ...]

For each workload and each seed in ``workloads.SEEDS`` plus the held-out seed,
runs the workload on one worker and writes the per-point digests of its
bundle to ``golden/<workload>.json``. Run it only on code whose outputs are
known to be right: the benchmark counts every later difference as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from digests import bundle_digests, golden_path  # noqa: E402
from workloads import HELD_OUT_SEED, SEEDS, WORKLOADS, run_config, seed_key  # noqa: E402

import wlansteer  # noqa: E402
from wlansteer.runner import run  # noqa: E402


def pin(name: str, scratch: str) -> dict:
    workload = WORKLOADS[name]
    seeds = {}
    shape = None
    for seed in SEEDS + (HELD_OUT_SEED,):
        bundle = os.path.join(scratch, f"{name}-{seed_key(seed)}")
        res = run(run_config(workload, seed, bundle, workers=1))
        ks = {p.scenario.k for p in res.points}
        if len(ks) != 1:
            raise ValueError(f"{name}: points differ in k: {sorted(ks)}")
        shape = (len(res.points), ks.pop())
        got = bundle_digests(bundle, workload.test_id, *shape, workload.emit_events)
        if any(got.pop("extra").values()):
            raise ValueError(f"{name}: bundle does not have the expected layout")
        seeds[seed_key(seed)] = got
        shutil.rmtree(bundle)
    first = next(iter(seeds.values()))
    return {
        "workload": name,
        "test_id": workload.test_id,
        "n_points": shape[0],
        "k": shape[1],
        "events": workload.emit_events,
        "wlansteer_version": wlansteer.__version__,
        "seed_invariant": all(d == first for d in seeds.values()),
        "seeds": seeds,
    }


def main(names) -> None:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pin-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        for name in names or sorted(WORKLOADS):
            golden = pin(name, scratch)
            with open(golden_path(name), "w") as fh:
                json.dump(golden, fh, indent=1)
                fh.write("\n")
            print(f"{name}: {golden['n_points']} points x {len(golden['seeds'])} seeds, "
                  f"seed_invariant={golden['seed_invariant']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
