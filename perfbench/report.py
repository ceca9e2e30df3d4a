"""Run every workload untraced and traced, and print all their metrics.

    python3 perfbench/report.py [--seconds 55] [--seed 0] [--held-out] [workload ...]

For each workload this runs ``run.py`` with ``--trace 0`` and ``--trace 1``
and passes their tables through: every end-to-end and per-layer metric with
its unit and sample count, the traced run's self time per span, and its
tracing overhead. It ends with one summary line per workload and exits
non-zero if a run failed or an output differed from the pinned digests.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", help=f"default: all of {', '.join(WORKLOADS)}")
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads: {', '.join(unknown)}")
    summary = []
    ok = True
    for name in args.workloads or list(WORKLOADS):
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.held_out:
                cmd.append("--held-out")
            print(f"\n== {name} --trace {trace}", flush=True)
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=os.path.dirname(HERE))
            lines = out.stdout.strip().splitlines()
            if out.returncode or not lines:
                ok = False
                summary.append(f"{name:<20} trace={trace} exited {out.returncode}")
                continue
            results[trace] = json.loads(lines[-1])
            ok &= results[trace]["correct"]
        if len(results) == 2:
            m0, m1 = results[0]["metrics"], results[1]["metrics"]
            summary.append(
                f"{name:<20} {m0['deployments_per_s']['value']:>10.1f} deployments/s  "
                f"setup {m0['setup_s']['value']:.3f} s  peak {m0['peak_rss_mb']['value']:.1f} MB  "
                f"trace overhead {m1['trace.overhead_pct']['value']:+.1f}%  "
                f"failed {results[0]['failed'] + results[1]['failed']}"
                f"/{results[0]['attempted'] + results[1]['attempted']} points"
            )
    print("\n== summary", *summary, sep="\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
