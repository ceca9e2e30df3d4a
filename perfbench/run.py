"""Benchmark of the wlansteer campaign engine: one workload, one seed.

    python3 perfbench/run.py --workload stock-circle --seed 0 --seconds 55 --trace 0

Run it from the repository root. ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``measure.py``). Both time the
set-up in fresh interpreters and check every output bundle against the
digests pinned in ``golden/``. A table of every metric with its unit and
sample count goes to stderr; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` (sweep points checked and points that
differ) and ``metrics``.

Bundles are written under ``.bench_out/`` in the repository root and removed
when the run ends; a traced run leaves its spans in
``.bench_out/spans-<workload>.ndjson``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 11
END_TO_END = ("deployments_per_s", "setup_s", "peak_rss_mb")

from workloads import WORKLOADS, seed_key, seed_value  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--held-out", action="store_true",
        help="run on the held-out pinned seed instead of the one --seed picks",
    )
    return ap.parse_args(argv)


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class SetupSampler:
    """Set-up timed in SETUP_RUNS fresh interpreters spread over the run.

    One warm-up interpreter runs first and is not counted. Spreading the rest
    over the run's seconds lets their median ride out the machine's slow
    spells the way the throughput does.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p
        )
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.held_out:
            self.cmd.append("--held-out")
        self.every = args.seconds / SETUP_RUNS
        self.samples: list[dict] = []
        self._probe()
        self.samples.clear()
        self.start = time.perf_counter()

    def _probe(self) -> None:
        out = subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120)
        self.samples.append(json.loads(out.stdout.strip().splitlines()[-1]))

    def between(self) -> None:
        """Take the next sample if it is due."""
        due = self.start + len(self.samples) * self.every
        if len(self.samples) < SETUP_RUNS and time.perf_counter() >= due:
            self._probe()

    def metrics(self) -> dict:
        while len(self.samples) < SETUP_RUNS:
            self._probe()
        n = len(self.samples)

        def median(key) -> float:
            return statistics.median(key(s) for s in self.samples)

        return {
            "setup_s": (median(lambda s: s["import_s"] + s["grid_s"]), "s", n),
            "setup.import_s": (median(lambda s: s["import_s"]), "s", n),
            "setup.grid_s": (median(lambda s: s["grid_s"]), "s", n),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wlansteer", "__init__.py")):
        print(f"perfbench: no wlansteer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from digests import load_golden
    from measure import Context, log, self_time_table, traced, untraced
    from spans import write_ndjson

    workload = WORKLOADS[args.workload]
    seed = seed_value(args.seed, args.held_out)
    os.makedirs(OUT_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT)
    ctx = Context(workload, seed, seed_key(seed), load_golden(workload.name), scratch)
    log(f"perfbench {workload.name}: RunConfig.seed={seed} trace={args.trace} "
        f"seconds={args.seconds:g} {json.dumps(machine())}")
    try:
        sampler = SetupSampler(args)
        if args.trace:
            metrics, spans = traced(ctx, args.seconds, sampler.between)
        else:
            metrics = untraced(ctx, args.seconds, sampler.between)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup = sampler.metrics()
    if args.trace:
        metrics.update((k, v) for k, v in setup.items() if k.startswith("setup."))
        spans_path = os.path.join(OUT_ROOT, f"spans-{workload.name}.ndjson")
        write_ndjson(spans, spans_path)
        log(f"{len(spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
        log(f"{'span':<34}{'calls':>8}{'mean us':>12}{'self us':>12}")
        for name, calls, mean, own in self_time_table(spans):
            log(f"{name:<34}{calls:>8}{mean:>12.2f}{own:>12.2f}")
    else:
        metrics["setup_s"] = setup["setup_s"]
        metrics = {k: metrics[k] for k in END_TO_END}

    tally = ctx.tally
    for note in tally.notes:
        log(note)
    frac = tally.failed / tally.attempted
    log(f"{'metric':<30}{'value':>14}  {'unit':<6}{'samples':>8}")
    for name, (value, unit, n) in metrics.items():
        log(f"{name:<30}{value:>14.6g}  {unit:<6}{n:>8}")
    log(f"{'failed_points_frac':<30}{frac:>14.6g}  {'ratio':<6}{tally.attempted:>8}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
