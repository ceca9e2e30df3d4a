#!/usr/bin/env python3
"""Time two source trees' ``runner.run`` in one process, call for call.

    python3 scripts/ab.py OLD_TREE NEW_TREE --test 1.3 --mechanism rssi --k 8 --seconds 20
    python3 scripts/ab.py OLD_TREE NEW_TREE --test 1.2 --k 400 --workers 2

Each tree is a checkout whose ``src/wlansteer`` is loaded as a package of
its own, so both live in one interpreter.  The script alternates their runs,
each writing its bundle into a fresh directory, for about ``--seconds`` of
wall time after one warm-up run each, then prints each tree's median run
time and the median of the per-pair speed-ups (old time over new time).
``--workers`` runs both trees on that many pool processes; each tree keeps
its own pool for the whole script, as a process that makes several runs does.
Medians of separate processes can differ by far more than a change moves
them on a shared machine; pairs taken in one process ride out most of that.
This is a sizing aid: it checks no output and times no set-up, which
``perfbench/run.py`` does.
"""
import argparse
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time


def load(tree: str, name: str):
    """The ``runner`` module of the package under ``tree/src/wlansteer``,
    imported as the package ``name``."""
    package = os.path.join(os.path.abspath(tree), "src", "wlansteer")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{name}.runner"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", metavar="OLD_TREE")
    ap.add_argument("new", metavar="NEW_TREE")
    ap.add_argument("--test", required=True)
    ap.add_argument("--mechanism")
    ap.add_argument("--k", type=int)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    runners = [load(tree, f"_ab{i}_wlansteer") for i, tree in enumerate((args.old, args.new))]
    configs = [r.RunConfig(test_id=args.test, mechanism=args.mechanism, k=args.k,
                           workers=args.workers)
               for r in runners]
    times: list[list[float]] = [[], []]
    with tempfile.TemporaryDirectory() as tmp:

        def one(side: int) -> float:
            out = tempfile.mkdtemp(dir=tmp)
            cfg = configs[side]
            cfg.out_dir = out
            t0 = time.perf_counter()
            runners[side].run(cfg)
            wall = time.perf_counter() - t0
            shutil.rmtree(out)
            return wall

        one(0), one(1)
        start = time.perf_counter()
        while not times[0] or time.perf_counter() - start < args.seconds:
            # each pair alternates which tree runs first
            order = (0, 1) if len(times[0]) % 2 == 0 else (1, 0)
            for side in order:
                times[side].append(one(side))
    ratios = [old / new for old, new in zip(*times)]
    for label, tree, ts in zip(("old", "new"), (args.old, args.new), times):
        print(f"{label}  {tree}: median {statistics.median(ts) * 1e3:.3f} ms over {len(ts)} runs")
    print(f"speed-up: median {statistics.median(ratios):.3f}x over {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
