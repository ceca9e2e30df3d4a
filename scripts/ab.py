#!/usr/bin/env python3
"""Time two source trees' ``runner.run`` in one process, call for call.

    python3 scripts/ab.py OLD_TREE NEW_TREE --test 1.3 --mechanism rssi --k 8 --seconds 20
    python3 scripts/ab.py OLD_TREE NEW_TREE --test 1.2 --k 400 --workers 2

Each tree is a checkout whose ``src/wlansteer`` is loaded as a package of
its own, so both live in one interpreter.  After one warm-up run each, the
script checks that both trees wrote the same bytes: when they did not, it
names the files that differ on stderr and exits 1.  Then it alternates their
runs, each writing its bundle into a fresh directory, for about
``--seconds`` of wall time, and prints each tree's median run time and the
median of the per-pair speed-ups (old time over new time).
``--workers`` runs both trees on that many pool processes; each tree keeps
its own pool for the whole script, as a process that makes several runs does.
Medians of separate processes can differ by far more than a change moves
them on a shared machine; pairs taken in one process ride out most of that.
This is a sizing aid: it checks only that the trees agree, not that either
is right, and times no set-up; ``perfbench/run.py`` does both.
"""
import argparse
import filecmp
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

BUNDLE = ("rows.csv", "aggregates.csv", "results.json")


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

        def one(side: int) -> tuple[float, str]:
            """The wall time of one run of the tree ``side``, and its bundle's directory."""
            out = tempfile.mkdtemp(dir=tmp)
            cfg = configs[side]
            cfg.out_dir = out
            t0 = time.perf_counter()
            runners[side].run(cfg)
            return time.perf_counter() - t0, out

        warm = [one(0)[1], one(1)[1]]
        differ = [name for name in BUNDLE if not filecmp.cmp(
            os.path.join(warm[0], name), os.path.join(warm[1], name), shallow=False)]
        if differ:
            print(f"the trees write different bytes: {', '.join(differ)}", file=sys.stderr)
            return 1
        start = time.perf_counter()
        while not times[0] or time.perf_counter() - start < args.seconds:
            # each pair alternates which tree runs first
            order = (0, 1) if len(times[0]) % 2 == 0 else (1, 0)
            for side in order:
                wall, out = one(side)
                times[side].append(wall)
                shutil.rmtree(out)
    ratios = [old / new for old, new in zip(*times)]
    for label, tree, ts in zip(("old", "new"), (args.old, args.new), times):
        print(f"{label}  {tree}: median {statistics.median(ts) * 1e3:.3f} ms over {len(ts)} runs")
    print(f"speed-up: median {statistics.median(ratios):.3f}x over {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
