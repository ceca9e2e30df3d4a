#!/usr/bin/env python3
"""Run the mutant catalogue and report which mutants the tests kill.

    python3 scripts/mutants.py [--only SUBSTRING]

Each entry of ``scripts/mutants.json`` names a file, its exact old text, the
new text, a label and the pytest node ids to run.  The runner copies the
repository to a temporary directory, checks that the unmutated copy passes
every named test, then applies one mutant at a time, runs its tests and puts
the file back.  A mutant is killed when its tests fail.  Prints one line per
mutant and a summary; exits 1 when a mutant survives.  ``--only`` runs the
entries whose label contains SUBSTRING, and exits 2 when there is none.

The old text must occur exactly once in its file, so that an entry never
mutates the wrong place; an entry whose code has gone no longer applies and
is dropped from the catalogue.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "scripts", "mutants.json")
# what the tests import and read
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml")


def load(path: str = CATALOGUE) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mutated(entry: dict, text: str) -> str:
    """``text`` with the entry's old text replaced by its new text."""
    found = text.count(entry["old"])
    if found != 1:
        raise ValueError(f"{entry['label']}: old text occurs {found} times in {entry['file']}")
    return text.replace(entry["old"], entry["new"])


def _passes(root: str, tests: list[str]) -> bool:
    # no bytecode cache: a mutant of the same size written within the same
    # second as the original would otherwise run the original's cached code
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="SUBSTRING",
                        help="run only the entries whose label contains SUBSTRING")
    only = parser.parse_args(argv).only
    entries = [entry for entry in load() if only is None or only in entry["label"]]
    if not entries:
        print(f"no catalogued mutant's label contains {only!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as root:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(root, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        named = sorted({t for entry in entries for t in entry["tests"]})
        if not _passes(root, named):
            print("the unmutated copy fails the named tests", file=sys.stderr)
            return 1
        survived = []
        for entry in entries:
            path = os.path.join(root, entry["file"])
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(mutated(entry, original))
                killed = not _passes(root, entry["tests"])
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            print(f"{'killed' if killed else 'SURVIVED':8s}  {entry['label']}", flush=True)
            if not killed:
                survived.append(entry["label"])
    print(f"{len(entries) - len(survived)} of {len(entries)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
