"""The scripts under scripts/, run as a user runs them."""
import importlib.util
import os
import shutil
import subprocess
import sys
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_campaign(*args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_campaign.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_run_campaign_writes_the_bundle_and_prints_the_digest(tmp_path):
    out = tmp_path / "out"
    proc = _run_campaign("--test", "2.4", "--out", str(out))
    assert {p.name for p in out.iterdir()} == {"rows.csv", "aggregates.csv", "results.json"}
    lines = proc.stdout.splitlines()
    # one digest line per sweep point of 2.4, which has one demand per curve
    assert len(lines) == 126
    assert lines[0].startswith("loadaware ext=1 plan=multi") and " B_T=" in lines[0]
    assert lines[-1].startswith("125 rows from 125 sweep points in ")
    assert lines[-1].endswith(f" -> {out}/")


def test_run_campaign_takes_the_run_options(tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text('{"run": {"test": "2.4"}, "selection": {"alpha": 0.0}}')
    proc = _run_campaign("--config", str(conf), "--mechanism", "loadaware", "--b-t", "43.2")
    lines = proc.stdout.splitlines()
    assert len(lines) == 76
    assert all(line.startswith("loadaware ") and " a=0.0 " in line for line in lines[:-1])
    assert lines[-1].startswith("75 rows from 75 sweep points in ")
    assert lines[-1].endswith(" s")


def test_run_campaign_fails_when_the_filters_keep_no_sweep_point(tmp_path):
    out = tmp_path / "out"
    proc = _run_campaign("--test", "2.4", "--n-ext", "3", "--out", str(out), returncode=1)
    assert (proc.stdout, proc.stderr) == ("", "error: test 2.4 has no sweep point with n_ext=3\n")
    assert not out.exists()


def test_run_campaign_fails_when_events_have_no_output_directory():
    proc = _run_campaign("--test", "2.4", "--emit-events", returncode=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --emit-events needs --out")


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_catalogued_mutant_still_applies_once():
    mutants = _mutants()
    entries = mutants.load()
    assert len({e["label"] for e in entries}) == len(entries)
    for entry in entries:
        with open(os.path.join(ROOT, entry["file"]), encoding="utf-8") as fh:
            text = fh.read()
        assert mutants.mutated(entry, text) != text, entry["label"]
        assert entry["tests"], entry["label"]
        for test in entry["tests"]:
            assert os.path.isfile(os.path.join(ROOT, test.split("::")[0])), test


def test_mutants_only_runs_the_entries_whose_label_contains_it(monkeypatch, capsys):
    # the copy passes its tests unmutated, then fails them with the mutant
    mutants = _mutants()
    (entry,) = [e for e in mutants.load() if "MCS count" in e["label"]]
    runs = []
    monkeypatch.setattr(mutants, "_passes",
                        lambda root, tests: runs.append(tests) or len(runs) == 1)
    assert mutants.main(["--only", "MCS count"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"killed    {entry['label']}"
    assert lines[1].startswith("1 of 1 killed in ")
    assert runs == [entry["tests"], entry["tests"]]
    assert mutants.main(["--only", "no such label"]) == 2
    assert capsys.readouterr().err == "no catalogued mutant's label contains 'no such label'\n"


def _processes_holding(marker: str) -> list[int]:
    """The pids of the running processes whose environment holds ``marker``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if marker.encode() in fh.read():
                    found.append(int(pid))
        except OSError:  # gone, or another user's
            pass
    return found


def _ab(old_tree, new_tree, *extra, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "ab.py"), str(old_tree), str(new_tree),
         "--test", "1.3", "--mechanism", "rssi", "--k", "8", *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_ab_alternates_two_trees_in_one_process(tmp_path):
    # a second case runs both trees on two pool processes each, and leaves
    # none of them running; the pool workers inherit the script's environment
    token = uuid.uuid4().hex
    env = dict(os.environ, WLANSTEER_AB_TEST=token)
    for extra in (["--seconds", "1"], ["--seconds", "0", "--workers", "2"]):
        proc = _ab(ROOT, ROOT, *extra, env=env)
        assert proc.returncode == 0, proc.stderr
        old, new, ratio = proc.stdout.splitlines()
        assert old.startswith(f"old  {ROOT}: median ") and old.endswith(" runs")
        assert new.startswith(f"new  {ROOT}: median ") and new.endswith(" runs")
        assert ratio.startswith("speed-up: median ") and ratio.endswith(" pairs")
    if os.path.isdir("/proc"):
        assert _processes_holding(f"WLANSTEER_AB_TEST={token}") == []
    # a tree that spells the congestion flags as Python does writes other
    # bytes into both row files, and is timed against no other
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runner_py = tmp_path / "src" / "wlansteer" / "runner.py"
    text = runner_py.read_text()
    assert text.count('_FLAGS = ("false", "true")') == 1
    runner_py.write_text(text.replace('_FLAGS = ("false", "true")', '_FLAGS = ("False", "True")'))
    proc = _ab(ROOT, tmp_path, "--seconds", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "the trees write different bytes: rows.csv, results.json\n"


# a module docstring over two lines, a comment after code and on its own
# line, blank lines, function and class docstrings, and a string over two
# lines that is no docstring: 18 lines, 7 of them code
_SOURCE_FIXTURE = "\n".join([
    '"""A module docstring',
    'over two lines."""',
    "import os  # a trailing comment leaves its line code",
    "",
    "# a comment line",
    "",
    "",
    "def f(x):",
    '    """One line."""',
    '    text = """a string',
    'that is no docstring"""',
    "    return x",
    "",
    "",
    "class C:",
    '    """A class docstring."""',
    "",
    "    y = 1",
]) + "\n"


def test_src_lines_counts_all_lines_and_the_code_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(_SOURCE_FIXTURE)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "src_lines.py"), str(path), str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "36 lines, 14 without docstrings, comments and blank lines\n"
