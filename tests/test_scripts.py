"""The scripts under scripts/, run as a user runs them."""
import os
import subprocess
import sys

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
