"""The experiment scripts run end to end and write the files they announce."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)


def test_eraser_demo_writes_scan(tmp_path):
    scan = tmp_path / "scan.csv"
    proc = run_script("eraser_demo.py", "--grid", "256", "--scan-csv", str(scan))
    assert proc.returncode == 0, proc.stderr
    lines = scan.read_text().splitlines()
    assert lines[0] == "delta,probability" and len(lines) == 257
    assert f"fringe written to {scan}" in proc.stdout


def test_run_family_sweep_writes_one_csv_per_theta(tmp_path):
    proc = run_script("run_family_sweep.py", "--steps", "64", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["sweep_theta_0.2618.csv", "sweep_theta_0.5236.csv", "sweep_theta_1.0472.csv"]
    for name in names:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "alpha,gamma1,gamma2,gamma_wrapped,gamma_unwrapped"
        assert len(lines) == 66
