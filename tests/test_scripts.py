"""The experiment scripts run end to end and write the files they announce."""

import math
import os
import subprocess
import sys
from pathlib import Path

from triphase.cli import main

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
    outdir = tmp_path / "scan"
    proc = run_script("run_family_sweep.py", "--steps", "4096", "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["sweep_theta_0.2618.csv", "sweep_theta_0.5236.csv", "sweep_theta_1.0472.csv"]
    for name in names:
        lines = (outdir / name).read_text().splitlines()
        assert lines[0] == "alpha,gamma1,gamma2,gamma_wrapped,gamma_unwrapped"
        assert len(lines) == 4098
    # the script sweeps pi/3, pi/6, then pi/12 at one (phi, steps), so its
    # third sweep reuses the cached closed-form half; this process sweeps
    # pi/12 cold and must write the same bytes
    cold = tmp_path / "cold.csv"
    args = ["sweep", "--theta", repr(math.pi / 12), "--phi", repr(math.pi / 4), "--steps", "4096", "--out", str(cold)]
    assert main(args) == 0
    assert cold.read_bytes() == (outdir / "sweep_theta_0.2618.csv").read_bytes()


def test_cli_corpus_runs_are_identical(tmp_path):
    trees = []
    for name in ("first", "second"):
        root = tmp_path / name
        proc = run_script("cli_corpus.py", str(root), "--cases", "3")
        assert proc.returncode == 0, proc.stderr
        trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    assert trees[0] == trees[1]
    assert {trees[0][p] for p in trees[0] if p.name == "exit"} == {b"0\n", b"1\n", b"2\n"}
