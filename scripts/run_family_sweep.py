#!/usr/bin/env python3
"""Sweep the qutrit family phase over alpha for several theta values.

Writes one CSV per theta (same columns as `triphase sweep`) and prints a
summary table: winding, singular alphas, and the peak slope next to
its analytic value 1/tan(theta/2). The nonlinear steepening as theta shrinks
is the point of the exercise. The peak slope is a finite difference on the
requested grid, so it matches 1/tan(theta/2) only when the step 2pi/steps
is well below tan(theta/2); on a coarser grid it reads at most 2pi/step.
"""

import argparse
import math
import pathlib

from triphase import sweep_alpha
from triphase.cli import sweep_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phi", type=float, default=math.pi / 4)
    parser.add_argument("--steps", type=int, default=4096)
    parser.add_argument("--thetas", type=float, nargs="+",
                        default=[math.pi / 3, math.pi / 6, math.pi / 12])
    parser.add_argument("--outdir", default="out")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"phi = {args.phi:.6g}, steps = {args.steps}")
    print(f"{'theta':>10} {'winding':>10} {'peak slope':>12} {'1/tan(t/2)':>12}  singular alphas")
    for theta in args.thetas:
        result = sweep_alpha(theta, args.phi, args.steps)
        path = outdir / f"sweep_theta_{theta:.4f}.csv"
        path.write_text(sweep_csv(result), encoding="utf-8", newline="")
        singular = " ".join(f"{a:.4f}" for a in result.singular_alphas)
        print(f"{theta:>10.4f} {result.winding:>10.6f} {result.peak_slope:>12.4f}"
              f" {1.0 / math.tan(theta / 2):>12.4f}  {singular}")
        print(f"{'':>10} -> {path}")


if __name__ == "__main__":
    main()
