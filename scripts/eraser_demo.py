#!/usr/bin/env python3
"""Read out a geometric phase from interference fringes and compare it with
the overlap-product definition.

Runs the two-path protocol on the textbook qubit triple (|+>, |0>, |y+>),
whose phase is pi/4, and on a random 4-level triple. Optionally dumps the
projected fringe so it can be plotted.
"""

import argparse
import math

import numpy as np

from triphase import (
    EraserConfig,
    PureState,
    fringe_pair,
    random_pure_state,
    three_vertex_phase,
    wrap_angle,
)
from triphase.cli import scan_csv


def report(label, psi1, psi2, psi3, cfg, scan_path=None):
    projected, plain = fringe_pair(psi1, psi2, psi3, cfg)
    fringe = wrap_angle(projected.center - plain.center)
    direct = three_vertex_phase(psi1, psi2, psi3)
    print(f"--- {label}")
    print(f"delta_f = {projected.center:+.9f}   delta_m = {plain.center:+.9f}")
    print(f"gamma (fringe shift) = {fringe:+.9f}")
    print(f"gamma (overlap arg)  = {direct:+.9f}   |diff| = {abs(fringe - direct):.2e}")
    print(f"visibility = {projected.visibility:.6f}")
    if scan_path:
        with open(scan_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(scan_csv(projected))
        print(f"fringe written to {scan_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scan-csv", metavar="PATH", default=None)
    args = parser.parse_args()

    cfg = EraserConfig(grid_size=args.grid)
    s = 1 / math.sqrt(2.0)
    report(
        "qubit triple with phase pi/4",
        PureState(np.array([s, s])),
        PureState(np.array([1.0, 0.0])),
        PureState(np.array([s, s * 1j])),
        cfg,
        scan_path=args.scan_csv,
    )
    report(
        f"random 4-level triple (seed {args.seed})",
        random_pure_state(4, args.seed),
        random_pure_state(4, args.seed + 1),
        random_pure_state(4, args.seed + 2),
        cfg,
    )


if __name__ == "__main__":
    main()
