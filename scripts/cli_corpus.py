#!/usr/bin/env python3
"""Run every triphase command on seeded inputs and record what it prints.

    python scripts/cli_corpus.py OUTDIR [--cases N]

Each case gets a directory under OUTDIR holding its input files, the files
the command wrote, and `exit`, `stdout` and `stderr`. Commands run
in-process through `triphase.cli.main`, from inside the case directory and
with relative paths, so two runs of the same code give identical trees and
`diff -r` between the trees of two versions shows every byte the CLI
changed. Only `triphase.cli` and numpy are imported, so any version with
the same command line can be compared.

The corpus covers all five commands in text, `--json` and `--degrees` output,
eraser's three `--mode`s with `--scan-csv`, sweep CSVs with their sidecars
(two on grids too coarse for their steep theta, three straddling the
theta below which the sweep's vanishing scan runs, and two next to
theta = pi/2, where q2 and q3 become orthogonal), requests that exit
with code 1 or 2, and the help of the program and of each command. N
seeded Haar triples (dims 2-20) run through phase, canonicalize, eraser and
majorana; fixed triples, states and point sets cover the special cases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from triphase import cli

S = 1 / math.sqrt(2.0)
QUARTER_TURN = ([S, S], [1, 0], [S, S * 1j])  # phase pi/4


def state_obj(vec) -> dict:
    vec = np.asarray(vec, dtype=complex)
    return {"dim": int(vec.size), "amplitudes": [[float(z.real), float(z.imag)] for z in vec]}


def triple_obj(psi1, psi2, psi3) -> dict:
    return {"psi1": state_obj(psi1), "psi2": state_obj(psi2), "psi3": state_obj(psi3)}


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def faint_triple(rng: np.random.Generator, dim: int, overlap: float):
    """Haar psi1, psi2 and a psi3 with |<psi3|psi2>| ~ overlap: a faint
    projected fringe."""
    psi1, psi2 = haar(rng, dim), haar(rng, dim)
    perp = psi1 - np.vdot(psi2, psi1) * psi2
    psi3 = perp / np.linalg.norm(perp) + overlap * psi2
    return psi1, psi2, psi3 / np.linalg.norm(psi3)


def faint_product_triple() -> tuple:
    """The dim-5 triple with overlaps <psi1|psi3>, <psi3|psi2>, <psi2|psi1>
    of 1.8e-5, 8.9e-6 and 1.0e-5 (product 1.6e-15) and phase 1.3: psi1,
    psi2 - conj(o21) psi1 and psi3 - o13 psi1 - (conj(o32) - o21 o13) psi2
    form a seeded Haar-random orthonormal frame."""
    o13, o32, o21 = 1.8e-5 * np.exp(0.4j), 8.9e-6 * np.exp(-1.1j), 1.0e-5 * np.exp(2.0j)
    rng = np.random.default_rng(5)
    frame, _ = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    e1, e2, e3 = frame.T
    psi2 = e2 + np.conj(o21) * e1
    psi3 = e3 + o13 * e1 + (np.conj(o32) - o21 * o13) * e2
    return e1, psi2 / np.linalg.norm(psi2), psi3 / np.linalg.norm(psi3)


class Corpus:
    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def run(self, name: str, argv: list[str], files: dict | None = None) -> None:
        """Write the input files (name -> JSON object, or text) into a fresh
        case directory, run the command there and record its results."""
        case = self.root / f"{self.count:04d}-{name}"
        self.count += 1
        case.mkdir(parents=True)
        for fname, obj in (files or {}).items():
            text = obj if isinstance(obj, str) else json.dumps(obj) + "\n"
            (case / fname).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(case)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # --help prints, then exits
                    code = exc.code
        finally:
            os.chdir(cwd)
        for fname, text in (("exit", f"{code}\n"), ("stdout", out.getvalue()), ("stderr", err.getvalue())):
            (case / fname).write_text(text, encoding="utf-8", newline="")

    def triple(self, name: str, triple: dict, grid: int) -> None:
        """phase, canonicalize and eraser on one triple, in every output mode."""
        for flags in ([], ["--json"], ["--degrees"]):
            self.run(f"{name}-phase", ["phase", "triple.json", *flags], {"triple.json": triple})
        for flags in ([], ["--json"]):
            self.run(f"{name}-canonicalize", ["canonicalize", "triple.json", *flags], {"triple.json": triple})
        base = ["eraser", "triple.json", "--grid", str(grid)]
        for mode in ("closed_form", "grid_argmax", "both"):
            self.run(f"{name}-eraser-{mode}", [*base, "--mode", mode, "--scan-csv", "scan.csv"],
                     {"triple.json": triple})
        for flags in (["--json"], ["--degrees", "--mode", "grid_argmax"]):
            self.run(f"{name}-eraser", [*base, *flags], {"triple.json": triple})

    def majorana(self, name: str, state: dict) -> None:
        for flags in ([], ["--json"], ["--degrees"]):
            self.run(f"{name}-majorana", ["majorana", "state.json", *flags], {"state.json": state})

    def from_points(self, name: str, points: list) -> None:
        for flags in ([], ["--json"]):
            self.run(f"{name}-from-points", ["majorana", "--from-points", "points.json", *flags],
                     {"points.json": {"points": points}})

    def sweep(self, name: str, theta: float, phi: float, steps: int, *flags: str) -> None:
        self.run(f"{name}-sweep", ["sweep", "--theta", repr(theta), "--phi", repr(phi),
                                   "--steps", str(steps), "--out", "sweep.csv", *flags])


def build(root: Path, cases: int) -> None:
    rng = np.random.default_rng(20111)
    corpus = Corpus(root)

    for i in range(cases):
        dim = 2 + i % 19
        triple = triple_obj(*(haar(rng, dim) for _ in range(3)))
        corpus.triple(f"haar{i}", triple, grid=256)
        corpus.majorana(f"haar{i}", triple["psi1"])
        points = [[math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)] for _ in range(dim - 1)]
        corpus.from_points(f"haar{i}", points)

    psi = haar(rng, 4)
    special = {
        "quarter-turn": QUARTER_TURN,
        "parallel": (haar(rng, 4), psi, np.exp(0.3j) * psi),
        "repeated": (psi, psi, haar(rng, 4)),
        "orthogonal": ([1, 0, 0], [0, 1, 0], [S, S, 0]),
        "faint": faint_triple(rng, 5, 1e-9),
    }
    for name, states in special.items():
        corpus.triple(name, triple_obj(*states), grid=4096)

    quarter = triple_obj(*QUARTER_TURN)
    corpus.run("tolerance-product", ["phase", "triple.json", "--tolerance", "0.9"], {"triple.json": quarter})
    corpus.run("tolerance-canonicalize", ["canonicalize", "triple.json", "--tolerance", "0.9"],
               {"triple.json": quarter})
    corpus.run("tolerance-eraser", ["eraser", "triple.json", "--tolerance", "0.75"], {"triple.json": quarter})
    off_norm = triple_obj(np.array(QUARTER_TURN[0]) * 1.0005, *QUARTER_TURN[1:])
    corpus.run("norm-rejected", ["phase", "triple.json"], {"triple.json": off_norm})
    corpus.run("norm-renormalized", ["phase", "triple.json", "--renormalize"], {"triple.json": off_norm})

    for name, state in (("north", [1, 0, 0]), ("south", [0, 0, 1]), ("deficient", [0, S, S * 1j]),
                        ("qubit", [S, -S * 1j])):
        corpus.majorana(name, state_obj(state))
    corpus.from_points("poles", [[0.0, 1.0], [math.pi, 2.0], [1.0, -0.5]])
    corpus.from_points("coincident", [[1.1, 2.2]] * 4)

    corpus.sweep("plain", math.pi / 6, math.pi / 4, 500)
    corpus.sweep("json", math.pi / 3, math.pi / 4, 64, "--json")
    corpus.sweep("degrees", -math.pi / 6, 1.0, 128, "--degrees")
    corpus.sweep("steep", 0.02, math.pi / 4, 256)
    corpus.sweep("steepest", 1e-7, math.pi / 4, 64)

    # requests that exit with code 1
    corpus.run("missing-file", ["phase", "absent.json"])
    corpus.run("bad-json", ["phase", "triple.json"], {"triple.json": "{not json\n"})
    corpus.run("short-state", ["phase", "triple.json"],
               {"triple.json": {"psi1": {"dim": 3, "amplitudes": [[1, 0]]}}})
    corpus.run("non-finite", ["eraser", "triple.json"],
               {"triple.json": '{"psi1": {"dim": 2, "amplitudes": [[NaN, 0], [1, 0]]}}\n'})
    for tolerance in ("-1", "nan", "inf"):
        corpus.run("bad-tolerance", ["phase", "triple.json", "--tolerance", tolerance], {"triple.json": quarter})
    corpus.run("unread-flag", ["majorana", "state.json", "--tolerance", "0.5"],
               {"state.json": state_obj([1, 0])})
    corpus.run("grid-cap", ["eraser", "triple.json", "--grid", str(2 ** 20 + 1)], {"triple.json": quarter})
    corpus.run("grid-small", ["eraser", "triple.json", "--grid", "8"], {"triple.json": quarter})
    corpus.run("steps-cap", ["sweep", "--theta", "0.5", "--phi", "1", "--steps", str(2 ** 20 + 1),
                             "--out", "sweep.csv"])
    corpus.run("theta-zero", ["sweep", "--theta", "0", "--phi", "1", "--steps", "64", "--out", "sweep.csv"])
    corpus.run("bad-points", ["majorana", "--from-points", "points.json"],
               {"points.json": {"points": [[4.0, 0.0]]}})
    corpus.run("no-state", ["majorana"])
    corpus.run("no-command", [])

    # appended after every other case, so none of them is renumbered
    corpus.triple("faint-product", triple_obj(*faint_product_triple()), grid=4096)
    # points_to_state of (0.17992142840489828, 0.0) and (2.285188015156939,
    # 3.3795400070170674): the first point's azimuth comes back just below 0,
    # which must print as 0, not 2pi
    azimuth_zero = state_obj([0.5546193735473431, -0.7996063556911124 - 0.20251843465543387j,
                              -0.10651699233109499 - 0.02583486779105398j])
    # <psi2|psi1> = -1 - 1e-17j, whose principal argument is pi, not -pi
    minus_pi = triple_obj([1, 0], [-1 + 1e-17j, 0], [S, S])
    for flags in ([], ["--json"]):
        corpus.run("azimuth-zero-majorana", ["majorana", "state.json", *flags], {"state.json": azimuth_zero})
        corpus.run("minus-pi-phase", ["phase", "triple.json", *flags], {"triple.json": minus_pi})
    # sweeps on both sides of |theta| = 2 asin(1e-12 + 1e-14), about
    # 2.02e-12, the orbit floor above which the cross-check skips its
    # elementwise vanishing scan: 3e-12 and -2.05e-12 exit 0, 2e-12 exits 2
    # at sample 640
    for flags in ([], ["--json"]):
        corpus.sweep("floor-above", 3e-12, math.pi / 4, 1024, *flags)
        corpus.sweep("floor-below", 2e-12, math.pi / 4, 1024, *flags)
        corpus.sweep("floor-negative", -2.05e-12, 0.3, 4096, *flags)
    # the help texts, which restate the grid caps
    for command in ([], ["phase"], ["majorana"], ["canonicalize"], ["eraser"], ["sweep"]):
        corpus.run("-".join([*command, "help"]), [*command, "--help"])
    # next to theta = pi/2 the fixed pair's <q3|q2> = cos theta vanishes:
    # pi/2 - 1e-13 exits 2 at every phi, and pi/2 - 1e-11 exits 0
    corpus.sweep("orthogonal-pair", math.pi / 2 - 1e-13, 0.7, 64)
    corpus.sweep("near-orthogonal-pair", math.pi / 2 - 1e-11, 0.7, 64)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", help="directory to create; must not exist yet")
    parser.add_argument("--cases", type=int, default=200, help="number of seeded Haar triples (default 200)")
    args = parser.parse_args()
    root = Path(args.outdir).resolve()
    root.mkdir(parents=True)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines at the terminal width
    build(root, args.cases)


if __name__ == "__main__":
    main()
