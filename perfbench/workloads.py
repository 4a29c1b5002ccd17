"""The three benchmark workloads. Each is a closed loop with one caller.

A workload is built from a seed (its set-up), runs op number i, checks the
op's outputs at the acceptance-suite tolerances, and, in a traced run,
re-issues the calls the library made inside the op as child spans.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from triphase import (
    BlochPoint,
    EraserConfig,
    FamilyParams,
    PureState,
    build_family_states,
    canonicalize_triple,
    decompose_phase,
    extract_geometric_phase,
    family_qubits,
    fringe_scan,
    inner_product,
    points_to_state,
    product_state,
    qubit_to_bloch,
    state_to_points,
    sweep_alpha,
    three_vertex_phase,
    wrap_angle,
)

PHASE_TOL = 1e-9     # C1, C4, C6
WINDING_TOL = 1e-6   # C7
PIPELINE_TOL = 1e-8  # C8


def haar_amplitudes(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit vectors along the last axis, Haar-distributed."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def close(a: float, b: float, tol: float = PHASE_TOL) -> bool:
    return abs(wrap_angle(a - b)) <= tol


# Re-issue of calls the library makes internally, as children of `parent`.

def reissue_three_vertex(tr, parent, s1, s2, s3):
    for a, b in ((s1, s3), (s3, s2), (s2, s1)):
        tr.call("states.inner_product", parent, inner_product, a, b)


def reissue_canonicalize(tr, parent, s2, s3, canon):
    tr.call("states.inner_product", parent, inner_product, s2, s3)
    for q in (canon.psi2_qubit, canon.psi3_qubit):
        tr.call("majorana.product_state", parent, product_state, q, canon.dim - 1)


def reissue_fringes(tr, parent, s1, s2, s3, cfg):
    for third in (s3, None):
        scan, _ = tr.call("eraser.fringe_scan", parent, fringe_scan, s1, s2, third, cfg)
        tr.counts["eraser.grid_samples"] += scan.deltas.size


def _traced_family_qubits(tr, parent, params):
    qubits, span = tr.call("sweep.family_qubits", parent, family_qubits, params)
    for q in qubits:
        tr.call("states.PureState", span, PureState, q.amplitudes)
    return qubits


def reissue_sweep(tr, parent, theta, phi, steps, result):
    """One child group per alpha sample, as sweep_alpha's loop makes them."""
    tr.sweeps[(theta, steps)] = result.alphas.size - 1
    tr.counts["sweep.samples"] += result.alphas.size
    for alpha in result.alphas:
        params = FamilyParams(theta, phi, float(alpha))
        (psi1, _, _), span = tr.call("sweep.build_family_states", parent, build_family_states, params)
        q11, q12, q2, q3 = _traced_family_qubits(tr, span, params)
        tr.call("majorana.points_to_state", span, points_to_state,
                [qubit_to_bloch(q11), qubit_to_bloch(q12)])
        for q in (q2, q3):
            tr.call("majorana.product_state", span, product_state, q, 2)
        _, _, q2, q3 = _traced_family_qubits(tr, parent, params)
        _, span = tr.call("phases.decompose_phase", parent, decompose_phase, psi1, q2, q3)
        tr.call("majorana.state_to_points", span, state_to_points, psi1)


class Triples:
    """Analyse one Haar-random triple per op: phase, canonical form,
    constellation decomposition and interferometric readout."""

    RUSAGE_WHO = resource.RUSAGE_SELF
    DIMS = (2, 3, 5, 9, 13)
    CYCLE = len(DIMS)
    PER_DIM = 6554  # ~32k distinct triples; a longer run cycles through them

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.pool = {d: haar_amplitudes(rng, (self.PER_DIM, 3, d)) for d in self.DIMS}
        self.cfg = EraserConfig()

    def op(self, i, tr, root):
        amps = self.pool[self.DIMS[i % len(self.DIMS)]][(i // len(self.DIMS)) % self.PER_DIM]
        states = [tr.call("states.PureState", root, PureState, a)[0] for a in amps]
        gamma, g = tr.call("phases.three_vertex_phase", root, three_vertex_phase, *states)
        canon, c = tr.call("phases.canonicalize_triple", root, canonicalize_triple, *states)
        dec, d = tr.call("phases.decompose_phase", root, decompose_phase,
                         canon.psi1, canon.psi2_qubit, canon.psi3_qubit)
        readout, e = tr.call("eraser.extract_geometric_phase", root, extract_geometric_phase, *states)
        return states, gamma, canon, dec, readout, (g, c, d, e)

    def check(self, i, out):
        states, gamma, canon, dec, readout, _ = out
        canonical = three_vertex_phase(canon.psi1, canon.psi2(), canon.psi3())
        return close(dec.total, gamma) and close(canonical, gamma) and close(readout, gamma)

    def reissue(self, tr, out):
        (s1, s2, s3), _, canon, _, _, (g, c, d, e) = out
        reissue_three_vertex(tr, g, s1, s2, s3)
        reissue_canonicalize(tr, c, s2, s3, canon)
        tr.call("majorana.state_to_points", d, state_to_points, canon.psi1)
        tr.call("states.inner_product", e, inner_product, s2, s1)
        reissue_fringes(tr, e, s1, s2, s3, self.cfg)


class Sweep:
    """One sweep_alpha call per op over a fixed list of (theta, steps). Every
    entry uses 1024 intervals; theta = 0.02 gets there by two doublings."""

    RUSAGE_WHO = resource.RUSAGE_SELF
    PHI = math.pi / 4
    CASES = ((math.pi / 3, 1024), (math.pi / 12, 1024), (0.02, 256))
    CYCLE = len(CASES)

    def __init__(self, seed: int, workdir: Path):
        k = seed % len(self.CASES)
        self.cases = self.CASES[k:] + self.CASES[:k]
        self.samples = 0  # alpha samples in checked results, after doubling

    def op(self, i, tr, root):
        theta, steps = self.cases[i % len(self.cases)]
        result, span = tr.call("sweep.sweep_alpha", root, sweep_alpha, theta, self.PHI, steps)
        return theta, steps, result, span

    def check(self, i, out):
        _, _, result, _ = out
        self.samples += result.alphas.size
        pipeline_gap = float(np.max(np.abs(wrap_angle(result.gamma_wrapped - result.gamma_pipeline_wrapped))))
        return abs(result.winding - 4 * math.pi) <= WINDING_TOL and pipeline_gap <= PIPELINE_TOL

    def reissue(self, tr, out):
        theta, steps, result, span = out
        reissue_sweep(tr, span, theta, self.PHI, steps, result)


class Cli:
    """One `python -m triphase` subprocess per op, rotating through the five
    commands on input files written at set-up."""

    RUSAGE_WHO = resource.RUSAGE_CHILDREN  # the CLI processes, not this one
    COMMANDS = ("phase", "majorana", "canonicalize", "eraser", "sweep")
    CYCLE = len(COMMANDS)
    DIM = 5
    STATE_DIM = 9
    SWEEP_STEPS = 64
    TIMEOUT_S = 120

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.triple = haar_amplitudes(rng, (3, self.DIM))
        self.state = haar_amplitudes(rng, (self.STATE_DIM,))
        # theta in [pi/6, pi/3] needs no grid doubling at 64 steps
        self.theta = float(rng.uniform(math.pi / 6, math.pi / 3))
        self.phi = float(rng.uniform(0.0, 2 * math.pi))

        triple_file, state_file = workdir / "triple.json", workdir / "state.json"
        triple_file.write_text(json.dumps({f"psi{k + 1}": _state_json(a) for k, a in enumerate(self.triple)}))
        state_file.write_text(json.dumps(_state_json(self.state)))
        scan, sweep_csv = workdir / "scan.csv", workdir / "sweep.csv"
        base = [sys.executable, "-m", "triphase"]
        self.argv = {
            "phase": base + ["phase", str(triple_file), "--json"],
            "majorana": base + ["majorana", str(state_file), "--json"],
            "canonicalize": base + ["canonicalize", str(triple_file), "--json"],
            "eraser": base + ["eraser", str(triple_file), "--json", "--scan-csv", str(scan)],
            "sweep": base + ["sweep", "--theta", repr(self.theta), "--phi", repr(self.phi),
                             "--steps", str(self.SWEEP_STEPS), "--out", str(sweep_csv)],
        }
        self.files = {cmd: [] for cmd in self.COMMANDS}
        self.files["eraser"] = [scan]
        self.files["sweep"] = [sweep_csv, workdir / "sweep.json"]
        self.first: dict[str, tuple[bytes, ...]] = {}

    def _run(self, argv):
        return subprocess.run(argv, capture_output=True, timeout=self.TIMEOUT_S)

    def op(self, i, tr, root):
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        for path in self.files[cmd]:
            path.unlink(missing_ok=True)
        proc, span = tr.call(f"cli.{cmd}", root, self._run, self.argv[cmd])
        return cmd, proc, span

    def check(self, i, out):
        """Exit code 0 and bytes equal to the command's first run (C9); the
        first run's values are checked against in-process results."""
        cmd, proc, _ = out
        if proc.returncode != 0:
            return False
        produced = (proc.stdout, *(path.read_bytes() for path in self.files[cmd]))
        if cmd in self.first:
            return produced == self.first[cmd]
        if not self._values_ok(cmd, produced):
            return False
        self.first[cmd] = produced
        return True

    def _values_ok(self, cmd, produced) -> bool:
        if cmd == "sweep":
            rows = produced[1].count(b"\n") - 1
            winding = json.loads(produced[2])["winding"]
            return rows == self.SWEEP_STEPS + 1 and abs(winding - 4 * math.pi) <= WINDING_TOL
        stdout = json.loads(produced[0])
        if cmd == "majorana":
            rebuilt = points_to_state([BlochPoint(*p) for p in stdout["points"]])
            return (len(stdout["points"]) == self.STATE_DIM - 1
                    and abs(inner_product(rebuilt, PureState(self.state))) >= 1.0 - PHASE_TOL)
        if cmd == "canonicalize":
            ver = stdout["verification"]
            return ver["phase_delta"] <= PHASE_TOL and ver["gram_delta"] <= PHASE_TOL
        gamma = three_vertex_phase(*(PureState(a) for a in self.triple))
        if cmd == "eraser" and produced[1].count(b"\n") - 1 != stdout["grid_size"]:
            return False
        return close(stdout["gamma"], gamma)

    def reissue(self, tr, out):
        cmd, _, span = out
        if cmd == "majorana":
            state, _ = tr.call("states.PureState", span, PureState, self.state)
            tr.call("majorana.state_to_points", span, state_to_points, state)
            return
        if cmd == "sweep":
            result, child = tr.call("sweep.sweep_alpha", span, sweep_alpha, self.theta, self.phi,
                                    self.SWEEP_STEPS)
            reissue_sweep(tr, child, self.theta, self.phi, self.SWEEP_STEPS, result)
            return
        s1, s2, s3 = (tr.call("states.PureState", span, PureState, a)[0] for a in self.triple)
        if cmd == "phase":
            _, child = tr.call("phases.three_vertex_phase", span, three_vertex_phase, s1, s2, s3)
            reissue_three_vertex(tr, child, s1, s2, s3)
        elif cmd == "canonicalize":
            canon, child = tr.call("phases.canonicalize_triple", span, canonicalize_triple, s1, s2, s3)
            reissue_canonicalize(tr, child, s2, s3, canon)
        else:
            reissue_fringes(tr, span, s1, s2, s3, EraserConfig())

    def bytes_written(self) -> int:
        """File bytes one pass over the commands writes."""
        return sum(len(b) for first in self.first.values() for b in first[1:])


def _state_json(amps: np.ndarray) -> dict:
    return {"dim": int(amps.size), "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}


WORKLOADS = {"triples": Triples, "sweep": Sweep, "cli": Cli}
