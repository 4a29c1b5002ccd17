"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line; run with -s to watch
them stream.
"""

import functools
import json
import math
import subprocess
import sys

import mpmath
import numpy as np

from triphase import (
    EraserConfig,
    PureState,
    apply_unitary,
    bloch_to_qubit,
    canonicalize_triple,
    decompose_phase,
    dicke_embed,
    extract_geometric_phase,
    fringe_pair,
    fringe_scan,
    inner_product,
    points_to_state,
    qubit_to_bloch,
    random_pure_state,
    random_unitary,
    slope_profile,
    solid_angle_triangle,
    state_to_points,
    sweep_alpha,
    symmetrize_full,
    three_vertex_phase,
    visibility,
    wrap_angle,
)

PI = math.pi
TWO_PI = 2.0 * math.pi


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} FAIL: {label}")
                raise
            print(f"[acceptance] criterion {number} PASS: {label}")
        return wrapper
    return decorate


def wrapped_dist(a, b):
    return abs(wrap_angle(a - b))


def direct_phase_highprec(sym, q2, q3):
    """Direct phase of (sym, q2^(n), q3^(n)) in 40-digit arithmetic.

    Double precision loses up to ~8 digits here through cancellation when
    |<q2|q3>|^n is tiny, so the oracle side is evaluated exactly enough to
    judge a 1e-9 tolerance.
    """
    n = sym.dim - 1
    with mpmath.workdps(40):
        def lift(values):
            return [mpmath.mpc(z.real, z.imag) for z in values]

        def power_amps(q):
            a, b = lift(q.amplitudes)
            return [mpmath.sqrt(mpmath.binomial(n, k)) * a ** (n - k) * b ** k
                    for k in range(n + 1)]

        def dot(x, y):
            return sum((xi.conjugate() * yi for xi, yi in zip(x, y)), mpmath.mpc(0))

        v1, v2, v3 = lift(sym.amplitudes), power_amps(q2), power_amps(q3)
        return float(mpmath.arg(dot(v1, v3) * dot(v3, v2) * dot(v2, v1)))


@criterion(1, "qubit phase sum equals the direct phase, dims 2-8")
def test_c1_phase_sum_law():
    worst = 0.0
    for dim in range(2, 9):
        for k in range(200):
            seed = 1_000_000 * dim + k
            sym = random_pure_state(dim, seed)
            q2 = random_pure_state(2, seed + 500_000)
            q3 = random_pure_state(2, seed + 700_000)
            total = decompose_phase(sym, q2, q3).total
            direct = direct_phase_highprec(sym, q2, q3)
            worst = max(worst, wrapped_dist(total, direct))
    assert worst <= 1e-9, worst


@criterion(2, "qubit phase equals minus half the signed solid angle")
def test_c2_solid_angle_law():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(500):
        pts = [qubit_to_bloch(PureState.normalized(
            rng.standard_normal(2) + 1j * rng.standard_normal(2))) for _ in range(3)]
        gamma = three_vertex_phase(*(bloch_to_qubit(p) for p in pts))
        omega = solid_angle_triangle(*pts)
        worst = max(worst, wrapped_dist(gamma, -omega / 2.0))
    assert worst <= 1e-9, worst


@criterion(3, "phase invariant under unitary transformations, dims 2-6")
def test_c3_unitary_invariance():
    worst = 0.0
    for dim in range(2, 7):
        for k in range(40):
            seed = 3_000_000 + 1000 * dim + k
            states = [random_pure_state(dim, seed + j) for j in range(3)]
            u = random_unitary(dim, seed + 77)
            before = three_vertex_phase(*states)
            after = three_vertex_phase(*(apply_unitary(u, s) for s in states))
            worst = max(worst, wrapped_dist(before, after))
    assert worst <= 1e-9, worst


@criterion(4, "canonicalization preserves Gram data, overlap, and phase, dims 3-6")
def test_c4_canonicalization():
    worst_gram = worst_phase = worst_overlap = 0.0
    for dim in range(3, 7):
        for k in range(100):
            seed = 4_000_000 + 1000 * dim + k
            phi1, phi2, phi3 = (random_pure_state(dim, seed + j) for j in range(3))
            result = canonicalize_triple(phi1, phi2, phi3)
            big2, big3 = result.psi2(), result.psi3()
            originals = (phi1, phi2, phi3)
            transformed = (result.psi1, big2, big3)
            for i in range(3):
                for j in range(i + 1, 3):
                    before = abs(inner_product(originals[i], originals[j]))
                    after = abs(inner_product(transformed[i], transformed[j]))
                    worst_gram = max(worst_gram, abs(after - before))
            worst_overlap = max(worst_overlap, abs(
                inner_product(big2, big3) - inner_product(phi2, phi3)))
            worst_phase = max(worst_phase, wrapped_dist(
                three_vertex_phase(*transformed), three_vertex_phase(*originals)))
    assert worst_gram <= 1e-9, worst_gram
    assert worst_phase <= 1e-9, worst_phase
    assert worst_overlap <= 1e-10, worst_overlap


@criterion(5, "constellation roundtrips (dims 2-9) and symmetrization oracle (dims 2-7)")
def test_c5_roundtrips_and_oracle():
    worst_fidelity = 1.0
    for dim in range(2, 10):
        for k in range(200):
            s = random_pure_state(dim, 5_000_000 + 1000 * dim + k)
            rebuilt = points_to_state(state_to_points(s))
            worst_fidelity = min(worst_fidelity, abs(inner_product(s, rebuilt)))
    assert worst_fidelity >= 1.0 - 1e-8, worst_fidelity

    worst_parallel = 0.0
    rng = np.random.default_rng(505)
    for dim in range(2, 8):
        n = dim - 1
        for _ in range(20):
            qubits = [PureState.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                      for _ in range(n)]
            state = points_to_state([qubit_to_bloch(q) for q in qubits])
            embedded = dicke_embed(state)
            oracle = symmetrize_full(qubits)
            cos = abs(np.vdot(embedded, oracle)) / (np.linalg.norm(embedded) * np.linalg.norm(oracle))
            worst_parallel = max(worst_parallel, abs(cos - 1.0))
    assert worst_parallel <= 1e-10, worst_parallel


@criterion(6, "interferometric readout reproduces the phase, dims 2-6")
def test_c6_eraser_protocol():
    grid = 4096
    cfg = EraserConfig(grid_size=grid)
    worst_closed = worst_grid = worst_contrast = 0.0
    for dim in range(2, 7):
        for k in range(40):
            seed = 6_000_000 + 1000 * dim + k
            psi1, psi2, psi3 = (random_pure_state(dim, seed + j) for j in range(3))
            direct = three_vertex_phase(psi1, psi2, psi3)
            worst_closed = max(worst_closed, wrapped_dist(
                extract_geometric_phase(psi1, psi2, psi3, cfg), direct))
            projected, plain = fringe_pair(psi1, psi2, psi3, cfg)
            worst_grid = max(worst_grid, wrapped_dist(projected.peak - plain.peak, direct))
            scan = fringe_scan(psi1, psi2, psi3, cfg)
            assert np.all(scan.probabilities >= 0.0) and np.all(scan.probabilities <= 1.0)
            contrast = float(scan.probabilities.max() - scan.probabilities.min())
            worst_contrast = max(worst_contrast, abs(
                contrast - visibility(psi1, psi2, psi3)))
    assert worst_closed <= 1e-9, worst_closed
    assert worst_grid <= TWO_PI / grid, worst_grid
    assert worst_contrast <= (PI / grid) ** 2 + 1e-12, worst_contrast


@criterion(7, "family singular points, 4pi winding, and slope growth")
def test_c7_family_quantitative():
    result = sweep_alpha(PI / 6, PI / 4, 1000)
    spacing = TWO_PI / 1000
    assert len(result.singular_alphas) == 2, result.singular_alphas
    assert abs(result.singular_alphas[0] - 3 * PI / 4) <= spacing
    assert abs(result.singular_alphas[1] - 5 * PI / 4) <= spacing
    assert abs(result.winding - 4 * PI) <= 1e-6

    thetas = [PI / 3, PI / 6, PI / 12]
    slopes = slope_profile(thetas, PI / 4, 4096)
    assert slopes[0] < slopes[1] < slopes[2], slopes
    for theta, slope in zip(thetas, slopes):
        assert abs(slope - 1.0 / math.tan(theta / 2)) <= 1e-3, (theta, slope)


@criterion(8, "closed forms agree with the constellation pipeline on 5 sweeps")
def test_c8_dual_path_agreement():
    settings = [(PI / 6, PI / 4), (PI / 3, PI / 4), (PI / 12, PI / 4), (-PI / 6, 1.0), (0.7, 5.5)]
    worst = 0.0
    for theta, phi in settings:
        result = sweep_alpha(theta, phi, 1000)
        worst = max(worst, float(np.max(np.abs(wrap_angle(
            result.gamma_wrapped - result.gamma_pipeline_wrapped)))))
        assert result.gamma_total[0] == 0.0  # closed form cancels exactly at alpha = 0
        assert abs(result.gamma_pipeline_wrapped[0]) <= 1e-12
    assert worst <= 1e-8, worst


@criterion(9, "CLI byte determinism and the documented example value")
def test_c9_cli_determinism(tmp_path):
    s = 1 / math.sqrt(2.0)
    triple = {
        "psi1": {"dim": 2, "amplitudes": [[s, 0.0], [s, 0.0]]},
        "psi2": {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        "psi3": {"dim": 2, "amplitudes": [[s, 0.0], [0.0, s]]},
    }
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(triple))

    def run(args):
        return subprocess.run([sys.executable, "-m", "triphase", *args],
                              capture_output=True, check=True).stdout

    phase_out = run(["phase", str(triple_path), "--json"])
    assert phase_out == run(["phase", str(triple_path), "--json"])
    assert abs(json.loads(phase_out)["gamma"] - PI / 4) <= 1e-9

    out = tmp_path / "sweep.csv"
    args = ["sweep", "--theta", str(PI / 6), "--phi", str(PI / 4),
            "--steps", "500", "--out", str(out)]
    run(args)
    first_csv, first_json = out.read_bytes(), (tmp_path / "sweep.json").read_bytes()
    run(args)
    assert out.read_bytes() == first_csv
    assert (tmp_path / "sweep.json").read_bytes() == first_json
