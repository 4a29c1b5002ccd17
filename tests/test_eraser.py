"""Interferometric protocol: fringes, visibility, and phase extraction."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import PLUS, SQRT2, YPLUS, ZERO, count_overlaps, output_probability_closed_form
from triphase import (
    EraserConfig,
    PureState,
    UndefinedPhaseError,
    extract_geometric_phase,
    fringe_pair,
    fringe_scan,
    inner_product,
    random_pure_state,
    three_vertex_phase,
    wrap_angle,
)
from triphase import eraser
from triphase.cli import _fmt, main, scan_csv
from triphase.angles import MAX_GRID
from triphase.eraser import _projected_fringe, composite_intermediate

TWO_PI = 2.0 * math.pi

seeds = st.integers(min_value=0, max_value=10**9)


def output_probability(psi1, psi2, psi3, delta):
    """Detection probability of the projected fringe at one delta, on or off
    any scan grid, through the same state algebra as fringe_scan."""
    path_spinor = psi3.amplitudes.conj() @ composite_intermediate(psi1, psi2).reshape(-1, 2)
    return float(_projected_fringe(path_spinor, np.exp(-1j * delta)))


def test_composite_factorizes_for_equal_arms():
    psi = random_pure_state(3, 1)
    composite = composite_intermediate(psi, psi)
    plus_path = np.kron(psi.amplitudes, np.array([1.0, 1.0]) / SQRT2)
    assert np.allclose(composite, plus_path, atol=1e-15)


@pytest.mark.parametrize("dims", [(2, 3), (4, 2)])
def test_composite_rejects_arms_of_different_dimensions(dims):
    psi1, psi2 = (random_pure_state(dim, dim) for dim in dims)
    with pytest.raises(ValueError, match=f"^state dimensions differ: {dims[0]} != {dims[1]}$"):
        composite_intermediate(psi1, psi2)


@given(seeds, seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_composite_is_unit_norm_with_correct_marginal(s1, s2, dim):
    psi1, psi2 = random_pure_state(dim, s1), random_pure_state(dim, s2)
    composite = composite_intermediate(psi1, psi2)
    assert np.linalg.norm(composite) == pytest.approx(1.0, abs=1e-12)
    table = composite.reshape(dim, 2)
    assert np.allclose(table[:, 0], psi1.amplitudes / SQRT2, atol=1e-15)
    assert np.allclose(table[:, 1], psi2.amplitudes / SQRT2, atol=1e-15)
    # tracing out the path leaves the equal mixture of the two arms
    rho = np.einsum("ip,jp->ij", table, table.conj())
    expected = (np.outer(psi1.amplitudes, psi1.amplitudes.conj())
                + np.outer(psi2.amplitudes, psi2.amplitudes.conj())) / 2.0
    assert np.allclose(rho, expected, atol=1e-14)


def test_output_probability_extremes():
    psi = random_pure_state(4, 2)
    assert output_probability(psi, psi, psi, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert output_probability(psi, psi, psi, math.pi) == pytest.approx(0.0, abs=1e-12)


def test_output_probability_annihilation():
    # psi3 orthogonal to both arms: the projection leaves nothing to scan
    with pytest.raises(UndefinedPhaseError):
        fringe_scan(ZERO, ZERO, PureState.basis(2, 1), EraserConfig(grid_size=16))


@given(seeds, seeds, seeds, st.floats(min_value=0.0, max_value=TWO_PI),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=80, deadline=None)
def test_explicit_algebra_matches_fringe_law(s1, s2, s3, delta, dim):
    psi1, psi2, psi3 = (random_pure_state(dim, s) for s in (s1, s2, s3))
    explicit = output_probability(psi1, psi2, psi3, delta)
    assert 0.0 <= explicit <= 1.0 + 1e-12
    assert explicit == pytest.approx(
        output_probability_closed_form(psi1, psi2, psi3, delta), abs=1e-12)


@given(seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=30, deadline=None)
def test_peak_probability_pins_the_projection_normalization(seed, dim):
    # at the constructive point P = (1 + V)/2 exactly; a wrong normalization
    # of the projected state would rescale it
    psi1, psi2, psi3 = (random_pure_state(dim, seed + k) for k in range(3))
    try:
        scan = fringe_scan(psi1, psi2, psi3, EraserConfig(grid_size=64))
    except UndefinedPhaseError:
        return
    peak = output_probability(psi1, psi2, psi3, scan.center)
    assert peak == pytest.approx((1.0 + scan.visibility) / 2.0, abs=1e-12)


def test_visibility_examples():
    cfg = EraserConfig(grid_size=16)
    psi = random_pure_state(5, 3)
    other = random_pure_state(5, 4)
    assert fringe_scan(psi, psi, other, cfg).visibility == pytest.approx(1.0, abs=1e-12)
    # |<0|0>| = 1 and |<0|+>| = 1/sqrt(2): V = 2 (1/sqrt(2)) / (3/2)
    assert fringe_scan(ZERO, PLUS, ZERO, cfg).visibility == pytest.approx(2 * SQRT2 / 3, abs=1e-12)


def test_visibility_never_exceeds_one():
    cfg = EraserConfig(grid_size=16)
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        block = rng.standard_normal((10_000 // 3, 3, dim)) + 1j * rng.standard_normal((10_000 // 3, 3, dim))
        for row in block:
            states = [PureState.normalized(v) for v in row]
            assert fringe_scan(*states, cfg).visibility <= 1.0


def faint_triple(seed, dim, overlap):
    """Haar psi1 and psi2, and a psi3 with |<psi3|psi2>| ~ overlap, so the
    projected fringe has visibility ~ 2 overlap / |<psi3|psi1>|."""
    psi1, psi2 = (random_pure_state(dim, seed + k).amplitudes for k in range(2))
    perp = psi1 - np.vdot(psi2, psi1) * psi2
    psi3 = perp / np.linalg.norm(perp) + overlap * psi2
    return PureState(psi1), PureState(psi2), PureState.normalized(psi3)


# the peak contract holds while the curvature visibility * step^2 stays
# above this; measured peak - center at 1e-14 is 0.1 of a step at most
PEAK_CURVATURE_FLOOR = 1e-14


@pytest.mark.parametrize("grid", [256, 4096])
def test_faint_fringe_peak_within_a_grid_step(grid):
    cfg = EraserConfig(grid_size=grid)
    step = TWO_PI / grid
    faintest = 1.0
    for seed in range(40):
        for overlap in np.logspace(-2, -11, 19):
            scan = fringe_scan(*faint_triple(seed, 2 + seed % 5, overlap), cfg)
            if scan.visibility * step ** 2 < PEAK_CURVATURE_FLOOR:
                continue
            assert abs(wrap_angle(scan.peak - scan.center)) <= step, (seed, overlap)
            faintest = min(faintest, scan.visibility)
    # the checked fringes reach down to within 10x of the floor
    assert faintest * step ** 2 < 10 * PEAK_CURVATURE_FLOOR


def test_grid_argmax_warns_when_a_peak_strays_from_its_center(tmp_path, capsys):
    # |<psi3|psi2>| = 1e-11 at grid 4096 is below the curvature floor: the
    # peak strays 2.7 grid steps, and the warning leaves stdout and files alone
    cfg = EraserConfig(grid_size=4096)
    for states, strays in ((faint_triple(2, 4, 1e-11 * np.exp(2j)), True), ((PLUS, ZERO, YPLUS), False)):
        triple = tmp_path / "triple.json"
        pairs = [[[z.real, z.imag] for z in s.amplitudes] for s in states]
        triple.write_text(json.dumps({f"psi{k + 1}": {"dim": len(v), "amplitudes": v}
                                      for k, v in enumerate(pairs)}))
        projected, plain = fringe_pair(*(PureState.normalized(s.amplitudes) for s in states), cfg)
        off = max(abs(wrap_angle(scan.peak - scan.center)) for scan in (projected, plain))
        assert (off > 2 * TWO_PI / cfg.grid_size) == strays
        argv = ["eraser", str(triple), "--scan-csv", str(tmp_path / "scan.csv"), "--mode"]
        assert main([*argv, "grid_argmax"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[:2] == [f"delta_f = {_fmt(projected.peak)}", f"delta_m = {_fmt(plain.peak)}"]
        assert (tmp_path / "scan.csv").read_text() == scan_csv(projected)
        assert err == (f"warning: a grid peak lies {off * cfg.grid_size / TWO_PI:.3g} grid steps "
                       "from its closed-form constructive point\n" if strays else "")
        assert main([*argv, "both"]) == 0  # the closed-form modes print no peak
        assert capsys.readouterr().err == ""


def test_projected_scan_evaluates_each_overlap_once(monkeypatch):
    calls = count_overlaps(monkeypatch)
    fringe_scan(PLUS, ZERO, YPLUS, EraserConfig(grid_size=64))
    assert len(calls) == 2  # <psi3|psi1> and <psi3|psi2>
    extract_geometric_phase(PLUS, ZERO, YPLUS)
    assert len(calls) == 2 + 3  # the same two, and <psi1|psi2> for the plain scan


def test_fringe_scan_plain_reference():
    psi = random_pure_state(3, 8)
    scan = fringe_scan(psi, psi, None, EraserConfig(grid_size=64))
    assert scan.center == pytest.approx(0.0, abs=1e-12)
    assert all(getattr(scan, f.name) is not None for f in fields(scan))
    assert scan.visibility == pytest.approx(1.0, abs=1e-12)


def test_fringe_scan_projector_equal_to_first_arm():
    psi1, psi2 = random_pure_state(4, 9), random_pure_state(4, 10)
    projected, plain = fringe_pair(psi1, psi2, psi1, EraserConfig(grid_size=256))
    # first overlap factor is real positive, so delta_f collapses onto delta_m
    assert projected.center == pytest.approx(plain.center, abs=1e-12)
    assert wrap_angle(projected.center - plain.center) == pytest.approx(0.0, abs=1e-12)


@given(seeds, seeds, seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_fringe_scan_grid_argmax_matches_closed_form(s1, s2, s3, dim):
    psi1, psi2, psi3 = (random_pure_state(dim, s) for s in (s1, s2, s3))
    cfg = EraserConfig(grid_size=4096)
    try:
        scan = fringe_scan(psi1, psi2, psi3, cfg)
    except UndefinedPhaseError:
        return
    assert abs(wrap_angle(scan.peak - scan.center)) <= TWO_PI / cfg.grid_size
    assert np.all(scan.probabilities >= 0.0) and np.all(scan.probabilities <= 1.0)
    assert abs(scan.probabilities.mean() - 0.5) <= 2.0 / cfg.grid_size
    contrast = float(scan.probabilities.max() - scan.probabilities.min())
    assert contrast == pytest.approx(scan.visibility, abs=(math.pi / cfg.grid_size) ** 2 + 1e-12)


def plain_fringe_reference(psi1, psi2, grid):
    """The plain fringe as a per-delta sum over the internal index,
    sum_i |psi1_i + e^{-i delta} psi2_i|^2 / 4, built as an (N, grid) array."""
    deltas = TWO_PI * np.arange(grid) / grid
    composite = composite_intermediate(psi1, psi2).reshape(-1, 2)
    amps = (composite[:, :1] + np.exp(-1j * deltas)[None, :] * composite[:, 1:]) / SQRT2
    return deltas, np.sum(np.abs(amps) ** 2, axis=0)


# float64 rounding of a sum of 2N <= 40 terms, each at most 1: below 40 eps ~ 9e-15
PLAIN_REFERENCE_TOL = 1e-14


@pytest.mark.parametrize("grid", [16, 64, 4096])
def test_plain_scan_matches_per_delta_sum(grid):
    for dim in range(2, 21):
        for seed in range(3):
            psi1, psi2 = random_pure_state(dim, 100 * dim + seed), random_pure_state(dim, 7 + seed)
            scan = fringe_scan(psi1, psi2, None, EraserConfig(grid_size=grid))
            deltas, want = plain_fringe_reference(psi1, psi2, grid)
            assert np.array_equal(scan.deltas, deltas)
            assert np.max(np.abs(scan.probabilities - want)) <= PLAIN_REFERENCE_TOL


def test_scan_grid_is_read_only():
    cfg = EraserConfig(grid_size=64)
    for scan in (fringe_scan(PLUS, ZERO, YPLUS, cfg), fringe_scan(PLUS, ZERO, None, cfg)):
        assert not scan.deltas.flags.writeable
        with pytest.raises(ValueError):
            scan.deltas[0] = 1.0


def test_alternating_grid_sizes():
    psi1, psi2, psi3 = (random_pure_state(4, 40 + k) for k in range(3))
    for grid in (16, 64, 16, 256, 64, 16):
        deltas, want = plain_fringe_reference(psi1, psi2, grid)
        plain = fringe_scan(psi1, psi2, None, EraserConfig(grid_size=grid))
        projected = fringe_scan(psi1, psi2, psi3, EraserConfig(grid_size=grid))
        for scan in (plain, projected):
            assert scan.deltas.size == scan.probabilities.size == grid
            assert np.array_equal(scan.deltas, deltas)
        assert np.max(np.abs(plain.probabilities - want)) <= PLAIN_REFERENCE_TOL
        law = [output_probability_closed_form(psi1, psi2, psi3, float(d)) for d in deltas]
        assert np.allclose(projected.probabilities, law, rtol=0.0, atol=1e-12)


def test_fringe_scan_errors_name_the_missing_overlap():
    with pytest.raises(UndefinedPhaseError, match="psi3"):
        fringe_scan(ZERO, PLUS, PureState.basis(2, 1), EraserConfig(grid_size=64))
    with pytest.raises(UndefinedPhaseError, match=re.escape("<psi1|psi2>")):
        fringe_scan(ZERO, PureState.basis(2, 1), None, EraserConfig(grid_size=64))


TINY = [1e-9, 1.0]  # unnormalized; overlap ~1e-9 with |0>
S = 1.0 / SQRT2
# each triple makes one overlap ~1e-9 and the other two ~0.7
BOUNDARY_TRIPLES = {
    "<psi1|psi2>": (([1.0, 0.0], TINY, [S, S]), (0, 1)),
    "<psi3|psi1>": ((TINY, [S, S], [1.0, 0.0]), (2, 0)),
    "<psi3|psi2>": (([S, S], TINY, [1.0, 0.0]), (2, 1)),
}


@pytest.mark.parametrize("overlap", list(BOUNDARY_TRIPLES))
def test_each_needed_overlap_vanishes_at_eps_null(overlap, tmp_path, capsys):
    vecs, (i, j) = BOUNDARY_TRIPLES[overlap]
    # the same float64 states the CLI parses from the file
    states = [PureState.normalized(np.array(v, dtype=complex)) for v in vecs]
    modulus = abs(inner_product(states[i], states[j]))
    message = f"undefined phase: {overlap} has modulus {modulus:.3g}, not above {modulus:.3g}"
    just_below = float(np.nextafter(modulus, 0.0))
    cfg = EraserConfig(grid_size=16)
    with pytest.raises(UndefinedPhaseError, match=f"^{re.escape(message)}$"):
        fringe_pair(*states, cfg, eps_null=modulus)
    fringe_pair(*states, cfg, eps_null=just_below)

    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps({f"psi{k + 1}": {"dim": 2, "amplitudes": [[x, 0.0] for x in v]}
                                  for k, v in enumerate(vecs)}))
    argv = ["eraser", str(triple), "--grid", "16", "--tolerance"]
    assert main([*argv, repr(modulus)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main([*argv, repr(just_below)]) == 0


def test_eraser_config_validation():
    with pytest.raises(ValueError):
        EraserConfig(grid_size=8)
    # validation only: a grid at the cap is never sampled here
    assert EraserConfig(grid_size=MAX_GRID).grid_size == MAX_GRID
    with pytest.raises(ValueError):
        EraserConfig(grid_size=MAX_GRID + 1)


def test_extract_trivial_and_quarter_turn():
    psi, chi = random_pure_state(3, 11), random_pure_state(3, 12)
    assert extract_geometric_phase(psi, psi, chi) == pytest.approx(0.0, abs=1e-12)
    got = extract_geometric_phase(PLUS, ZERO, YPLUS)
    assert got == pytest.approx(math.pi / 4, abs=1e-12)


@given(seeds, seeds, seeds)
@settings(max_examples=30, deadline=None)
def test_extract_matches_direct_phase_dim5(s1, s2, s3):
    psi1, psi2, psi3 = (random_pure_state(5, s) for s in (s1, s2, s3))
    try:
        got = extract_geometric_phase(psi1, psi2, psi3)
    except UndefinedPhaseError:
        return
    want = three_vertex_phase(psi1, psi2, psi3)
    assert abs(wrap_angle(got - want)) <= 1e-9


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_extract_grid_mode_resolution(seed):
    psi1, psi2, psi3 = (random_pure_state(3, seed + k) for k in range(3))
    cfg = EraserConfig(grid_size=4096)
    try:
        projected, plain = fringe_pair(psi1, psi2, psi3, cfg)
    except UndefinedPhaseError:
        return
    got = wrap_angle(projected.peak - plain.peak)
    want = three_vertex_phase(psi1, psi2, psi3)
    assert abs(wrap_angle(got - want)) <= TWO_PI / cfg.grid_size


def test_extract_requires_reference_overlap():
    with pytest.raises(UndefinedPhaseError):
        extract_geometric_phase(ZERO, PureState.basis(2, 1), PLUS)


def test_extract_reads_the_landmarks_without_sampling(monkeypatch):
    triples = [tuple(random_pure_state(dim, 15_000 + 10 * dim + j) for j in range(3))
               for dim in (2, 3, 5, 9, 13, 20, 64)]
    scan_readouts = []
    for t in triples:
        pairs = [fringe_pair(*t, EraserConfig(grid_size=grid)) for grid in (16, 64, 4096)]
        scan_readouts.append([wrap_angle(projected.center - plain.center) for projected, plain in pairs])

    def no_grid(*args):
        raise AssertionError("extract_geometric_phase sampled a fringe")

    monkeypatch.setattr(eraser, "_delta_grid", no_grid)
    monkeypatch.setattr(eraser, "_projected_fringe", no_grid)
    for t, readouts in zip(triples, scan_readouts):
        got = extract_geometric_phase(*t)
        assert np.array([got] * 3).view(np.int64).tolist() == np.array(readouts).view(np.int64).tolist()
    # the flat plain fringe fails first, although <psi3|psi1> vanishes too
    one = PureState.basis(2, 1)
    with pytest.raises(UndefinedPhaseError, match=re.escape("<psi1|psi2> has modulus 0,")):
        extract_geometric_phase(ZERO, one, one)
    calls = count_overlaps(monkeypatch)
    extract_geometric_phase(*triples[0])
    assert len(calls) == 3
