"""Interferometric protocol: fringes, visibility, and phase extraction."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphase import (
    EraserConfig,
    FringeUndefinedError,
    PureState,
    composite_intermediate,
    extract_geometric_phase,
    fringe_pair,
    fringe_scan,
    output_probability,
    output_probability_closed_form,
    random_pure_state,
    three_vertex_phase,
    visibility,
    wrap_angle,
)
from triphase.eraser import MAX_GRID_SIZE

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi

seeds = st.integers(min_value=0, max_value=10**9)

ZERO = PureState.basis(2, 0)
PLUS = PureState(np.array([1.0, 1.0]) / SQRT2)
YPLUS = PureState(np.array([1.0, 1.0j]) / SQRT2)


def test_composite_factorizes_for_equal_arms():
    psi = random_pure_state(3, 1)
    composite = composite_intermediate(psi, psi)
    plus_path = np.kron(psi.amplitudes, np.array([1.0, 1.0]) / SQRT2)
    assert np.allclose(composite, plus_path, atol=1e-15)


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
    with pytest.raises(FringeUndefinedError):
        output_probability(ZERO, ZERO, PureState.basis(2, 1), 0.3)


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
    except FringeUndefinedError:
        return
    peak = output_probability(psi1, psi2, psi3, scan.center)
    assert peak == pytest.approx((1.0 + scan.visibility) / 2.0, abs=1e-12)


def test_visibility_examples():
    psi = random_pure_state(5, 3)
    other = random_pure_state(5, 4)
    assert visibility(psi, psi, other) == pytest.approx(1.0, abs=1e-12)
    assert visibility(PureState.basis(2, 1), PLUS, ZERO) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(FringeUndefinedError):
        visibility(ZERO, ZERO, PureState.basis(2, 1))


def test_visibility_never_exceeds_one():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        block = rng.standard_normal((10_000 // 3, 3, dim)) + 1j * rng.standard_normal((10_000 // 3, 3, dim))
        for row in block:
            states = [PureState.normalized(v) for v in row]
            assert visibility(*states) <= 1.0


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
    except FringeUndefinedError:
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
    with pytest.raises(FringeUndefinedError, match="psi3"):
        fringe_scan(ZERO, PLUS, PureState.basis(2, 1), EraserConfig(grid_size=64))
    with pytest.raises(FringeUndefinedError, match="plain fringe"):
        fringe_scan(ZERO, PureState.basis(2, 1), None, EraserConfig(grid_size=64))


def test_eraser_config_validation():
    with pytest.raises(ValueError):
        EraserConfig(grid_size=8)
    # validation only: a grid at the cap is never sampled here
    assert EraserConfig(grid_size=MAX_GRID_SIZE).grid_size == MAX_GRID_SIZE
    with pytest.raises(ValueError):
        EraserConfig(grid_size=MAX_GRID_SIZE + 1)


def test_extract_trivial_and_quarter_turn():
    psi, chi = random_pure_state(3, 11), random_pure_state(3, 12)
    assert extract_geometric_phase(psi, psi, chi) == pytest.approx(0.0, abs=1e-12)
    got = extract_geometric_phase(PLUS, ZERO, YPLUS)
    assert got == pytest.approx(math.pi / 4, abs=1e-12)


@given(seeds, seeds, seeds)
@settings(max_examples=30, deadline=None)
def test_extract_matches_direct_phase_dim5(s1, s2, s3):
    psi1, psi2, psi3 = (random_pure_state(5, s) for s in (s1, s2, s3))
    cfg = EraserConfig(grid_size=512)
    try:
        got = extract_geometric_phase(psi1, psi2, psi3, cfg)
    except FringeUndefinedError:
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
    except FringeUndefinedError:
        return
    got = wrap_angle(projected.peak - plain.peak)
    want = three_vertex_phase(psi1, psi2, psi3)
    assert abs(wrap_angle(got - want)) <= TWO_PI / cfg.grid_size


def test_extract_requires_reference_overlap():
    with pytest.raises(FringeUndefinedError):
        extract_geometric_phase(ZERO, PureState.basis(2, 1), PLUS)
