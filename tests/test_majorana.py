"""Constellation conversions against the brute-force symmetrization oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import SQRT2, dicke_embed, matches, sphere_distance, symmetrize_full
from triphase import (
    BlochPoint,
    PureState,
    bloch_to_qubit,
    inner_product,
    points_to_state,
    product_state,
    qubit_to_bloch,
    random_pure_state,
    state_to_points,
)
from triphase.majorana import constellation_qubits
from triphase.states import bloch_angles

seeds = st.integers(min_value=0, max_value=10**9)


def random_points(rng, n, min_separation=0.0):
    """Uniform-ish points; optionally rejection-sampled for pair separation."""
    while True:
        pts = [BlochPoint(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
               for _ in range(n)]
        if min_separation == 0.0:
            return pts
        gaps = [sphere_distance(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
        if not gaps or min(gaps) > min_separation:
            return pts


# --- convention-fixing cases -------------------------------------------------

def test_north_pole_power_state():
    pts = state_to_points(PureState.basis(3, 0))
    assert pts == (BlochPoint(0.0, 0.0), BlochPoint(0.0, 0.0))


def test_south_pole_power_state():
    pts = state_to_points(PureState.basis(3, 2))
    assert pts == (BlochPoint(math.pi, 0.0), BlochPoint(math.pi, 0.0))


def test_qubit_constellation_is_its_own_bloch_point():
    for seed in range(10):
        q = random_pure_state(2, seed)
        (pt,) = state_to_points(q)
        assert sphere_distance(pt, qubit_to_bloch(q)) < 1e-10


def test_equatorial_pair():
    # roots of (z^2 + 1)/sqrt(2): z = +-i
    s = PureState(np.array([1.0, 0.0, 1.0]) / SQRT2)
    pts = state_to_points(s)
    assert pts[0].polar == pytest.approx(math.pi / 2, abs=1e-12)
    assert pts[1].polar == pytest.approx(math.pi / 2, abs=1e-12)
    assert pts[0].azimuth == pytest.approx(math.pi / 2, abs=1e-12)
    assert pts[1].azimuth == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_family_state_points_sit_at_plus_minus_phi():
    # build from the two equatorial points at +-phi, then invert
    phi = math.pi / 4
    src = [BlochPoint(math.pi / 2, phi), BlochPoint(math.pi / 2, 2 * math.pi - phi)]
    pts = state_to_points(points_to_state(src))
    assert matches(pts, src, tol=1e-10)


# --- points_to_state ---------------------------------------------------------

def test_points_to_state_pole_cases():
    north2 = points_to_state([BlochPoint(0.0, 0.0)] * 2)
    assert np.allclose(north2.amplitudes, [1.0, 0.0, 0.0], atol=1e-15)
    mixed = points_to_state([BlochPoint(0.0, 0.0), BlochPoint(math.pi, 0.0)])
    assert np.allclose(np.abs(mixed.amplitudes), [0.0, 1.0, 0.0], atol=1e-15)


def test_points_to_state_matches_pairwise_symmetrization():
    # oracle: K (|a>|b> + |b>|a>) with K = 1/sqrt(2 (1 + |<a|b>|^2)),
    # compared in the full two-qubit space
    phi = math.pi / 4
    pts = [BlochPoint(math.pi / 2, phi), BlochPoint(math.pi / 2, 2 * math.pi - phi)]
    qa, qb = (bloch_to_qubit(p).amplitudes for p in pts)
    raw = np.kron(qa, qb) + np.kron(qb, qa)
    overlap = abs(np.vdot(qa, qb)) ** 2
    oracle = raw / math.sqrt(2 * (1 + overlap))  # K applied to the sum
    embedded = dicke_embed(points_to_state(pts))
    assert abs(np.vdot(embedded, oracle)) == pytest.approx(1.0, abs=1e-12)
    # and the resulting qutrit amplitudes are (1,1,1)/sqrt(3) up to phase
    target = PureState(np.ones(3) / math.sqrt(3.0))
    assert abs(inner_product(points_to_state(pts), target)) == pytest.approx(1.0, abs=1e-12)


def test_points_to_state_empty_rejected():
    with pytest.raises(ValueError):
        points_to_state([])


# --- product_state -----------------------------------------------------------

def test_product_state_examples():
    assert np.allclose(product_state(PureState.basis(2, 0), 2).amplitudes, [1, 0, 0])
    plus = PureState(np.array([1.0, 1.0]) / SQRT2)
    # binomial oracle: (|0>+|1>)(|0>+|1>)/2 -> weights (1, 2, 1)/2 on sqrt-C basis
    assert np.allclose(product_state(plus, 2).amplitudes, [0.5, 1 / SQRT2, 0.5], atol=1e-15)


@given(seeds, st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_product_state_collapses_to_coincident_points(seed, n):
    q = random_pure_state(2, seed)
    # coincident -> power is exact arithmetic
    built = points_to_state([qubit_to_bloch(q)] * n)
    assert abs(inner_product(built, product_state(q, n))) == pytest.approx(1.0, abs=1e-12)
    # power -> coincident runs through the root finder, which smears an
    # n-fold root into a cluster of radius ~eps^(1/n)
    pts = state_to_points(product_state(q, n))
    assert matches(pts, [qubit_to_bloch(q)] * n, tol=max(1e-6, 20 * 2.2e-16 ** (1 / n)))


# --- oracles -----------------------------------------------------------------

def test_symmetrize_full_basics():
    zero, one = PureState.basis(2, 0), PureState.basis(2, 1)
    assert np.allclose(symmetrize_full([zero, zero]), [1, 0, 0, 0])
    assert np.allclose(symmetrize_full([zero, one]), [0, 0.5, 0.5, 0])
    with pytest.raises(ValueError):
        symmetrize_full([zero] * 13)


@given(seeds, seeds)
@settings(max_examples=30, deadline=None)
def test_symmetrize_full_swap_invariance(sa, sb):
    a, b = random_pure_state(2, sa), random_pure_state(2, sb)
    assert np.allclose(symmetrize_full([a, b]), symmetrize_full([b, a]), atol=1e-15)


def test_dicke_embed_values():
    embedded = dicke_embed(PureState.basis(3, 1))
    assert np.allclose(embedded, [0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-15)
    q = random_pure_state(2, 9)
    assert np.allclose(dicke_embed(q), q.amplitudes)


@given(seeds, seeds, st.integers(min_value=2, max_value=7))
@settings(max_examples=40, deadline=None)
def test_dicke_embed_is_an_isometry(sa, sb, dim):
    a, b = random_pure_state(dim, sa), random_pure_state(dim, sb)
    direct = inner_product(a, b)
    embedded = np.vdot(dicke_embed(a), dicke_embed(b))
    assert embedded == pytest.approx(direct, abs=1e-12)


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_constellation_agrees_with_permutation_oracle(seed, n):
    rng = np.random.default_rng(seed)
    pts = random_points(rng, n)
    state = points_to_state(pts)
    oracle = symmetrize_full([bloch_to_qubit(p) for p in pts])
    embedded = dicke_embed(state)
    cos = abs(np.vdot(embedded, oracle)) / (np.linalg.norm(embedded) * np.linalg.norm(oracle))
    assert cos == pytest.approx(1.0, abs=1e-10)


# --- roundtrips --------------------------------------------------------------

@given(seeds, st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_roundtrip_state_points_state(seed, dim):
    s = random_pure_state(dim, seed)
    fidelity = abs(inner_product(s, points_to_state(state_to_points(s))))
    assert fidelity >= 1.0 - 1e-8


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_roundtrip_points_state_points(seed, n):
    rng = np.random.default_rng(seed)
    src = random_points(rng, n, min_separation=0.3)
    out = state_to_points(points_to_state(src))
    assert matches(out, src, tol=1e-6)


def test_degenerate_root_cluster_survives_roundtrip():
    pts = [BlochPoint(1.1, 2.2)] * 4 + [BlochPoint(2.5, 0.4)]
    s = points_to_state(pts)
    fidelity = abs(inner_product(s, points_to_state(state_to_points(s))))
    assert fidelity >= 1.0 - 1e-6


@pytest.mark.parametrize("dim", [2, 5, 13, 21, 41, 61])
def test_haar_roundtrip_accuracy_up_to_dim_61(dim):
    # the accuracy the module docstring states; measured worst 2.2e-16
    for seed in range(20):
        s = random_pure_state(dim, 1000 * dim + seed)
        assert 1.0 - abs(inner_product(s, points_to_state(state_to_points(s)))) <= 1e-12


# --- stacked root kernel -----------------------------------------------------

def stacked_sets(amplitudes):
    polar, azimuth = bloch_angles(constellation_qubits(amplitudes))
    return [tuple(BlochPoint(t, p) for t, p in zip(row_t, row_p))
            for row_t, row_p in zip(polar.tolist(), azimuth.tolist())]


def roots_reference(s):
    """Constellation through numpy.roots, stripping exact leading zeros."""
    n = s.dim - 1
    coeffs = np.array([(-1) ** k * math.sqrt(math.comb(n, k)) for k in range(n + 1)]) * s.amplitudes
    lead = int(np.flatnonzero(coeffs)[0])
    pts = [BlochPoint(math.pi, 0.0)] * lead
    pts += [BlochPoint(2 * math.atan(abs(z)), float(np.angle(z))) for z in np.roots(coeffs[lead:])]
    return pts


@pytest.mark.parametrize("dim", [3, 5, 13])
def test_stacked_kernel_matches_single_state_route(dim):
    rng = np.random.default_rng(dim)
    amps = rng.standard_normal((40, dim)) + 1j * rng.standard_normal((40, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    for row, stacked in zip(amps, stacked_sets(amps)):
        state = PureState(row)
        assert matches(stacked, state_to_points(state), tol=1e-8)
        assert matches(stacked, roots_reference(state), tol=1e-8)


def test_stacked_kernel_handles_deficient_rows():
    rng = np.random.default_rng(8)
    amps = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    amps[1, 0] = 0.0            # one point at the south pole
    amps[3, :3] = 0.0           # three
    amps[4] = [0, 0, 0, 0, 1]   # all four
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    qubits = constellation_qubits(amps)
    assert np.all(np.isfinite(qubits))
    sets = stacked_sets(amps)
    for row, stacked in zip(amps, sets):
        assert matches(stacked, state_to_points(PureState(row)), tol=1e-8)
    south = BlochPoint(math.pi, 0.0)
    assert [sum(p == south for p in s) for s in sets] == [0, 1, 0, 3, 4, 0]
    # one regular row next to one without finite roots
    pair = stacked_sets(amps[[0, 4]])
    assert matches(pair[0], sets[0], tol=1e-12) and matches(pair[1], sets[4], tol=0.0)


def test_stacked_kernel_rejects_non_finite_and_zero_rows():
    good = np.array([[1.0, 0.0, 0.0]])
    for bad in ([[np.nan, 1.0, 0.0]], [[np.inf, 0.0, 0.0]], [[0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError):
            constellation_qubits(np.vstack([good, bad]))


# --- multiset matching -------------------------------------------------------

def test_matches_is_permutation_invariant_and_tolerant():
    rng = np.random.default_rng(5)
    pts = random_points(rng, 5, min_separation=0.3)
    assert matches(pts, pts[::-1])
    nudged = [BlochPoint(p.polar + 1e-9, p.azimuth) for p in pts]
    assert matches(pts, nudged, tol=1e-8)
    moved = [BlochPoint(min(p.polar + 1e-3, math.pi), p.azimuth) for p in pts]
    assert not matches(pts, moved, tol=1e-8)
    assert not matches(pts, pts[:4])
    # a1-b1 (0.95e-3) and a2-b2 (0.90e-3) pair within tol, although the
    # minimum-sum pairing a1-b2 (1.12e-3), a2-b1 (0.6e-3) does not; with a2
    # listed first, the pairing must move a2 from b1 to b2 to place a1
    def near(x, y):
        return BlochPoint(math.pi / 2 + y * 1e-3, 1.0 + x * 1e-3)

    a = (near(0, 0), near(0.95, 0.6))
    b = (near(0.95, 0), near(0.2, 1.1))
    for order in (a, a[::-1]):
        assert matches(order, b, tol=1e-3) and matches(b, order, tol=1e-3)
    assert not matches(a, b, tol=0.94e-3)
