"""Constellation conversions against the brute-force symmetrization oracle."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    SQRT2,
    bloch_qubit,
    companion_roots,
    count_eigvals,
    dicke_embed,
    matches,
    sphere_distance,
    symmetrize_full,
)
from triphase import (
    BlochPoint,
    PureState,
    inner_product,
    points_to_state,
    product_state,
    qubit_to_bloch,
    random_pure_state,
    state_to_points,
)
from triphase import majorana
from triphase.majorana import MAX_DIM, MAX_POWER, constellation_qubits, symmetric_amplitudes
from triphase.phases import point_overlaps, unit_constellation_rows
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
    qa, qb = (bloch_qubit(p).amplitudes for p in pts)
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


def test_product_state_power_cap():
    q = random_pure_state(2, 0)
    # the binomial weights of the largest power still fit in float64
    assert np.isfinite(product_state(q, MAX_POWER).amplitudes).all()
    for n in (0, MAX_POWER + 1):
        with pytest.raises(ValueError, match="MAX_POWER"):
            product_state(q, n)


@pytest.mark.parametrize("call, error, message", [
    (lambda: constellation_qubits(np.array([1.0, 0.0])), ValueError,
     r"^expected a \(states, dim >= 2\) stack, got shape \(2,\)$"),
    (lambda: constellation_qubits(np.ones((3, 1))), ValueError,
     r"^expected a \(states, dim >= 2\) stack, got shape \(3, 1\)$"),
    (lambda: product_state(PureState.basis(3, 0), 2), ValueError, "^expected a qubit, got dim 3$"),
], ids=["constellation-1d", "constellation-dim-1", "product_state-qutrit"])
def test_majorana_rejects_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    oracle = symmetrize_full([bloch_qubit(p) for p in pts])
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


def test_roundtrip_azimuth_stays_below_two_pi():
    # a point at azimuth 0 often comes back at an azimuth of about -1e-17,
    # and -1e-17 % 2pi rounds to 2pi itself; the reduction maps that to 0
    rng = np.random.default_rng(1)
    for _ in range(2000):
        src = [BlochPoint(math.acos(rng.uniform(-1, 1)), 0.0), *random_points(rng, int(rng.integers(1, 6)))]
        out = state_to_points(points_to_state(src))
        assert all(0.0 <= p.azimuth < 2 * math.pi for p in out), out


@pytest.mark.parametrize("dim", [2, 5, 13, 21, 41, 61, *range(62, MAX_DIM + 1), 78, 80, 96])
def test_haar_roundtrip_accuracy_up_to_dim_61(monkeypatch, dim):
    # the accuracy the module docstring states, at every dim up to MAX_DIM,
    # and with the cap lifted at 78, 80 and 96, where a deficiency rule on
    # the weighted coefficients put false points at (pi, 0)
    monkeypatch.setattr(majorana, "MAX_DIM", max(dim, MAX_DIM))
    for seed in range(20):
        s = random_pure_state(dim, 1000 * dim + seed)
        assert 1.0 - abs(inner_product(s, points_to_state(state_to_points(s)))) <= 1e-12


# --- stacked root kernel -----------------------------------------------------

def stacked_sets(amplitudes):
    polar, azimuth = bloch_angles(constellation_qubits(amplitudes))
    return [tuple(BlochPoint(t, p) for t, p in zip(row_t, row_p))
            for row_t, row_p in zip(polar.tolist(), azimuth.tolist())]


def polynomial(amplitudes):
    """Descending coefficients of the state's polynomial, in float."""
    n = len(amplitudes) - 1
    return np.array([(-1) ** k * math.sqrt(math.comb(n, k)) for k in range(n + 1)]) * amplitudes


def roots_reference(s):
    """Constellation through numpy.roots, stripping exact leading zeros."""
    coeffs = polynomial(s.amplitudes)
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


def haar_rows(rng, rows, dim):
    amps = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def assert_rows_bitwise_alone(kernel, stack):
    """Each row of kernel(stack) has the bits kernel gives the row alone."""
    out = kernel(stack)
    for i in range(stack.shape[0]):
        assert out[i].tobytes() == kernel(stack[i:i + 1])[0].tobytes(), i


def test_stacked_kernel_rejects_non_finite_and_zero_rows():
    good = np.array([[1.0, 0.0, 0.0]])
    bads = (([np.nan, 1.0, 0.0], "amplitudes must be finite"),
            ([np.inf, 0.0, 0.0], "amplitudes must be finite"),
            ([0.0, 0.0, 0.0], "a state has only zero amplitudes"))
    for bad, message in bads:
        with pytest.raises(ValueError, match=f"^{message}$"):
            constellation_qubits(np.vstack([good, [bad]]))
    # the same messages wherever the row sits in a long stack
    stack = haar_rows(np.random.default_rng(4), 1025, 3)
    for row in (0, 512, 1024):
        for bad, message in bads:
            amps = stack.copy()
            amps[row] = bad
            with pytest.raises(ValueError, match=f"^{message}$"):
                constellation_qubits(amps)


def test_stacked_kernels_are_bitwise_row_invariant():
    # no arithmetic crosses rows, whatever the layout or the grouping by
    # deficiency: a stack mixing groups of degree 1, 2 and >= 3 (and rows
    # with no finite root), and single-group stacks taking the whole-stack path
    rng = np.random.default_rng(12)
    q2, q3 = haar_rows(np.random.default_rng(13), 2, 2)

    def triangle_kernel(amps):  # decompose_phase's one row, the sweep's whole block
        points = unit_constellation_rows(amps)
        t13, o32, t21 = point_overlaps(points, q2, q3)  # the terms of <point|q3>, <q2|point>
        o13, o21 = t13.sum(-1), t21.sum(-1)
        columns = np.broadcast_arrays(o13, o32, o21, o13 * o32 * o21)  # the overlaps and their product
        return np.concatenate((points, np.stack(columns, axis=-1)), axis=-1)

    for dim in range(2, MAX_DIM + 1):
        n = dim - 1
        leads = [d for d in (0, n // 2, n - 3, n - 2, n - 1, n) if d >= 0] * 2
        amps = haar_rows(rng, len(leads) + 1, dim)
        for row, d in zip(rng.permutation(len(leads)), leads):
            amps[row, :d] = 0.0
        amps[-1, 0] *= 1e-13  # deficient by DEFICIENCY_REL_TOL, not by an exact zero
        assert_rows_bitwise_alone(constellation_qubits, amps)
        assert_rows_bitwise_alone(triangle_kernel, amps)
        qubits = rng.standard_normal((12, n, 2)) + 1j * rng.standard_normal((12, n, 2))
        qubits[1, :, 0] = 0.0  # south poles
        qubits[2, :, 1] = 0.0  # north poles
        assert_rows_bitwise_alone(symmetric_amplitudes, qubits)
    for dim in (2, 3, 5):
        amps = haar_rows(rng, 1025, dim)
        assert_rows_bitwise_alone(constellation_qubits, amps)
        assert_rows_bitwise_alone(triangle_kernel, amps)
        qubits = rng.standard_normal((1025, dim - 1, 2)) + 1j * rng.standard_normal((1025, dim - 1, 2))
        assert_rows_bitwise_alone(symmetric_amplitudes, qubits)


# --- closed-form roots of degree <= 2 --------------------------------------

EPS = 2.0 ** -52
MP_DIGITS = 50


def exact_roots(amplitudes):
    """Finite roots of the polynomial of the float amplitudes, taken as exact,
    to MP_DIGITS digits."""
    n = len(amplitudes) - 1
    coeffs = [(-1) ** k * mpmath.sqrt(math.comb(n, k)) * mpmath.mpc(c.real, c.imag)
              for k, c in enumerate(amplitudes)]
    while coeffs[0] == 0:
        coeffs.pop(0)
    return mpmath.polyroots(coeffs, maxsteps=500, extraprec=500)


def root_error(roots, exact):
    """Largest sphere distance between paired roots, paired up to permutation."""
    def dist(z, w):  # sin(half the sphere distance) between z and w
        z = mpmath.mpc(complex(z).real, complex(z).imag)
        return abs(z - w) / mpmath.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))

    return min(max(2 * float(mpmath.asin(dist(z, w))) for z, w in zip(order, exact))
               for order in itertools.permutations(roots))


def closed_form_and_eigvals_errors(amplitudes):
    amplitudes = np.asarray(amplitudes, dtype=complex)
    rows = constellation_qubits(amplitudes[None, :])[0]
    coeffs = polynomial(amplitudes)
    lead = int(np.flatnonzero(coeffs)[0])
    assert np.all(rows[:lead] == [0, 1])  # south-pole rows
    with mpmath.workdps(MP_DIGITS):
        exact = exact_roots(amplitudes)
        return root_error(rows[lead:, 1], exact), root_error(companion_roots(coeffs[lead:]), exact)


def distinct_root_cases():
    rng = np.random.default_rng(11)

    def draw(k):
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)

    def near_antipodes(p, nudge):
        azimuth = (p.azimuth + math.pi + nudge) % (2 * math.pi)
        return [p, BlochPoint(math.pi - p.polar + nudge, azimuth)]

    for dim in (2, 3):
        for seed in range(60):
            yield random_pure_state(dim, 31 * dim + seed).amplitudes
    for _ in range(10):
        # deficient rows that leave degree 1 or 2
        yield np.concatenate([[0], draw(2)])
        yield np.concatenate([[0], draw(3)])
        yield np.concatenate([[0, 0], draw(2)])
        yield np.concatenate([[0, 0], draw(3)])
        yield np.concatenate([[0, 0, 0], draw(2)])
        # b = 0, and a root at z = 0 (a north-pole point)
        a, c = draw(2)
        yield np.array([a, 0, c])
        p = random_points(rng, 1)[0]
        yield points_to_state([BlochPoint(0.0, 0.0), p]).amplitudes
        for nudge in (0.0, 1e-9, 1e-5):
            yield points_to_state(near_antipodes(p, nudge)).amplitudes


def test_closed_form_roots_match_mpmath_as_well_as_eigvals():
    for amplitudes in distinct_root_cases():
        closed, eig = closed_form_and_eigvals_errors(amplitudes)
        assert closed <= eig + 4 * EPS, (amplitudes, closed, eig)


def test_closed_form_double_root_within_cluster_bound():
    # the eps^(1/k) bound of test_product_state_collapses_to_coincident_points
    for seed in range(20):
        double = product_state(random_pure_state(2, seed), 2)
        closed, _ = closed_form_and_eigvals_errors(double.amplitudes)
        assert closed <= max(1e-6, 20 * 2.2e-16 ** (1 / 2))


def test_closed_form_roots_do_not_depend_on_amplitude_scale():
    # the roots come from coefficient ratios, so huge or tiny finite rows
    # neither overflow nor underflow, on the closed-form and eigvals paths;
    # eigvals moves its roots by up to 1.2e-14 (relative) when the scaling
    # rounds the coefficients
    for dim, rtol in ((2, 1e-14), (3, 1e-14), (13, 1e-13), (64, 1e-13)):
        row = random_pure_state(dim, dim).amplitudes[None, :]
        base = constellation_qubits(row)
        for scale in (1e200, 1e-200):
            assert np.allclose(constellation_qubits(scale * row), base, rtol=rtol, atol=0.0)


def test_small_leading_amplitude_gives_no_south_pole_point():
    # a seeded dim-64 state with |c_0| = 1e-4: judged on the weighted
    # coefficients (weights up to 9.6e8), c_0 counted as zero and a point
    # sat at (pi, 0), a round trip of 5.0e-9; its southmost root lies at
    # polar pi - 2.078e-4
    amps = random_pure_state(64, 64).amplitudes.copy()
    amps[0] *= 1e-4 / abs(amps[0])
    s = PureState.normalized(amps)
    rows = constellation_qubits(s.amplitudes[None, :])[0]
    assert np.all(rows[:, 0] == 1.0)  # no south-pole rows
    with mpmath.workdps(MP_DIGITS):
        exact = max(exact_roots(s.amplitudes), key=abs)
        assert root_error([max(rows[:, 1], key=abs)], [exact]) <= 1e-12
    assert 1.0 - abs(inner_product(s, points_to_state(state_to_points(s)))) <= 1e-15


def test_eigvals_runs_only_for_degree_3_and_up(monkeypatch):
    calls = count_eigvals(monkeypatch)
    for dim in (2, 3):
        state_to_points(random_pure_state(dim, dim))
    assert calls == []
    # dim 6: deficiencies 0..5 leave degrees 5, 4, 3, 2, 1 and none
    rng = np.random.default_rng(6)
    amps = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    for row in range(12):
        amps[row, :row % 6] = 0.0
    constellation_qubits(amps)
    assert sorted(calls) == [(2, 3, 3), (2, 4, 4), (2, 5, 5)]


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
