"""Phase definition, triangle decomposition, and triple canonicalization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    PLUS,
    YPLUS,
    ZERO,
    angle_dist,
    apply_factored,
    bloch_qubit,
    canonical_bounds,
    random_unitary,
    solid_angle,
    sphere_distance,
)
from triphase import (
    BlochPoint,
    PureState,
    UndefinedPhaseError,
    canonicalize_triple,
    decompose_phase,
    fringe_pair,
    fringe_scan,
    inner_product,
    points_to_state,
    product_state,
    qubit_to_bloch,
    random_pure_state,
    three_vertex_phase,
)
from triphase import phases
from triphase.angles import principal_phase
from triphase.phases import (
    STATE_OVERLAPS,
    bargmann_phases,
    check_overlaps,
    point_overlaps,
    unit_constellation_rows,
)

seeds = st.integers(min_value=0, max_value=10**9)


# --- bargmann product --------------------------------------------------------

def cyclic_product(s1, s2, s3):
    """The cyclic overlap product <s1|s3><s3|s2><s2|s1>, from inner_product."""
    return inner_product(s1, s3) * inner_product(s3, s2) * inner_product(s2, s1)


def test_bargmann_values():
    # two coincident vertices: product reduces to |<0|+>|^2
    assert cyclic_product(ZERO, ZERO, PLUS) == pytest.approx(0.5)
    # full complex arithmetic: <+|y+> <y+|0> <0|+> = (1+i)/2 * 1/sqrt2 * 1/sqrt2
    assert cyclic_product(PLUS, ZERO, YPLUS) == pytest.approx((1 + 1j) / 4)
    assert cyclic_product(ZERO, PureState.basis(2, 1), PLUS) == pytest.approx(0.0)


def unit_rows(rng, shape):
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def test_bargmann_takes_state_overlaps_from_inner_product():
    # single states keep BLAS zdotc's bits, the ones canonicalize's g has
    for dim in (2, 3, 7, 20, 64, 257, 1030):
        for seed in range(5):
            s1, s2, s3 = (random_pure_state(dim, 100 * dim + 3 * seed + k) for k in range(3))
            want = bargmann_phases(inner_product(s1, s3), inner_product(s3, s2), inner_product(s2, s1))
            assert np.float64(three_vertex_phase(s1, s2, s3)).tobytes() == np.float64(want).tobytes(), (dim, seed)


def test_stacked_bargmann_products_match_per_row_vdot():
    # the stacked kernel's overlaps, and their product, against np.vdot on
    # each point row, for row-major and component-major amplitude stacks
    eps = np.finfo(float).eps
    rng = np.random.default_rng(31)
    q2, q3 = unit_rows(rng, (2, 2))
    tail = np.vdot(q3, q2)
    for dim in (2, 3, 7):
        component_major = np.ascontiguousarray(unit_rows(rng, (300, dim)).T).T
        assert not component_major.flags.c_contiguous
        for amplitudes in (unit_rows(rng, (50, dim)), component_major):
            points = unit_constellation_rows(amplitudes)
            t13, o32, t21 = point_overlaps(points, q2, q3)  # the terms of <point|q3>, <q2|point>
            o13, o21 = t13.sum(-1), t21.sum(-1)
            assert points.shape == (len(amplitudes), dim - 1, 2)
            assert abs(o32 - tail) <= 2 * eps
            want = np.zeros(points.shape[:-1], dtype=complex)
            for i in np.ndindex(want.shape):
                assert abs(o13[i] - np.vdot(points[i], q3)) <= 2 * eps
                assert abs(o21[i] - np.vdot(q2, points[i])) <= 2 * eps
                want[i] = np.vdot(points[i], q3) * tail * np.vdot(q2, points[i])
            assert np.abs(o13 * o32 * o21 - want).max() <= 4 * eps


def test_bargmann_keeps_the_phase_of_an_underflowing_product():
    # overlap moduli down to 1e-300, so that most products leave the normal
    # float range (1e-103 apiece is enough); the phases are the sums of the
    # overlaps' args, and rows whose partial and full products have every
    # part in the normal range keep the plain product's bits
    rng = np.random.default_rng(32)
    args = rng.uniform(-math.pi, math.pi, (3, 400))
    overlaps = 10.0 ** rng.uniform(-300, 0, (3, 400)) * np.exp(1j * args)
    partial = overlaps[0] * overlaps[1]
    product = partial * overlaps[2]
    parts = np.abs(np.stack([partial.real, partial.imag, product.real, product.imag]))
    normal = (parts >= np.finfo(float).tiny).all(0)
    assert 0 < normal.sum() < 200
    got = bargmann_phases(*overlaps, eps_null=0.0)
    assert angle_dist(got, args.sum(0)).max() <= 8 * np.finfo(float).eps
    assert got[normal].tobytes() == principal_phase(product[normal]).tobytes()
    for row in range(0, 400, 40):  # the scalar route
        gamma = bargmann_phases(*(complex(o) for o in overlaps[:, row]), eps_null=0.0)
        assert angle_dist(gamma, args[:, row].sum()) <= 8 * np.finfo(float).eps


def test_canonicalize_keeps_the_phase_of_faint_triples():
    # |<psi2|psi3>| down to 1e-11: the phase of the original triple must
    # take the same bits of <psi2|psi3> as canonicalize's g, or it moves by
    # about eps / |g|; eps_null = 0 so that no product counts as vanishing
    rng = np.random.default_rng(12_345)
    for _ in range(200):
        dim = int(rng.integers(2, 21))
        psi1, psi2, z = unit_rows(rng, (3, dim))
        perp = z - np.vdot(psi2, z) * psi2
        psi3 = perp / np.linalg.norm(perp) + 10.0 ** rng.uniform(-11, -5) * psi2
        originals = (PureState(psi1), PureState(psi2), PureState.normalized(psi3))
        result = canonicalize_triple(*originals)
        transformed = (result.psi1, result.psi2(), result.psi3())
        delta = angle_dist(three_vertex_phase(*transformed, eps_null=0.0),
                           three_vertex_phase(*originals, eps_null=0.0))
        assert delta <= 1e-12, (dim, abs(np.vdot(psi2, psi3)), delta)


# --- three_vertex_phase ------------------------------------------------------

def test_phase_quarter_turn():
    assert three_vertex_phase(PLUS, ZERO, YPLUS) == pytest.approx(math.pi / 4, abs=1e-12)


def test_phase_of_real_triples_is_zero_or_pi():
    rng = np.random.default_rng(3)
    for _ in range(40):
        states = [PureState.normalized(rng.standard_normal(4)) for _ in range(3)]
        try:
            gamma = three_vertex_phase(*states)
        except UndefinedPhaseError:
            continue
        assert min(abs(gamma), abs(abs(gamma) - math.pi)) < 1e-12


def test_phase_undefined_on_orthogonal_pair():
    with pytest.raises(UndefinedPhaseError):
        three_vertex_phase(ZERO, PureState.basis(2, 1), PLUS)


# e0, (e0 + e1)/sqrt(2) and e2: <e2|e0> = <e2|psi2> = 0, so no phase and no
# projected fringe under any valid eps_null
ORTHOGONAL_THIRD = (PureState.basis(3, 0), PureState(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)),
                    PureState.basis(3, 2))
EPS_NULL_CALLS = {
    "check_overlaps": lambda eps: check_overlaps(STATE_OVERLAPS, (0.5, 0.5j, -0.5), eps),
    "three_vertex_phase": lambda eps: three_vertex_phase(*ORTHOGONAL_THIRD, eps_null=eps),
    "fringe_scan": lambda eps: fringe_scan(*ORTHOGONAL_THIRD, eps_null=eps),
    "fringe_pair": lambda eps: fringe_pair(*ORTHOGONAL_THIRD, eps_null=eps),
}


@pytest.mark.parametrize("eps_null", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", list(EPS_NULL_CALLS))
def test_eps_null_must_be_a_finite_number_at_least_zero(call, eps_null):
    # the range the CLI's --tolerance enforces: a negative eps_null would
    # take a zero overlap for a phase, NaN or inf would leave none defined
    with pytest.raises(ValueError, match=r"^eps_null must be a finite number >= 0, got ") as info:
        EPS_NULL_CALLS[call](eps_null)
    assert not isinstance(info.value, UndefinedPhaseError)
    assert repr(eps_null) in str(info.value)


@pytest.mark.parametrize("eps_null", [0.0, -0.0])
def test_eps_null_zero_of_either_sign_is_valid(eps_null):
    check_overlaps(STATE_OVERLAPS, (1e-300, 0.5, 0.5), eps_null)
    assert three_vertex_phase(PLUS, ZERO, YPLUS, eps_null=eps_null) == pytest.approx(math.pi / 4, abs=1e-12)
    with pytest.raises(UndefinedPhaseError, match="<psi3|psi1> has modulus 0,"):
        fringe_pair(*ORTHOGONAL_THIRD, eps_null=eps_null)


@given(seeds, seeds, seeds, st.floats(min_value=-math.pi, max_value=math.pi),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=60, deadline=None)
def test_phase_gauge_invariance(s1, s2, s3, extra, dim):
    a, b, c = (random_pure_state(dim, s) for s in (s1, s2, s3))
    a_rotated = PureState(np.exp(1j * extra) * a.amplitudes)
    try:
        before = three_vertex_phase(a, b, c)
    except UndefinedPhaseError:
        return
    assert abs(cyclic_product(a, b, c)) == pytest.approx(abs(cyclic_product(a_rotated, b, c)), abs=1e-14)
    assert three_vertex_phase(a_rotated, b, c) == pytest.approx(before, abs=1e-12)


@given(seeds, seeds, seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=60, deadline=None)
def test_phase_cyclic_and_antisymmetric(s1, s2, s3, dim):
    a, b, c = (random_pure_state(dim, s) for s in (s1, s2, s3))
    try:
        gamma = three_vertex_phase(a, b, c)
    except UndefinedPhaseError:
        return
    assert three_vertex_phase(b, c, a) == pytest.approx(gamma, abs=1e-12)
    assert three_vertex_phase(c, a, b) == pytest.approx(gamma, abs=1e-12)
    assert cyclic_product(b, a, c) == pytest.approx(np.conj(cyclic_product(a, b, c)), abs=1e-14)
    assert angle_dist(three_vertex_phase(b, a, c), -gamma) <= 1e-12


# --- solid angle -------------------------------------------------------------

def test_solid_angle_octant():
    x, y, z = BlochPoint(math.pi / 2, 0), BlochPoint(math.pi / 2, math.pi / 2), BlochPoint(0)
    assert solid_angle(x, y, z) == pytest.approx(math.pi / 2, abs=1e-14)
    assert solid_angle(x, z, y) == pytest.approx(-math.pi / 2, abs=1e-14)


def test_solid_angle_degenerate_triangles():
    p = BlochPoint(1.0, 2.0)
    assert solid_angle(p, p, BlochPoint(0.5, 0.1)) == pytest.approx(0.0, abs=1e-14)
    # three points on the equatorial great circle, close together
    eq = [BlochPoint(math.pi / 2, a) for a in (0.1, 0.5, 0.9)]
    assert solid_angle(*eq) == pytest.approx(0.0, abs=1e-14)


def test_solid_angle_rejects_antipodal_vertices():
    with pytest.raises(UndefinedPhaseError, match="antipodal"):
        solid_angle(BlochPoint(0), BlochPoint(math.pi), BlochPoint(1.0, 1.0))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_qubit_phase_is_minus_half_solid_angle(seed):
    rng = np.random.default_rng(seed)
    pts = [BlochPoint(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
           for _ in range(3)]
    qubits = [bloch_qubit(p) for p in pts]
    try:
        gamma = three_vertex_phase(*qubits)
    except UndefinedPhaseError:
        return
    omega = solid_angle(*pts)
    assert angle_dist(gamma, -omega / 2.0) <= 1e-9


# --- decomposition -----------------------------------------------------------

def test_decompose_coincident_vertices_gives_zero():
    q = random_pure_state(2, 21)
    sym = product_state(q, 4)
    result = decompose_phase(sym, q, random_pure_state(2, 22))
    assert result.total == pytest.approx(0.0, abs=1e-9)
    # the 4-fold root smears into a cluster of radius ~eps^(1/4); each
    # component phase is a sliver of that size, and the slivers cancel
    assert all(abs(g) < 5e-3 for g in result.qubit_phases)


def test_decompose_component_with_repeated_vertex_is_zero():
    # well-separated points, one of them equal to q2's point: that component
    # triangle has two coincident vertices, so its phase vanishes sharply
    q2, q3 = random_pure_state(2, 23), random_pure_state(2, 24)
    pts = [qubit_to_bloch(q2), BlochPoint(0.4, 1.0), BlochPoint(2.2, 4.0)]
    result = decompose_phase(points_to_state(pts), q2, q3)
    matching = [g for row, g in zip(result.point_qubits, result.qubit_phases)
                if sphere_distance(qubit_to_bloch(PureState(row)), qubit_to_bloch(q2)) < 1e-8]
    assert len(matching) == 1
    assert abs(matching[0]) < 1e-9


def test_decompose_reports_component_phases_and_triangles():
    sym = random_pure_state(4, 30)
    q2, q3 = random_pure_state(2, 31), random_pure_state(2, 32)
    result = decompose_phase(sym, q2, q3)
    assert len(result.qubit_phases) == 3
    assert result.point_qubits.shape == (3, 2)
    assert not result.point_qubits.flags.writeable
    # each phase belongs to the triangle of its own point row
    assert all(angle_dist(g, three_vertex_phase(PureState(row), q2, q3)) <= 1e-12
               for row, g in zip(result.point_qubits, result.qubit_phases))
    assert angle_dist(result.total, math.fsum(result.qubit_phases)) <= 1e-12
    assert all(-math.pi < g <= math.pi for g in result.qubit_phases)


def test_decompose_phases_are_minus_half_triangle_solid_angles():
    # the paper's per-triangle law: each point's qubit phase is -1/2 the
    # signed solid angle of its triangle (point, q2, q3), read here from the
    # reference's Cartesian formula, which shares no code with the overlaps
    worst = 0.0
    for dim in range(3, 42):
        for seed in range(20):
            base = 1000 * dim + 3 * seed
            sym = random_pure_state(dim, base)
            q2, q3 = random_pure_state(2, base + 1), random_pure_state(2, base + 2)
            result = decompose_phase(sym, q2, q3)
            b2, b3 = qubit_to_bloch(q2), qubit_to_bloch(q3)
            for row, gamma in zip(result.point_qubits, result.qubit_phases):
                omega = solid_angle(qubit_to_bloch(PureState(row)), b2, b3)
                worst = max(worst, angle_dist(gamma, -omega / 2.0))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("call, error, message", [
    (lambda: decompose_phase(PureState.basis(3, 0), PureState.basis(3, 1), PLUS),
     ValueError, "^q2 and q3 must be qubits$"),
    (lambda: decompose_phase(PureState.basis(3, 0), PLUS, PureState.basis(3, 1)),
     ValueError, "^q2 and q3 must be qubits$"),
    (lambda: canonicalize_triple(PureState.basis(3, 0), PLUS, ZERO),
     ValueError, "^dimensions differ: 3, 2, 2$"),
    (lambda: canonicalize_triple(PLUS, ZERO, PureState.basis(4, 3)),
     ValueError, "^dimensions differ: 2, 2, 4$"),
], ids=["decompose-q2", "decompose-q3", "canonicalize-phi1", "canonicalize-phi3"])
def test_phases_reject_mismatched_dimensions(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_decompose_names_the_vanishing_component():
    # one constellation point orthogonal to q3 = |1> at the north pole
    sym = PureState.basis(3, 0)
    with pytest.raises(UndefinedPhaseError, match="component 0"):
        decompose_phase(sym, PLUS, PureState.basis(2, 1))


@given(seeds, seeds, seeds, st.integers(min_value=2, max_value=8))
# state overlaps 0.54, 2.3e-12 and 0.46 (product 5.6e-13), per-point ones >= 4.7e-3
@example(s1=0, s2=2097153, s3=536870912, dim=6)
@settings(max_examples=60, deadline=None)
def test_decompose_total_matches_direct_phase(s1, s2, s3, dim):
    sym = random_pure_state(dim, s1)
    q2, q3 = random_pure_state(2, s2), random_pure_state(2, s3)
    try:
        total = decompose_phase(sym, q2, q3).total
    except UndefinedPhaseError:
        return
    big2, big3 = product_state(q2, dim - 1), product_state(q3, dim - 1)
    # the direct route loses precision when the overlap product nearly
    # cancels; its arg error scales like eps over the product modulus, which
    # the bound tracks, so it is read below the default eps_null as well
    direct = three_vertex_phase(sym, big2, big3, eps_null=0.0)
    tol = 1e-9 + 1e-14 / abs(cyclic_product(sym, big2, big3))
    assert angle_dist(total, direct) <= tol


# --- canonicalization --------------------------------------------------------

def gram_moduli(triple):
    return [abs(inner_product(triple[i], triple[j]))
            for i in range(3) for j in range(i + 1, 3)]


def canonical_deltas(originals, result):
    """Worst pairwise overlap-modulus change and phase change, as the CLI's
    gram_delta and phase_delta."""
    transformed = (result.psi1, result.psi2(), result.psi3())
    gram = max(abs(a - b) for a, b in zip(gram_moduli(originals), gram_moduli(transformed)))
    return gram, angle_dist(three_vertex_phase(*transformed), three_vertex_phase(*originals))


def mapped_by(result, phi):
    """phi under the canonicalizing unitary, applied from its factors."""
    return PureState.normalized(apply_factored(result.span, result.rotation, phi.amplitudes))


def check_canonical(phi1, phi2, phi3, tol=1e-9):
    result = canonicalize_triple(phi1, phi2, phi3)
    n = phi1.dim - 1
    big2, big3 = result.psi2(), result.psi3()
    # the factored unitary really maps the inputs onto the product pair
    mapped2, mapped3 = mapped_by(result, phi2), mapped_by(result, phi3)
    assert abs(inner_product(mapped2, big2)) == pytest.approx(1.0, abs=tol)
    assert abs(inner_product(mapped3, big3)) == pytest.approx(1.0, abs=tol)
    # overlap reproduced exactly, not only in modulus
    assert inner_product(big2, big3) == pytest.approx(inner_product(phi2, phi3), abs=1e-10)
    assert inner_product(result.psi2_qubit, result.psi3_qubit) ** n == pytest.approx(
        inner_product(phi2, phi3), abs=1e-10)
    transformed = (result.psi1, big2, big3)
    originals = (phi1, phi2, phi3)
    for before, after in zip(gram_moduli(originals), gram_moduli(transformed)):
        assert after == pytest.approx(before, abs=tol)
    try:
        before = three_vertex_phase(*originals)
    except UndefinedPhaseError:
        return result
    assert angle_dist(three_vertex_phase(*transformed), before) <= tol
    return result


def test_canonicalize_builds_the_tensor_power_once(monkeypatch):
    built = []

    def recorded(q, n):
        built.append(product_state(q, n))
        return built[-1]

    monkeypatch.setattr(phases, "product_state", recorded)
    for seed, dim in ((70, 2), (71, 5), (72, 41)):
        result = canonicalize_triple(*(random_pure_state(dim, seed + 100 * j) for j in range(3)))
        assert result.psi3() is result.psi3() is built[-1]
    assert len(built) == 3


def test_canonicalize_qubit_triple():
    result = check_canonical(*(random_pure_state(2, s) for s in (40, 41, 42)))
    assert result.psi2_qubit.dim == 2 and not result.degenerate_frame


@given(seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_canonicalize_random_triples(seed, dim):
    rng = np.random.default_rng(seed)
    states = [PureState.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
              for _ in range(3)]
    check_canonical(*states)


def test_canonicalize_orthogonal_pair_picks_orthogonal_qubits():
    phi2, phi3 = PureState.basis(4, 1), PureState.basis(4, 2)
    result = check_canonical(random_pure_state(4, 50), phi2, phi3)
    assert abs(inner_product(result.psi2_qubit, result.psi3_qubit)) < 1e-12


def test_canonicalize_parallel_pair_degenerates_gracefully():
    phi2 = random_pure_state(5, 60)
    phi3 = PureState(np.exp(0.7j) * phi2.amplitudes)
    result = canonicalize_triple(random_pure_state(5, 61), phi2, phi3)
    assert result.degenerate_frame
    assert inner_product(result.psi2(), result.psi3()) == pytest.approx(
        inner_product(phi2, phi3), abs=1e-10)
    assert abs(inner_product(mapped_by(result, phi2), result.psi2())) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dim", [13, 41, 100, 1030])
def test_canonicalize_haar_triples_above_c4_dims(dim):
    # C4's tolerances
    for k in range(5 if dim <= 100 else 2):
        phis = [random_pure_state(dim, 11_000_000 + 100 * dim + 10 * k + j) for j in range(3)]
        result = canonicalize_triple(*phis)
        big2, big3 = result.psi2(), result.psi3()
        gram, phase = canonical_deltas(phis, result)
        assert gram <= 1e-9 and phase <= 1e-9
        assert abs(inner_product(big2, big3) - inner_product(phis[1], phis[2])) <= 1e-10
        for before, after in zip(phis, (result.psi1, big2, big3)):
            mapped = apply_factored(result.span, result.rotation, before.amplitudes)
            assert np.abs(mapped - after.amplitudes).max() <= 1e-9


@pytest.mark.parametrize("dim", [3, 5, 13, 41])
def test_canonicalize_near_parallel_pair_within_conditioning_bound(dim):
    # psi3 = psi2 + e z with log-uniform e puts 1 - |<psi2|psi3>| anywhere
    # from below eps (parallel to rounding) to about 1e-7; the bounds grow
    # as the frame's conditioning 1 / sqrt(1 - |g|) worsens
    rng = np.random.default_rng(12_000 + dim)
    gaps = []
    for _ in range(100):
        phi1, phi2, z = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(3))
        phi1, phi2 = PureState.normalized(phi1), PureState.normalized(phi2)
        phi3 = PureState.normalized(phi2.amplitudes + 10.0 ** rng.uniform(-10, -4) * z)
        gaps.append(1.0 - abs(inner_product(phi2, phi3)))
        gram, phase = canonical_deltas((phi1, phi2, phi3), canonicalize_triple(phi1, phi2, phi3))
        gram_bound, phase_bound = canonical_bounds(phi1, phi2, phi3)
        assert gram <= gram_bound and phase <= phase_bound, (gaps[-1], gram, phase)
    assert min(gaps) < np.finfo(float).eps and max(gaps) > 1e-9


@given(seeds, seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=50, deadline=None)
def test_phase_invariant_under_unitaries(seed, useed, dim):
    states = [random_pure_state(dim, seed + k) for k in range(3)]
    u = random_unitary(dim, useed)
    try:
        before = three_vertex_phase(*states)
    except UndefinedPhaseError:
        return
    after = three_vertex_phase(*(PureState.normalized(u @ s.amplitudes) for s in states))
    assert angle_dist(after, before) <= 1e-9
