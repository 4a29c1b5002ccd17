"""The fast and stacked forms on the triples and sweep paths give the bits of
the forms they replaced (reference.py), compared as int64 views on seeded
inputs, and the triple routes make no np.linalg.norm call and build no
|0>^n, canonicalize_triple checks W and R for unitarity once each, and
decompose_phase finds each state's roots once and builds no BlochPoint."""

import math
import sys

import numpy as np
import pytest

import reference
from reference import ZERO, count_norm_calls
from triphase import (
    BlochPoint,
    EraserConfig,
    PureState,
    canonicalize_triple,
    decompose_phase,
    extract_geometric_phase,
    fringe_pair,
    sweep_alpha,
    three_vertex_phase,
    wrap_angle,
)
from triphase import eraser, majorana, phases, sweep
from triphase.angles import principal_phase
from triphase.majorana import symmetric_amplitudes
from triphase.states import vector_norm


def bits(x) -> list:
    x = np.ascontiguousarray(x)
    return x.view(np.int64).tolist()


def haar_triple(rng, dim):
    z = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    return [PureState.normalized(row) for row in z]


def test_wrap_angle_matches_the_where_form():
    odd = [k * math.pi for k in range(-41, 42, 2)] + [(2 * k + 1) * math.pi for k in (10**6, -10**9)]
    special = [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300, math.inf, -math.inf, math.nan] + odd
    rng = np.random.default_rng(11)
    values = np.concatenate([special, rng.uniform(-1e4, 1e4, 10**5)])
    # inf wraps to NaN in both forms, and np.float32 rounds 1e300 to inf
    with np.errstate(invalid="ignore", over="ignore"):
        wrapped = wrap_angle(values)
        assert bits(wrapped) == bits(reference.wrap_angle_where(values))
        for k, x in enumerate(values[:1000].tolist()):
            # a Python float, a numpy float and a 0-d array: each a float with the array form's bits
            for scalar in (x, np.float64(x), np.array(x)):
                new, old = wrap_angle(scalar), reference.wrap_angle_where(scalar)
                assert type(new) is float
                assert bits(np.float64(new)) == bits(np.float64(old)) == bits(wrapped[k]), x
            # a float32 and a Python int near x: each a float with the where form's bits on that value
            for scalar in (np.float32(x), int(x)) if math.isfinite(x) else (np.float32(x),):
                new, old = wrap_angle(scalar), reference.wrap_angle_where(scalar)
                assert type(new) is float
                assert bits(np.float64(new)) == bits(np.float64(old)), repr(scalar)


def test_principal_phase_matches_the_wrapped_arctan2():
    # signed zeros, infinities and tiny parts by hand; an imaginary part of
    # -0.0 or just below zero on the negative real axis makes arctan2 -pi,
    # and one that underflows the quotient makes it -0.0
    parts = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
             1e-17, -1e-17, 3e-16, -3e-16, 4e-16, -4e-16, math.inf, -math.inf]
    special = [complex(x, y) for x in parts for y in parts]
    rng = np.random.default_rng(19)
    size = 10**5 // 4
    scaled = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.uniform(-300, 300, size)
    # near the negative real axis, from either side, at every distance
    real = -(10.0 ** rng.uniform(-300, 300, size))
    near_axis = real + 1j * real * rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-330, 0, size)
    unit = np.exp(1j * rng.uniform(-4.0, 4.0, size))
    values = np.concatenate([special, scaled, near_axis, unit, unit.conj() * -1.0])
    assert values.size >= 10**5
    for z in (values, values.reshape(2, -1).T):  # contiguous, and strided as in the sweep
        assert bits(principal_phase(z)) == bits(reference.principal_phase_where(z))
    # NaN beside -pi: a guard on ndarray.min, which returns NaN, would skip the fix-up
    mixed = np.array([complex(math.nan, 1.0), -1.0 - 1e-17j, complex(1.0, math.nan), -2.0 - 1e-17j])
    for z in (mixed, mixed[::-1], mixed.reshape(2, 2).T):
        assert bits(principal_phase(z)) == bits(reference.principal_phase_where(z))
    arrayed = principal_phase(values)
    for k, z in enumerate(values[:len(special) + 1000].tolist()):
        # a Python complex, a numpy complex and a 0-d array: each a float with the array form's bits
        for scalar in (z, np.complex128(z), np.array(z)):
            new, old = principal_phase(scalar), reference.principal_phase_where(scalar)
            assert type(new) is float
            assert bits(np.float64(new)) == bits(np.float64(old)) == bits(arrayed[k]), z


def test_vector_norm_matches_linalg_norm():
    rng = np.random.default_rng(12)
    for dim in range(2, 1031):
        # component-major memory: each sample is a strided row of its transpose
        stack = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        stack *= 10.0 ** rng.uniform(-3, 3)
        for row in (stack[:, 0].copy(), stack.T[1], stack.T[2]):
            assert bits(np.float64(vector_norm(row))) == bits(np.linalg.norm(row))
            unit = row / np.linalg.norm(row)  # normalized, then rescaled by PureState
            assert bits(PureState.normalized(row).amplitudes) == bits(unit / np.linalg.norm(unit))
    # PureState keeps dividing: a reciprocal multiply would flip these zero signs
    signed = np.array([complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.0, -0.0)])
    unit = signed / np.linalg.norm(signed)
    assert bits(PureState.normalized(signed).amplitudes) == bits(unit / np.linalg.norm(unit))
    assert bits(signed * (1.0 / np.linalg.norm(signed))) != bits(signed / np.linalg.norm(signed))


@pytest.mark.parametrize("grid", [16, 64, 4096])
def test_fringe_pair_matches_the_division_forms(grid, monkeypatch):
    rng = np.random.default_rng(grid)
    cfg = EraserConfig(grid)
    triples = [haar_triple(rng, dim) for dim in (2, 3, 5, 9, 13, 20, 64) for _ in range(4)]
    new = [fringe_pair(*t, cfg) + (extract_geometric_phase(*t),) for t in triples]
    monkeypatch.setattr(eraser, "composite_intermediate", reference.composite_by_division)
    monkeypatch.setattr(eraser, "_projected_fringe", reference.projected_fringe_by_division)
    monkeypatch.setattr(eraser, "wrap_angle", reference.wrap_angle_where)
    monkeypatch.setattr(eraser, "principal_phase", reference.principal_phase_where)
    for t, (projected, plain, gamma) in zip(triples, new):
        old_projected, old_plain = fringe_pair(*t, cfg)
        for scan, old in ((projected, old_projected), (plain, old_plain)):
            assert bits(scan.probabilities) == bits(old.probabilities)
            assert bits([scan.peak, scan.center, scan.visibility]) == bits([old.peak, old.center, old.visibility])
        assert bits(np.float64(gamma)) == bits(np.float64(extract_geometric_phase(*t)))


def test_triple_phases_match_the_where_form(monkeypatch):
    rng = np.random.default_rng(13)
    triples = [haar_triple(rng, dim) for dim in (2, 3, 5, 9, 13, 20) for _ in range(10)]
    canons = [canonicalize_triple(*t) for t in triples]

    def outputs():
        for t, c in zip(triples, canons):
            dec = decompose_phase(c.psi1, c.psi2_qubit, c.psi3_qubit)
            yield bits([three_vertex_phase(*t), dec.total, *dec.qubit_phases])

    new = list(outputs())
    monkeypatch.setattr(phases, "wrap_angle", reference.wrap_angle_where)
    monkeypatch.setattr(phases, "principal_phase", reference.principal_phase_where)
    assert new == list(outputs())


def test_bargmann_phases_skip_only_a_range_test_that_cannot_fail():
    # at an eps_null of _NORMAL_FLOOR or more, bargmann_phases multiplies
    # the overlaps that pass the vanishing rule without normal_product's
    # range test: on overlaps down to just above the floor, as scalars and
    # as stacks, the phases keep normal_product's bits
    rng = np.random.default_rng(22)
    floor = phases._NORMAL_FLOOR
    size = 3 * 10**4
    moduli = np.minimum(10.0 ** rng.uniform(-100, 0, (3, size)), 1.0)
    moduli[:, :100] = floor * (1.0 + 1e-15)  # the faintest products allowed
    o13, o32, o21 = moduli * np.exp(1j * rng.uniform(-4.0, 4.0, (3, size)))
    assert np.abs(o13 * o32 * o21).min() >= sys.float_info.min
    for eps_null in (floor, phases.EPS_NULL):
        keep = np.minimum.reduce(moduli) > eps_null
        stacks = (o13[keep], o32[keep], o21[keep])
        want = phases.principal_phase(phases.normal_product(*stacks))
        assert bits(phases.bargmann_phases(*stacks, eps_null=eps_null)) == bits(want)
        for triple in zip(*(x[:300].tolist() for x in stacks)):
            got = phases.bargmann_phases(*triple, eps_null=eps_null)
            assert bits(np.float64(got)) == bits(np.float64(phases.principal_phase(phases.normal_product(*triple))))


def test_canonicalize_matches_the_stacked_columns():
    rng = np.random.default_rng(14)
    for dim in [*range(2, 41), *range(41, 1030, 47), 1030]:
        triple = haar_triple(rng, dim)
        canon = canonicalize_triple(*triple)
        span, rotation, psi1 = reference.canonicalize_by_stacking(*triple)
        assert bits(canon.span) == bits(span)
        assert bits(canon.rotation) == bits(rotation)
        assert bits(canon.psi1.amplitudes) == bits(psi1)
        assert bits(canon.psi2_qubit.amplitudes) == bits(ZERO.amplitudes)


def test_product_state_matches_the_loop_on_canonical_qubits():
    # the qubits canonicalize_triple raises to a power, whose second
    # amplitude is real, with b = 0 (a parallel pair) and a = 0 (an
    # orthogonal pair); a complex second amplitude moves bits, and no CLI
    # path prints a power of one
    rng = np.random.default_rng(17)
    cases = [(reference.canonical_qubit(g, n), n) for g in (1.0, np.exp(0.7j), 0.0) for n in (1, 2, 5, 64, 1029)]
    for _ in range(300):
        n = int(rng.integers(1, majorana.MAX_POWER + 1))
        g = complex(*rng.standard_normal(2))
        cases.append((reference.canonical_qubit(g * rng.uniform() / abs(g), n), n))
    assert sum(abs(q.amplitudes[1]) == 0.0 for q, _ in cases) == 10
    assert sum(q.amplitudes[0] == 0.0 for q, _ in cases) == 5
    for q, n in cases:
        assert bits(majorana.product_state(q, n).amplitudes) == bits(reference.product_state_by_loop(q, n)), n


def test_symmetric_amplitudes_match_the_division_form():
    rng = np.random.default_rng(15)
    for n in range(1, 64):
        # qubit rows as a sample-first view of component-major memory
        qubits = (rng.standard_normal((2, n, 5)) + 1j * rng.standard_normal((2, n, 5))).T
        assert bits(symmetric_amplitudes(qubits)) == bits(reference.symmetric_amplitudes_by_division(qubits))


@pytest.mark.parametrize("theta, phi, steps", [
    (math.pi / 3, math.pi / 4, 1024),
    (math.pi / 12, 1.0, 64),
    (-0.7, 3.0, 100),
    (0.02, math.pi / 4, 256),  # steep: 1/|tan(theta/2)| = 100
])
def test_sweep_matches_the_division_forms(theta, phi, steps, monkeypatch):
    # the closed-form fields keep the division forms' bits. The cross-check
    # finds its roots once and multiplies the triangles' Bargmann invariants
    # before one arg, so it parts from the per-sample root route by rounding
    # only: measured at most 4.2 eps/|t| on these cases, t = tan(theta/2)
    new = sweep_alpha(theta, phi, steps)
    # the reference side builds its own grid: a warm closed-form half would
    # hand it the grid of the first side
    reference.clear_sweep_caches()
    monkeypatch.setattr(sweep, "wrap_angle", reference.wrap_angle_where)
    monkeypatch.setattr(sweep, "_pipeline_wrapped", reference.pipeline_wrapped_by_division)
    monkeypatch.setattr(sweep, "_alpha_grid", reference.alpha_grid_by_linspace)
    old = sweep_alpha(theta, phi, steps)
    for name in ("alphas", "gamma1", "gamma2", "gamma_total", "gamma_wrapped"):
        assert bits(getattr(new, name)) == bits(getattr(old, name)), name
    assert bits(new.singular_alphas) == bits(old.singular_alphas)
    gap = np.max(np.abs(reference.wrap_angle_where(new.gamma_pipeline_wrapped - old.gamma_pipeline_wrapped)))
    assert gap * abs(math.tan(theta / 2)) <= 8 * np.finfo(float).eps, gap


def test_point_overlaps_match_the_inline_form():
    # the kernel's terms and its elementwise <q3|q2> against the sweep's old
    # inline products and matmul, at the sweep's fixed pair for seeded
    # theta of both signs down to 1e-12: on the family's alpha = 0 rows at
    # seeded phi and on Haar unit rows (component-major, as
    # unit_constellation_rows returns them). The pair is real; on a complex
    # pair the matmul and the elementwise sum can part in the last bit
    rng = np.random.default_rng(20)
    for k in range(400):
        theta = float(10 ** rng.uniform(-12, math.log10(1.5)) * rng.choice([-1.0, 1.0]))
        phi = (0.0, math.pi, -math.pi / 2)[k] if k < 3 else float(rng.uniform(0.0, 2 * math.pi))
        family = phases.unit_constellation_rows(symmetric_amplitudes(sweep._moving_qubits(phi, np.zeros(1))))[0]
        dim = int(rng.integers(2, 14))
        haar = phases.unit_constellation_rows(rng.standard_normal((20, dim)) + 1j * rng.standard_normal((20, dim)))
        for points in (family, haar):
            q2, q3 = sweep._fixed_qubits(theta)
            new = phases.point_overlaps(points, q2, q3)
            old = reference.point_overlaps_inline(points, q2, q3)
            for got, want in zip(new, old):
                assert np.shape(got) == np.shape(want)
                assert bits(got) == bits(want), (theta, phi, dim)


def seeded_sweeps(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        theta = float(10 ** rng.uniform(-3, math.log10(1.5)) * rng.choice([-1.0, 1.0]))
        phi = (0.0, math.pi, -math.pi / 2)[k] if k < 3 else float(rng.uniform(-7.0, 7.0))
        yield theta, phi, sweep_alpha(theta, phi, int(rng.integers(64, 5001)))


def test_closed_forms_match_the_per_series_form():
    # one stacked tan/arctan pass against one pass per series, on sweep
    # grids of every length parity and on one alpha
    for theta, phi, result in seeded_sweeps(18, 60):
        phi %= 2 * math.pi
        for alphas in (result.alphas, result.alphas[:-1], result.alphas[1:8], np.array([2.5])):
            g1, g2 = sweep._closed_form_arrays(theta, np.tan(np.array([phi + alphas, phi - alphas]) / 2.0))
            old1, old2 = reference.closed_forms_per_series(theta, phi, alphas)
            assert bits(g1) == bits(old1) and bits(g2) == bits(old2), (theta, phi, np.size(alphas))


def test_triple_routes_make_no_norm_call_and_no_ket0_power(monkeypatch):
    rng = np.random.default_rng(16)
    triples = [haar_triple(rng, dim) for dim in (2, 3, 5, 13)]
    norms = count_norm_calls(monkeypatch)
    powers = []
    original = majorana.product_state

    def recorded(q, n):
        powers.append(q.amplitudes.tolist())
        return original(q, n)

    monkeypatch.setattr(phases, "product_state", recorded)
    monkeypatch.setattr(majorana, "product_state", recorded)
    for t in triples:
        three_vertex_phase(*t)
        canon = canonicalize_triple(*t)
        decompose_phase(canon.psi1, canon.psi2_qubit, canon.psi3_qubit)
        extract_geometric_phase(*t)
    assert norms == []
    assert len(powers) == len(triples)  # psi3's qubit only
    assert ZERO.amplitudes.tolist() not in powers


def test_canonicalize_checks_span_and_rotation_once_each(monkeypatch):
    # the two unitarity checks a faster canonicalization must keep: one on
    # W (N x k) and one on R (k x k), k = min(N, 4), per call
    rng = np.random.default_rng(21)
    checked = []
    original = phases.check_unitary
    monkeypatch.setattr(phases, "check_unitary", lambda m: checked.append(m) or original(m))
    for dim in (2, 3, 5, 13):
        checked.clear()
        canon = canonicalize_triple(*haar_triple(rng, dim))
        k = min(dim, 4)
        assert [m.shape for m in checked] == [(dim, k), (k, k)]
        assert checked[0] is canon.span and checked[1] is canon.rotation


def test_decompose_finds_roots_once_and_builds_no_bloch_point(monkeypatch):
    rng = np.random.default_rng(17)
    states = [haar_triple(rng, dim)[0] for dim in range(2, 14)]
    q2, q3, _ = haar_triple(rng, 2)
    built, roots = [], []
    post_init = BlochPoint.__post_init__
    original = majorana.constellation_qubits

    def recorded(amplitudes):
        roots.append(np.shape(amplitudes))
        return original(amplitudes)

    monkeypatch.setattr(BlochPoint, "__post_init__", lambda p: built.append(p) or post_init(p))
    for module in (majorana, phases):
        monkeypatch.setattr(module, "constellation_qubits", recorded, raising=False)
    for s in states:
        decompose_phase(s, q2, q3)
    assert built == []
    assert roots == [(1, s.dim) for s in states]
