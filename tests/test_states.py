"""Value types and linear-algebra primitives."""

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import SQRT2, ZERO, bloch_qubit, cartesian, random_unitary, states_equal
from triphase import (
    BlochPoint,
    EraserConfig,
    PureState,
    fringe_scan,
    inner_product,
    product_state,
    qubit_to_bloch,
    random_pure_state,
    sweep_alpha,
)
from triphase.angles import reduce_angle
from triphase.states import check_unitary, vector_norm

seeds = st.integers(min_value=0, max_value=10**9)
dims = st.integers(min_value=2, max_value=9)


def test_inner_product_identity_and_orthogonal():
    zero = PureState.basis(2, 0)
    one = PureState.basis(2, 1)
    assert inner_product(zero, zero) == pytest.approx(1.0)
    assert inner_product(zero, one) == pytest.approx(0.0)


def test_inner_product_conjugates_first_argument():
    zero = PureState.basis(2, 0)
    yplus = PureState(np.array([1.0, 1.0j]) / SQRT2)
    assert inner_product(zero, yplus) == pytest.approx(1 / SQRT2)
    # direct arithmetic oracle on a genuinely complex overlap
    plus = PureState(np.array([1.0, 1.0]) / SQRT2)
    assert inner_product(yplus, plus) == pytest.approx((1 - 1j) / 2)
    assert inner_product(plus, yplus) == pytest.approx((1 + 1j) / 2)


@given(seeds, seeds, dims)
@settings(max_examples=60, deadline=None)
def test_inner_product_hermitian_symmetry(sa, sb, dim):
    a, b = random_pure_state(dim, sa), random_pure_state(dim, sb)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^state dimensions differ: 2 != 3$"):
        inner_product(PureState.basis(2, 0), PureState.basis(3, 0))


# each count argument: a call that passes it one value (64 is whole and in
# range for all six), and what the result shows of the count it took. A
# grid_size of 100.5 taken as is would sample 101 deltas ending at 6.2519,
# not the uniform grid on [0, 2pi), so its entry shows a scan's deltas
COUNT_ARGUMENTS = {
    "n": (lambda v: product_state(random_pure_state(2, 1), v), lambda r: r.amplitudes.tobytes()),
    "grid_size": (lambda v: EraserConfig(v), lambda r: (
        type(r.grid_size), r.grid_size, fringe_scan(ZERO, ZERO, None, r).deltas.tobytes())),
    "steps": (lambda v: sweep_alpha(0.5, 0.1, v), lambda r: r.gamma_pipeline_wrapped.tobytes()),
    "basis dim": (lambda v: PureState.basis(v, 0), lambda r: r.amplitudes.tobytes()),
    "basis index": (lambda v: PureState.basis(65, v), lambda r: r.amplitudes.tobytes()),
    "dim": (lambda v: random_pure_state(v, 1), lambda r: r.amplitudes.tobytes()),
}
NOT_WHOLE = [math.nan, math.inf, -math.inf, 64.5, Fraction(129, 2)]


@pytest.mark.parametrize("call, error, message", [
    (lambda: qubit_to_bloch(PureState.basis(3, 0)), ValueError, "^expected a qubit, got dim 3$"),
    (lambda: PureState.basis(3, 3), ValueError, "^basis index 3 out of range for dim 3$"),
    (lambda: PureState.basis(2, -1), ValueError, "^basis index -1 out of range for dim 2$"),
    (lambda: PureState.basis(2.5, 0), ValueError, "^basis dim must be a whole number, got 2.5$"),
    (lambda: PureState.basis(3, 1.5), ValueError, "^basis index must be a whole number, got 1.5$"),
    (lambda: random_pure_state(math.inf, 1), ValueError, "^dim must be a whole number, got inf$"),
    # 64.5 passes every range check; NaN and +-inf fail the whole-number
    # test, or a range check before it
    *[(functools.partial(make, value), ValueError,
       f"^{name} must {'be a whole number' if math.isfinite(value) else '.*'}, got {re.escape(str(value))}$")
      for name, (make, _) in COUNT_ARGUMENTS.items() for value in NOT_WHOLE],
], ids=["qubit_to_bloch-qutrit", "basis-past-end", "basis-negative", "basis-fractional-dim", "basis-fractional-index",
        "dim-inf-past-range", *[f"{name}-{value}" for name in COUNT_ARGUMENTS for value in NOT_WHOLE]])
def test_states_reject_out_of_range_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_count_arguments_take_whole_numpy_scalars_as_ints(name):
    make, taken = COUNT_ARGUMENTS[name]
    assert taken(make(64.0)) == taken(make(np.float64(64.0))) == taken(make(np.int64(64))) == taken(make(64))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState([0.9, 0.0])  # norm off by more than the tolerance
    with pytest.raises(ValueError):
        PureState([1.0])  # dim 1
    # a matrix or a (1, N) row is not flattened into a state of its size
    for matrix in (np.eye(2) / math.sqrt(2), [[1.0, 0.0]], [[0.6, 0.8j, 0.0]]):
        shape = re.escape(str(np.shape(matrix)))
        for build in (PureState, PureState.normalized):
            with pytest.raises(ValueError, match=rf"^amplitudes must be one-dimensional, got shape {shape}$"):
                build(matrix)
    for zero in ([0.0, 0.0], [0j, -0.0, 0.0]):  # no power of two makes these normal
        with pytest.raises(ValueError, match=r"^cannot normalize a vector of norm 0\.0$"):
            PureState.normalized(zero)


@pytest.mark.parametrize("vec", [[1e-160, 2e-160], [1e-170, 2e-170], [5e-324, 1e-323], [1e-170j, 0.0, -2e-170]],
                         ids=["squares-subnormal", "squares-zero", "subnormal", "complex"])
def test_normalized_takes_vectors_whose_squares_underflow(vec):
    # the norm's squares fall below the normal range (or to 0); a power of
    # two brings the vector back first, so the state is the unit (1, 2) ray
    amplitudes = PureState.normalized(vec).amplitudes
    assert np.abs(amplitudes[amplitudes != 0]) == pytest.approx([1 / math.sqrt(5), 2 / math.sqrt(5)], abs=1e-15)
    assert vector_norm(amplitudes) == pytest.approx(1.0, abs=1e-15)
    # a power of two apart from (1, 2) exactly: the same bits
    if vec[0] == 5e-324:
        assert amplitudes.tobytes() == PureState.normalized([1.0, 2.0]).amplitudes.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_rejected(bad):
    with pytest.raises(ValueError):
        PureState([bad, 1.0])
    with pytest.raises(ValueError):
        PureState([complex(0.6, bad), 0.8])
    with pytest.raises(ValueError):
        PureState.normalized([bad, 1.0])
    with pytest.raises(ValueError, match="azimuth must be finite"):
        BlochPoint(1.0, bad)
    with pytest.raises(ValueError, match="phi must be finite"):
        reduce_angle(bad, "phi")
    with pytest.raises(ValueError, match="angle must be finite"):
        reduce_angle(bad)


def test_qubit_to_bloch_axes():
    assert qubit_to_bloch(PureState.basis(2, 0)) == BlochPoint(0.0, 0.0)
    p = qubit_to_bloch(PureState(np.array([1.0, 1.0]) / SQRT2))
    assert p.polar == pytest.approx(math.pi / 2) and p.azimuth == pytest.approx(0.0)
    # global phase is discarded
    q = PureState(np.exp(1j * math.pi / 3) * np.array([1.0, 1.0j]) / SQRT2)
    p = qubit_to_bloch(q)
    assert p.polar == pytest.approx(math.pi / 2)
    assert p.azimuth == pytest.approx(math.pi / 2)


def test_bloch_to_qubit_axes():
    assert states_equal(bloch_qubit(BlochPoint(0.0, 0.0)), PureState.basis(2, 0))
    assert states_equal(bloch_qubit(BlochPoint(math.pi, 0.0)), PureState.basis(2, 1))
    yplus = PureState(np.array([1.0, 1.0j]) / SQRT2)
    assert states_equal(bloch_qubit(BlochPoint(math.pi / 2, math.pi / 2)), yplus)


def test_bloch_point_normalizes_poles_and_azimuth():
    assert BlochPoint(0.0, 1.234).azimuth == 0.0
    assert BlochPoint(math.pi, -2.0).azimuth == 0.0
    assert BlochPoint(1.0, -math.pi / 4).azimuth == pytest.approx(7 * math.pi / 4)
    assert BlochPoint(1.0, -1e-17).azimuth == 0.0  # -1e-17 % 2pi rounds to 2pi
    assert np.linalg.norm(cartesian(BlochPoint(1.0, 2.0))) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        BlochPoint(3.5, 0.0)


@given(st.floats(min_value=0.01, max_value=math.pi - 0.01),
       st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9))
@settings(max_examples=80, deadline=None)
def test_bloch_roundtrip_angles(polar, azimuth):
    p = BlochPoint(polar, azimuth)
    q = qubit_to_bloch(bloch_qubit(p))
    assert q.polar == pytest.approx(p.polar, abs=1e-10)
    assert q.azimuth == pytest.approx(p.azimuth, abs=1e-10)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_qubit_roundtrip_up_to_phase(seed):
    q = random_pure_state(2, seed)
    back = bloch_qubit(qubit_to_bloch(q))
    assert abs(inner_product(q, back)) == pytest.approx(1.0, abs=1e-10)


def test_random_pure_state_basics():
    s = random_pure_state(5, 7)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(s.amplitudes, random_pure_state(5, 7).amplitudes)
    with pytest.raises(ValueError):
        random_pure_state(1, 0)


def test_random_pure_state_haar_moment():
    # E|amp0|^2 = 1/dim; |amp0|^2 ~ Beta(1, dim-1), so sigma_mean is known
    dim, n = 4, 10_000
    samples = np.array([abs(random_pure_state(dim, seed).amplitudes[0]) ** 2
                        for seed in range(n)])
    sigma_mean = math.sqrt((dim - 1) / (dim ** 2 * (dim + 1)) / n)
    assert abs(samples.mean() - 1 / dim) < 3 * sigma_mean


def test_random_unitary_basics():
    u = random_unitary(4, 3)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    assert defect < 1e-10
    assert np.array_equal(u, random_unitary(4, 3))
    mapped = PureState.normalized(random_unitary(2, 5) @ PureState.basis(2, 0).amplitudes)
    assert np.linalg.norm(mapped.amplitudes) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        random_unitary(1, 0)


def test_check_unitary_rejects_non_unitary():
    for bad in (0.1, math.nan):  # a shear, and a NaN entry (NaN defect)
        with pytest.raises(ValueError):
            check_unitary(np.array([[1.0, bad], [0.0, 1.0]]))
    check_unitary(random_unitary(4, 3))


@given(seeds, seeds, seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=50, deadline=None)
def test_unitaries_preserve_inner_products(su, sa, sb, dim):
    u = random_unitary(dim, su)
    a, b = random_pure_state(dim, sa), random_pure_state(dim, sb)
    before = inner_product(a, b)
    after = inner_product(PureState.normalized(u @ a.amplitudes), PureState.normalized(u @ b.amplitudes))
    assert after == pytest.approx(before, abs=1e-10)
