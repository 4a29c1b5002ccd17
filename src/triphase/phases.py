"""Three-vertex geometric phases, their spherical-triangle decomposition, and
the unitary reduction of arbitrary state triples to product-state form."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .angles import principal_phase, wrap_angle
from .majorana import constellation_qubits, product_state
from .states import _TINY, DimensionMismatchError, PureState, check_unitary, inner_product, scale_by_power_of_two

EPS_NULL = 1e-12      # an overlap of modulus at or below this counts as zero
_NORMAL_FLOOR = 1e-100  # three overlaps above it multiply to above 1e-300, a normal float
_PARALLEL_TOL = 1e-12
STATE_OVERLAPS = ("<psi1|psi3>", "<psi3|psi2>", "<psi2|psi1>")
POINT_OVERLAPS = ("<point|q3>", "<q3|q2>", "<q2|point>")


class UndefinedPhaseError(ValueError):
    """An overlap the result is computed from vanishes (check_overlaps): no
    phase is defined. For qubits: antipodal Bloch vertices (orthogonal qubits)."""


def check_overlaps(names, overlaps, eps_null: float = EPS_NULL, offset: int = 0) -> None:
    """The one vanishing rule: a phase is undefined exactly when an overlap
    it is computed from (a complex scalar or stack) has modulus <= eps_null,
    or NaN. Raises UndefinedPhaseError naming the first such overlap, in
    order, and for a stack its first such component. Stacks that are one
    block of longer ones, cut along the first axis at component `offset`,
    have the longer stacks' component named. eps_null must be a finite
    number >= 0 (ValueError): a negative one would take a zero overlap for
    a phase, and NaN or inf would leave no phase defined."""
    if not 0.0 <= eps_null < math.inf:
        raise ValueError(f"eps_null must be a finite number >= 0, got {eps_null!r}")
    for name, overlap in zip(names, overlaps):
        modulus, where = abs(overlap), ""
        if isinstance(modulus, np.ndarray):
            if modulus.min() > eps_null:
                continue
            index = np.unravel_index(int(np.argmin(modulus > eps_null)), modulus.shape)
            modulus, where = modulus[index], f"component {', '.join(map(str, (index[0] + offset, *index[1:])))}: "
        elif modulus > eps_null:
            continue
        raise UndefinedPhaseError(f"undefined phase: {where}{name} has modulus {float(modulus):.3g}, "
                                  f"not above {eps_null:.3g}")


def normal_product(*factors):
    """The product of complex overlaps (scalars or broadcasting stacks, each
    of modulus at most about 1), in order, with the arg of the exact
    product up to rounding.

    A product or square of faint values can fall below the normal float
    range (2**-1022), where it loses digits or becomes 0: for three
    factors, moduli near 1e-103 apiece. Then each factor is first scaled by
    2**-e, e the binary exponent of its modulus: exact, so no rounding is
    added, and every arg stays as it was. The eraser's visibility and
    spinor take the same step. It is taken only when the plain product
    leaves the normal range; inside it the scaled arithmetic would give the
    same bits.
    """
    product = functools.reduce(operator.mul, factors)
    modulus = abs(product)
    if (modulus.min() if isinstance(modulus, np.ndarray) else modulus) >= _TINY:
        return product
    return functools.reduce(operator.mul, (scale_by_power_of_two(f, -np.frexp(abs(f))[1]) for f in factors))


def bargmann_phases(o13, o32, o21, *, names=STATE_OVERLAPS, eps_null: float = EPS_NULL):
    """Principal-branch phases arg(<1|3><3|2><2|1>) in (-pi, pi], from the
    three overlaps (complex scalars or broadcasting stacks), multiplied in
    that order (normal_product, so faint overlaps whose product underflows
    keep their phase); raises UndefinedPhaseError when one of them
    vanishes. Past the vanishing rule at an eps_null of _NORMAL_FLOOR or
    more, the plain product is normal_product's, and its range test is
    skipped."""
    check_overlaps(names, (o13, o32, o21), eps_null)
    product = o13 * o32 * o21 if eps_null >= _NORMAL_FLOOR else normal_product(o13, o32, o21)
    return principal_phase(product)


def unit_constellation_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Unit constellation rows of an (S, N) amplitude stack, shape (S, N-1, 2).

    The rows of constellation_qubits are scaled to unit norm; their Bloch
    angles would change only global phases, which cancel in the phases.
    The result is a view of component-major memory (majorana's stack
    layout), and no arithmetic crosses rows.
    """
    points = constellation_qubits(amplitudes)
    points *= 1.0 / np.sqrt((points.real ** 2 + points.imag ** 2).sum(-1, keepdims=True))
    return points


def point_overlaps(points: np.ndarray, q2, q3) -> tuple:
    """The overlaps of each point's qubit triple (point, q2, q3), in factor
    form, for a stack of unit point rows, shape (..., 2), and qubit rows q2
    and q3: (t13, o32, t21), where t13 = conj(point) * q3 and
    t21 = conj(q2) * point, shape (..., 2), hold the two terms whose sums
    are <point|q3> and <q2|point>, and o32 = <q3|q2> is their scalar
    (POINT_OVERLAPS, in order). Rotating a point row's second component by
    w scales t21[..., 1] by w and t13[..., 1] by conj(w), so the overlaps
    are affine in w: <q2|point> = t21[..., 0] + t21[..., 1] w.
    """
    return points.conj() * q3, (q3.conj() * q2).sum(-1), q2.conj() * points


def three_vertex_phase(s1, s2, s3, *, eps_null: float = EPS_NULL) -> float:
    """Geometric phase of an ordered state triple, in (-pi, pi].

    Gauge invariant (global phases of the inputs drop out) and cyclic in its
    arguments; exchanging two arguments negates it mod 2pi.

    Raises UndefinedPhaseError when one of the three overlaps has modulus
    at most eps_null (check_overlaps), however small their product is.

    The overlaps come from inner_product (BLAS zdotc), whose bits
    canonicalize_triple's g = <phi2|phi3> shares; an elementwise sum differs
    by about eps / |g| relative. On 595 seeded triples (dims 2-20, |g|
    log-uniform in [1e-11, 1e-5]) canonicalize's phase_delta has max 2.7e-14
    this way, and median 3.2e-10, max 4.7e-6 with the elementwise sum.
    """
    return bargmann_phases(inner_product(s1, s3), inner_product(s3, s2), inner_product(s2, s1),
                           eps_null=eps_null)


@dataclass(frozen=True, eq=False)
class PhaseDecomposition:
    """Per-point qubit phases of a (state, qubit, qubit) configuration.

    total is the principal value of the sum of qubit_phases. point_qubits,
    shape (N-1, 2), holds the unit qubit row of each constellation point in
    constellation_qubits' order (south-pole points first): qubit_phases[i]
    is the phase of the triangle (point_qubits[i], q2, q3).
    """

    qubit_phases: tuple[float, ...]
    total: float
    point_qubits: np.ndarray


def decompose_phase(sym1: PureState, q2: PureState, q3: PureState) -> PhaseDecomposition:
    """Split the phase of (sym1, q2^(N-1), q3^(N-1)) into N-1 qubit phases.

    Each constellation point of sym1 contributes the phase of the qubit
    triple (point, q2, q3), one spherical triangle apiece; the parts sum to
    the phase of the full triple mod 2pi. A thin wrapper over
    unit_constellation_rows and point_overlaps on a one-row stack, the
    kernels the sweep's cross-check runs once per phi, at alpha = 0, before
    it rotates the overlaps' terms. Raises UndefinedPhaseError naming the
    point (component) of a vanishing per-point overlap.
    """
    if q2.dim != 2 or q3.dim != 2:
        raise DimensionMismatchError("q2 and q3 must be qubits")
    points = unit_constellation_rows(sym1.amplitudes[None, :])
    t13, o32, t21 = point_overlaps(points, q2.amplitudes, q3.amplitudes)
    phases = bargmann_phases(t13[0].sum(-1), o32, t21[0].sum(-1), names=POINT_OVERLAPS).tolist()
    points.setflags(write=False)  # point_qubits is a read-only view, like PureState's amplitudes
    return PhaseDecomposition(tuple(phases), wrap_angle(math.fsum(phases)), points[0])


@dataclass(frozen=True, eq=False)
class CanonicalTriple:
    """Reduction of a state triple by a unitary to (anything, power, power) form.

    The unitary U = I + W (R - I) W^dagger is the identity off span(W): W
    (N x k, k = min(N, 4)) has orthonormal columns spanning phi2, phi3 and
    their targets, and R (k x k) rotates within it. W and R are stored, with
    psi3, the QR's fourth column, so the reduction costs O(N), and so does
    applying U to a vector: U x = x + W (R W^dagger x - W^dagger x).
    """

    psi2_qubit = PureState.basis(2, 0)  # a class constant: every canonical psi2 is |0>^(N-1)
    psi1: PureState
    psi3_qubit: PureState
    _psi3: PureState      # psi3_qubit^(N-1), which psi3() returns
    span: np.ndarray      # W
    rotation: np.ndarray  # R
    degenerate_frame: bool = False

    @property
    def dim(self) -> int:
        return self.psi1.dim

    def psi2(self) -> PureState:
        """Transformed second state |0>^(N-1), the basis state e0."""
        return PureState.basis(self.dim, 0)

    def psi3(self) -> PureState:
        return self._psi3


def canonicalize_triple(phi1: PureState, phi2: PureState, phi3: PureState) -> CanonicalTriple:
    """Rotate a triple so the last two states become tensor powers of qubits.

    The qubit pair is fixed by <psi2|psi3> = g^(1/(N-1)) with the principal
    root of g = <phi2|phi3> (orthogonal qubits for g = 0, parallel ones for
    |g| = 1). W is the reduced QR basis of (phi2, phi3, psi2, psi3), and R
    the orthogonal-Procrustes polar factor u vh of the SVD of
    (W^dagger tgt)(W^dagger src)^dagger (Schoenemann 1966): exact when the
    pairs' Gram matrices agree, as they do here, with no special case for
    parallel or orthogonal pairs. R and W^dagger W are checked to be
    unitary; psi1 = phi1 + W (R - I) W^dagger phi1. All pairwise overlaps,
    and hence the phase, are preserved. degenerate_frame reports the input
    condition 1 - |g| < 1e-12. Takes dims up to MAX_POWER + 1 = 1030
    (product_state's cap); above, raises ValueError.
    """
    if not (phi1.dim == phi2.dim == phi3.dim):
        raise DimensionMismatchError(f"dimensions differ: {phi1.dim}, {phi2.dim}, {phi3.dim}")
    n = phi1.dim - 1
    g = inner_product(phi2, phi3)
    w = g ** (1.0 / n)
    q3 = PureState.normalized(np.array([w, math.sqrt(max(0.0, 1.0 - abs(w) ** 2))], dtype=complex))

    columns = np.zeros((n + 1, 4), dtype=complex)
    columns[:, 0] = phi2.amplitudes
    columns[:, 1] = phi3.amplitudes
    columns[0, 2] = 1.0  # product_state(|0>, n) is the basis column e0
    psi3 = product_state(q3, n)
    columns[:, 3] = psi3.amplitudes
    span, coords = np.linalg.qr(columns)  # coords = W^dagger columns
    u, _, vh = np.linalg.svd(coords[:, 2:] @ coords[:, :2].conj().T)
    rotation = u @ vh
    check_unitary(span)
    check_unitary(rotation)
    c1 = span.conj().T @ phi1.amplitudes
    psi1 = PureState.normalized(phi1.amplitudes + span @ (rotation @ c1 - c1))
    return CanonicalTriple(psi1, q3, psi3, span, rotation, 1.0 - abs(g) < _PARALLEL_TOL)
