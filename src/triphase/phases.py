"""Three-vertex geometric phases, their spherical-triangle decomposition, and
the unitary reduction of arbitrary state triples to product-state form."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import wrap_angle
from .majorana import product_state, state_to_points
from .states import (
    BlochPoint,
    DimensionMismatchError,
    PureState,
    Unitary,
    apply_unitary,
    bloch_qubits,
    inner_product,
    qubit_to_bloch,
)

EPS_NULL = 1e-12      # below this, an overlap product counts as zero
ANTIPODAL_TOL = 1e-9  # |a + b| below this means antipodal vertices
_PARALLEL_TOL = 1e-12


class UndefinedPhaseError(ValueError):
    """The overlap product vanishes, so no geometric phase is defined."""


class DegenerateGeodesicError(ValueError):
    """Two vertices are antipodal: the connecting geodesic is not unique."""


def bargmann_products(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray):
    """Cyclic overlap products <1|3><3|2><2|1> of stacked amplitude rows.

    The inputs broadcast against each other over all but the last axis,
    which holds the amplitudes; one-dimensional inputs give a scalar.
    """
    return np.vecdot(a1, a3) * np.vecdot(a3, a2) * np.vecdot(a2, a1)


def bargmann_phases(b, *, eps_null: float = EPS_NULL):
    """Principal-branch phases arg(b) in (-pi, pi] of Bargmann products.

    Raises UndefinedPhaseError, naming the first offending entry of an
    array, when a product has modulus at most eps_null.
    """
    modulus = abs(b)
    null = modulus <= eps_null
    if np.count_nonzero(null):
        flat = int(np.argmax(null))
        where = ", ".join(str(int(i)) for i in np.unravel_index(flat, np.shape(null)))
        raise UndefinedPhaseError(
            (f"component {where}: " if where else "")
            + f"overlap product modulus {float(np.ravel(modulus)[flat]):.3g} <= {eps_null:.3g}; "
            "phase undefined"
        )
    return wrap_angle(np.arctan2(b.imag, b.real))


def bargmann(s1: PureState, s2: PureState, s3: PureState) -> complex:
    """Cyclic overlap product <s1|s3><s3|s2><s2|s1>."""
    if not s1.dim == s2.dim == s3.dim:
        raise DimensionMismatchError(f"state dimensions differ: {s1.dim}, {s2.dim}, {s3.dim}")
    return complex(bargmann_products(s1.amplitudes, s2.amplitudes, s3.amplitudes))


def three_vertex_phase(s1, s2, s3, *, eps_null: float = EPS_NULL) -> float:
    """Geometric phase of an ordered state triple, in (-pi, pi].

    Gauge invariant (global phases of the inputs drop out) and cyclic in its
    arguments; exchanging two arguments negates it mod 2pi.

    Raises UndefinedPhaseError when the overlap product has modulus at most
    eps_null, i.e. some pair is orthogonal and the phase is genuinely
    undefined.
    """
    return bargmann_phases(bargmann(s1, s2, s3), eps_null=eps_null)


def solid_angle_triangle(p1: BlochPoint, p2: BlochPoint, p3: BlochPoint) -> float:
    """Signed solid angle of the geodesic triangle with the given vertices.

    Positive for counterclockwise vertex order viewed from outside the
    sphere, which makes  qubit phase = -solid_angle/2  (mod 2pi) hold for the
    matching qubit triple. Evaluates

        tan(omega/2) = a.(b x c) / (1 + a.b + b.c + c.a)

    through atan2, so the branch is correct when the denominator is <= 0 and
    the result lies in (-2pi, 2pi]. Coincident or locally collinear vertices
    give 0; antipodal pairs are rejected.
    """
    a, b, c = p1.to_cartesian(), p2.to_cartesian(), p3.to_cartesian()
    for u, v in ((a, b), (b, c), (c, a)):
        if float(np.linalg.norm(u + v)) < ANTIPODAL_TOL:
            raise DegenerateGeodesicError("a vertex pair is antipodal")
    num = float(np.dot(a, np.cross(b, c)))
    den = float(1.0 + a @ b + b @ c + c @ a)
    return 2.0 * math.atan2(num, den)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Per-point qubit phases of a (state, qubit, qubit) configuration.

    total is the principal value of the sum of qubit_phases; triangles holds
    the ordered vertex triple behind each qubit phase, for plotting.
    """

    qubit_phases: tuple[float, ...]
    total: float
    triangles: tuple[tuple[BlochPoint, BlochPoint, BlochPoint], ...]


def decompose_phase(sym1: PureState, q2: PureState, q3: PureState,
                    *, eps_null: float = EPS_NULL) -> PhaseDecomposition:
    """Split the phase of (sym1, q2^(N-1), q3^(N-1)) into N-1 qubit phases.

    Each constellation point of sym1 contributes the phase of the qubit
    triple (point, q2, q3), one spherical triangle apiece; the parts sum to
    the phase of the full triple mod 2pi.
    """
    if q2.dim != 2 or q3.dim != 2:
        raise DimensionMismatchError("q2 and q3 must be qubits")
    points = state_to_points(sym1).sorted_points()
    qubits = bloch_qubits([p.polar for p in points], [p.azimuth for p in points])
    products = bargmann_products(qubits, q2.amplitudes, q3.amplitudes)
    phases = bargmann_phases(products, eps_null=eps_null).tolist()
    b2, b3 = qubit_to_bloch(q2), qubit_to_bloch(q3)
    triangles = tuple((point, b2, b3) for point in points)
    return PhaseDecomposition(tuple(phases), wrap_angle(math.fsum(phases)), triangles)


@dataclass(frozen=True)
class CanonicalTriple:
    """Unitary reduction of a state triple to (anything, power, power) form."""

    psi1: PureState
    psi2_qubit: PureState
    psi3_qubit: PureState
    transform: Unitary
    degenerate_frame: bool = False

    @property
    def dim(self) -> int:
        return self.psi1.dim

    def psi2(self) -> PureState:
        """Transformed second state, as the tensor power of its qubit."""
        return product_state(self.psi2_qubit, self.dim - 1)

    def psi3(self) -> PureState:
        return product_state(self.psi3_qubit, self.dim - 1)


def _orthonormal_complement(frame: list[np.ndarray]) -> list[np.ndarray]:
    # the rows of vh past the (orthonormal) frame's rank span the null space
    # of the conjugated frame rows; conjugated, they complete the frame
    return list(np.linalg.svd(np.conj(frame))[2][len(frame):].conj())


def _frame_matching_unitary(src: list[np.ndarray], tgt: list[np.ndarray]) -> np.ndarray:
    b_src = np.column_stack(src + _orthonormal_complement(src))
    b_tgt = np.column_stack(tgt + _orthonormal_complement(tgt))
    return b_tgt @ b_src.conj().T


def canonicalize_triple(phi1: PureState, phi2: PureState, phi3: PureState) -> CanonicalTriple:
    """Rotate a triple so the last two states become tensor powers of qubits.

    The qubit pair is fixed by <psi2|psi3> = g^(1/(N-1)) with the principal
    root of g = <phi2|phi3> (orthogonal qubits for g = 0, parallel ones for
    |g| = 1); the unitary matches the orthonormal frames of (phi2, phi3) and
    of the two tensor powers, both orthonormalized the same way (second
    vector is the Gram-Schmidt remainder scaled by its positive norm), and is
    completed deterministically on the orthogonal complement. All pairwise
    overlaps, and hence the phase, are preserved.
    """
    if not (phi1.dim == phi2.dim == phi3.dim):
        raise DimensionMismatchError(
            f"dimensions differ: {phi1.dim}, {phi2.dim}, {phi3.dim}"
        )
    n = phi1.dim - 1
    g = inner_product(phi2, phi3)
    w = g ** (1.0 / n)
    q2 = PureState(np.array([1.0, 0.0], dtype=complex))
    q3 = PureState.normalized(np.array([w, math.sqrt(max(0.0, 1.0 - abs(w) ** 2))], dtype=complex))
    big2 = product_state(q2, n)
    big3 = product_state(q3, n)

    degenerate = 1.0 - abs(g) < _PARALLEL_TOL
    if degenerate:
        src, tgt = [phi2.amplitudes], [big2.amplitudes]
    else:
        def gram_pair(first, second):
            rem = second - np.vdot(first, second) * first
            return [first, rem / np.linalg.norm(rem)]

        src = gram_pair(phi2.amplitudes, phi3.amplitudes)
        tgt = gram_pair(big2.amplitudes, big3.amplitudes)

    transform = Unitary(_frame_matching_unitary(src, tgt))
    return CanonicalTriple(
        psi1=apply_unitary(transform, phi1),
        psi2_qubit=q2,
        psi3_qubit=q3,
        transform=transform,
        degenerate_frame=degenerate,
    )
