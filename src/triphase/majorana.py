"""Conversion between N-dimensional pure states and their Bloch-sphere point
constellations, plus brute-force oracles in the full multi-qubit space.

Basis convention: the k-th amplitude c_k of a dimension-N state sits on the
permutation-symmetric (N-1)-qubit basis state with k excitations, so
dimension N is identified with the symmetric subspace of N-1 qubits.

Root convention (committed once, here): a state maps to the polynomial

    p(z) = sum_k (-1)^k sqrt(C(N-1, k)) c_k z^(N-1-k)

and each finite root z becomes the point with z = e^{i azimuth} tan(polar/2),
so |0> sits at the north pole (z = 0) and |1> at the south pole (z = inf).
Each vanishing leading coefficient (degree deficiency) contributes one point
at the south pole (pi, 0). This is the orientation for which points_to_state
inverts state_to_points; the basis states pin it down: (1, 0, ..., 0) maps to
N-1 points at (0, 0) and (0, ..., 0, 1) to N-1 points at (pi, 0).

Roots are taken as eigenvalues of companion matrices, stacked so that one
numpy.linalg.eigvals call serves a whole batch of states; at degree
N-1 <= 12 this is accurate to ~1e-12 on well-conditioned inputs. The array
kernels (constellation_qubits, symmetric_amplitudes) carry the arithmetic;
state_to_points and points_to_state wrap them for single states.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .states import (
    BlochPoint,
    DimensionMismatchError,
    PureState,
    bloch_angles,
    bloch_qubits,
    bloch_to_qubit,
)

MAX_ORACLE_QUBITS = 12     # factorial permutation sum; resource guard
DEFICIENCY_REL_TOL = 1e-12  # leading coefficients below this (relative) are zero


@dataclass(frozen=True)
class MajoranaSet:
    """Unordered multiset of Bloch points representing a symmetric state."""

    points: tuple[BlochPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("a point set must hold at least one point")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def sorted_points(self) -> tuple[BlochPoint, ...]:
        """Points in (polar, azimuth) order, for stable display."""
        return tuple(sorted(self.points, key=lambda p: (p.polar, p.azimuth)))

    def as_qubits(self) -> list[PureState]:
        return [bloch_to_qubit(p) for p in self.points]

    def matches(self, other: "MajoranaSet", tol: float = 1e-8) -> bool:
        """Permutation-invariant equality within an angular tolerance.

        True when the points of the two sets can be paired one to one with
        every pair at most tol apart on the sphere (a perfect matching, found
        by augmenting paths), so the result does not depend on the arbitrary
        output order of a root finder.
        """
        if len(self) != len(other):
            return False
        near = [[j for j, b in enumerate(other.points) if a.sphere_distance(b) <= tol]
                for a in self.points]
        owner = [-1] * len(other)  # owner[j]: the point of self paired with other's j

        def augment(i: int, seen: set[int]) -> bool:
            for j in near[i]:
                if j not in seen:
                    seen.add(j)
                    if owner[j] < 0 or augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False

        return all(augment(i, set()) for i in range(len(self)))


@functools.lru_cache(maxsize=64)
def _binomial_weights(n: int) -> np.ndarray:
    w = np.sqrt([math.comb(n, k) for k in range(n + 1)])
    w.setflags(write=False)
    return w


def constellation_qubits(amplitudes: np.ndarray) -> np.ndarray:
    """Constellations of a stack of states, as unnormalized qubit rows.

    Takes amplitudes of shape (S, N) and returns shape (S, N-1, 2): one row
    (1, z) per finite root z of each state's polynomial, after one row (0, 1)
    (the south pole) per vanishing leading coefficient. bloch_angles maps the
    rows onto the sphere under the module convention. Rows with the same
    number of vanishing leading coefficients share one stacked eigvals call.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] < 2:
        raise ValueError(f"expected a (states, dim >= 2) stack, got shape {amps.shape}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    n = amps.shape[1] - 1
    # descending powers: coefficient of z^(n-k) is (-1)^k sqrt(C(n,k)) c_k
    coeffs = (-1.0) ** np.arange(n + 1) * _binomial_weights(n) * amps
    magnitude = np.abs(coeffs)
    scale = magnitude.max(axis=1)
    if not scale.min() > 0.0:
        raise ValueError("a state has only zero amplitudes")
    small = magnitude <= DEFICIENCY_REL_TOL * scale[:, None]
    # leading small coefficients: the index of the first large one, which
    # exists since the largest coefficient is not small
    deficiency = np.argmin(small, axis=1)
    out = np.zeros((amps.shape[0], n, 2), dtype=complex)
    out[..., 1] = 1.0
    for d in set(deficiency.tolist()) - {n}:
        rows = deficiency == d
        degree = n - d
        reduced = coeffs[rows, d:]
        companion = np.zeros((reduced.shape[0], degree, degree), dtype=complex)
        companion[:, 0, :] = -reduced[:, 1:] / reduced[:, :1]
        companion.reshape(-1, degree * degree)[:, degree::degree + 1] = 1.0  # subdiagonal
        out[rows, d:, 0] = 1.0
        out[rows, d:, 1] = np.linalg.eigvals(companion)
    return out


def state_to_points(s: PureState) -> MajoranaSet:
    """Point constellation of a state: the N-1 roots (with multiplicity) of
    its polynomial, mapped to the sphere under the module convention."""
    polar, azimuth = bloch_angles(constellation_qubits(s.amplitudes[None, :])[0])
    return MajoranaSet(tuple(BlochPoint(t, p) for t, p in zip(polar.tolist(), azimuth.tolist())))


def symmetric_amplitudes(qubits: np.ndarray) -> np.ndarray:
    """Symmetrized products of stacked qubit rows (..., n, 2), unnormalized,
    shape (..., n + 1).

    Expands the product polynomial prod_i (a_i + b_i w), whose w^k
    coefficient divided by sqrt(C(n, k)) is the amplitude on k excitations.
    """
    n = qubits.shape[-2]
    poly = np.ones(qubits.shape[:-2] + (1,), dtype=complex)
    for i in range(n):
        nxt = np.zeros(poly.shape[:-1] + (poly.shape[-1] + 1,), dtype=complex)
        nxt[..., :-1] = poly * qubits[..., i, 0:1]
        nxt[..., 1:] += poly * qubits[..., i, 1:2]
        poly = nxt
    return poly / _binomial_weights(n)


def points_to_state(points: Iterable[BlochPoint] | MajoranaSet) -> PureState:
    """Normalized symmetrized product of the qubits at the given points
    (symmetric_amplitudes); the overall normalization is absorbed at the end.
    """
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    qubits = bloch_qubits([p.polar for p in pts], [p.azimuth for p in pts])
    return PureState.normalized(symmetric_amplitudes(qubits))


def product_state(q: PureState, n: int) -> PureState:
    """n-fold tensor power of a qubit, written in the excitation basis.

    Amplitude on k excitations is sqrt(C(n, k)) a^(n-k) b^k; equals
    points_to_state of n coincident points.
    """
    if q.dim != 2:
        raise DimensionMismatchError(f"expected a qubit, got dim {q.dim}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, b = q.amplitudes
    amps = np.array([math.sqrt(math.comb(n, k)) * a ** (n - k) * b ** k for k in range(n + 1)])
    return PureState.normalized(amps)


def symmetrize_full(qubits: Sequence[PureState]) -> np.ndarray:
    """Average of all coordinate-permuted tensor products, as a raw 2**n vector.

    Brute-force oracle for the symmetric-subspace identification: cost grows
    as n! * 2**n, guarded at n <= MAX_ORACLE_QUBITS. The result is left
    unnormalized on purpose, for exact inner-product comparisons.
    """
    n = len(qubits)
    if not 1 <= n <= MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle supports 1..{MAX_ORACLE_QUBITS} qubits, got {n}")
    vecs = []
    for q in qubits:
        if q.dim != 2:
            raise DimensionMismatchError(f"expected qubits, got dim {q.dim}")
        vecs.append(q.amplitudes)
    acc = np.zeros(2 ** n, dtype=complex)
    for order in itertools.permutations(range(n)):
        term = np.ones(1, dtype=complex)
        for i in order:
            term = np.kron(term, vecs[i])
        acc += term
    return acc / math.factorial(n)


def dicke_embed(s: PureState) -> np.ndarray:
    """Isometric image of a state in the full (N-1)-qubit space.

    Amplitude c_k spreads uniformly over the C(n, k) weight-k bitstrings with
    coefficient c_k / sqrt(C(n, k)), which preserves inner products exactly.
    """
    n = s.dim - 1
    if s.dim > MAX_ORACLE_QUBITS + 1:
        raise ValueError(f"embedding supports dim <= {MAX_ORACLE_QUBITS + 1}, got {s.dim}")
    weights = _binomial_weights(n)
    out = np.empty(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        k = idx.bit_count()
        out[idx] = s.amplitudes[k] / weights[k]
    return out
