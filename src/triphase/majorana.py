"""Conversion between N-dimensional pure states and their Bloch-sphere point
constellations.

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

States are grouped by their number of vanishing leading coefficients. A
group whose remaining polynomial has degree 1 or 2 (every qubit and qutrit)
gets its roots in closed form, through the cancellation-free quadratic
formula; a group of higher degree gets them as eigenvalues of companion
matrices, stacked so that one numpy.linalg.eigvals call serves the group.
Both directions stop at MAX_DIM = 64 (states of dim <= 64, at most 63
points) with ValueError. A leading coefficient vanishes when its amplitude
is at most DEFICIENCY_REL_TOL of the state's largest amplitude. On
Haar-random states the round trip points_to_state(state_to_points(s))
keeps 1 - |<s|s'>| below 1e-12 at every tested dim up to MAX_DIM, and at
dims 78, 80 and 96 with the cap lifted (measured worst 3.3e-16 on 20
states at each dim 76-96). Coincident points are less accurate: both root
routes spread a k-fold root over ~eps^(1/k).
The array kernels (constellation_qubits, symmetric_amplitudes) carry the
arithmetic; state_to_points and points_to_state wrap them for single
states.

Stack layout (committed once, here): the kernels take and return stacks with
the sample axis first, as (S, N) amplitudes and (S, n, 2) qubit rows, but
work on component-major memory, in which each amplitude or qubit component
of all S samples is one contiguous row, and return views of it. So every
pass runs over whole rows of samples, never over a trailing axis of length
2 or 3, and one kernel's result feeds the next without a copy. No
arithmetic crosses samples: each row of a stack gets the bits it gets alone.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .states import (
    BlochPoint,
    DimensionMismatchError,
    PureState,
    _whole_number,
    bloch_angles,
    bloch_qubits,
)

DEFICIENCY_REL_TOL = 1e-12  # a leading amplitude at most this times the largest is zero
MAX_DIM = 64  # largest dimension on the constellation path, in both directions
MAX_POWER = 1029  # largest product_state power: C(n, n/2) overflows float64 from n = 1030


@functools.lru_cache(maxsize=64)
def _binomial_weights(n: int) -> np.ndarray:
    # float, not int64: C(n, n/2) overflows int64 from n = 68 on
    w = np.sqrt(np.array([math.comb(n, k) for k in range(n + 1)], dtype=float))
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=64)
def _signed_weights(n: int) -> np.ndarray:
    # (-1)^k sqrt(C(n, k)): the weight of c_k in the polynomial's coefficients
    w = (-1.0) ** np.arange(n + 1) * _binomial_weights(n)
    w.setflags(write=False)
    return w


def constellation_qubits(amplitudes: np.ndarray) -> np.ndarray:
    """Constellations of a stack of states, as unnormalized qubit rows.

    Takes amplitudes of shape (S, N) and returns shape (S, N-1, 2): one row
    (1, z) per finite root z of each state's polynomial, after one row (0, 1)
    (the south pole) per vanishing leading coefficient. bloch_angles maps the
    rows onto the sphere under the module convention. Rows with the same
    number of vanishing leading coefficients form one group. A group whose
    remaining polynomial has degree 1 or 2 gets its roots in closed form;
    a higher-degree group shares one stacked eigvals call on companion
    matrices. The result is a view of component-major memory (the stack
    layout of the module docstring). Raises ValueError for N > MAX_DIM.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] < 2:
        raise ValueError(f"expected a (states, dim >= 2) stack, got shape {amps.shape}")
    if amps.shape[1] > MAX_DIM:
        raise ValueError(f"dim {amps.shape[1]} exceeds the constellation limit "
                         f"MAX_DIM = {MAX_DIM}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    amps = np.ascontiguousarray(amps.T)  # (N, S): no copy for a component-major stack
    n = amps.shape[0] - 1
    # descending powers: coefficient of z^(n-k) is (-1)^k sqrt(C(n,k)) c_k
    coeffs = _signed_weights(n)[:, None] * amps
    # judged on the amplitudes, not the coefficients: the weights reach
    # sqrt(C(63, 31)) ~ 9.6e8, which would turn a small c_0 into a false zero
    magnitude = np.abs(amps)
    scale = magnitude.max(axis=0)
    if not scale.min() > 0.0:
        raise ValueError("a state has only zero amplitudes")
    small = magnitude <= DEFICIENCY_REL_TOL * scale
    if not small[0].any():  # no row is deficient: one group, of degree n
        groups = [(0, slice(None))]
    else:
        # leading small coefficients: the index of the first large one, which
        # exists since the largest coefficient is not small
        deficiency = np.argmin(small, axis=0)
        counts = np.bincount(deficiency, minlength=n + 1)
        groups = [(d, slice(None) if counts[d] == amps.shape[1] else deficiency == d)
                  for d in np.flatnonzero(counts[:n]).tolist()]
    out = np.zeros((2, n, amps.shape[1]), dtype=complex)
    upper, lower = out  # the |0> and |1> components, each (n, S)
    lower[...] = 1.0
    for d, cols in groups:
        degree = n - d
        # monic: z^degree + tail[0] z^(degree-1) + ... + tail[-1]; every
        # |tail| <= sqrt(C(n, n/2)) / DEFICIENCY_REL_TOL <= 9.6e20 for n <= 63,
        # so squaring it (9.2e41) cannot overflow
        tail = coeffs[d + 1:, cols] / coeffs[d, cols]
        upper[d:, cols] = 1.0
        if degree == 1:
            lower[d, cols] = -tail[0]
        elif degree == 2:
            # cancellation-free quadratic formula (Higham, Accuracy and
            # Stability of Numerical Algorithms, sec. 1.8): disc, the square
            # root of the discriminant, takes the sign that keeps b + disc
            # free of cancellation
            b, c = tail
            disc = np.sqrt(b * b - 4.0 * c)
            disc = np.where((b.conj() * disc).real < 0.0, -1.0 * disc, disc)
            q = -0.5 * (b + disc)  # zero only for the double root z = 0
            lower[d, cols] = q
            lower[d + 1, cols] = np.divide(c, q, out=np.zeros_like(q), where=q != 0)
        else:
            companion = np.zeros((tail.shape[1], degree, degree), dtype=complex)
            companion[:, 0, :] = -tail.T
            companion.reshape(-1, degree * degree)[:, degree::degree + 1] = 1.0  # subdiagonal
            lower[d:, cols] = np.linalg.eigvals(companion).T
    return out.T


def state_to_points(s: PureState) -> tuple[BlochPoint, ...]:
    """Point constellation of a state: the N-1 roots (with multiplicity) of
    its polynomial, mapped to the sphere under the module convention and
    sorted by (polar, azimuth)."""
    polar, azimuth = bloch_angles(constellation_qubits(s.amplitudes[None, :])[0])
    points = (BlochPoint(t, p) for t, p in zip(polar.tolist(), azimuth.tolist()))
    return tuple(sorted(points, key=lambda p: (p.polar, p.azimuth)))


def symmetric_amplitudes(qubits: np.ndarray) -> np.ndarray:
    """Symmetrized products of stacked qubit rows (..., n, 2), unnormalized,
    shape (..., n + 1), as a view of component-major memory.

    Expands the product polynomial prod_i (a_i + b_i w), whose w^k
    coefficient divided by sqrt(C(n, k)) is the amplitude on k excitations.
    """
    a, b = qubits[..., 0], qubits[..., 1]
    n = qubits.shape[-2]
    poly = np.ones((1,) + qubits.shape[:-2], dtype=complex)
    for i in range(n):
        nxt = np.zeros((poly.shape[0] + 1,) + poly.shape[1:], dtype=complex)
        nxt[:-1] = poly * a[..., i]
        nxt[1:] += poly * b[..., i]
        poly = nxt
    weights = _binomial_weights(n).reshape((-1,) + (1,) * (poly.ndim - 1))
    poly *= 1.0 / weights
    return np.moveaxis(poly, 0, -1)


def points_to_state(points: Iterable[BlochPoint]) -> PureState:
    """Normalized symmetrized product of the qubits at the given points
    (symmetric_amplitudes); the overall normalization is absorbed at the end.
    Raises ValueError for no points or more than MAX_DIM - 1.
    """
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) > MAX_DIM - 1:
        raise ValueError(f"{len(pts)} points exceed the constellation limit of "
                         f"MAX_DIM - 1 = {MAX_DIM - 1}")
    qubits = bloch_qubits([p.polar for p in pts], [p.azimuth for p in pts])
    return PureState.normalized(symmetric_amplitudes(qubits))


def product_state(q: PureState, n: int) -> PureState:
    """n-fold tensor power of a qubit, written in the excitation basis.

    Amplitude on k excitations is sqrt(C(n, k)) a^(n-k) b^k; equals
    points_to_state of n coincident points. Raises ValueError for n outside
    [1, MAX_POWER] or not a whole number.
    """
    if q.dim != 2:
        raise DimensionMismatchError(f"expected a qubit, got dim {q.dim}")
    if not 1 <= n <= MAX_POWER:
        raise ValueError(f"n must lie in [1, MAX_POWER = {MAX_POWER}], got {n}")
    n = _whole_number(n, "n")
    a, b = q.amplitudes.tolist()
    k = np.arange(n + 1)  # k[::-1] is n - k, a view
    return PureState.normalized(_binomial_weights(n) * a ** k[::-1] * b ** k)
