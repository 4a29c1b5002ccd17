"""Pure states, Bloch points, unitaries, and the linear algebra between them.

All angles are radians. States are rays: a global phase is never stored as
data, and ray equality is checked through |<a|b>| = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI

NORM_TOL = 1e-6       # constructor rejection threshold on the input norm
UNITARY_TOL = 1e-10   # entrywise tolerance on U^dagger U - I
_POLE_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Two objects that must share a dimension do not."""


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector of dimension >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if vec.size < 2:
            raise ValueError(f"state dimension must be >= 2, got {vec.size}")
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN and inf
            raise ValueError(f"amplitudes have norm {norm:.6g}, expected 1")
        vec = vec / norm  # absorb rounding drift
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a state from an arbitrary-norm nonzero vector."""
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm}")
        return cls(vec / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "PureState":
        """Computational basis state |index> in the given dimension."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        vec = np.zeros(dim, dtype=complex)
        vec[index] = 1.0
        return cls(vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self):
        return f"PureState(dim={self.dim}, amplitudes={np.array2string(self.amplitudes, precision=6)})"


@dataclass(frozen=True)
class BlochPoint:
    """Point on the unit sphere: polar in [0, pi], azimuth in [0, 2pi).

    At the poles the azimuth is meaningless and is normalized to 0 so that
    equality of points stays well defined there.
    """

    polar: float
    azimuth: float = 0.0

    def __post_init__(self):
        t = float(self.polar)
        if not -1e-9 <= t <= math.pi + 1e-9:
            raise ValueError(f"polar angle {t} outside [0, pi]")
        t = min(max(t, 0.0), math.pi)
        p = float(self.azimuth)
        if not math.isfinite(p):
            raise ValueError(f"azimuth {p} is not finite")
        p %= TWO_PI
        if t <= _POLE_TOL:
            t, p = 0.0, 0.0
        elif t >= math.pi - _POLE_TOL:
            t, p = math.pi, 0.0
        object.__setattr__(self, "polar", t)
        object.__setattr__(self, "azimuth", p)

    def to_cartesian(self) -> np.ndarray:
        st = math.sin(self.polar)
        return np.array([st * math.cos(self.azimuth), st * math.sin(self.azimuth), math.cos(self.polar)])

    def sphere_distance(self, other: "BlochPoint") -> float:
        """Geodesic angle to another point, in [0, pi]."""
        a, b = self.to_cartesian(), other.to_cartesian()
        return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))


@dataclass(frozen=True, eq=False)
class Unitary:
    """Square complex matrix with U^dagger U = I within UNITARY_TOL."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if defect > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3g})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugating the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dimensions differ: {a.dim} != {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def states_equal(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    """Ray equality: |<a|b>| = 1 within tol."""
    return abs(abs(inner_product(a, b)) - 1.0) <= tol


def bloch_angles(qubits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch (polar, azimuth) of a stack of qubit rows, shape (..., 2).

    Rows need not be normalized; their global phase and scale drop out. The
    azimuth is left unreduced, as a difference of two arguments.
    """
    a, b = qubits[..., 0], qubits[..., 1]
    return 2.0 * np.arctan2(np.abs(b), np.abs(a)), np.angle(b) - np.angle(a)


def bloch_qubits(polar, azimuth) -> np.ndarray:
    """Unit qubit rows cos(polar/2)|0> + e^{i azimuth} sin(polar/2)|1> for
    broadcast angle arrays; shape (..., 2)."""
    half = np.asarray(polar, dtype=float) / 2.0
    lower = np.exp(1j * np.asarray(azimuth, dtype=float)) * np.sin(half)
    out = np.empty(lower.shape + (2,), dtype=complex)
    out[..., 0] = np.cos(half)
    out[..., 1] = lower
    return out


def qubit_to_bloch(q: PureState) -> BlochPoint:
    """Bloch angles of a qubit ray; the global phase is discarded."""
    if q.dim != 2:
        raise DimensionMismatchError(f"expected a qubit, got dim {q.dim}")
    polar, azimuth = bloch_angles(q.amplitudes)
    return BlochPoint(float(polar), float(azimuth))


def bloch_to_qubit(p: BlochPoint) -> PureState:
    """The qubit cos(polar/2)|0> + e^{i azimuth} sin(polar/2)|1>."""
    return PureState(bloch_qubits(p.polar, p.azimuth))


def random_pure_state(dim: int, seed: int) -> PureState:
    """Haar-random ray: normalized vector of iid standard complex Gaussians."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(vec)


def random_unitary(dim: int, seed: int) -> Unitary:
    """Haar-random unitary.

    QR factorization of a complex Ginibre matrix, with the R diagonal phases
    folded back into Q so the distribution is invariant under left
    multiplication by any fixed unitary.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return Unitary(q * phases)


def apply_unitary(u: Unitary, s: PureState) -> PureState:
    """Matrix-vector product, renormalized only to absorb rounding."""
    if u.dim != s.dim:
        raise DimensionMismatchError(f"unitary dim {u.dim} != state dim {s.dim}")
    return PureState.normalized(u.matrix @ s.amplitudes)
