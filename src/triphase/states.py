"""Pure states, Bloch points, and the linear algebra between them.

All angles are radians. States are rays: a global phase is never stored as
data, and two states are the same ray when |<a|b>| = 1.

One rule for scaling a computed complex array by a real d, in every
module: multiply by the reciprocal, x * (1.0 / d). Numpy divides a complex
array by a real as by the complex d + 0j, through Smith's algorithm (CACM
5(8), 1962), which forms the same products re * (1/d), im * (1/d) at
several times the cost (4.6x at 4096 entries). The bits differ only in the
sign of a zero part that entered as -0.0. PureState, which takes its
amplitudes from the caller, still divides: -0.0 parts of a state file
reach the Householder signs of canonicalize_triple's QR, so multiplying
there moves printed digits. At the dims of a single state the two cost
the same. vector_norm repeats numpy.linalg.norm's arithmetic for one
vector without its dispatch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .angles import reduce_angle

NORM_TOL = 1e-6       # constructor rejection threshold on the input norm
UNITARY_TOL = 1e-10   # entrywise tolerance on U^dagger U - I
_POLE_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)  # multiplying by it is dividing by sqrt(2), by the rule above
_TINY = sys.float_info.min  # the smallest normal float, 2**-1022, as a Python float: fast to compare


def _whole_number(value, name: str) -> int:
    """int(value), or ValueError naming it if value % 1 != 0, as for NaN and +-inf."""
    if value % 1 != 0:
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


def vector_norm(vec: np.ndarray) -> float:
    """Euclidean norm of a complex array, bit for bit numpy.linalg.norm's:
    the sum of the dot products of the real and imaginary parts, rooted.
    A 1-D vec is not raveled: .real of a complex vector is strided either
    way, so the dots keep their bits (0 mismatches against the raveled form
    on 64,000 contiguous and strided rows, dims 2-1030)."""
    x = vec if vec.ndim == 1 else vec.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def scale_by_power_of_two(z, e):
    """Complex z (a scalar or array) times 2**e, e an integer or an integer
    array broadcasting against z: exact unless a part falls below the
    normal float range. numpy's ldexp takes real parts only."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(np.broadcast_shapes(z.shape, np.shape(e)), dtype=complex)
    np.ldexp(z.real, e, out=out.real)
    np.ldexp(z.imag, e, out=out.imag)
    return out


def scaled_norm(vec: np.ndarray) -> tuple[np.ndarray, float]:
    """vec and its vector_norm, vec first scaled by 2**-e, e the binary
    exponent of its largest modulus, when its squared norm falls below the
    normal float range (a norm below about 1.5e-154), where the squares
    lose digits or become 0. The scaling is exact, so the direction keeps
    its bits; inside the normal range vec is returned as it is."""
    norm = vector_norm(vec)
    if norm * norm < _TINY:
        vec = scale_by_power_of_two(vec, -math.frexp(np.abs(vec).max(initial=0.0))[1])
        norm = vector_norm(vec)
    return vec, norm


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector of dimension >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex)
        if vec.ndim != 1:  # a matrix or a (1, N) row is no state of its size
            raise ValueError(f"amplitudes must be one-dimensional, got shape {vec.shape}")
        if vec.size < 2:
            raise ValueError(f"state dimension must be >= 2, got {vec.size}")
        norm = vector_norm(vec)
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN and inf
            raise ValueError(f"amplitudes have norm {norm:.6g}, expected 1")
        vec = vec / norm  # absorb rounding drift; see the module docstring
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a state from an arbitrary-norm nonzero vector. A faint one,
        down to subnormal moduli, is scaled by a power of two first
        (scaled_norm). The overflow side is not covered: a norm above about
        1e154 overflows the squares, and the vector is rejected as of norm
        inf, after numpy's overflow warning; scaling it would cost a pass
        over every vector."""
        vec, norm = scaled_norm(np.asarray(amplitudes, dtype=complex))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm}")
        return cls(vec / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "PureState":
        """Computational basis state |index> in the given dimension."""
        dim, index = _whole_number(dim, "basis dim"), _whole_number(index, "basis index")
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
        p = reduce_angle(self.azimuth, "azimuth")
        if t <= _POLE_TOL:
            t, p = 0.0, 0.0
        elif t >= math.pi - _POLE_TOL:
            t, p = math.pi, 0.0
        object.__setattr__(self, "polar", t)
        object.__setattr__(self, "azimuth", p)


def check_unitary(m: np.ndarray) -> None:
    """Raise ValueError unless M^dagger M = I entrywise within UNITARY_TOL."""
    gram = m.conj().T @ m
    gram.ravel()[::gram.shape[0] + 1] -= 1.0  # the diagonal of the new, contiguous gram
    defect = np.abs(gram).max()
    if not defect <= UNITARY_TOL:  # also rejects NaN
        raise ValueError(f"matrix is not unitary (defect {defect:.3g})")


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugating the first argument."""
    if a.amplitudes.size != b.amplitudes.size:
        raise ValueError(f"state dimensions differ: {a.dim} != {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


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
        raise ValueError(f"expected a qubit, got dim {q.dim}")
    polar, azimuth = bloch_angles(q.amplitudes)
    return BlochPoint(float(polar), float(azimuth))


def random_pure_state(dim: int, seed: int) -> PureState:
    """Haar-random ray: normalized vector of iid standard complex Gaussians."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    dim = _whole_number(dim, "dim")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(vec)
