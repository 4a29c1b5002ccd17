"""Interferometric readout of the three-vertex geometric phase.

The internal state rides a two-path interferometer: after the splitter the
composite state is (psi1 x |path 0> + psi2 x |path 1>)/sqrt(2). Projecting
the internal part onto psi3 and scanning the path phase delta produces a
fringe whose constructive point, relative to the unprojected fringe's, is
shifted by exactly the geometric phase of (psi1, psi2, psi3).

The samples come from explicit state algebra (composite vectors,
projectors, partial traces); the factored fringe law
P = (1 + V cos(phase - delta))/2 lives in the tests' reference module, and
the tests require the two to agree. The projected scan's visibility and
constructive point come in closed form from the two overlaps with psi3,
each computed once.

Sampling costs O(N + grid), never O(N * grid). The plain fringe is read off
the path qubit's reduced density matrix, P(delta) = <delta|rho_path|delta>
(mixed-state interferometry, Sjoqvist et al., PRL 85, 2845 (2000)); the
projected one off the path qubit left after the projection onto psi3. The
delta grid and its phase factors are built once per grid size and shared,
read-only, by every scan at that size.

A fringe has no constructive point under the library's one vanishing rule
(phases.check_overlaps): an overlap it needs, <psi1|psi2> for the plain
fringe and <psi3|psi1>, <psi3|psi2> for the projected one, has modulus at
most eps_null (default EPS_NULL). One helper applies the rule and gives the
fringe's closed-form landmarks. fringe_scan (and so fringe_pair) calls it
before sampling; extract_geometric_phase calls it for the plain and then
the projected fringe and samples nothing. A triple passes exactly when
three_vertex_phase does: the two fringes need the same three overlaps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, principal_phase, wrap_angle
from .phases import EPS_NULL, check_overlaps, normal_product
from .states import _INV_SQRT2, _TINY, DimensionMismatchError, PureState, _whole_number, inner_product, scaled_norm

MAX_GRID_SIZE = 2 ** 20  # same cap as the sweep grid


@dataclass(frozen=True)
class EraserConfig:
    """Scan resolution: the number of delta samples on [0, 2pi), a whole
    number in [16, MAX_GRID_SIZE]."""

    grid_size: int = 4096

    def __post_init__(self):
        if not 16 <= self.grid_size <= MAX_GRID_SIZE:
            raise ValueError(f"grid_size must lie in [16, {MAX_GRID_SIZE}], got {self.grid_size}")
        object.__setattr__(self, "grid_size", _whole_number(self.grid_size, "grid_size"))


@dataclass(frozen=True, eq=False)
class FringeScan:
    """One sampled fringe and its constructive point.

    center is the closed-form constructive point, peak the refined grid
    argmax; both lie in (-pi, pi]. peak lies within 2pi/grid_size of center
    while the fringe's curvature over one grid step, about
    visibility * (2pi/grid_size)^2, stands well above the float64 rounding
    of the samples (~1e-16); the tests check this down to 1e-14. A fainter
    fringe can put peak several grid steps off (up to 3.5 steps at grid
    4096 and visibility ~2e-11).
    """

    deltas: np.ndarray
    probabilities: np.ndarray
    visibility: float
    center: float
    peak: float


def composite_intermediate(psi1: PureState, psi2: PureState) -> np.ndarray:
    """Equal-weight two-path composite (psi1 x |0> + psi2 x |1>)/sqrt(2).

    Raw length-2N unit vector; the path index is the fast axis, so entry
    2*i + p is internal component i on path p.
    """
    if psi1.dim != psi2.dim:
        raise DimensionMismatchError(f"state dimensions differ: {psi1.dim} != {psi2.dim}")
    out = np.empty(2 * psi1.dim, dtype=complex)
    out[0::2] = psi1.amplitudes
    out[1::2] = psi2.amplitudes
    out *= _INV_SQRT2
    return out


def _projected_fringe(path_spinor: np.ndarray, phase_factors) -> np.ndarray:
    """|<delta|path>|^2 of the renormalized path qubit at each phase factor
    e^{-i delta} of the grid. A spinor whose squared norm would leave the
    normal float range is first scaled by a power of two (states.scaled_norm)."""
    path_spinor, norm = scaled_norm(path_spinor)
    path_spinor = path_spinor * (1.0 / norm)
    amps = (path_spinor[0] + phase_factors * path_spinor[1]) * _INV_SQRT2
    return np.abs(amps) ** 2


def _refine_argmax(deltas: np.ndarray, probs: np.ndarray) -> float:
    """Peak location by cyclic quadratic interpolation around the argmax."""
    j = int(np.argmax(probs))
    n = probs.size
    left, mid, right = probs[(j - 1) % n], probs[j], probs[(j + 1) % n]
    curvature = left - 2.0 * mid + right
    offset = 0.0 if curvature == 0.0 else 0.5 * (left - right) / curvature
    step = TWO_PI / n
    return wrap_angle(float(deltas[j]) + offset * step)


@functools.lru_cache(maxsize=2)
def _delta_grid(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid delta_k = 2pi k/grid on [0, 2pi) and its factors
    e^{-i delta_k}, read-only; at most two sizes are kept (24 MB each at
    MAX_GRID_SIZE)."""
    deltas = TWO_PI * np.arange(grid) / grid
    phase_factors = np.exp(-1j * deltas)
    deltas.setflags(write=False)
    phase_factors.setflags(write=False)
    return deltas, phase_factors


def _landmarks(psi1: PureState, psi2: PureState, psi3: PureState | None,
               eps_null: float) -> tuple[float, float]:
    """Closed-form (visibility, center) of one fringe, from its overlaps.

    Raises UndefinedPhaseError naming the first overlap the fringe needs
    that vanishes (check_overlaps). Faint overlaps whose products would
    leave the normal float range are scaled by a power of two first (as in
    phases.normal_product), so the visibility and center keep their digits.
    """
    if psi3 is None:
        o12 = inner_product(psi1, psi2)
        check_overlaps(("<psi1|psi2>",), (o12,), eps_null)
        return abs(o12), principal_phase(o12)
    o31 = inner_product(psi3, psi1)
    o32 = inner_product(psi3, psi2)
    check_overlaps(("<psi3|psi1>", "<psi3|psi2>"), (o31, o32), eps_null)
    a, b = abs(o31), abs(o32)
    if 2.0 * a * b < _TINY:  # 2ab <= a * a + b * b: the smaller side left the normal range
        e = math.frexp(max(a, b))[1]
        a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    vis = min(1.0, 2.0 * a * b / (a * a + b * b))
    return vis, principal_phase(normal_product(o31.conjugate(), o32))


def fringe_scan(psi1: PureState, psi2: PureState, psi3: PureState | None = None,
                cfg: EraserConfig = EraserConfig(), *, eps_null: float = EPS_NULL) -> FringeScan:
    """Sample the interference pattern over a uniform delta grid on [0, 2pi).

    With psi3 the projected (eraser) fringe is scanned, without it the plain
    two-path fringe. Sampling always goes through the explicit state
    algebra, at O(N + grid) cost; the scan carries both the closed-form
    constructive point and the refined grid argmax. Raises
    UndefinedPhaseError when an overlap the fringe needs has modulus at
    most eps_null.
    """
    deltas, phase_factors = _delta_grid(cfg.grid_size)
    vis, center = _landmarks(psi1, psi2, psi3, eps_null)
    composite = composite_intermediate(psi1, psi2).reshape(-1, 2)

    if psi3 is None:
        # trace out the internal state: rho[p, q] = sum_i c_ip conj(c_iq), and
        # <delta|rho|delta> with |delta> = (|0> + e^{i delta}|1>)/sqrt(2)
        rho = composite.T @ composite.conj()
        probs = 0.5 * (rho[0, 0] + rho[1, 1]).real + (rho[1, 0] * phase_factors).real
    else:
        # the path qubit left by projecting onto psi3: (<psi3|psi1>, <psi3|psi2>)/sqrt(2)
        probs = _projected_fringe(psi3.amplitudes.conj() @ composite, phase_factors)

    drift = max(float(-probs.min()), float(probs.max() - 1.0))
    if drift > 1e-12:
        raise RuntimeError(f"sampled probabilities leave [0, 1] by {drift:.3g}")
    probs = np.clip(probs, 0.0, 1.0)
    return FringeScan(deltas, probs, vis, center, _refine_argmax(deltas, probs))


def fringe_pair(psi1: PureState, psi2: PureState, psi3: PureState,
                cfg: EraserConfig = EraserConfig(),
                *, eps_null: float = EPS_NULL) -> tuple[FringeScan, FringeScan]:
    """The two scans of the eraser readout, (projected, plain).

    The plain scan runs first, so a vanishing <psi1|psi2> (a flat reference
    fringe) fails before the projected scan is sampled.
    """
    plain = fringe_scan(psi1, psi2, None, cfg, eps_null=eps_null)
    projected = fringe_scan(psi1, psi2, psi3, cfg, eps_null=eps_null)
    return projected, plain


def extract_geometric_phase(psi1: PureState, psi2: PureState, psi3: PureState) -> float:
    """Geometric phase as the fringe shift delta_f - delta_m, in (-pi, pi].

    Differences the closed-form constructive points of the two fringes of
    the eraser readout, delta_f of the projected fringe and delta_m of the
    plain one, read from the three overlaps without sampling either fringe:
    the same values as the centers of fringe_pair's scans, under the same
    vanishing rule, plain fringe first. Agrees with three_vertex_phase on
    the same triple; the grid readout, the difference of the two scans'
    peaks, is within 2pi/grid_size of it while both fringes are resolved on
    the grid (see FringeScan).

    Cost: 0.008-0.009 ms per call (best of 3 runs x 15 repeats x 200 Haar
    triples at each of dims 2, 3, 5, 9, 13 and 20, on a shared 2-vCPU
    x86-64 VM, Python 3.11.7, numpy 2.4.6).
    """
    _, center_m = _landmarks(psi1, psi2, None, EPS_NULL)
    _, center_f = _landmarks(psi1, psi2, psi3, EPS_NULL)
    return wrap_angle(center_f - center_m)
