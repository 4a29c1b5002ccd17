"""Interferometric readout of the three-vertex geometric phase.

The internal state rides a two-path interferometer: after the splitter the
composite state is (psi1 x |path 0> + psi2 x |path 1>)/sqrt(2). Projecting
the internal part onto psi3 and scanning the path phase delta produces a
fringe whose constructive point, relative to the unprojected fringe's, is
shifted by exactly the geometric phase of (psi1, psi2, psi3).

Two computation routes are kept deliberately separate: explicit state
algebra (composite vectors, projectors, partial traces) and the factored
fringe law P = (1 + V cos(phase - delta))/2. Tests require them to agree.

Sampling costs O(N + grid), never O(N * grid). The plain fringe is read off
the path qubit's reduced density matrix, P(delta) = <delta|rho_path|delta>
(mixed-state interferometry, Sjoqvist et al., PRL 85, 2845 (2000)); the
projected one off the path qubit left after the projection onto psi3. The
delta grid and its phase factors are built once per grid size and shared,
read-only, by every scan at that size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, wrap_angle
from .phases import EPS_NULL
from .states import DimensionMismatchError, PureState, inner_product

_SQRT2 = math.sqrt(2.0)
MAX_GRID_SIZE = 2 ** 20  # same cap as the sweep grid


class FringeUndefinedError(ValueError):
    """A required overlap vanishes: there is no fringe to read."""


@dataclass(frozen=True)
class EraserConfig:
    """Scan resolution: the number of delta samples on [0, 2pi)."""

    grid_size: int = 4096

    def __post_init__(self):
        if not 16 <= self.grid_size <= MAX_GRID_SIZE:
            raise ValueError(f"grid_size must lie in [16, {MAX_GRID_SIZE}], got {self.grid_size}")


@dataclass(frozen=True, eq=False)
class FringeScan:
    """One sampled fringe and its constructive point.

    center is the closed-form constructive point, peak the refined grid
    argmax (within 2pi/grid_size of center); both lie in (-pi, pi].
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
    return out / _SQRT2


def _path_spinor(psi1: PureState, psi2: PureState, psi3: PureState) -> np.ndarray:
    """Path qubit left when the composite's internal part is projected onto
    psi3, i.e. (<psi3|psi1>, <psi3|psi2>)/sqrt(2), not renormalized."""
    return psi3.amplitudes.conj() @ composite_intermediate(psi1, psi2).reshape(-1, 2)


def _projected_fringe(path_spinor: np.ndarray, phase_factors) -> np.ndarray:
    """|<delta|path>|^2 of the renormalized path qubit at each phase factor
    e^{-i delta} (an array or a single value)."""
    path_spinor = path_spinor / np.linalg.norm(path_spinor)
    amps = (path_spinor[0] + phase_factors * path_spinor[1]) / _SQRT2
    return np.abs(amps) ** 2


def output_probability(psi1: PureState, psi2: PureState, psi3: PureState,
                       delta: float, *, eps_null: float = EPS_NULL) -> float:
    """Detection probability at path offset delta after projecting the
    internal state onto psi3.

    Explicit state algebra end to end, the same route as fringe_scan: build
    the composite vector, apply the internal projector |psi3><psi3| x I,
    which leaves psi3 times a path qubit, renormalize, then take the
    expectation of I x |delta><delta|. The factored law lives in
    output_probability_closed_form.
    """
    if psi3.dim != psi1.dim:
        raise DimensionMismatchError(f"state dimensions differ: {psi3.dim} != {psi1.dim}")
    path_spinor = _path_spinor(psi1, psi2, psi3)
    if np.max(np.abs(path_spinor)) <= eps_null:
        raise FringeUndefinedError("projection onto psi3 annihilates the state")
    return float(_projected_fringe(path_spinor, np.exp(-1j * delta)))


def output_probability_closed_form(psi1: PureState, psi2: PureState, psi3: PureState,
                                   delta: float, *, eps_null: float = EPS_NULL) -> float:
    """Fringe law P = (1 + V cos(arg(<psi1|psi3><psi3|psi2>) - delta))/2."""
    v = visibility(psi1, psi2, psi3, eps_null=eps_null)
    center = np.angle(inner_product(psi1, psi3) * inner_product(psi3, psi2))
    return 0.5 * (1.0 + v * math.cos(float(center) - delta))


def visibility(psi1: PureState, psi2: PureState, psi3: PureState,
               *, eps_null: float = EPS_NULL) -> float:
    """Fringe contrast 2|<1|3><3|2>| / (|<3|1>|^2 + |<3|2>|^2), in [0, 1].

    Equals 1 exactly when the two overlaps with psi3 have equal nonzero
    modulus; errors when both vanish.
    """
    o31 = abs(inner_product(psi3, psi1))
    o32 = abs(inner_product(psi3, psi2))
    if max(o31, o32) <= eps_null:
        raise FringeUndefinedError("both overlaps with psi3 vanish")
    return min(1.0, 2.0 * o31 * o32 / (o31 * o31 + o32 * o32))


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


def fringe_scan(psi1: PureState, psi2: PureState, psi3: PureState | None = None,
                cfg: EraserConfig = EraserConfig(), *, eps_null: float = EPS_NULL) -> FringeScan:
    """Sample the interference pattern over a uniform delta grid on [0, 2pi).

    With psi3 the projected (eraser) fringe is scanned, without it the plain
    two-path fringe. Sampling always goes through the explicit state
    algebra, at O(N + grid) cost; the scan carries both the closed-form
    constructive point and the refined grid argmax.
    """
    deltas, phase_factors = _delta_grid(cfg.grid_size)

    if psi3 is None:
        o12 = inner_product(psi1, psi2)
        if abs(o12) <= eps_null:
            raise FringeUndefinedError("<psi1|psi2> vanishes; the plain fringe is flat")
        # trace out the internal state: rho[p, q] = sum_i c_ip conj(c_iq), and
        # <delta|rho|delta> with |delta> = (|0> + e^{i delta}|1>)/sqrt(2)
        composite = composite_intermediate(psi1, psi2).reshape(-1, 2)
        rho = composite.T @ composite.conj()
        probs = 0.5 * (rho[0, 0] + rho[1, 1]).real + (rho[1, 0] * phase_factors).real
        vis = abs(o12)
        center = wrap_angle(float(np.angle(o12)))
    else:
        o31 = inner_product(psi3, psi1)
        o32 = inner_product(psi3, psi2)
        for name, val in (("<psi3|psi1>", o31), ("<psi3|psi2>", o32)):
            if abs(val) <= eps_null:
                raise FringeUndefinedError(f"{name} vanishes; constructive point undefined")
        probs = _projected_fringe(_path_spinor(psi1, psi2, psi3), phase_factors)
        vis = visibility(psi1, psi2, psi3, eps_null=eps_null)
        center = wrap_angle(float(np.angle(inner_product(psi1, psi3) * o32)))

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


def extract_geometric_phase(psi1: PureState, psi2: PureState, psi3: PureState,
                            cfg: EraserConfig = EraserConfig(),
                            *, eps_null: float = EPS_NULL) -> float:
    """Geometric phase as the fringe shift delta_f - delta_m, in (-pi, pi].

    Runs the scan twice (fringe_pair), with and without the final
    projection, and differences the two closed-form constructive points,
    delta_f of the projected fringe and delta_m of the plain one. Agrees
    with three_vertex_phase on the same triple; the grid readout, the
    difference of the two scans' peaks, is within 2pi/grid_size of it.
    """
    projected, plain = fringe_pair(psi1, psi2, psi3, cfg, eps_null=eps_null)
    return wrap_angle(projected.center - plain.center)
