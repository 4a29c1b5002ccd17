"""Three-state qutrit family with closed-form phases, alpha sweeps on
analytic branches, and analytic steep-slope (singular point) loci.

The family: two constellation points start on the equator at azimuths +-phi
and are rotated rigidly about z by alpha; the second and third states are
tensor squares of real qubits straddling the +x axis at half angle theta.
The per-point phases have the closed forms

    gamma1 = +2 atan(tan(theta/2) tan((phi + alpha)/2))
    gamma2 = -2 atan(tan(theta/2) tan((phi - alpha)/2))

each gaining 2pi per full alpha turn, 4pi in total (_branches). With
t = tan(theta/2) and u = (phi +- alpha)/2, each component's slope
t / (cos^2 u + t^2 sin^2 u) peaks at 1/|t| on its tangent pole, alpha =
pi - phi for gamma1 and pi + phi for gamma2, and has median 2|t| / (1 + t^2)
over the loop (_steep_loci). _pipeline_wrapped re-derives the wrapped
phase through the constellation route, as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .angles import MAX_GRID, TWO_PI, principal_phase, reduce_angle, wrap_angle
from .majorana import symmetric_amplitudes
from .phases import EPS_NULL, POINT_OVERLAPS, check_overlaps, point_overlaps, unit_constellation_rows
from .states import _INV_SQRT2, PureState, _whole_number

_BLOCK = 4096            # alpha samples per batched pipeline pass, and intervals of the largest cached grid
_CACHED_BLOCKS = 8       # entries kept per cache: rows by phi, w blocks by (steps, start), halves by (phi, steps)
_MIN_STEPS = 64
# Bound on how far a computed |a + b w| can fall below the orbit floor
# ||a| - |b||. With u = 2**-53: |w| = 1 within u, the product b w is within
# sqrt(5) u |b| of exact, the sum and abs add u (|a| + |b|) each, and the
# floor computed from |a| and |b| is within 3 u (|a| + |b|) of its own
# exact value. That is under 9 u (|a| + |b|), and |a| + |b| <= 2, so
# under 18 u = 2.0e-15, five times inside this margin.
_FLOOR_MARGIN = 1e-14
_ATAN_FACTORS = np.array([[2.0], [-2.0]])  # gamma1 = +2 atan(...), gamma2 = -2 atan(...)


@dataclass(frozen=True)
class FamilyParams:
    """Family angles. theta must lie strictly inside (-pi/2, pi/2); phi and
    alpha are reduced into [0, 2pi)."""

    theta: float
    phi: float
    alpha: float = 0.0

    def __post_init__(self):
        t = float(self.theta)
        if not -math.pi / 2 < t < math.pi / 2:
            raise ValueError(f"theta must lie strictly inside (-pi/2, pi/2), got {t}")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "phi", reduce_angle(self.phi, "phi"))
        object.__setattr__(self, "alpha", reduce_angle(self.alpha, "alpha"))


def _moving_qubits(phi: float, alphas: np.ndarray) -> np.ndarray:
    """Qubit rows of the two rotated constellation points, shape (..., 2, 2),
    as a view of component-major memory (majorana's stack layout)."""
    half = np.array([phi + alphas, alphas - phi]) / 2.0
    out = np.empty((2,) + half.shape, dtype=complex)
    out[1] = np.exp(1j * half) * _INV_SQRT2
    # exp(-1j * x) is conj(exp(1j * x)), bit for bit
    out[0] = out[1].conj()
    return out.T


def _fixed_qubits(theta: float) -> np.ndarray:
    """Rows q2, q3 of the fixed real qubit pair at half angle theta, shape (2, 2)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c - s, c + s], [c + s, c - s]], dtype=complex) * _INV_SQRT2


def family_qubits(p: FamilyParams) -> tuple[PureState, PureState, PureState, PureState]:
    """The two rotated constellation qubits and the fixed pair (q2, q3)."""
    rows = (*_moving_qubits(p.phi, np.asarray(p.alpha)), *_fixed_qubits(p.theta))
    return tuple(PureState(row) for row in rows)


def build_family_states(p: FamilyParams) -> tuple[PureState, PureState, PureState]:
    """The dimension-3 triple (psi1(alpha), q2 tensor square, q3 tensor
    square), symmetrized from one (3, 2, 2) stack of qubit rows: the moving
    pair, (q2, q2) and (q3, q3)."""
    fixed = _fixed_qubits(p.theta)
    rows = np.array([_moving_qubits(p.phi, np.asarray(p.alpha)), fixed[[0, 0]], fixed[[1, 1]]])
    return tuple(PureState.normalized(amplitudes) for amplitudes in symmetric_amplitudes(rows))


def _closed_form_arrays(theta: float, tangents: np.ndarray) -> np.ndarray:
    """Rows gamma1, gamma2, in (-pi, pi), from the (2, S) stack tangents =
    (tan((phi + alpha)/2), tan((phi - alpha)/2)), which is left as it is.
    At a tangent pole the huge-but-finite float tan makes atan return
    +-pi/2, so a term approaches +-pi, no gap."""
    out = tangents * math.tan(theta / 2.0)
    np.arctan(out, out=out)
    out *= _ATAN_FACTORS
    return out


def _closed_form_half(phi: float, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The theta-independent half of the closed forms on the closed grid of
    `steps` intervals: the grid alphas, the rows tan((phi + alpha)/2),
    tan((phi - alpha)/2) and the linear terms (phi + alpha, alpha - phi).
    alpha - phi is computed, not negated from phi - alpha: -(phi - alpha)
    is -0.0 where alpha == phi. Halving is multiplying by 0.5, exact as
    dividing by 2.0 is, and cheaper."""
    alphas = _alpha_grid(steps, 0, steps + 1)
    linear = np.array([phi + alphas, phi - alphas])
    tangents = linear * 0.5
    np.tan(tangents, out=tangents)
    np.subtract(alphas, phi, out=linear[1])
    return alphas, tangents, linear


def _alpha_grid(steps: int, start: int, stop: int) -> np.ndarray:
    """Samples start <= k < stop of the closed grid k * (2pi/steps),
    k = 0..steps, with sample `steps` set to 2pi: np.linspace(0, 2pi,
    steps + 1)'s own arithmetic, so any slice has its bits. A float
    arange holds the whole numbers k exactly."""
    alphas = np.arange(start, stop, dtype=float)
    alphas *= TWO_PI / steps
    if stop == steps + 1:
        alphas[-1] = TWO_PI
    return alphas


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _cached_rows(phi: float) -> np.ndarray:
    """Unit constellation rows of the moving pair at alpha = 0 and the
    reduced phi, shape (N-1, 2), read-only: the one root find of every
    sweep at that phi. The last _CACHED_BLOCKS = 8 phi are kept, 64 B each
    for the qutrit."""
    rows = unit_constellation_rows(symmetric_amplitudes(_moving_qubits(phi, np.zeros(1))))[0]
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _cached_rotations(steps: int, start: int) -> np.ndarray:
    """w = e^{i alpha} over the block of _alpha_grid(steps) that begins at
    sample `start`, with alpha = 2pi taken as 0, read-only. w depends on
    neither theta nor phi. The last _CACHED_BLOCKS = 8 blocks of _BLOCK =
    4096 samples are kept, 64 KB each, at most 512 KB."""
    w = np.exp(1j * np.fmod(_alpha_grid(steps, start, min(start + _BLOCK, steps + 1)), TWO_PI))
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _cached_half(phi: float, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_closed_form_half at the reduced phi, read-only: what repeated
    (phi, steps), as in a theta scan, share. Only grids of at most _BLOCK =
    4096 intervals are cached (sweep_alpha builds a larger grid's half
    afresh at each call, with the same bits); the last _CACHED_BLOCKS = 8
    are kept, at most 4097 x 40 B = 164 KB each, about 1.3 MB in all."""
    half = _closed_form_half(phi, steps)
    for rows in half:
        rows.setflags(write=False)
    return half


def _pipeline_wrapped(theta: float, phi: float, steps: int) -> np.ndarray:
    """Wrapped family phase at every alpha of the closed grid of `steps`
    intervals through the constellation route, in factor form: the
    cross-check of the closed forms, which it does not consult.

    The roots are found once, at alpha = 0 (_cached_rows): moving qubits ->
    symmetrized product state -> unit constellation rows, the kernels that
    decompose_phase wraps for one state. point_overlaps gives the overlaps
    there in factor form, the terms a, b of <q2|point> and c, d of
    <point|q3> and the scalar <q3|q2>, and this function forms none of its
    own. Rotating the pair about z by alpha multiplies each row's second
    component by w = e^{i alpha}, up to a global phase that cancels, so
    <q2|point> = a + b w and <point|q3> = c + d conj(w). Per block of
    _BLOCK samples, on component-major (points, block) memory: both overlap
    stacks from the cached w (_cached_rotations), every overlap checked
    under the one vanishing rule, and one principal_phase of
    prod_j <point_j|q3><q3|q2><q2|point_j>, the product of the triangles'
    Bargmann invariants. Every overlap lies in (EPS_NULL, 1], so the
    qutrit's product of five cannot underflow; many more points would need
    phases.normal_product's rescaling.

    The orbit floor: over |w| = 1, |a + b w| never falls below ||a| - |b||,
    for the qutrit |sin(theta/2)|. So check_overlaps scans every block
    unless |<q3|q2>| > EPS_NULL and each point's floor min(||a| - |b||,
    ||c| - |d||) exceeds EPS_NULL by _FLOOR_MARGIN, a bound on the rounding
    of a computed overlap and of the floor; then the scan would pass every
    sample, so skipping it applies the same rule, with the same errors and
    bits. The scan runs for |theta| below about 2.02e-12. The floors are
    taken in Python floats from the terms' list: for a handful of points
    that is cheaper than numpy calls.
    """
    rows = _cached_rows(phi)
    cd, o32, ab = point_overlaps(rows, *_fixed_qubits(theta))
    a, b = ab.T[:, :, None]
    c, d = cd.T[:, :, None]
    # each point's floors ||a| - |b|| and ||c| - |d|| (see the docstring)
    floors = (abs(abs(x) - abs(y)) for x, y in (*ab.tolist(), *cd.tolist()))
    scan = not (abs(o32) > EPS_NULL and all(floor > EPS_NULL + _FLOOR_MARGIN for floor in floors))
    scale = o32 ** rows.shape[0]
    out = np.empty(steps + 1)
    for start in range(0, steps + 1, _BLOCK):
        w = _cached_rotations(steps, start)
        o21 = b * w
        o21 += a
        o13 = d * w.conj()
        o13 += c
        if scan:
            check_overlaps(POINT_OVERLAPS, (o13.T, o32, o21.T), offset=start)
        o13 *= o21  # each point's <point|q3><q2|point>
        product = o13[0] * scale
        for factor in o13[1:]:
            product *= factor
        out[start:start + _BLOCK] = principal_phase(product)
    return out


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Sweep of the family phase over alpha on a uniform closed grid.

    gamma1/gamma2 are the unwrapped per-qubit series (the rows of one
    (2, S) stack), each on the analytic branch that starts at its principal
    value at alpha = 0 (_branches); gamma_total is their sum, gamma_wrapped
    its principal value. singular_alphas are the steep loci (_steep_loci).
    gamma_pipeline_wrapped is the wrapped total re-derived at every sample
    by the cross-check (_pipeline_wrapped). decompose_phase on
    build_family_states' state, which finds the roots of each sample's
    rotated state, agrees with it within 1e-12 for |theta| >= 0.02
    (measured 6.6e-13). The gap is rounding in the two routes and grows
    with the slope 2/|tan(theta/2)| (worst over every sample, 1024 steps,
    phi in {0, pi/4, 3}: 1.5e-12 at theta = 0.01, 3.5e-12 at 0.005,
    1.8e-12 at 0.001).
    """

    alphas: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma_total: np.ndarray
    gamma_wrapped: np.ndarray
    gamma_pipeline_wrapped: np.ndarray
    singular_alphas: tuple[float, ...]

    @property
    def winding(self) -> float:
        """Total unwrapped change of the phase over the full alpha loop: the
        loop is closed, so a whole number of turns. Rounding the endpoint
        difference to it keeps the winding exact when a tangent pole sits
        on both alpha = 0 and 2pi (phi = pi), where the float tan at the two
        ends differs."""
        return TWO_PI * round(float(self.gamma_total[-1] - self.gamma_total[0]) / TWO_PI)

    @property
    def peak_slope(self) -> float:
        """Largest per-component finite-difference slope |d gamma / d alpha|.
        It resolves the analytic peak 1/|tan(theta/2)| only on a step well
        below |tan(theta/2)|; a coarser grid crosses a pole in one or two
        steps and reads at most a turn per step, 2pi / step."""
        step = float(self.alphas[1] - self.alphas[0])
        steepest = max(float(np.max(np.abs(np.diff(g)))) for g in (self.gamma1, self.gamma2))
        return steepest / step

    @property
    def pipeline_gap(self) -> float:
        """Largest wrapped gap |gamma_wrapped - gamma_pipeline_wrapped| over
        the samples: how far the two sides of the cross-check part."""
        return float(np.max(np.abs(wrap_angle(self.gamma_wrapped - self.gamma_pipeline_wrapped))))


def _branches(theta: float, tangents: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """The closed forms on their continuous branches, rows gamma1, gamma2,
    each starting at its principal value, from the theta-independent half
    (_closed_form_half), which is left as it is. On its branch each
    component minus its linear term, sign(theta) (phi + alpha) or
    sign(theta) (alpha - phi), stays inside (-pi, pi), so the nearest whole
    turn to (linear term - principal value) / 2pi is that sample's branch
    at any grid: the margin to the rounding edge is pi - |component -
    linear term|, and a sample on a tangent pole, where the principal value
    is +-pi, has the widest margin, pi."""
    raw = _closed_form_arrays(theta, tangents)
    # sign(theta) times the linear terms, less raw; then in place raw +
    # 2pi (turns - turns at alpha = 0)
    if theta < 0.0:
        out = np.negative(linear)
        out -= raw
    else:
        out = linear - raw
    out /= TWO_PI
    np.rint(out, out=out)  # the turns
    out -= out[:, :1].copy()
    out *= TWO_PI
    out += raw
    return out


def _steep_loci(theta: float, phi: float, step: float) -> tuple[float, ...]:
    """Steep-slope loci: the tangent poles pi - phi and pi + phi, reduced to
    [0, 2pi), when each component's peak slope 1/|t| exceeds five times its
    median slope 2|t| / (1 + t^2), t = tan(theta/2). That holds exactly when
    1 + t^2 > 10 t^2, that is |t| < 1/3. Poles at most one grid step apart,
    across alpha = 0 too, merge into one locus at their midpoint."""
    if not abs(math.tan(theta / 2.0)) < 1.0 / 3.0:
        return ()
    a, b = sorted((reduce_angle(math.pi - phi), reduce_angle(math.pi + phi)))
    if b - a <= step:
        return (0.5 * (a + b),)
    # the loop is cyclic: poles split across alpha = 0 and 2pi are one locus
    if (a + TWO_PI) - b <= step:
        return (reduce_angle(0.5 * (a + b + TWO_PI)),)
    return (a, b)


def sweep_alpha(theta: float, phi: float, steps: int) -> SweepResult:
    """Sweep alpha over [0, 2pi] on a uniform grid of `steps` intervals
    (steps + 1 samples, endpoint included), at every theta.

    The series, the winding and the steep loci are analytic (_branches,
    _steep_loci), so they need no grid resolution, and the grid is the one
    asked for. Each component's slope lies between |t| and 1/|t|, t =
    tan(theta/2), so a step of a coarse grid may cross a pole by nearly a
    full turn; at least 8/|t| steps keep every step within pi/4.

    Small theta meets two limits, both at a sample on or next to a pole:
    - the cross-check gap (SweepResult.pipeline_gap) grows like eps/|t|,
      eps = 2.2e-16: 4.1e-9 at (theta, phi, steps) = (1e-7, pi/4, 64) and
      4.5e-6 at (1e-10, pi/4, 1024), both about 0.93 eps/|t|. Over 4000
      seeded sweeps with |theta| in [3e-12, 1e-2], half of them with a
      sample on a pole, it stayed below 190 eps/|t|, and below 690 eps/|t|
      over 1000 with |phi| under 2e-3, where the two moving points nearly
      coincide; the tests hold it to 1024 eps/|t|;
    - a sample whose point has an overlap of modulus at most EPS_NULL =
      1e-12 with q2 or q3 (the point lies next to that state's antipode)
      raises UndefinedPhaseError, and _pipeline_wrapped says when it scans
      for one. On a pole that overlap is about |t|, so this takes |theta|
      below about 2e-12: at (1e-12, pi/4, 1024), <point|q3> = 5e-13.

    The cross-check runs in blocks of _BLOCK samples, so memory stays flat
    and a 2**20-interval sweep at a new phi takes about 0.13 s (15 medians
    of 5 runs, over five processes, 0.10-0.16 s; 2-vCPU Xeon VM, Python
    3.11.7, numpy 2.4.6). The caches _cached_rows, _cached_rotations and
    _cached_half keep the theta-independent parts, so a theta scan at one
    (phi, steps) computes them once; a process that runs one sweep, as
    each CLI call does, gains nothing from them.

    Raises ValueError for steps outside [64, 2**20] or not a whole number,
    theta outside (-pi/2, pi/2) or zero, and non-finite phi, and
    UndefinedPhaseError under the vanishing rule above, which |theta| within
    about 1e-12 of pi/2 meets too: <q3|q2> = cos theta (1e-13 at pi/2 - 1e-13).
    """
    if not _MIN_STEPS <= steps <= MAX_GRID:
        raise ValueError(f"steps must lie in [{_MIN_STEPS}, {MAX_GRID}], got {steps}")
    steps = _whole_number(steps, "steps")
    if not -math.pi / 2 < theta < math.pi / 2 or theta == 0.0:
        raise ValueError(f"theta must lie in (-pi/2, pi/2) and be nonzero, got {theta}")
    phi = reduce_angle(phi, "phi")

    if steps <= _BLOCK:
        alphas, tangents, linear = _cached_half(phi, steps)
        alphas = alphas.copy()  # the result's own, writable
    else:
        alphas, tangents, linear = _closed_form_half(phi, steps)
    g1, g2 = _branches(theta, tangents, linear)
    total = g1 + g2
    return SweepResult(
        alphas=alphas,
        gamma1=g1,
        gamma2=g2,
        gamma_total=total,
        gamma_wrapped=wrap_angle(total),
        gamma_pipeline_wrapped=_pipeline_wrapped(theta, phi, steps),
        singular_alphas=_steep_loci(theta, phi, float(alphas[1])),
    )
