"""Reference code and shared inputs for the tests.

Brute-force oracles in the full multi-qubit space, the factored fringe law,
the comparisons the tests need between angles, rays and point sets, the
companion-matrix root finder, overlap and eigvals counters, and the textbook
qubit triple (|+>, |0>, |y+>), whose phase is pi/4, the Bloch qubit and
the Cartesian signed solid angle of a geodesic triangle (the independent
side of the solid-angle law), a JSON integer
beyond float range, the conditioning bounds of a canonicalized triple,
Haar-random unitaries as plain matrices, triples with prescribed overlaps
and their phase at 50 digits, the factored canonicalizing
unitary U = I + W (R - I) W^dagger applied in O(N), a sweep's printed
series computed one component at a time, and the forms the library
replaced by faster or shorter ones with the same bits (complex division by
a real, np.linalg.norm, np.where in wrap_angle, |0>^n from product_state,
a Python loop over a tensor power's amplitudes, one closed-form pass per
series, a Python loop over each row's peak runs, the sweep's inline
triangle overlaps), and the one list of the sweep's caches, which every
test starts with empty.
None of it is on a production path.
"""

import cmath
import itertools
import math

import mpmath
import numpy as np

from triphase import PureState, UndefinedPhaseError, inner_product, product_state, sweep, wrap_angle
from triphase.angles import TWO_PI, reduce_angle
from triphase.majorana import _binomial_weights, constellation_qubits
from triphase.states import check_unitary

MAX_ORACLE_QUBITS = 12  # factorial permutation sum; resource guard
ANTIPODAL_TOL = 1e-9     # |a + b| below this means antipodal vertices

SQRT2 = math.sqrt(2.0)
ZERO = PureState.basis(2, 0)
PLUS = PureState(np.array([1.0, 1.0]) / SQRT2)
YPLUS = PureState(np.array([1.0, 1.0j]) / SQRT2)
BEYOND_FLOAT = 10 ** 400  # a JSON integer float() cannot convert
# the cross-check's alpha = 0 rows by phi and w blocks by (steps, start), and
# the closed forms' theta-free halves by (phi, steps)
SWEEP_CACHES = (sweep._cached_rows, sweep._cached_rotations, sweep._cached_half)


def clear_sweep_caches():
    for cache in SWEEP_CACHES:
        cache.cache_clear()


def canonical_bounds(phi1: PureState, phi2: PureState, phi3: PureState) -> tuple[float, float]:
    """Bounds on the gram and phase deltas of canonicalizing a triple:
    4 eps / c and 10 eps / (c m), with c = sqrt(max(1 - |<phi2|phi3>|, eps))
    the frame's conditioning and m = min(|<phi1|phi2>|, |<phi1|phi3>|)."""
    eps = float(np.finfo(float).eps)
    c = math.sqrt(max(1.0 - abs(inner_product(phi2, phi3)), eps))
    m = min(abs(inner_product(phi1, phi2)), abs(inner_product(phi1, phi3)))
    return 4.0 * eps / c, 10.0 * eps / (c * m) if m > 0.0 else math.inf


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary matrix.

    QR factorization of a complex Ginibre matrix, with the R diagonal phases
    folded back into Q so the distribution is invariant under left
    multiplication by any fixed unitary. Apply it to a state s as
    PureState.normalized(u @ s.amplitudes).
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases *= 1.0 / np.abs(phases)
    return q * phases


def apply_factored(span: np.ndarray, rotation: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """U amps for U = I + W (R - I) W^dagger, W = span and R = rotation (a
    CanonicalTriple's factors), in O(N k) without forming U."""
    c = span.conj().T @ amps
    return amps + span @ (rotation @ c - c)


def angle_dist(a, b):
    """Wrapped angular distance between a and b, in [0, pi]."""
    return np.abs(wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def states_equal(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    """Ray equality: |<a|b>| = 1 within tol."""
    return abs(abs(inner_product(a, b)) - 1.0) <= tol


def cartesian(p) -> np.ndarray:
    """Unit vector (x, y, z) of a BlochPoint."""
    st = math.sin(p.polar)
    return np.array([st * math.cos(p.azimuth), st * math.sin(p.azimuth), math.cos(p.polar)])


def bloch_qubit(p) -> PureState:
    """The qubit cos(polar/2)|0> + e^{i azimuth} sin(polar/2)|1> of a BlochPoint."""
    return PureState([math.cos(p.polar / 2.0), cmath.exp(1j * p.azimuth) * math.sin(p.polar / 2.0)])


def sphere_distance(a, b) -> float:
    """Geodesic angle between two BlochPoints, in [0, pi]."""
    u, v = cartesian(a), cartesian(b)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def solid_angle(p1, p2, p3) -> float:
    """Signed solid angle of the geodesic triangle with BlochPoint vertices.

    Positive for counterclockwise vertex order viewed from outside the
    sphere, which makes  qubit phase = -solid_angle/2  (mod 2pi) hold for the
    matching qubit triple. Evaluates

        tan(omega/2) = a.(b x c) / (1 + a.b + b.c + c.a)

    through atan2, so the branch is correct when the denominator is <= 0 and
    the result lies in (-2pi, 2pi]. Coincident or locally collinear vertices
    give 0; antipodal pairs (orthogonal qubits) raise UndefinedPhaseError.
    The Cartesian formula loses accuracy like eps / |a + b| (worst of 300
    seeded triangles: 9.0e-12 rad at |a + b| ~ 1e-3, 2.6e-9 at 1e-6), so
    ANTIPODAL_TOL bounds its conditioning.
    """
    a, b, c = cartesian(p1), cartesian(p2), cartesian(p3)
    for u, v in ((a, b), (b, c), (c, a)):
        if float(np.linalg.norm(u + v)) < ANTIPODAL_TOL:
            raise UndefinedPhaseError("a vertex pair is antipodal")
    num = float(np.dot(a, np.cross(b, c)))
    den = float(1.0 + a @ b + b @ c + c @ a)
    return 2.0 * math.atan2(num, den)


def matches(points, others, tol: float = 1e-8) -> bool:
    """Permutation-invariant equality of two point multisets: True when the
    points pair up one to one with every pair at most tol apart on the sphere
    (a perfect matching, found by augmenting paths), so the result does not
    depend on the output order of a root finder."""
    points, others = tuple(points), tuple(others)
    if len(points) != len(others):
        return False
    near = [[j for j, b in enumerate(others) if sphere_distance(a, b) <= tol] for a in points]
    owner = [-1] * len(others)  # owner[j]: the point paired with others[j]

    def augment(i: int, seen: set[int]) -> bool:
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(points)))


def symmetrize_full(qubits) -> np.ndarray:
    """Average of all coordinate-permuted tensor products, as a raw 2**n vector.

    Brute-force oracle for the symmetric-subspace identification: cost grows
    as n! * 2**n, guarded at n <= MAX_ORACLE_QUBITS. The result is left
    unnormalized on purpose, for exact inner-product comparisons.
    """
    n = len(qubits)
    if not 1 <= n <= MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle supports 1..{MAX_ORACLE_QUBITS} qubits, got {n}")
    vecs = [q.amplitudes for q in qubits]
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
    out = np.empty(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        k = idx.bit_count()
        out[idx] = s.amplitudes[k] / math.sqrt(math.comb(n, k))
    return out


def output_probability_closed_form(psi1: PureState, psi2: PureState, psi3: PureState,
                                   delta: float) -> float:
    """Fringe law P = (1 + V cos(arg(<psi1|psi3><psi3|psi2>) - delta))/2 with
    V = 2|o31||o32| / (|o31|^2 + |o32|^2), o3k = <psi3|psik>: the factored
    counterpart of the library's explicit state algebra."""
    a, b = abs(inner_product(psi3, psi1)), abs(inner_product(psi3, psi2))
    v = 2.0 * a * b / (a * a + b * b)
    center = np.angle(inner_product(psi1, psi3) * inner_product(psi3, psi2))
    return 0.5 * (1.0 + v * math.cos(float(center) - delta))


def triple_with_overlaps(rng: np.random.Generator, dim: int, o13: complex, o32: complex,
                         o21: complex) -> list[np.ndarray]:
    """Unit vectors psi1, psi2, psi3 (dim >= 3) whose overlaps <psi1|psi3>,
    <psi3|psi2>, <psi2|psi1> are o13, o32, o21 up to the normalization of
    psi2 and psi3, a real factor 1 - O(|o|^2): psi1, psi2 - conj(o21) psi1
    and psi3 - (o13 psi1 + (conj(o32) - o21 o13) psi2) are a Haar-random
    orthonormal frame."""
    frame, _ = np.linalg.qr(rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3)))
    e1, e2, e3 = frame.T
    psi2 = e2 + np.conj(o21) * e1
    psi3 = e3 + o13 * e1 + (np.conj(o32) - o21 * o13) * e2
    return [e1, psi2 / np.linalg.norm(psi2), psi3 / np.linalg.norm(psi3)]


def phase_mp(psi1: PureState, psi2: PureState, psi3: PureState) -> float:
    """arg(<1|3><3|2><2|1>) of the float64 states, at 50 decimal digits."""
    with mpmath.workdps(50):
        v1, v2, v3 = ([mpmath.mpc(z.real, z.imag) for z in s.amplitudes] for s in (psi1, psi2, psi3))

        def dot(x, y):
            return mpmath.fsum(xi.conjugate() * yi for xi, yi in zip(x, y))

        return float(mpmath.arg(dot(v1, v3) * dot(v3, v2) * dot(v2, v1)))


def count_overlaps(monkeypatch) -> list:
    """Record each np.vdot call, i.e. each overlap of two single states the
    library evaluates (inner_product), in the returned list. Stacked overlaps
    (point_overlaps) are elementwise sums and are not counted."""
    calls = []
    original = np.vdot

    def counted(*args, **kwargs):
        calls.append("vdot")
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "vdot", counted)
    return calls


def companion_roots(coeffs) -> np.ndarray:
    """Roots of the polynomial with descending coefficients `coeffs` (nonzero
    leading one), as the eigenvalues of its companion matrix: the route
    constellation_qubits takes for degree >= 3, here at any degree."""
    coeffs = np.asarray(coeffs, dtype=complex)
    degree = coeffs.size - 1
    companion = np.zeros((degree, degree), dtype=complex)
    companion[0] = -coeffs[1:] / coeffs[0]
    companion[np.arange(1, degree), np.arange(degree - 1)] = 1.0
    return np.linalg.eigvals(companion)


def count_eigvals(monkeypatch) -> list:
    """Record each np.linalg.eigvals call, i.e. each (stacked) companion-matrix
    root solve the library makes, in the returned list."""
    calls = []
    original = np.linalg.eigvals

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def sweep_series_per_component(theta: float, phi: float, alphas: np.ndarray) -> tuple:
    """sweep_alpha's printed series on the grid `alphas`, one component at a
    time: (gamma1, gamma2, gamma_total, gamma_wrapped). Each closed-form
    series gets its own branch pass, the nearest whole turn to its linear
    term: the per-component form of the library's one (2, S) pass."""
    phi = reduce_angle(phi)
    sign = math.copysign(1.0, theta)
    series = []
    for raw, linear in zip(closed_forms_per_series(theta, phi, alphas), (phi + alphas, alphas - phi)):
        turns = np.rint((sign * linear - raw) / TWO_PI)
        series.append(raw + TWO_PI * (turns - turns[0]))
    g1, g2 = series
    total = g1 + g2
    return g1, g2, total, wrap_angle(total)


def unwrapped_series(theta: float, phi: float, alphas: np.ndarray) -> np.ndarray:
    """The closed forms at the samples `alphas` (sorted, in [0, 2pi]), each
    continued by np.unwrap: the data-driven branches. np.unwrap is exact
    only where no true step exceeds pi, so it runs on `alphas` refined
    around both tangent poles pi -+ phi (and their images 2pi away) by the
    offsets |t| 2^k, t = tan(theta/2). Each component is monotone and
    moves by well under pi from offset d to 2d, so every step of the refined
    grid stays far below pi (at most 0.65 over 300 seeded sweeps, |theta|
    1e-12 to 1.5, on any grid), while |t| / 256 is above the float spacing
    near the poles (|theta| above about 3e-13). Rows gamma1, gamma2 at
    `alphas`' own samples."""
    phi = reduce_angle(phi)
    offsets = abs(math.tan(theta / 2.0)) * 2.0 ** np.arange(-8, 60)
    offsets = np.concatenate([-offsets, [0.0], offsets])
    poles = np.add.outer([math.pi - phi, math.pi + phi], TWO_PI * np.arange(-1, 2)).ravel()
    extra = np.add.outer(poles, offsets).ravel()
    refined = np.union1d(alphas, extra[(extra >= 0.0) & (extra <= TWO_PI)])
    return np.unwrap(np.stack(closed_forms_per_series(theta, phi, refined)))[:, np.searchsorted(refined, alphas)]


def locate_steep_on_grid(alphas: np.ndarray, jumps: np.ndarray) -> tuple:
    """The grid detector of steep-slope loci: cyclic local maxima of each
    row's finite-difference slope (jumps: absolute steps, one row per
    unwrapped component) at least 5 times its median, each run of peak
    intervals collapsed to its center alpha; loci at most one step apart,
    across alpha = 0 too, merge into their midpoint."""
    step = float(alphas[1] - alphas[0])
    slope = jumps / step
    median = np.median(slope, axis=-1, keepdims=True)
    cyclic = np.concatenate([slope[:, -1:], slope, slope[:, :1]], axis=-1)
    is_peak = np.zeros((len(slope), slope.shape[1] + 2), dtype=bool)  # a False column each side
    is_peak[:, 1:-1] = (slope >= cyclic[:, :-2]) & (slope >= cyclic[:, 2:])
    is_peak[:, 1:-1] &= (slope > 5.0 * median) & (median != 0.0)
    # in flat order each row's run edges alternate start, end + 1
    edges = np.flatnonzero(is_peak[:, 1:] != is_peak[:, :-1]) % (slope.shape[1] + 1)
    found = np.sort(0.5 * (alphas[edges[0::2]] + alphas[edges[1::2]])).tolist()
    merged = []
    for a in found:
        if merged and a - merged[-1] <= step:
            merged[-1] = 0.5 * (merged[-1] + a)
        else:
            merged.append(a)
    if len(merged) > 1 and (merged[0] + TWO_PI) - merged[-1] <= step:
        first = merged.pop(0)
        merged[-1] = (0.5 * (first + merged[-1] + TWO_PI)) % TWO_PI
        merged.sort()
    return tuple(merged)


# The replaced forms. Each divides where the library multiplies by the
# reciprocal, or takes the slower general route, and must give the
# library's bits.

def wrap_angle_where(x):
    """wrap_angle on 0-d arrays for scalars, with np.where for the -pi fix-up."""
    w = np.asarray(x, dtype=float)
    w = w - TWO_PI * np.rint(w / TWO_PI)
    w = np.where(w <= -np.pi, w + TWO_PI, w)
    return float(w) if w.ndim == 0 else w


def principal_phase_where(z):
    """angles.principal_phase as the wrapped arctan2 it replaced."""
    return wrap_angle_where(np.arctan2(z.imag, z.real))


def composite_by_division(psi1: PureState, psi2: PureState) -> np.ndarray:
    """eraser.composite_intermediate, divided by sqrt(2)."""
    out = np.empty(2 * psi1.dim, dtype=complex)
    out[0::2] = psi1.amplitudes
    out[1::2] = psi2.amplitudes
    return out / SQRT2


def projected_fringe_by_division(path_spinor: np.ndarray, phase_factors) -> np.ndarray:
    """eraser._projected_fringe, normalized by np.linalg.norm and divided."""
    path_spinor = path_spinor / np.linalg.norm(path_spinor)
    amps = (path_spinor[0] + phase_factors * path_spinor[1]) / SQRT2
    return np.abs(amps) ** 2


def symmetric_amplitudes_by_division(qubits: np.ndarray) -> np.ndarray:
    """majorana.symmetric_amplitudes, ending in poly / weights."""
    a, b = qubits[..., 0], qubits[..., 1]
    n = qubits.shape[-2]
    poly = np.ones((1,) + qubits.shape[:-2], dtype=complex)
    for i in range(n):
        nxt = np.zeros((poly.shape[0] + 1,) + poly.shape[1:], dtype=complex)
        nxt[:-1] = poly * a[..., i]
        nxt[1:] += poly * b[..., i]
        poly = nxt
    weights = _binomial_weights(n).reshape((-1,) + (1,) * (poly.ndim - 1))
    return np.moveaxis(poly / weights, 0, -1)


def canonical_qubit(g: complex, n: int) -> PureState:
    """canonicalize_triple's psi3 qubit for <phi2|phi3> = g and power n: its
    second amplitude is real and at least 0."""
    w = g ** (1.0 / n)
    return PureState.normalized(np.array([w, math.sqrt(max(0.0, 1.0 - abs(w) ** 2))], dtype=complex))


def product_state_by_loop(q: PureState, n: int) -> np.ndarray:
    """product_state's amplitudes, each built in a Python loop over k."""
    a, b = q.amplitudes
    weights = _binomial_weights(n)
    return PureState.normalized(np.array([weights[k] * a ** (n - k) * b ** k for k in range(n + 1)])).amplitudes


def canonicalize_by_stacking(phi1: PureState, phi2: PureState, phi3: PureState) -> tuple:
    """canonicalize_triple's (span, rotation, psi1 amplitudes), with the
    columns from np.column_stack and |0>^n from product_state."""
    n = phi1.dim - 1
    q3 = canonical_qubit(inner_product(phi2, phi3), n)
    columns = np.column_stack([phi2.amplitudes, phi3.amplitudes,
                               product_state(ZERO, n).amplitudes, product_state(q3, n).amplitudes])
    span, coords = np.linalg.qr(columns)
    u, _, vh = np.linalg.svd(coords[:, 2:] @ coords[:, :2].conj().T)
    rotation = u @ vh
    check_unitary(span)
    check_unitary(rotation)
    c1 = span.conj().T @ phi1.amplitudes
    psi1 = PureState.normalized(phi1.amplitudes + span @ (rotation @ c1 - c1))
    return span, rotation, psi1.amplitudes


def pipeline_wrapped_by_division(theta: float, phi: float, steps: int) -> np.ndarray:
    """The sweep's wrapped phase through the per-sample constellation route,
    the comparison side of sweep._pipeline_wrapped's factor form: roots of
    the rotated state at every alpha of np.linspace's grid, in one block,
    with every qubit row scaled by division, one arg per point and the -pi
    fix-up by np.where."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    q2, q3 = np.array([[c - s, c + s], [c + s, c - s]], dtype=complex) / math.sqrt(2.0)
    alphas = np.fmod(np.linspace(0.0, TWO_PI, steps + 1), TWO_PI)
    half = np.array([phi + alphas, alphas - phi]) / 2.0
    moving = np.empty((2,) + half.shape, dtype=complex)
    moving[1] = np.exp(1j * half) / math.sqrt(2.0)
    moving[0] = moving[1].conj()
    points = constellation_qubits(symmetric_amplitudes_by_division(moving.T))
    points /= np.sqrt((points.real ** 2 + points.imag ** 2).sum(-1, keepdims=True))
    products = (points.conj() * q3).sum(-1) * (q3.conj() * q2).sum(-1) * (q2.conj() * points).sum(-1)
    return wrap_angle_where(wrap_angle_where(np.arctan2(products.imag, products.real)).sum(axis=-1))


def point_overlaps_inline(points: np.ndarray, q2: np.ndarray, q3: np.ndarray) -> tuple:
    """phases.point_overlaps as the sweep's cross-check once wrote it
    inline: the two term products, and <q3|q2> as a matmul."""
    return points.conj() * q3, q3.conj() @ q2, q2.conj() * points


def alpha_grid_by_linspace(steps: int, start: int, stop: int) -> np.ndarray:
    """sweep._alpha_grid as a slice of np.linspace."""
    return np.linspace(0.0, TWO_PI, steps + 1)[start:stop]


def closed_forms_per_series(theta: float, phi: float, alphas) -> tuple:
    """sweep._closed_form_arrays as one tan/arctan pass per series."""
    t = math.tan(theta / 2.0)
    g1 = 2.0 * np.arctan(t * np.tan((phi + alphas) / 2.0))
    g2 = -2.0 * np.arctan(t * np.tan((phi - alphas) / 2.0))
    return g1, g2


def count_norm_calls(monkeypatch) -> list:
    """Record each np.linalg.norm call in the returned list."""
    calls = []
    original = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls
