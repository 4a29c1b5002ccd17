"""Qutrit family: closed forms, dual-path sweeps, winding, singular points."""

import math

import numpy as np
import pytest

from reference import (
    angle_dist,
    clear_sweep_caches,
    count_eigvals,
    dicke_embed,
    locate_steep_on_grid,
    pipeline_wrapped_by_division,
    sweep_series_per_component,
    symmetrize_full,
    unwrapped_series,
)
from triphase import (
    FamilyParams,
    UndefinedPhaseError,
    build_family_states,
    decompose_phase,
    family_qubits,
    state_to_points,
    sweep_alpha,
    three_vertex_phase,
    wrap_angle,
)
from triphase import phases, sweep
from triphase.angles import MAX_GRID
from triphase.sweep import _closed_form_arrays

PI = math.pi


def record_calls(monkeypatch, calls, module, name):
    """Append name to calls at each call of module.name."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs))


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(theta=PI / 2, phi=0.0)
    p = FamilyParams(theta=0.3, phi=-PI / 2, alpha=3 * PI)
    assert p.phi == pytest.approx(3 * PI / 2)
    assert p.alpha == pytest.approx(PI)


def test_constellation_points_at_plus_minus_half_angle():
    psi1, _, _ = build_family_states(FamilyParams(theta=0.5, phi=PI / 4, alpha=0.0))
    pts = sorted(state_to_points(psi1), key=lambda p: p.azimuth)
    assert pts[0].polar == pytest.approx(PI / 2, abs=1e-9)
    assert pts[1].polar == pytest.approx(PI / 2, abs=1e-9)
    assert pts[0].azimuth == pytest.approx(PI / 4, abs=1e-9)
    assert pts[1].azimuth == pytest.approx(2 * PI - PI / 4, abs=1e-9)


def test_theta_zero_makes_fixed_states_coincide():
    _, psi2, psi3 = build_family_states(FamilyParams(theta=0.0, phi=1.0))
    expected = [0.5, 1 / math.sqrt(2.0), 0.5]
    assert np.allclose(psi2.amplitudes, expected, atol=1e-12)
    assert np.allclose(psi3.amplitudes, expected, atol=1e-12)


def test_rotation_consistency_against_permutation_oracle():
    # rotating both qubits of the alpha = 0 state must reproduce the
    # parameterized qubits, checked in the raw two-qubit space
    theta, phi, alpha = 0.4, 1.1, 2.3
    base = FamilyParams(theta, phi, 0.0)
    rotated = FamilyParams(theta, phi, alpha)
    u = np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])
    q11, q12, _, _ = family_qubits(base)
    r11, r12, _, _ = family_qubits(rotated)
    lhs = np.kron(u, u) @ symmetrize_full([q11, q12])
    rhs = symmetrize_full([r11, r12])
    assert np.allclose(lhs, rhs, atol=1e-12)
    # and the library state is that same ray
    psi1 = build_family_states(rotated)[0]
    embedded = dicke_embed(psi1)
    cos = abs(np.vdot(embedded, rhs)) / np.linalg.norm(rhs)
    assert cos == pytest.approx(1.0, abs=1e-12)


def closed_forms(p):
    """sweep._closed_form_arrays at the one alpha of p, from the (2, 1)
    tangents tan((phi +- alpha)/2) as sweep._closed_form_half forms them."""
    return _closed_form_arrays(p.theta, np.tan(np.array([[p.phi + p.alpha], [p.phi - p.alpha]]) / 2.0))[:, 0]


def test_closed_form_zero_rotation_cancels_exactly():
    for theta, phi in [(0.3, 0.9), (-0.7, 2.0), (1.2, 5.5)]:
        p = FamilyParams(theta, phi, 0.0)
        g1, g2 = closed_forms(p)
        assert g1 == -g2
        assert g1 + g2 == 0.0


def test_closed_form_specific_value_against_pipeline():
    p = FamilyParams(theta=PI / 3, phi=PI / 4, alpha=PI / 2)
    g1, g2 = closed_forms(p)
    assert g1 == pytest.approx(2 * math.atan(math.tan(PI / 6) * math.tan(3 * PI / 8)))
    assert g2 == pytest.approx(2 * math.atan(math.tan(PI / 6) * math.tan(PI / 8)))
    psi1, psi2, psi3 = build_family_states(p)
    assert angle_dist(float(g1 + g2), three_vertex_phase(psi1, psi2, psi3)) < 1e-12


def test_closed_form_vanishes_with_theta():
    for alpha in np.linspace(0, 2 * PI, 7):
        p = FamilyParams(0.0, 1.0, float(alpha))
        assert sum(closed_forms(p)) == 0.0


def test_closed_form_pole_reaches_plus_minus_pi():
    # (phi + alpha)/2 lands on the float closest to pi/2
    p = FamilyParams(theta=0.8, phi=PI / 2, alpha=PI / 2)
    g1, _ = closed_forms(p)
    assert abs(g1) == pytest.approx(PI, abs=1e-9)


def test_closed_form_odd_in_alpha_and_theta():
    for theta, phi, alpha in [(0.5, 1.0, 0.7), (0.9, 2.4, 2.9), (-0.2, 0.3, 4.4)]:
        plus, minus, flipped = (
            float(sum(closed_forms(p)))
            for p in (FamilyParams(theta, phi, alpha), FamilyParams(theta, phi, -alpha),
                      FamilyParams(-theta, phi, alpha))
        )
        assert angle_dist(plus, -minus) < 1e-9
        assert angle_dist(plus, -flipped) < 1e-9


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_alpha(0.5, 1.0, 32)
    with pytest.raises(ValueError):
        sweep_alpha(0.0, 1.0, 128)
    with pytest.raises(ValueError, match="phi must be finite"):
        sweep_alpha(0.5, math.nan, 128)
    with pytest.raises(ValueError, match="phi must be finite"):
        FamilyParams(0.5, math.inf)
    with pytest.raises(ValueError, match="alpha must be finite"):
        FamilyParams(0.5, 1.0, -math.inf)
    # validation only: the cap is checked before any grid is allocated
    with pytest.raises(ValueError, match="steps"):
        sweep_alpha(0.5, 1.0, MAX_GRID + 1)
    # a fractional interval count is refused, not truncated
    for steps in (100.7, 64.5, MAX_GRID - 0.5):
        with pytest.raises(ValueError, match=f"^steps must be a whole number, got {steps}$"):
            sweep_alpha(0.5, 0.1, steps)
    assert sweep_alpha(0.5, 0.1, 100.0).alphas.size == 101


def scalar_pipeline(theta, phi, alpha):
    params = FamilyParams(theta, phi, float(alpha))
    psi1, _, _ = build_family_states(params)
    _, _, q2, q3 = family_qubits(params)
    return decompose_phase(psi1, q2, q3).total


def test_batched_pipeline_matches_scalar_decomposition():
    # a steep theta on 1025 samples
    result = sweep_alpha(0.02, PI / 4, 1024)
    assert result.alphas.size == 1025
    for i in range(0, result.alphas.size, 97):
        scalar = scalar_pipeline(0.02, PI / 4, result.alphas[i])
        assert angle_dist(result.gamma_pipeline_wrapped[i], scalar) <= 1e-12, i
    # 5001 samples span two blocks of the batched pass
    result = sweep_alpha(PI / 6, 1.0, 5000)
    assert np.max(angle_dist(result.gamma_wrapped, result.gamma_pipeline_wrapped)) < 1e-8
    for i in (0, 4095, 4096, 4500):
        scalar = scalar_pipeline(PI / 6, 1.0, result.alphas[i])
        assert angle_dist(result.gamma_pipeline_wrapped[i], scalar) <= 1e-12, i


def test_cross_check_meets_its_documented_accuracy():
    # SweepResult's figures below theta = 0.02: decompose_phase, which finds
    # the roots of each sample's rotated state, at every sample of 1024
    # steps, phi in {0, pi/4, 3}; worst measured 1.5e-12 at theta = 0.01,
    # 3.5e-12 at 0.005 and 1.8e-12 at 0.001
    for theta in (0.01, 0.005, 0.001):
        for phi in (0.0, PI / 4, 3.0):
            result = sweep_alpha(theta, phi, 1024)
            _, _, q2, q3 = family_qubits(FamilyParams(theta, phi))
            want = [decompose_phase(build_family_states(FamilyParams(theta, phi, float(alpha)))[0], q2, q3).total
                    for alpha in result.alphas]
            assert np.max(angle_dist(result.gamma_pipeline_wrapped, want)) <= 5e-12, (theta, phi)


def test_sweep_cross_check_takes_quadratic_roots_in_closed_form(monkeypatch):
    # the family state is a qutrit: its two points come from the quadratic
    # formula, never from a companion-matrix eigvals call
    calls = count_eigvals(monkeypatch)
    roots = []
    record_calls(monkeypatch, roots, phases, "constellation_qubits")
    result = sweep_alpha(PI / 3, PI / 4, 1024)
    # the one block's roots are solved here, not taken from an earlier sweep
    assert result.alphas.size == 1025 and roots == ["constellation_qubits"] and calls == []


# the np.unwrap branches differ from the analytic ones by the rounding of
# unwrap's summed 2pi corrections: 4 units in the last place at |gamma| = 16
UNWRAP_GAP = 4 * float(np.spacing(16.0))


def test_stacked_series_match_per_component_reference_bitwise():
    # the (2, S) branch pass must give the per-component reference's bytes,
    # and the np.unwrap branches within UNWRAP_GAP: negative and steep
    # theta, odd and even lengths, and tangent poles in the first or last
    # interval
    cases = [(-0.4, 1.0, 64), (0.02, PI / 4, 256), (-0.05, 2.0, 100), (0.7, 0.3, 1001),
             (PI / 6, PI / 4, 4096), (PI / 6, PI / 4, 4095)]
    for steps in (64, 1001, 1024):
        for offset in (0.3, -0.3):
            cases.append((0.2, PI + offset * 2 * PI / steps, steps))
    rng = np.random.default_rng(4_200)
    for _ in range(30):
        theta = float(rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0]))
        cases.append((theta, float(rng.uniform(-7.0, 7.0)), int(rng.integers(64, 4097))))
    for theta, phi, steps in cases:
        result = sweep_alpha(theta, phi, steps)
        series = sweep_series_per_component(theta, phi, result.alphas)
        printed = (result.gamma1, result.gamma2, result.gamma_total, result.gamma_wrapped)
        for got, want in zip(printed, series):
            assert got.tobytes() == want.tobytes(), (theta, phi, steps)
        unwrapped = unwrapped_series(theta, phi, result.alphas)
        assert np.max(np.abs(np.stack(printed[:2]) - unwrapped)) <= UNWRAP_GAP, (theta, phi, steps)


def seeded_sweep_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        theta = float(10 ** rng.uniform(-3, math.log10(1.5)) * rng.choice([-1.0, 1.0]))
        yield theta, float(rng.uniform(-7.0, 7.0)), int(rng.integers(64, 4097))


# theta = +-1.6e-5, 1e-7 and 1e-10 on grids whose steps cross a pole by
# nearly a full turn (slope up to 1/|tan(theta/2)| = 2e10); 5000 steps span
# two blocks; phi = pi/4 at 64 and 1024 steps puts alpha = 3pi/4, gamma1's
# tangent pole, exactly on a sample
EDGE_SWEEPS = [(1.6e-5, 1.0, 64), (-1.6e-5, 2.0, 64), (1e-7, PI / 4, 64), (1e-10, PI / 4, 1024),
               (-0.3, 4.0, 5000), (PI / 12, PI / 4, 1024), (-PI / 12, PI / 4, 1024)]


def test_branches_match_a_dense_unwrap():
    on_pole = 0
    for theta, phi, steps in [*EDGE_SWEEPS, *seeded_sweep_cases(21, 60)]:
        result = sweep_alpha(theta, phi, steps)
        unwrapped = unwrapped_series(theta, phi, result.alphas)
        gap = np.max(np.abs(np.stack([result.gamma1, result.gamma2]) - unwrapped))
        assert gap <= UNWRAP_GAP, (theta, phi, steps, gap)
        on_pole += bool(np.any(phi + result.alphas == PI))
    assert on_pole == 4


def test_winding_is_four_pi_times_the_sign_of_theta():
    wide = [(PI / 3, PI / 4, 256), (PI / 6, 1.0, 256), (PI / 12, 2.2, 256), (0.7, 5.9, 256), (1.1, 0.3, 256)]
    for theta, phi, steps in [*EDGE_SWEEPS, *wide, *seeded_sweep_cases(22, 60)]:
        winding = sweep_alpha(theta, phi, steps).winding
        assert abs(winding - math.copysign(4 * PI, theta)) <= 1e-12, (theta, phi, steps)


def test_loci_are_the_exact_poles_and_merge_within_one_step():
    # phi = 0 puts both poles on pi, phi = pi both on 0 (2pi reduces to 0)
    assert sweep_alpha(0.3, 0.0, 64).singular_alphas == (PI,)
    assert sweep_alpha(0.3, PI, 64).singular_alphas == (0.0,)
    assert sweep_alpha(0.3, PI / 4, 64).singular_alphas == (3 * PI / 4, 5 * PI / 4)
    # poles 0.6 steps apart merge, across the seam too; 1.2 steps apart
    # stay two. The step is the requested one, at any theta
    for steps in (64, 1024):
        step = 2 * PI / steps
        assert sweep_alpha(0.2, 1.0, steps).singular_alphas == (PI - 1.0, PI + 1.0)
        merged = sweep_alpha(0.2, 0.3 * step, steps).singular_alphas
        assert len(merged) == 1 and abs(merged[0] - PI) <= 1e-15
        for offset in (0.3, -0.3):
            assert sweep_alpha(0.2, PI + offset * step, steps).singular_alphas == (0.0,)
            split = sweep_alpha(0.2, PI + 2 * offset * step, steps).singular_alphas
            assert len(split) == 2 and angle_dist(*split) == pytest.approx(1.2 * step)


def test_loci_vanish_at_t_one_third():
    # the 5x-median rule is strict: |tan(theta/2)| = 1/3 has no locus
    theta = 2 * math.atan(1 / 3)
    assert math.tan(theta / 2) == 1 / 3
    for sign in (1.0, -1.0):
        assert sweep_alpha(sign * theta, 1.0, 64).singular_alphas == ()
        assert len(sweep_alpha(sign * theta * (1 - 1e-12), 1.0, 64).singular_alphas) == 2


def test_loci_agree_with_the_grid_detector():
    # the analytic loci against the grid detector on the np.unwrap
    # branches. Skipped: |t| within 0.02 of 1/3, where the sampled peak
    # slope decides, and poles within two steps, where the detector merges
    # interval midpoints rather than the poles. A pole on a sample lies
    # exactly half a step from the midpoints beside it, up to rounding
    counts = [0, 0, 0]  # sweeps with 0, 1 and 2 loci
    for theta, phi, steps in [*EDGE_SWEEPS, *seeded_sweep_cases(23, 300)]:
        result = sweep_alpha(theta, phi, steps)
        step, t = float(result.alphas[1]), abs(math.tan(theta / 2))
        if abs(t - 1 / 3) <= 0.02 or angle_dist(PI - phi, PI + phi) <= 2 * step:
            continue
        jumps = np.abs(np.diff(unwrapped_series(theta, phi, result.alphas)))
        grid = locate_steep_on_grid(result.alphas, jumps)
        found = result.singular_alphas
        assert len(found) == len(grid), (theta, phi, steps, found, grid)
        for got, want in zip(found, grid):
            assert angle_dist(got, want) <= step / 2 + 1e-12, (theta, phi, steps, found, grid)
        counts[len(found)] += 1
    assert counts[2] >= 250 and counts[0] >= 30, counts


def test_tiny_negative_angles_reduce_to_zero():
    for tiny in (-1e-300, -1e-17, -0.0):
        p = FamilyParams(0.3, tiny, tiny)
        assert p.phi == 0.0 and p.alpha == 0.0
        assert sweep_bytes(sweep_alpha(0.3, tiny, 64)) == sweep_bytes(sweep_alpha(0.3, 0.0, 64))


def test_sweep_grid_too_coarse_for_extreme_theta():
    # a 64-interval grid cannot resolve theta = 1e-7, whose slope peaks at
    # 2e7 on each pole: the sweep keeps that grid, and its branches,
    # winding and loci stay exact
    result = sweep_alpha(1e-7, PI / 4, 64)
    assert result.alphas.tobytes() == np.linspace(0.0, 2 * PI, 65).tobytes()
    assert result.winding == 4 * PI
    assert result.singular_alphas == (3 * PI / 4, 5 * PI / 4)
    # the pole sample alpha = 3pi/4 splits gamma1's turn into two half turns
    assert np.max(np.abs(np.diff(result.gamma1))) > 0.99 * PI


@pytest.mark.parametrize("theta", [0.02, -0.3, 1.0, 1.5])
def test_sweep_grid_bounds_every_step_by_a_quarter_turn(theta):
    # each component's slope lies in [|t|, 1/|t|], t = tan(theta/2), with
    # the sign of theta: every step of the requested grid lies between h |t|
    # and h / |t|, h = 2pi / steps, so a grid of at least 8 / |t| intervals
    # keeps each step within pi/4
    t = abs(math.tan(theta / 2))
    fine = max(64, math.ceil(8 / t))
    for phi in (0.0, PI / 4, PI, 2 * PI - 1e-12):
        for steps in (64, 1000, fine):
            h = 2 * PI / steps
            result = sweep_alpha(theta, phi, steps)
            assert result.alphas.size == steps + 1
            for series in (result.gamma1, result.gamma2):
                moves = math.copysign(1.0, theta) * np.diff(series)
                assert np.min(moves) >= h * t * (1 - 1e-9) - 1e-12
                assert np.max(moves) <= h / t * (1 + 1e-9) + 1e-12
                if steps == fine:
                    assert np.max(moves) <= PI / 4 + 1e-12


def test_every_sweep_has_steps_plus_one_samples():
    # no theta densifies the grid: seeded |theta| in [1e-11, 1.5]
    rng = np.random.default_rng(220)
    for _ in range(200):
        theta = float(10 ** rng.uniform(-11, math.log10(1.5)) * rng.choice([-1.0, 1.0]))
        steps = int(rng.integers(64, 4097))
        result = sweep_alpha(theta, float(rng.uniform(-7.0, 7.0)), steps)
        assert result.alphas.tobytes() == np.linspace(0.0, 2 * PI, steps + 1).tobytes(), (theta, steps)


def test_winding_is_exact_with_poles_on_both_endpoints():
    # phi = pi puts both tangent poles on alpha = 0 and 2pi, where the float
    # tan differs between the two ends (the endpoint difference alone reads
    # 4pi - 6.1e-11 at theta = 1.6e-5 and 4pi - 8.0e-5 at 1.22e-11)
    for theta in (1.6e-5, -1.6e-5, 1e-7, -1e-7, 1e-11, -1e-11, 1.22e-11):
        for phi in (PI, -PI, PI + 1e-9, PI - 1e-9):
            for steps in (64, 256):
                assert sweep_alpha(theta, phi, steps).winding == math.copysign(4 * PI, theta), (theta, phi, steps)


def test_cross_check_gap_grows_like_eps_over_t():
    # the closed forms and the constellation route part near a tangent pole
    # by about eps / |t|, t = tan(theta/2): seeded |theta| in [3e-12, 1e-2],
    # every other sweep with a sample on gamma1's pole pi - phi (to the float)
    eps = float(np.finfo(float).eps)
    assert sweep_alpha(1e-7, PI / 4, 64).pipeline_gap == pytest.approx(4.1e-9, rel=0.05)
    assert sweep_alpha(1e-10, PI / 4, 1024).pipeline_gap == pytest.approx(4.5e-6, rel=0.05)
    rng = np.random.default_rng(12)
    on_pole = []
    for k in range(400):
        theta = float(10 ** rng.uniform(math.log10(3e-12), -2) * rng.choice([-1.0, 1.0]))
        steps = int(rng.integers(64, 4097))
        if k % 2:
            phi = PI - float(np.linspace(0.0, 2 * PI, steps + 1)[rng.integers(0, steps + 1)])
        else:
            phi = float(rng.uniform(0.0, 2 * PI))
        scaled = sweep_alpha(theta, phi, steps).pipeline_gap * abs(math.tan(theta / 2)) / eps
        assert scaled <= 1024, (theta, phi, steps, scaled)
        if k % 2:
            on_pole.append(scaled)
    assert max(on_pole) >= 10


def test_vanishing_rule_bounds_the_small_theta_domain():
    # on a tangent pole the point's overlap with q3 is about |t|, so from
    # |theta| of about 2e-12 down a sample on a pole meets the vanishing rule
    with pytest.raises(UndefinedPhaseError, match="modulus 5e-13"):
        sweep_alpha(1e-12, PI / 4, 1024)
    # the same theta off the poles keeps its exact winding and loci
    result = sweep_alpha(1e-12, 1.0, 1024)
    assert result.winding == 4 * PI and result.singular_alphas == (PI - 1.0, PI + 1.0)


def test_vanishing_rule_bounds_theta_next_to_pi_over_2():
    # <q3|q2> = cos theta, so |theta| within about 1e-12 of pi/2 meets the
    # vanishing rule at every phi, and 1e-11 away the sweep keeps its winding
    for sign in (1.0, -1.0):
        with pytest.raises(UndefinedPhaseError, match=r"<q3\|q2> has modulus 1e-13, not above 1e-12$"):
            sweep_alpha(sign * (PI / 2 - 1e-13), 0.7, 64)
        assert sweep_alpha(sign * (PI / 2 - 1e-11), 0.7, 64).winding == sign * 4 * PI


def test_vanishing_sample_is_named_by_its_global_index():
    # the pole alpha = 3pi/4 is sample 3 steps / 8; past 4096 steps it lies
    # beyond the first block of the batched pass, and the error still names
    # the sample of the whole grid
    for steps in (1024, 8192, 32768):
        with pytest.raises(UndefinedPhaseError, match=f"component {3 * steps // 8}, 1: <point"):
            sweep_alpha(1e-12, PI / 4, steps)


def sweep_outcome(theta, phi, steps):
    """sweep_bytes of the sweep, or the text of its UndefinedPhaseError."""
    try:
        return sweep_bytes(sweep_alpha(theta, phi, steps))
    except UndefinedPhaseError as error:
        return str(error)


def test_the_orbit_floor_skips_the_scan_only_where_it_cannot_fire(monkeypatch):
    # the qutrit's orbit floor min ||a| - |b|| is |sin(theta/2)|, so the
    # scan is skipped above |theta| = 2 asin(EPS_NULL + margin). Seeded
    # |theta| within 1e-13 of that, random phi, two thirds of the grids
    # with a sample on a pole pi -+ phi (on a pole the overlap is about
    # |theta|/2, so from 2e-12 down the rule fires): the same error text or
    # the same bits as with the scan forced on every block
    threshold = 2 * math.asin(phases.EPS_NULL + sweep._FLOOR_MARGIN)
    rng = np.random.default_rng(27)
    cases = []
    for k in range(60):
        theta = float((threshold + rng.uniform(-1e-13, 1e-13)) * rng.choice([-1.0, 1.0]))
        steps = int(rng.integers(64, 9001))
        alpha = float(np.linspace(0.0, 2 * PI, steps + 1)[rng.integers(0, steps + 1)])
        cases.append((theta, (PI - alpha, alpha - PI, float(rng.uniform(0.0, 2 * PI)))[k % 3], steps))
    skipping = [sweep_outcome(*case) for case in cases]
    monkeypatch.setattr(sweep, "_FLOOR_MARGIN", math.inf)
    for case, got in zip(cases, skipping):
        assert got == sweep_outcome(*case), case
    assert {isinstance(got, str) for got in skipping} == {True, False}
    assert any(abs(theta) > threshold for theta, _, _ in cases)


def test_the_scan_runs_only_below_the_floor(monkeypatch):
    calls = []
    record_calls(monkeypatch, calls, sweep, "check_overlaps")
    sweep_alpha(PI / 12, PI / 4, 5000)
    assert calls == []
    # 5001 samples are two blocks, each scanned; no sample meets the rule
    assert sweep_alpha(1e-12, 1.0, 5000).winding == 4 * PI
    assert calls == ["check_overlaps"] * 2


def test_sweep_dual_path_and_invariants():
    result = sweep_alpha(PI / 6, PI / 4, 512)
    assert result.alphas.size == 513
    assert np.max(angle_dist(result.gamma_wrapped, result.gamma_pipeline_wrapped)) < 1e-8
    # unwrapped total differs from the wrapped series by exact turns
    turns = (result.gamma_total - result.gamma_wrapped) / (2 * PI)
    assert np.max(np.abs(turns - np.round(turns))) < 1e-9
    assert np.max(np.abs(np.diff(result.gamma_total))) < PI
    assert result.winding == pytest.approx(4 * PI, abs=1e-6)


def test_singular_alphas_follow_the_analytic_rule():
    # each component's slope t / (cos^2 u + t^2 sin^2 u), t = tan(theta/2),
    # peaks at 1/|t| on its tangent pole, alpha = pi - phi or pi + phi, and
    # has median 2|t| / (1 + t^2): the pole clears the 5x-median rule
    # exactly when |t| < 1/3. Skipped: loci within two steps of each other,
    # and |t| within 0.02 of the threshold
    rng = np.random.default_rng(8)
    counts = {"two": 0, "none": 0}
    for _ in range(400):
        theta = float(10 ** rng.uniform(-3, math.log10(1.5)) * rng.choice([-1.0, 1.0]))
        phi = float(rng.uniform(0.0, 2 * PI))
        result = sweep_alpha(theta, phi, int(rng.integers(64, 4097)))
        step, t = float(result.alphas[1]), abs(math.tan(theta / 2))
        poles = (PI - phi, PI + phi)
        if angle_dist(*poles) <= 2 * step or abs(t - 1 / 3) <= 0.02:
            continue
        found = result.singular_alphas
        if t < 1 / 3:
            assert len(found) == 2, (theta, phi, found)
            for pole in poles:
                assert min(angle_dist(pole, a) for a in found) <= step / 2, (theta, phi, found)
            counts["two"] += 1
        else:
            assert found == (), (theta, phi, found)
            counts["none"] += 1
    assert counts["two"] >= 300 and counts["none"] >= 25, counts


def test_sweep_theta_sign_flip_negates_everything():
    plus = sweep_alpha(PI / 6, PI / 4, 256)
    minus = sweep_alpha(-PI / 6, PI / 4, 256)
    assert np.allclose(plus.alphas, minus.alphas)
    assert np.max(angle_dist(plus.gamma1, -minus.gamma1)) < 1e-9
    assert np.max(angle_dist(plus.gamma2, -minus.gamma2)) < 1e-9
    assert minus.winding == pytest.approx(-plus.winding, abs=1e-9)


def test_slope_profile_flattens_toward_wide_angles():
    slope = sweep_alpha(1.55, PI / 4, 2048).peak_slope
    assert slope == pytest.approx(1.0 / math.tan(1.55 / 2), abs=1e-3)
    assert slope < 1.1


# --- the sweep's caches: the cross-check's alpha = 0 rows by phi and w
# blocks by (steps, start), and the closed forms' theta-free halves by (phi, steps)

SWEEP_FIELDS = ("alphas", "gamma1", "gamma2", "gamma_total", "gamma_wrapped", "gamma_pipeline_wrapped")
CACHES = (sweep._cached_rows, sweep._cached_rotations)


def sweep_bytes(result):
    return [getattr(result, name).tobytes() for name in SWEEP_FIELDS] + [result.singular_alphas]


def cache_counts():
    """(hits, misses) of the rows cache, then of the w cache."""
    return tuple(cache.cache_info()[:2] for cache in CACHES)


def test_cached_rows_give_the_bits_of_a_cold_sweep():
    # per (phi, steps), at least four theta run warm one after another and
    # each cold after both caches are cleared: one-block, two-block (4097
    # and 5001 samples), a steep theta (0.02), and two phi on one grid and
    # one phi on two grids, so that a key missing phi or steps would show
    cases = [(PI / 4, 1024), (3.0, 1024), (PI / 4, 256), (1.0, 5000), (2.0, 4096), (0.0, 1000), (PI, 64)]
    thetas = (PI / 3, -0.4, 0.02, PI / 12, 1.5)
    warm = {(theta, phi, steps): sweep_bytes(sweep_alpha(theta, phi, steps))
            for phi, steps in cases for theta in thetas}
    for cache in CACHES:
        assert cache.cache_info().hits >= 4 * len(cases)
    for (theta, phi, steps), got in warm.items():
        clear_sweep_caches()
        assert got == sweep_bytes(sweep_alpha(theta, phi, steps)), (theta, phi, steps)


def test_a_sweep_finds_its_roots_once_per_phi(monkeypatch):
    # one root find per new phi, at any steps: one block, two and 17; a
    # repeat at that phi, at any theta and steps, finds none
    calls = []
    record_calls(monkeypatch, calls, phases, "constellation_qubits")
    record_calls(monkeypatch, calls, sweep, "symmetric_amplitudes")
    for phi, steps in [(1.0, 64), (1.5, 5000), (2.0, 2 ** 16)]:
        sweep_alpha(PI / 6, phi, steps)
        assert sorted(calls) == ["constellation_qubits", "symmetric_amplitudes"], (phi, steps)
        calls.clear()
        sweep_alpha(-0.3, phi, steps)
        sweep_alpha(0.02, phi, 1000)
        assert calls == [], (phi, steps)


def test_cached_rows_are_read_only():
    result = sweep_alpha(PI / 6, 1.0, 256)
    # the sweep's own entries: rows by the reduced phi, w by (steps, block
    # start), the grid, tangent rows and linear terms by (phi, steps)
    entries = (sweep._cached_rows(1.0), sweep._cached_rotations(256, 0), *sweep._cached_half(1.0, 256))
    assert cache_counts() == ((1, 1), (1, 1))
    assert sweep._cached_half.cache_info()[:2] == (1, 1)
    assert entries[0].shape == (2, 2) and entries[1].shape == (257,)
    assert entries[2].shape == (257,) and entries[3].shape == entries[4].shape == (2, 257)
    # the result's grid is its own copy, writable as before
    assert result.alphas.flags.writeable and not np.shares_memory(result.alphas, entries[2])
    for entry in entries:
        with pytest.raises(ValueError, match="read-only"):
            entry[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            entry *= 2.0


def test_row_cache_keys_on_phi_and_steps():
    # rows key on phi alone, w on (steps, block start) alone: 256 and 257
    # intervals at one phi share the rows and no w block, and a second phi
    # on one grid shares every w block
    sweep_alpha(0.3, 1.0, 256)
    sweep_alpha(0.3, 1.0, 257)
    assert cache_counts() == ((1, 1), (0, 2))
    cold = sweep_bytes(sweep_alpha(-0.5, 1.0, 8192))  # 8193 samples: three blocks
    assert cache_counts() == ((2, 1), (0, 5))
    sweep_alpha(-0.5, 2.0, 8192)
    assert cache_counts() == ((2, 2), (3, 5))
    # a repeat at the same (phi, steps) hits both, at any theta, and gives the cold bits
    clear_sweep_caches()
    sweep_alpha(0.7, 1.0, 8192)
    assert sweep_bytes(sweep_alpha(-0.5, 1.0, 8192)) == cold
    assert cache_counts() == ((1, 1), (3, 3))


def test_cached_halves_give_the_bits_of_cold_and_uncached_sweeps(monkeypatch):
    # a seeded theta scan of both signs per (phi, steps), with a tangent
    # pole at alpha = 0 (phi = pi), on grids at and around the one-block
    # bound: run warm one after another, each cold after every cache is
    # cleared, and with the half built afresh at every call; the warm
    # series also against the per-component reference
    rng = np.random.default_rng(30)
    thetas = [float(t) for t in rng.uniform(0.02, 1.5, 4) * [1.0, -1.0, 1.0, -1.0]]
    keys = [(phi, steps) for phi in (0.0, PI, float(rng.uniform(-7.0, 7.0))) for steps in (64, 4095, 4096, 4097)]
    warm = {}
    for phi, steps in keys:
        for theta in thetas:
            result = sweep_alpha(theta, phi, steps)
            warm[theta, phi, steps] = sweep_bytes(result)
            series = sweep_series_per_component(theta, phi, result.alphas)
            assert [s.tobytes() for s in series] == warm[theta, phi, steps][1:5], (theta, phi, steps)
    assert sweep._cached_half.cache_info()[:2] == (9 * 3, 9)  # all but 4097 steps are cached
    cold = {}
    for key in warm:
        clear_sweep_caches()
        cold[key] = sweep_bytes(sweep_alpha(*key))
    monkeypatch.setattr(sweep, "_cached_half", sweep._closed_form_half)
    for key, got in warm.items():
        assert got == cold[key] == sweep_bytes(sweep_alpha(*key)), key


def test_half_cache_holds_one_block_grids_and_eight_entries():
    # 4096 intervals are cached, 4097 are not; each entry is the grid and
    # two (2, S) float stacks, and the cache keeps the last eight (phi, steps)
    sweep_alpha(0.3, 1.0, 4096)
    sweep_alpha(0.3, 1.0, 4097)
    sweep_alpha(-0.3, 1.0, 4097)
    info = sweep._cached_half.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    assert sum(rows.nbytes for rows in sweep._cached_half(1.0, 4096)) == 4097 * 40
    for k in range(12):
        sweep_alpha(0.3, 0.25 * k, 64)
    info = sweep._cached_half.cache_info()
    assert info.currsize == info.maxsize == 8


def test_alpha_grid_is_linspace_bit_for_bit():
    # every block slice the w cache builds, and the whole grid sweep_alpha returns
    for steps in [*range(64, 5001), *(2 ** k for k in range(6, 21))]:
        want = np.linspace(0.0, 2 * PI, steps + 1)
        assert sweep._alpha_grid(steps, 0, steps + 1).tobytes() == want.tobytes(), steps
        for start in range(0, steps + 1, sweep._BLOCK):
            stop = min(start + sweep._BLOCK, steps + 1)
            assert sweep._alpha_grid(steps, start, stop).tobytes() == want[start:stop].tobytes(), (steps, start)


def test_signed_zero_phi_gives_the_same_bits():
    # phi = -0.0 reduces to 0.0, so it keys the rows 0.0 keys
    for steps in (256, 5000):
        clear_sweep_caches()
        plus = sweep_bytes(sweep_alpha(0.3, 0.0, steps))
        clear_sweep_caches()
        minus = sweep_bytes(sweep_alpha(0.3, -0.0, steps))
        assert plus == minus == sweep_bytes(sweep_alpha(0.3, 0.0, steps))
        assert sweep._cached_rows.cache_info()[:2] == (1, 1)


def test_row_cache_stays_within_its_bound():
    # the rows keep the last 8 phi, 64 B each for the qutrit
    for k in range(10):
        sweep_alpha(0.5, 0.1 * k, 64)
    info = sweep._cached_rows.cache_info()
    assert info.misses == 10 and info.currsize == info.maxsize == 8
    assert sweep._cached_rows(0.9).nbytes == 64
    # the w blocks keep the last 8, 64 KB each: 28_000 steps span 7 blocks,
    # which a second phi on that grid hits
    for phi in (1.0, 2.0):
        assert sweep_alpha(0.5, phi, 28_000).alphas.size == 28_001
    info = sweep._cached_rotations.cache_info()
    assert info.misses == 8 and info.currsize == 8  # the 64-step block, then 7
    # 2^16 + 1 samples span 17 blocks: each is a miss, and the cache keeps
    # the last 8; a repeat sweep in order evicts each block before reaching it
    for _ in range(2):
        result = sweep_alpha(0.5, 2.0, 2 ** 16)
    assert result.alphas.size == 2 ** 16 + 1
    assert sweep._cached_rotations.cache_info() == (info.hits, info.misses + 34, 8, 8)
    assert sweep._cached_rotations(2 ** 16, 2 ** 16).nbytes == 16  # the endpoint block: one sample
    assert sweep._cached_rotations(2 ** 16, 0).nbytes == 64 * 1024
    # every sample of all 17 blocks against the per-sample root route,
    # within the bound of test_bitwise's comparison
    want = pipeline_wrapped_by_division(0.5, 2.0, 2 ** 16)
    gap = float(np.max(np.abs(wrap_angle(result.gamma_pipeline_wrapped - want))))
    assert gap * math.tan(0.25) <= 8 * np.finfo(float).eps, gap
