import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j1

from thz_ris_planner.aperture import ApertureSpec
from thz_ris_planner.core import BROADSIDE, Direction, Frequency
from thz_ris_planner.radiation import (
    J1_HANKEL_MIN,
    J1_SERIES_MAX,
    FrequencySpanError,
    GridResolutionError,
    _j1,
    _largest_array,
    check_array_budget,
    array_factor_direct,
    array_factor_fft,
    directivity,
    gain_at,
    hemisphere_power_exact,
    principal_plane_cut,
    quantization_loss,
    squint_sweep,
    squint_vs_angle,
)
from thz_ris_planner.surface import PhaseProfile, TaperSpec, quantize_profile, synthesize_profile

F140 = Frequency.from_ghz(140)
OUT45 = Direction.from_degrees(45)


def _random_profile(n, rng, taper_amps=True):
    ap = ApertureSpec.from_element_grid(n, F140)
    prof = synthesize_profile(
        ap,
        Direction(rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi)),
        Direction(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi)),
    )
    if taper_amps:
        amps = rng.uniform(0.2, 1.0, (n, n))
        prof = PhaseProfile(amps * np.exp(1j * np.angle(prof.coefficients)), F140, prof.cell_pitch_m)
    return prof


def _random_lattice(rows, cols, rng):
    """Half-wavelength lattice of random complex coefficients, |c| in [0.1, 1]."""
    coeffs = rng.uniform(0.1, 1.0, (rows, cols)) * np.exp(2j * math.pi * rng.random((rows, cols)))
    return PhaseProfile(coeffs, F140, F140.wavelength_m / 2.0)


# --- direct sum (oracle) ----------------------------------------------------


def test_single_element_field():
    prof = PhaseProfile(0.7 * np.ones((1, 1), dtype=complex), F140, 1e-3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
        e = array_factor_direct(prof, F140, [d])[0]
        assert abs(e) == pytest.approx(0.7 * math.sqrt(math.cos(d.theta)), abs=1e-12)


def test_uniform_broadside_coherent_sum():
    ap = ApertureSpec.from_element_grid(100, F140)
    prof = synthesize_profile(ap, BROADSIDE, BROADSIDE)
    e = array_factor_direct(prof, F140, [BROADSIDE])[0]
    assert abs(e) == pytest.approx(1e4, rel=1e-12)


def test_two_element_null():
    # elements at x = -lambda/4 and +lambda/4
    coeffs = np.array([[1.0], [np.exp(1j * math.pi)]])
    prof = PhaseProfile(coeffs, F140, F140.wavelength_m / 2)
    e = array_factor_direct(prof, F140, [BROADSIDE])[0]
    assert abs(e) < 1e-12


# --- FFT fast path ----------------------------------------------------------


@pytest.mark.parametrize(
    "n,oversample",
    # rows != cols: a per-axis mix-up in the element positions or the
    # centring phase cannot hide on a rectangular panel
    [(8, 4), (17, 3), (100, 2), pytest.param((5, 9), 3, id="5x9-3")],
)
def test_fft_matches_direct_oracle(n, oversample):
    rng = np.random.default_rng(n)
    prof = _random_lattice(*n, rng) if isinstance(n, tuple) else _random_profile(n, rng)
    for f in (F140, Frequency(0.9 * F140.hertz), Frequency(1.1 * F140.hertz)):
        pat = array_factor_fft(prof, f, uv_oversample=oversample)
        uu, vv = np.meshgrid(pat.ax1, pat.ax2, indexing="ij")
        inside = np.argwhere(uu**2 + vv**2 < 1.0 - 1e-9)
        pick = inside[rng.choice(len(inside), 40, replace=False)]
        dirs = [
            Direction(
                math.asin(math.hypot(pat.ax1[i], pat.ax2[j])),
                math.atan2(pat.ax2[j], pat.ax1[i]),
            )
            for i, j in pick
        ]
        fft_vals = np.array([pat.field[i, j] for i, j in pick])
        direct = array_factor_direct(prof, f, dirs)
        err = np.abs(fft_vals - direct) / np.maximum(np.abs(direct), 1e-12 * np.max(np.abs(direct)))
        assert np.max(err) < 1e-9


def test_fft_dc_bin_is_coherent_sum():
    ap = ApertureSpec.from_element_grid(20, F140)
    prof = synthesize_profile(ap, BROADSIDE, BROADSIDE)
    pat = array_factor_fft(prof, F140, uv_oversample=1)
    i = int(np.argmin(np.abs(pat.ax1)))
    j = int(np.argmin(np.abs(pat.ax2)))
    assert pat.ax1[i] == 0.0 and pat.ax2[j] == 0.0
    assert pat.field[i, j] == pytest.approx(400.0 + 0.0j, abs=1e-9)


def test_fft_visible_region_scales_with_frequency():
    ap = ApertureSpec.from_element_grid(16, F140)
    prof = synthesize_profile(ap, BROADSIDE, OUT45)
    lo = array_factor_fft(prof, Frequency(0.9 * F140.hertz), uv_oversample=2)
    hi = array_factor_fft(prof, Frequency(1.1 * F140.hertz), uv_oversample=2)
    # lattice extent in u is lambda/pitch wide, so it shrinks as f grows
    assert np.max(np.abs(lo.ax1)) == pytest.approx(np.max(np.abs(hi.ax1)) * 1.1 / 0.9, rel=1e-9)


# --- directivity ------------------------------------------------------------


def test_broadside_directivity_anchor():
    # uniform 100x100 half-wavelength grid: 4*pi*A/lambda^2 = 44.97 dBi
    ap = ApertureSpec.from_element_grid(100, F140)
    prof = synthesize_profile(ap, BROADSIDE, BROADSIDE)
    pat = directivity(prof)
    peak, at = pat.peak_directivity()
    assert peak == pytest.approx(44.97, abs=0.3)
    assert at.theta == pytest.approx(0.0, abs=math.radians(0.1))


def test_steered_projected_aperture_loss():
    ap = ApertureSpec.from_element_grid(100, F140)
    broadside = directivity(synthesize_profile(ap, BROADSIDE, BROADSIDE)).peak_directivity()[0]
    steered = directivity(synthesize_profile(ap, BROADSIDE, OUT45)).peak_directivity()[0]
    assert broadside - steered == pytest.approx(-10.0 * math.log10(math.cos(math.pi / 4)), abs=0.4)


def test_single_element_directivity():
    # cos(theta) element power over the hemisphere integrates to pi, so
    # D = 4*pi/pi = 6.02 dBi
    prof = PhaseProfile(np.ones((1, 1), dtype=complex), F140, 1e-3)
    assert gain_at(prof, F140, BROADSIDE) == pytest.approx(6.0206, abs=1e-3)


def test_directivity_grid_guard():
    ap = ApertureSpec.from_element_grid(100, F140)
    prof = synthesize_profile(ap, BROADSIDE, BROADSIDE)
    with pytest.raises(GridResolutionError, match="use at most"):
        directivity(prof, grid_resolution=math.radians(2.0))


def test_hemisphere_energy_closure():
    # quadrature normalization against the closed-form lattice integral
    ap = ApertureSpec.from_element_grid(100, F140)
    for outgoing, taper in ((BROADSIDE, None), (OUT45, TaperSpec(-10.0))):
        prof = synthesize_profile(ap, BROADSIDE, outgoing, taper or TaperSpec(0.0))
        pat = directivity(prof)
        ratio = hemisphere_power_exact(prof, F140) / pat.total_power
        assert 0.98 <= ratio <= 1.0


@pytest.mark.parametrize("rows,cols", [(3, 5), (4, 6), (1, 7)])
def test_hemisphere_power_matches_explicit_pair_sum(rows, cols):
    # sum over every element pair pins the lag alignment and the fold onto
    # distinct lag radii on non-square and single-row lattices, with the
    # kernel scaled per wavenumber
    prof = _random_lattice(rows, cols, np.random.default_rng(rows * cols))
    gx, gy = np.meshgrid(prof.x_m, prof.y_m, indexing="ij")
    c, px, py = prof.coefficients.ravel(), gx.ravel(), gy.ravel()
    for scale in (0.7, 1.0, 1.3):
        f = Frequency(scale * F140.hertz)
        k = 2.0 * math.pi / f.wavelength_m
        expected = 0.0
        for n in range(c.size):
            for m in range(c.size):
                kd = k * math.hypot(px[n] - px[m], py[n] - py[m])
                kernel = math.pi if kd == 0.0 else 2.0 * math.pi * j1(kd) / kd
                expected += (c[n] * np.conj(c[m])).real * kernel
        assert hemisphere_power_exact(prof, f) == pytest.approx(expected, rel=1e-12)


# --- numpy J1 against scipy.special.j1 (oracle) ------------------------------


def _regime_edges():
    """A few ulps and a few micro-units either side of each regime boundary."""
    pts = []
    for edge in (J1_SERIES_MAX, J1_HANKEL_MIN):
        ulps = [edge]
        for _ in range(4):
            ulps = [np.nextafter(ulps[0], 0.0)] + ulps + [np.nextafter(ulps[-1], np.inf)]
        pts += ulps + list(np.linspace(edge - 1e-3, edge + 1e-3, 201))
    return np.array(pts)


def test_j1_matches_scipy_on_dense_grid():
    x = np.concatenate([np.linspace(0.0, 1500.0, 300_001), _regime_edges()])
    assert np.any(x < J1_SERIES_MAX) and np.any(x > J1_HANKEL_MIN)
    assert np.max(np.abs(_j1(x) - j1(x))) <= 2e-15


def test_j1_small_arguments():
    x = np.geomspace(1e-300, 2.0, 3001)
    assert np.max(np.abs(_j1(x) - j1(x))) <= 2e-15
    assert _j1(np.array([0.0]))[0] == 0.0
    # J1(x) = x/2 to first order; no underflow in (x/2)^2
    assert np.all(_j1(x[:100]) == x[:100] / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1500.0), min_size=1, max_size=50))
def test_j1_matches_scipy_property(xs):
    x = np.array(xs)
    assert np.max(np.abs(_j1(x) - j1(x))) <= 2e-15


# --- memory guard (estimates only; nothing large is allocated) ---------------


@pytest.mark.parametrize(
    "n,n_freqs,n_directions,name,size",
    [
        (100, 1, 3601, "lattice FFT", 16 * 200**2),  # fig5 pattern
        (75, 161, 0, "power kernel", 8 * 161 * 2850),  # fig6 squint
        (1, 201, 0, "power kernel", 8 * 201 * 21),  # one cell: the beam track is wider
        (20, 1, 1_000_001, "cut", 16 * 1_000_001),
        (200_000, 1, 0, "lattice FFT", 16 * 400_000**2),
        (75, 200_000_001, 0, "power kernel", 8 * 200_000_001 * 2850),
    ],
)
def test_largest_array_estimate(n, n_freqs, n_directions, name, size):
    assert _largest_array(n, n_freqs, n_directions) == (name, size)


@pytest.mark.parametrize(
    "n,n_freqs,n_directions,refused",
    [
        (100, 1, 3601, False),
        (75, 161, 0, False),
        (4096, 1, 0, False),  # exactly 1 GiB of FFT
        (4097, 1, 0, True),
        (200_000, 1, 0, True),  # pattern, n_per_side = 200000
        (75, 200_000_001, 0, True),  # squint, n_samples = 200000001
        (20, 1, int(math.pi / math.radians(1e-9)) + 1, True),  # pattern --cut-step-deg 1e-9
    ],
)
def test_check_array_budget(n, n_freqs, n_directions, refused):
    if refused:
        with pytest.raises(ValueError, match="GiB limit"):
            check_array_budget(n, n_freqs, n_directions)
    else:
        check_array_budget(n, n_freqs, n_directions)


def test_peak_location_matches_programmed_angle():
    ap = ApertureSpec.from_element_grid(40, F140)
    for theta_deg in (20.0, 37.0, 55.0):
        prof = synthesize_profile(ap, BROADSIDE, Direction.from_degrees(theta_deg, 0.0))
        pat = array_factor_fft(prof, F140, uv_oversample=8)
        _, upk, vpk = pat.peak_uv()
        step = pat.ax1[1] - pat.ax1[0]
        assert abs(upk - math.sin(math.radians(theta_deg))) <= step
        assert abs(vpk) <= step


def test_directivity_invariant_to_amplitude_scale():
    ap = ApertureSpec.from_element_grid(24, F140)
    prof = synthesize_profile(ap, BROADSIDE, OUT45, TaperSpec(-10.0))
    half = PhaseProfile(0.5 * prof.coefficients, F140, prof.cell_pitch_m)
    g1 = gain_at(prof, F140, OUT45)
    g2 = gain_at(half, F140, OUT45)
    assert g1 == pytest.approx(g2, abs=1e-9)


def test_gain_at_agrees_with_directivity_route():
    ap = ApertureSpec.from_element_grid(50, F140)
    prof = synthesize_profile(ap, BROADSIDE, OUT45, TaperSpec(-10.0))
    peak, _ = directivity(prof).peak_directivity()
    assert gain_at(prof, F140, OUT45) == pytest.approx(peak, abs=0.1)


def test_principal_plane_cut_peaks_at_steer_angle():
    ap = ApertureSpec.from_element_grid(30, F140)
    prof = synthesize_profile(ap, BROADSIDE, Direction.from_degrees(25.0))
    theta_deg, dbi = principal_plane_cut(prof, F140, phi=0.0, theta_step=math.radians(0.1))
    assert theta_deg[int(np.argmax(dbi))] == pytest.approx(25.0, abs=0.3)


# --- field kernel against the direct-sum oracle ------------------------------


def _field_from_dbi(dbi, power):
    """|E| recovered from directivity in dBi and the hemisphere power."""
    return np.sqrt(10.0 ** (np.asarray(dbi) / 10.0) * power / (4.0 * math.pi))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 16),
    cols=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    f_ghz=st.floats(100.0, 300.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    theta=st.floats(0.0, 1.5),
)
def test_cut_and_gain_match_direct_oracle(rows, cols, seed, f_ghz, phi, theta):
    prof = _random_lattice(rows, cols, np.random.default_rng(seed))
    f = Frequency.from_ghz(f_ghz)

    theta_deg, dbi = principal_plane_cut(prof, f, phi, math.radians(0.1), total_power=1.0)
    signed = np.radians(theta_deg)
    dirs = [Direction(abs(t), phi if t >= 0 else phi + math.pi) for t in signed]
    direct = np.abs(array_factor_direct(prof, f, dirs))
    peak = np.max(direct)
    assert np.max(np.abs(_field_from_dbi(dbi, 1.0) - direct)) < 1e-9 * peak

    d = Direction(theta, phi)
    e = abs(array_factor_direct(prof, f, [d])[0])
    power = hemisphere_power_exact(prof, f)
    assert abs(_field_from_dbi(gain_at(prof, f, d), power) - e) < 1e-9 * peak


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(24, 40),
    f_ghz=st.floats(100.0, 300.0),
    theta_deg=st.floats(25.0, 60.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    edge_db=st.floats(-12.0, 0.0),
)
def test_squint_gain_trace_matches_direct_oracle(n, f_ghz, theta_deg, phi, edge_db):
    f0 = Frequency.from_ghz(f_ghz)
    ap = ApertureSpec.from_element_grid(n, f0)
    target = Direction(math.radians(theta_deg), phi)
    taper = TaperSpec(edge_db)
    report = squint_sweep(ap, BROADSIDE, target, taper, f_span_hz=0.5 * f0.hertz, n_samples=21)
    prof = synthesize_profile(ap, BROADSIDE, target, taper)
    direct = np.array(
        [abs(array_factor_direct(prof, Frequency(f), [target])[0]) for f in report.freq_hz]
    )
    power = np.array([hemisphere_power_exact(prof, Frequency(f)) for f in report.freq_hz])
    peak = np.sum(np.abs(prof.coefficients))
    assert np.max(np.abs(_field_from_dbi(report.gain_dbi, power) - direct)) < 1e-9 * peak


# --- quantization loss ------------------------------------------------------


def test_quantization_loss_follows_sinc_law():
    # 37 deg steering keeps the gradient incommensurate with the levels
    ap = ApertureSpec.from_element_grid(40, F140)
    report = quantization_loss(ap, Direction.from_degrees(37.0), [1, 2, 3], TaperSpec(-10.0))
    for bits, loss in zip(report.bits, report.losses_db):
        delta = math.pi / 2**bits
        law = -20.0 * math.log10(math.sin(delta) / delta)
        tolerance = {1: 0.5, 2: 0.3, 3: 0.15}[bits]
        assert loss == pytest.approx(law, abs=tolerance)


def test_peak_directivity_nondecreasing_in_bits():
    ap = ApertureSpec.from_element_grid(40, F140)
    report = quantization_loss(ap, Direction.from_degrees(37.0), [1, 2, 3], TaperSpec(-10.0))
    ladder = report.peak_dbi + [report.continuous_dbi]
    assert all(a <= b + 1e-9 for a, b in zip(ladder, ladder[1:]))


def test_quantization_loss_matches_quadrature():
    # off the x axis, so a cut in the wrong plane would miss the beam peak
    ap = ApertureSpec.from_element_grid(24, F140)
    target = Direction.from_degrees(37.0, 30.0)
    taper = TaperSpec(-10.0)
    report = quantization_loss(ap, target, [2], taper)
    continuous = synthesize_profile(ap, BROADSIDE, target, taper)
    step = math.radians(0.1)
    d_cont, _ = directivity(continuous, grid_resolution=step).peak_directivity()
    d_2bit, _ = directivity(quantize_profile(continuous, 2), grid_resolution=step).peak_directivity()
    assert report.losses_db[0] == pytest.approx(d_cont - d_2bit, abs=0.01)


# --- squint -----------------------------------------------------------------


def test_squint_report_shape_and_peak():
    ap = ApertureSpec(0.080, F140)
    report = squint_sweep(ap, BROADSIDE, OUT45, TaperSpec(-10.0))
    mid = report.freq_hz.size // 2
    assert report.freq_hz[mid] == pytest.approx(F140.hertz, abs=1.0)
    assert report.freq_hz[0] < F140.hertz < report.freq_hz[-1]
    # trace peaks at f0 (within 0.01 dB)
    assert np.max(report.gain_dbi) - report.gain_dbi[mid] <= 0.01
    assert report.bw_3db_hz > 0
    assert report.fractional_bw_pct == pytest.approx(100.0 * report.bw_3db_hz / F140.hertz, rel=1e-12)


def test_squint_beam_moves_toward_broadside_above_f0():
    ap = ApertureSpec.from_element_grid(16, F140)
    prof = synthesize_profile(ap, BROADSIDE, Direction.from_degrees(40.0))
    f_hi = Frequency(1.05 * F140.hertz)
    pat = array_factor_fft(prof, f_hi, uv_oversample=16)
    _, upk, _ = pat.peak_uv()
    expected = math.sin(math.radians(40.0)) / 1.05
    step = pat.ax1[1] - pat.ax1[0]
    assert abs(upk - expected) <= step
    assert upk < math.sin(math.radians(40.0))


def test_squint_broadside_saturates():
    ap = ApertureSpec(0.080, F140)
    report = squint_sweep(ap, BROADSIDE, BROADSIDE, TaperSpec(-10.0), f_span_hz=20e9)
    assert report.saturated
    assert report.bw_3db_hz == pytest.approx(20e9, rel=1e-12)


def test_squint_narrow_span_raises():
    ap = ApertureSpec(0.080, F140)
    with pytest.raises(FrequencySpanError, match="increase f_span"):
        squint_sweep(ap, BROADSIDE, Direction.from_degrees(10.0), TaperSpec(-10.0), f_span_hz=20e9)


def test_squint_parameter_validation():
    ap = ApertureSpec(0.080, F140)
    with pytest.raises(ValueError):
        squint_sweep(ap, BROADSIDE, OUT45, n_samples=10)  # even
    with pytest.raises(ValueError):
        squint_sweep(ap, BROADSIDE, OUT45, n_samples=9)  # too few
    with pytest.raises(ValueError):
        squint_sweep(ap, BROADSIDE, OUT45, f_span_hz=200e9)  # wider than f0


def test_squint_bandwidth_shrinks_with_angle():
    ap = ApertureSpec(0.080, F140)
    reports = squint_vs_angle(
        ap,
        BROADSIDE,
        [Direction.from_degrees(t) for t in (30.0, 45.0, 60.0)],
        TaperSpec(-10.0),
        f_span_hz=30e9,
        n_samples=121,
    )
    bws = [r.bw_3db_hz for r in reports]
    assert bws[0] > bws[1] > bws[2]


@pytest.mark.parametrize("bits", [2, None])
def test_squint_vs_angle_equals_one_sweep_per_angle(bits):
    # the shared J1 table must give each angle exactly what its own sweep gives
    ap = ApertureSpec.from_element_grid(40, F140)
    targets = [Direction.from_degrees(t, 30.0) for t in (25.0, 40.0, 55.0)]
    taper = TaperSpec(-8.0)
    shared = squint_vs_angle(ap, BROADSIDE, targets, taper, bits, 30e9, 61)
    for target, report in zip(targets, shared):
        single = squint_sweep(ap, BROADSIDE, target, taper, bits, 30e9, 61)
        assert np.array_equal(report.gain_dbi, single.gain_dbi)
        assert np.array_equal(report.peak_theta_rad, single.peak_theta_rad)
        assert report.hpbw_rad == single.hpbw_rad
        assert report.bw_3db_hz == single.bw_3db_hz


def test_squint_quantized_profile_runs():
    ap = ApertureSpec(0.080, F140)
    report = squint_sweep(ap, BROADSIDE, OUT45, TaperSpec(-10.0), bits=2)
    assert report.bw_3db_hz > 0


@pytest.fixture(scope="module")
def tracked_reports():
    ap = ApertureSpec(0.080, F140)
    targets = [Direction.from_degrees(t) for t in (30.0, 45.0, 60.0)]
    return squint_vs_angle(ap, BROADSIDE, targets, TaperSpec(-10.0), f_span_hz=40e9, n_samples=161)


def test_squint_hpbw_is_broadside_half_power_width(tracked_reports):
    hpbw = tracked_reports[0].hpbw_rad
    assert [r.hpbw_rad for r in tracked_reports] == pytest.approx([hpbw] * 3, rel=1e-12)
    flat = synthesize_profile(ApertureSpec(0.080, F140), BROADSIDE, BROADSIDE, TaperSpec(-10.0))
    e0, e_half = array_factor_direct(flat, F140, [BROADSIDE, Direction(hpbw / 2.0, 0.0)])
    assert 20.0 * math.log10(abs(e_half) / abs(e0)) == pytest.approx(-3.0, abs=1e-3)


def test_squint_peak_follows_beam_shift_law(tracked_reports):
    # the cos(theta) element power pulls the peak toward broadside, by about
    # 0.4% of the beamwidth at 30 deg and 1% at 45 deg on this panel
    for report in tracked_reports[:2]:
        sin0 = math.sin(report.target.theta)
        law = np.arcsin(sin0 * report.design_freq_hz / report.freq_hz)
        err = np.max(np.abs(report.peak_theta_rad - law))
        assert err < 0.05 * report.hpbw_rad


def test_squint_band_follows_tan_law(tracked_reports):
    for report in tracked_reports:
        expected = report.design_freq_hz * report.hpbw_rad / math.tan(report.target.theta)
        assert not report.saturated
        assert report.bw_3db_hz == pytest.approx(expected, rel=0.03)


def test_squint_beam_leaving_visible_region_is_out_of_band(tracked_reports):
    ap = ApertureSpec(0.080, F140)
    out60 = Direction.from_degrees(60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = squint_sweep(ap, BROADSIDE, out60, TaperSpec(-10.0), f_span_hz=0.6 * F140.hertz)
    invisible = math.sin(out60.theta) * F140.hertz / report.freq_hz > 1.0
    assert invisible.any()
    assert np.all(np.isfinite(report.peak_theta_rad))
    assert np.all(np.abs(report.peak_theta_rad[invisible] - out60.theta) > report.hpbw_rad / 2.0)
    assert math.isfinite(report.bw_3db_hz) and not report.saturated
    assert report.bw_3db_hz == pytest.approx(tracked_reports[2].bw_3db_hz, rel=0.02)


def test_squint_oblique_incidence_raises():
    # the field model has no incident-phase term, so an oblique-incidence
    # profile would radiate toward u_out - u_in; the sweep refuses it
    ap = ApertureSpec.from_element_grid(40, F140)
    with pytest.raises(ValueError, match="normal incidence"):
        squint_sweep(ap, Direction.from_degrees(30.0), OUT45, TaperSpec(-10.0))


def test_squint_target_past_element_pull_raises():
    # near grazing the cos(theta) element power holds the f0 peak more than
    # HPBW/2 short of the programmed angle, so there is no band to measure
    ap = ApertureSpec(0.080, F140)
    with pytest.raises(ValueError, match="beyond half"):
        squint_sweep(ap, BROADSIDE, Direction.from_degrees(80.0), TaperSpec(-10.0))


# --- codebook coverage (uses the pattern engine) -----------------------------


def test_codebook_scan_coverage():
    from thz_ris_planner.surface import generate_codebook

    ap = ApertureSpec.from_element_grid(16, F140)
    thetas = np.linspace(-60.0, 60.0, 31)
    targets = [Direction.from_degrees(abs(t), 0.0 if t >= 0 else 180.0) for t in thetas]
    book = generate_codebook(ap, targets, bits=2)
    assert len(book) == 31

    own_gain = np.array([gain_at(p, F140, d) for p, d in zip(book, targets)])
    # worst entry stays within the scan loss of the cos(theta) element pattern
    # plus quantization ripple (measured 3.8 dB at +-60 deg)
    assert own_gain.max() - own_gain.min() < 4.5

    # crossover: midpoints between adjacent beams are covered by a neighbor
    crossover = []
    for i in range(len(targets) - 1):
        tm = 0.5 * (thetas[i] + thetas[i + 1])
        dm = Direction.from_degrees(abs(tm), 0.0 if tm >= 0 else 180.0)
        best = max(gain_at(book[i], F140, dm), gain_at(book[i + 1], F140, dm))
        crossover.append(min(own_gain[i], own_gain[i + 1]) - best)
    assert max(crossover) < 3.0
