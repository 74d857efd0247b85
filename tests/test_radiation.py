import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import j1

from thz_ris_planner import core, radiation
from thz_ris_planner.aperture import ApertureSpec
from thz_ris_planner.core import (
    BROADSIDE,
    PEAK_WINDOW,
    SPEED_OF_LIGHT,
    Direction,
    Frequency,
    _fast_length,
    _largest_array,
    _wavenumber,
    check_array_budget,
)
from thz_ris_planner.radiation import (
    FIELD_CHUNK,
    J1_BLOCK_BYTES,
    J1_HANKEL_MIN,
    J1_SERIES_MAX,
    _HANKEL_P,
    _HANKEL_Q,
    _SERIES,
    _element_factor,
    _closed_form_power,
    _half_corr,
    _cos_sin_table,
    _field,
    _j1,
    _k_phases,
    _lag_radii,
    _modulate,
    _parity_fold,
    _polynomial,
    _radial_corr,
    _track_beam_peak,
    array_factor_direct,
    array_factor_fft,
    directivity,
    gain_at,
    hemisphere_power_exact,
    principal_plane_cut,
    quantization_loss,
    quantized_cuts,
    squint_sweep,
    squint_vs_angle,
)
from thz_ris_planner.surface import PhaseProfile, TaperSpec, quantize_profile, synthesize_profile

from conftest import gradient_phasor, traced_peak

F140 = Frequency.from_ghz(140)
OUT45 = Direction.from_degrees(45)


def _random_profile(n, rng):
    ap = ApertureSpec.from_element_grid(n, F140)
    phasor = gradient_phasor(  # a random wrapped gradient, drawn as an oblique synthesis would program it
        ap,
        Direction(rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi)),
        Direction(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi)),
    )
    amps = rng.uniform(0.2, 1.0, (n, n))
    return PhaseProfile(amps * np.exp(1j * np.angle(phasor)), F140, ap.cell_pitch_m)


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
    with pytest.raises(ValueError, match="uv_oversample"):
        array_factor_fft(prof, F140, uv_oversample=0)


@pytest.mark.parametrize("oversample", [True, 2.5, 2.0, math.nan, "2"])
def test_fft_refuses_an_oversample_that_is_not_an_integer(oversample):
    prof = _random_lattice(3, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="uv_oversample must be an integer") as raised:
        array_factor_fft(prof, F140, uv_oversample=oversample)
    assert "\n" not in str(raised.value)


def test_fft_takes_a_numpy_integer_oversample():
    prof = _random_lattice(3, 4, np.random.default_rng(0))
    a, b = array_factor_fft(prof, F140, uv_oversample=np.int64(3)), array_factor_fft(prof, F140, uv_oversample=3)
    assert np.array_equal(a.field, b.field, equal_nan=True)


def test_fft_refuses_a_lattice_over_the_budget_before_allocating_it(monkeypatch):
    prof = _random_lattice(2, 3, np.random.default_rng(0))

    def refuse(oversample):
        with pytest.raises(ValueError, match="GiB limit") as raised:
            array_factor_fft(prof, F140, uv_oversample=oversample)
        return raised.value

    error, peak = traced_peak(refuse, 10**9)  # a 954 GiB lattice
    assert "\n" not in str(error) and peak < 2**16
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 16 * 8 * 12 - 1)
    refuse(4)
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 16 * 8 * 12)
    assert array_factor_fft(prof, F140, uv_oversample=4).field.shape == (8, 12)


@pytest.mark.parametrize("n,oversample", [(100, 2), (300, 2), (128, 4)])
def test_fft_holds_at_most_three_lattices(n, oversample):
    # the shifted spectrum is the field, scaled, centred and masked in place
    prof = _random_lattice(n, n, np.random.default_rng(n))
    _, peak = traced_peak(array_factor_fft, prof, F140, oversample)
    assert peak <= 3 * 16 * (n * oversample) ** 2


def test_fft_of_a_pitch_far_below_the_wavelength_sees_only_its_dc_bin():
    # lambda / pitch overflows, so every lattice point but u = v = 0 lies at infinity
    ap = ApertureSpec.from_element_grid(4, F140, cell_pitch_m=1e-314)
    pat = array_factor_fft(synthesize_profile(ap, BROADSIDE, BROADSIDE), F140, uv_oversample=1)
    visible = np.isfinite(pat.field)
    assert np.count_nonzero(visible) == 1
    assert pat.field[visible][0] == pytest.approx(16.0 + 0.0j, abs=1e-9)


def test_fft_visible_region_scales_with_frequency():
    ap = ApertureSpec.from_element_grid(16, F140)
    prof = synthesize_profile(ap, BROADSIDE, OUT45)
    lo = array_factor_fft(prof, Frequency(0.9 * F140.hertz), uv_oversample=2)
    hi = array_factor_fft(prof, Frequency(1.1 * F140.hertz), uv_oversample=2)
    # lattice extent in u is lambda/pitch wide, so it shrinks as f grows
    assert np.max(np.abs(lo.ax1)) == pytest.approx(np.max(np.abs(hi.ax1)) * 1.1 / 0.9, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 16),
    cols=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    oversample=st.integers(1, 4),
    pitch_wl=st.floats(0.2, 1.0),
    f_scale=st.floats(0.7, 1.3),
)
def test_fft_matches_direct_property(rows, cols, seed, oversample, pitch_wl, f_scale):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.0, 1.0, (rows, cols)) * np.exp(2j * math.pi * rng.random((rows, cols)))
    prof = PhaseProfile(coeffs, F140, pitch_wl * F140.wavelength_m)
    f = Frequency(f_scale * F140.hertz)
    pat = array_factor_fft(prof, f, uv_oversample=oversample)
    peak = np.nanmax(np.abs(pat.field))
    uu, vv = np.meshgrid(pat.ax1, pat.ax2, indexing="ij")
    # at the horizon sqrt(cos(theta)) is ill-conditioned in the asin round
    # trip to a Direction, not in the FFT, so the last 1e-6 of r^2 is left out
    inside = np.argwhere(uu**2 + vv**2 < 1.0 - 1e-6)
    pick = inside[rng.choice(len(inside), min(30, len(inside)), replace=False)]
    dirs = [
        Direction(math.asin(math.hypot(pat.ax1[i], pat.ax2[j])), math.atan2(pat.ax2[j], pat.ax1[i]))
        for i, j in pick
    ]
    fft_vals = np.array([pat.field[i, j] for i, j in pick])
    assert np.max(np.abs(fft_vals - array_factor_direct(prof, f, dirs))) <= 1e-9 * peak


# --- directivity ------------------------------------------------------------


@pytest.fixture(scope="module")
def broadside_100():
    """The uniform, broadside 100x100 profile at 140 GHz and its quadrature pattern."""
    prof = synthesize_profile(ApertureSpec.from_element_grid(100, F140), BROADSIDE, BROADSIDE)
    return prof, directivity(prof)


def test_broadside_directivity_anchor(broadside_100):
    # uniform 100x100 half-wavelength grid: 4*pi*A/lambda^2 = 44.97 dBi
    peak, at = broadside_100[1].peak_directivity()
    assert peak == pytest.approx(44.97, abs=0.3)
    assert at.theta == pytest.approx(0.0, abs=math.radians(0.1))


def test_steered_projected_aperture_loss(broadside_100):
    ap = ApertureSpec.from_element_grid(100, F140)
    broadside = broadside_100[1].peak_directivity()[0]
    steered = directivity(synthesize_profile(ap, BROADSIDE, OUT45)).peak_directivity()[0]
    assert broadside - steered == pytest.approx(-10.0 * math.log10(math.cos(math.pi / 4)), abs=0.4)


def test_single_element_directivity():
    # cos(theta) element power over the hemisphere integrates to pi, so
    # D = 4*pi/pi = 6.02 dBi
    prof = PhaseProfile(np.ones((1, 1), dtype=complex), F140, 1e-3)
    assert gain_at(prof, F140, BROADSIDE) == pytest.approx(6.0206, abs=1e-3)


def test_gain_at_exact_null_reads_minus_inf():
    # two antiphase cells cancel exactly at broadside
    prof = PhaseProfile(np.array([[1.0], [-1.0]], dtype=complex), F140, F140.wavelength_m / 2)
    assert gain_at(prof, F140, BROADSIDE) == -math.inf


def test_directivity_grid_guard():
    ap = ApertureSpec.from_element_grid(100, F140)
    prof = synthesize_profile(ap, BROADSIDE, BROADSIDE)
    with pytest.raises(ValueError, match="use at most"):
        directivity(prof, grid_resolution=math.radians(2.0))


def test_hemisphere_energy_closure(broadside_100):
    # quadrature normalization against the closed-form lattice integral
    steered = synthesize_profile(ApertureSpec.from_element_grid(100, F140), BROADSIDE, OUT45, TaperSpec(-10.0))
    for prof, pat in (broadside_100, (steered, directivity(steered))):
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(rows=7, cols=7, seed=1)  # 2n-1 = 13 is prime, padded to 15
@example(rows=4, cols=9, seed=2)  # 7 and 17 are prime, padded to 8 and 18
@example(rows=8, cols=3, seed=3)  # 15 and 5 are 5-smooth already
@example(rows=1, cols=6, seed=4)  # a single row: the j = 0 column is the zero lag alone
@example(rows=5, cols=1, seed=5)  # a single column: the half lattice is the j = 0 column
def test_half_lattice_fold_matches_pair_sum_property(rows, cols, seed):
    # every element pair, summed without the half-lattice weights or the
    # padded transform, at three wavenumber scales
    prof = _random_lattice(rows, cols, np.random.default_rng(seed))
    gx, gy = np.meshgrid(prof.x_m, prof.y_m, indexing="ij")
    c, px, py = prof.coefficients.ravel(), gx.ravel(), gy.ravel()
    dist = np.hypot(px[:, None] - px[None, :], py[:, None] - py[None, :])
    pair = (c[:, None] * np.conj(c[None, :])).real
    for scale in (0.7, 1.0, 1.3):
        f = Frequency(scale * F140.hertz)
        kd = 2.0 * math.pi / f.wavelength_m * dist
        kernel = np.full(kd.shape, math.pi)
        np.divide(2.0 * math.pi * j1(kd), kd, out=kernel, where=kd > 0.0)
        expected = float(np.sum(pair * kernel))
        assert hemisphere_power_exact(prof, f) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(rows=st.integers(2, 12), cols=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_closed_form_power_matches_quadrature_property(rows, cols, seed):
    prof = _random_lattice(rows, cols, np.random.default_rng(seed))
    quadrature = directivity(prof, grid_resolution=math.radians(0.25)).total_power
    assert abs(10.0 * math.log10(hemisphere_power_exact(prof) / quadrature)) < 0.01


def _invariant_profile(kind, n, seed):
    """A random lattice, or a tapered profile steered at random and, if quantised, snapped to 1-3 bits."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return _random_lattice(n, n, rng)
    ap = ApertureSpec.from_element_grid(n, F140)
    target = Direction(rng.uniform(0.0, 1.2), rng.uniform(0.0, 2.0 * math.pi))
    prof = synthesize_profile(ap, BROADSIDE, target, TaperSpec(rng.uniform(-15.0, 0.0)))
    return prof if kind == "steered" else quantize_profile(prof, int(rng.integers(1, 4)))


def _k2_power_and_cell_power(prof, k):
    """(k^2 P(k) from _closed_form_power, (2 pi/pitch)^2 sum |c|^2: the power of one period cell of AF)."""
    radius_index, squared = _lag_radii(prof.rows, prof.cols)
    corr = _radial_corr(prof, radius_index)[:, None]
    k2p = k**2 * _closed_form_power(prof.cell_pitch_m, squared, k, corr)[:, 0]
    return k2p, (2.0 * math.pi / prof.cell_pitch_m) ** 2 * float(np.sum(np.abs(prof.coefficients) ** 2))


# k^2 P(k) is the integral of |AF(q)|^2 over the disk |q| <= k; the route
# through _k_phases' coarse x fine grid and one plain exp per k differ by at
# most 4.3e-15 of the cell power at 200^2, so 1e-12 of it is rounding
INVARIANT_ROUNDING = 1e-12
PROFILE_KINDS = st.sampled_from(["random", "steered", "quantised"])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    kind=PROFILE_KINDS,
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    span=st.floats(0.02, 0.98),
    n_samples=st.integers(5, 40).map(lambda h: 2 * h + 1),
)
@example(kind="steered", n=200, seed=0, span=0.98, n_samples=81)
def test_closed_form_power_disk_integral_never_shrinks_property(kind, n, seed, span, n_samples):
    # on the uniform k grid of a squint_vs_angle band around f0, where the
    # pitch is half a wavelength and so k0 = pi/pitch lies mid-band
    prof = _invariant_profile(kind, n, seed)
    f0 = prof.design_freq.hertz
    k = 2.0 * math.pi * (f0 + np.linspace(-span * f0 / 2.0, span * f0 / 2.0, n_samples)) / SPEED_OF_LIGHT
    k2p, cell = _k2_power_and_cell_power(prof, k)
    assert np.min(np.diff(k2p)) >= -INVARIANT_ROUNDING * cell


@settings(max_examples=15, deadline=None, derandomize=True)
@given(kind=PROFILE_KINDS, n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
@example(kind="steered", n=200, seed=0)
def test_closed_form_power_obeys_parseval_on_a_period_cell_property(kind, n, seed):
    # AF is periodic in q with period 2 pi/pitch: the disk of radius pi/pitch
    # fits in one period cell, and that of radius sqrt(2) pi/pitch covers one
    prof = _invariant_profile(kind, n, seed)
    inscribed = math.pi / prof.cell_pitch_m
    (inside, covering), cell = _k2_power_and_cell_power(prof, np.array([inscribed, math.sqrt(2.0) * inscribed]))
    assert inside <= cell * (1.0 + INVARIANT_ROUNDING)
    assert covering >= cell * (1.0 - INVARIANT_ROUNDING)


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


def _plain_j1(x):
    """_j1 of x with the plain-exp phase np.exp(1j * x)."""
    x = np.asarray(x, dtype=float)
    return _j1(x, np.exp(1j * x))


def test_j1_matches_scipy_on_dense_grid():
    x = np.concatenate([np.linspace(0.0, 1500.0, 300_001), _regime_edges()])
    assert np.any(x < J1_SERIES_MAX) and np.any(x > J1_HANKEL_MIN)
    assert np.max(np.abs(_plain_j1(x) - j1(x))) <= 2e-15


def test_j1_small_arguments():
    x = np.geomspace(1e-300, 2.0, 3001)
    assert np.max(np.abs(_plain_j1(x) - j1(x))) <= 2e-15
    assert _plain_j1(np.array([0.0]))[0] == 0.0
    # J1(x) = x/2 to first order; no underflow in (x/2)^2
    assert np.all(_plain_j1(x[:100]) == x[:100] / 2.0)


def test_j1_on_mixed_regime_table():
    # a (k, rho) block such as _closed_form_power passes to _j1, within
    # J1_BLOCK_BYTES: every row holds 0, 1e-300 and both sides of each regime
    # edge next to k*rho values that run through all three regimes, so no row
    # is a single regime
    specials = np.concatenate([[0.0, 1e-300], _regime_edges()])
    k = np.array([0.5, 1.0, 1.7, 3.0])
    rho = np.linspace(0.0, 400.0, 2001)
    x = np.hstack([np.tile(specials, (k.size, 1)), np.outer(k, rho)])
    for row in x:
        assert row.min() == 0.0 and np.any((J1_SERIES_MAX < row) & (row <= J1_HANKEL_MIN))
        assert row.max() > J1_HANKEL_MIN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _plain_j1(x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - j1(x))) <= 2e-15
    assert np.all(got[:, 0] == 0.0)


def test_j1_runs_no_regime_without_entries(monkeypatch):
    # a block wholly above J1_HANKEL_MIN never enters the Miller loop or the
    # series, and one wholly in Miller's regime never enters the series
    hankel = np.linspace(np.nextafter(J1_HANKEL_MIN, np.inf), 3000.0, 16384)
    miller = np.linspace(np.nextafter(J1_SERIES_MAX, np.inf), J1_HANKEL_MIN, 1001)
    expected = _plain_j1(hankel), _plain_j1(miller)
    monkeypatch.setattr(radiation, "_SERIES", None)
    assert np.array_equal(_plain_j1(miller).view(np.uint64), expected[1].view(np.uint64))
    monkeypatch.setattr(radiation, "MILLER_ORDER", None)
    assert np.array_equal(_plain_j1(hankel).view(np.uint64), expected[0].view(np.uint64))
    assert _plain_j1(np.empty(0)).size == 0
    with pytest.raises(TypeError):  # the patched constants are read when a regime has entries
        _plain_j1(np.array([30.0, 10.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1500.0), min_size=1, max_size=50))
def test_j1_matches_scipy_property(xs):
    x = np.array(xs)
    assert np.max(np.abs(_plain_j1(x) - j1(x))) <= 2e-15


def test_polynomial_is_horner_from_zero_bit_for_bit():
    rng = np.random.default_rng(7)
    t = np.concatenate([rng.uniform(-2.0, 2.0, 1000), 1.0 / rng.uniform(25.0, 1500.0, 1000) ** 2, [0.0, -0.0]])
    for coefficients in (_SERIES, _HANKEL_P, _HANKEL_Q):
        horner = np.zeros_like(t)
        for c in reversed(coefficients):
            horner = horner * t + c
        assert np.array_equal(_polynomial(coefficients, t).view(np.uint64), horner.view(np.uint64))
    # at x = 0 the Hankel argument 1/x^2 is inf, where either start gives no
    # finite value; _j1 overwrites those entries with the series
    with np.errstate(all="ignore"):
        assert not np.any(np.isfinite(_polynomial(_HANKEL_P, np.array([np.inf]))))
    assert np.array_equal(_plain_j1(np.array([0.0, 30.0, 0.0]))[[0, 2]], [0.0, 0.0])


# --- the radial correlation, transformed in blocks ----------------------------


def _radial_corr_whole(p, radius_index):
    """_radial_corr by one fft2 and one rfft2 over the whole padded lattice: the bits its blocks must give."""
    lx, ly = _fast_length(2 * p.rows - 1), _fast_length(2 * p.cols - 1)
    spectrum = np.fft.fft2(p.coefficients, s=(lx, ly))
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    lags = np.r_[0 : p.rows, lx - p.rows + 1 : lx]
    corr = np.fft.rfft2(power)[lags, : p.cols].real / (lx * ly)
    corr[:, 1:] *= 2.0
    return np.bincount(radius_index, weights=corr.ravel())


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    bits=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    budget_frac=st.floats(0.0, 1.0),
)
@example(rows=1, cols=1, bits=None, seed=0, budget_frac=1.0)
@example(rows=7, cols=12, bits=1, seed=1, budget_frac=0.5)
@example(rows=35, cols=35, bits=None, seed=2, budget_frac=1.0)
def test_blocked_radial_corr_equals_the_whole_lattice_route_property(rows, cols, bits, seed, budget_frac):
    # a budget of at most 16 * L * (cols // 3) bytes splits each pass into
    # three blocks or more wherever the lattice has three lines to split
    prof = _random_lattice(rows, cols, np.random.default_rng(seed))
    if bits is not None:
        prof = quantize_profile(prof, bits)
    radius_index, _ = _lag_radii(rows, cols)
    whole = _radial_corr_whole(prof, radius_index)
    lx = _fast_length(2 * rows - 1)
    budget = max(1, int(budget_frac * 16 * lx * max(1, cols // 3)))
    calls = {"fft": 0, "rfft": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radiation, "FFT_BLOCK_BYTES", budget)
        mp.setattr(np.fft, "fft", _counting(calls, "fft", np.fft.fft))
        mp.setattr(np.fft, "rfft", _counting(calls, "rfft", np.fft.rfft))
        blocked = _radial_corr(prof, radius_index)
    assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))
    if rows >= 2 and cols >= 3:  # the rows, then three blocks per column pass
        assert calls["fft"] >= 1 + 3 + 3 and calls["rfft"] >= 3, calls


def test_radial_corr_blocks_hold_at_most_half_of_the_whole_lattice_route():
    # 301^2 pads to 625^2: the whole route holds the complex spectrum, its
    # power and the rfft2 output; the blocks the power and a half spectrum
    prof = _random_lattice(301, 301, np.random.default_rng(301))
    radius_index, _ = _lag_radii(301, 301)
    whole, whole_peak = traced_peak(_radial_corr_whole, prof, radius_index)
    blocked, peak = traced_peak(_radial_corr, prof, radius_index)
    assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))
    assert peak <= whole_peak / 2


# --- the J1 power kernel, contracted in blocks ---------------------------------

SQUINT_SHAPES = ((34, 81), (46, 161), (52, 101), (56, 121), (70, 81))  # (n, frequencies) of the squint benchmark


def _one_j1_call(rows, cols, pitch, k):
    """2*pi*J1(k rho)/(k rho) from one _j1 call on the whole (k, distinct nonzero radius) table.

    Its phases come from one _k_phases call on every k.
    """
    rho = _radii(rows, cols, pitch)
    kr = np.outer(k, rho)
    return _j1(kr, _k_phases(k, rho)) * (2.0 * math.pi) / kr


def _radii(rows, cols, pitch):
    """The distinct nonzero lag radii of a rows x cols lattice, ascending."""
    return pitch * np.sqrt(np.unique(np.add.outer(np.arange(rows) ** 2, np.arange(cols) ** 2))[1:])


def _kernel_columns(rows, cols, pitch, k, radii):
    """Kernel columns radii (of the distinct nonzero radii) as the contraction gives them.

    Against a one-hot column of G the power is that kernel column exactly:
    the zero lag adds pi * 0, the other radii x * 0, and the one x * 1.
    """
    _, squared = _lag_radii(rows, cols)
    one_hot = np.zeros((squared.size, radii.size))
    one_hot[1 + radii, np.arange(radii.size)] = 1.0
    return _closed_form_power(pitch, squared, k, one_hot)


@pytest.mark.parametrize(
    "entries,rows,cols,k",
    [
        (12, 3, 3, np.linspace(500.0, 3000.0, 5)),  # 5 radii: every k by 2 radii a block, then by 1
        (12, 6, 6, np.array([3000.0])),  # one k whose row is longer than the budget
        (12, 6, 5, np.linspace(500.0, 3000.0, 3)),  # every k by 4 radii a block
        *((J1_BLOCK_BYTES // 8, n, n, 2.0 * math.pi / F140.wavelength_m * np.linspace(0.85, 1.15, size))
          for n, size in SQUINT_SHAPES),
        (12, 4, 4, np.linspace(2e4, 3e4, 40)),  # 40 k, longer than the budget: 7 k (the stride) by 1 radius a block
        (12, 6, 6, np.array([1e5])),  # one k, all its radii in the Hankel regime
        (J1_BLOCK_BYTES // 8, 300, 300, np.array([2e3])),  # one k whose row spans two blocks at the real budget
    ],
)
def test_power_kernel_blocks_equal_one_j1_call(monkeypatch, entries, rows, cols, k):
    monkeypatch.setattr(radiation, "J1_BLOCK_BYTES", 8 * entries)
    pitch = F140.wavelength_m / 2.0
    expected = _one_j1_call(rows, cols, pitch, k)
    assert expected.size > entries  # more than one block
    n_radii = expected.shape[1]
    if n_radii <= 4096:
        radii = np.arange(n_radii)
    else:  # a sample of the radii of every block, with both sides of each block edge
        edges = np.arange(entries, n_radii, entries)
        radii = np.unique(np.r_[np.linspace(0, n_radii - 1, 257).astype(int), edges - 1, edges])
        assert edges.size > 0
    columns = _kernel_columns(rows, cols, pitch, k, radii)
    assert np.array_equal(columns.view(np.uint64), expected[:, radii].view(np.uint64))
    if k.size == 1:  # one plain exp per entry, bit for bit
        kr = np.outer(k, _radii(rows, cols, pitch)[radii])
        assert np.array_equal(columns.view(np.uint64), (_plain_j1(kr) * (2.0 * math.pi) / kr).view(np.uint64))

    # the streamed power of two profiles against one unblocked table product
    radius_index, squared = _lag_radii(rows, cols)
    rng = np.random.default_rng(rows * cols + k.size)
    corr = np.stack([_radial_corr(_random_lattice(rows, cols, rng), radius_index) for _ in range(2)], axis=1)
    unblocked = math.pi * corr[0] + expected @ corr[1:]
    streamed = _closed_form_power(pitch, squared, k, corr)
    assert np.max(np.abs(streamed / unblocked - 1.0)) <= 1e-14


def test_power_kernel_of_a_nonuniform_grid_takes_plain_sin_and_cos(monkeypatch):
    # a grid that is not uniform to within rounding has no coarse x fine
    # split, and a single k needs none: one plain exp per entry
    monkeypatch.setattr(radiation, "J1_BLOCK_BYTES", 8 * 12)
    pitch = F140.wavelength_m / 2.0
    rho = _radii(4, 4, pitch)
    for k in (np.geomspace(2e4, 3e4, 40), np.array([2e4])):
        kr = np.outer(k, rho)
        assert np.array_equal(_k_phases(k, rho).view(np.uint64), np.exp(1j * kr).view(np.uint64))
        columns = _kernel_columns(4, 4, pitch, k, np.arange(rho.size))
        assert np.array_equal(columns.view(np.uint64), (_plain_j1(kr) * (2.0 * math.pi) / kr).view(np.uint64))
    uniform = np.linspace(2e4, 3e4, 40)
    assert not np.array_equal(_k_phases(uniform, rho), np.exp(1j * np.outer(uniform, rho)))


@settings(max_examples=100, deadline=None)
@given(
    n_samples=st.integers(11, 1601),
    f0_ghz=st.floats(1.0, 1000.0),
    span=st.floats(0.01, 0.99),
    kr_max=st.floats(0.0, 3000.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_samples=1601, f0_ghz=140.0, span=40.0 / 140.0, kr_max=3000.0, seed=0)
def test_k_phases_and_j1_stay_accurate_property(n_samples, f0_ghz, span, kr_max, seed):
    # a squint frequency grid built as squint_vs_angle builds it, and radii with k rho up to kr_max
    f0 = f0_ghz * 1e9
    k = 2.0 * math.pi * (f0 + np.linspace(-span * f0 / 2.0, span * f0 / 2.0, n_samples)) / 299792458.0
    rho = np.random.default_rng(seed).uniform(0.0, kr_max / k[-1], 48)
    rho[0] = 0.0
    kr = np.outer(k, rho)
    phase = _k_phases(k, rho)
    exact = np.exp(1j * np.outer(k.astype(np.longdouble), rho.astype(np.longdouble)))
    assert np.max(np.abs(phase - exact)) <= 2.0 * np.finfo(float).eps * max(1.0, np.max(kr))
    assert np.max(np.abs(_j1(kr, phase) - j1(kr))) <= 2e-14


def _power_peak(n, k):
    """tracemalloc peaks (bytes) of the closed-form power of one n x n profile at 1 mm pitch.

    The peak of the whole route, of indexing the lag radii alone, and of the
    contraction with that index and G resident; and the bytes of G.
    """
    profile = PhaseProfile(np.exp(1j * np.arange(n * n).reshape(n, n)), F140, 1e-3)
    tracemalloc.start()
    try:
        radius_index, squared = _lag_radii(n, n)
        index_only = tracemalloc.get_traced_memory()[1]
        corr = _radial_corr(profile, radius_index)[:, None]
        before = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _closed_form_power(1e-3, squared, k, corr)
        contraction = tracemalloc.get_traced_memory()[1]
        return max(before, contraction), index_only, contraction, corr.nbytes
    finally:
        tracemalloc.stop()


def test_power_kernel_scratch_is_bounded_by_the_budget():
    # the contraction keeps no table: all it adds to the radius index and G
    # is the J1 scratch of a block, which the budget bounds whatever the
    # frequency count. The wavenumbers put k*rho in the series, Miller or
    # Hankel regime; Miller's recurrence holds the most buffers, about 14
    # budgets' worth.
    regimes = (5.0, 150.0, 1e5)
    cases = [(n, size, k_max) for n, sizes in ((9, (1, 161)), (33, (1, 40)), (64, (7, 161)))
             for size in sizes for k_max in regimes]
    cases += [(120, 161, 1e5), (120, 1, 150.0), (300, 1, 1e5)]
    assert _radii(300, 300, 1e-3).nbytes > J1_BLOCK_BYTES  # the one 300^2 row spans two blocks
    for n, size, k_max in cases:
        _, index_only, contraction, corr = _power_peak(n, np.linspace(k_max / 2.0, k_max, size))
        assert contraction - index_only - corr <= 16 * J1_BLOCK_BYTES, (n, size, k_max)


def test_power_kernel_of_a_squint_grid_longer_than_a_block():
    # 20001 frequencies over fig6's relative span at the real budget: each
    # block is every k by one radius, over J1_BLOCK_BYTES, and its entries are
    # still those of one call on the whole table. A 4^2 lattice at 1 mm pitch
    # puts every k*rho in Miller's regime, which holds the most J1 scratch.
    k = 2.0 * math.pi / F140.wavelength_m * np.linspace(6.0 / 7.0, 8.0 / 7.0, 20001)
    assert 8 * k.size > J1_BLOCK_BYTES
    kr = np.outer(k, _radii(4, 4, 1e-3))
    assert J1_SERIES_MAX < kr.min() and kr.max() <= J1_HANKEL_MIN
    expected = _one_j1_call(4, 4, 1e-3, k)
    columns = _kernel_columns(4, 4, 1e-3, k, np.arange(expected.shape[1]))
    assert np.array_equal(columns.view(np.uint64), expected.view(np.uint64))
    _, index_only, contraction, corr = _power_peak(4, k)
    assert contraction - index_only - corr <= 16 * 8 * k.size


def test_power_peak_does_not_grow_with_the_frequency_count():
    # a 100^2 panel over fig6's relative span: a J1 table would hold 4.7 MB
    # at 161 frequencies and 47 MB at 1601; the blocks that replace it do not
    # depend on the count, though their regime mix moves the J1 scratch a little
    k0 = 2.0 * math.pi / F140.wavelength_m
    runs = [_power_peak(100, k0 * np.linspace(6.0 / 7.0, 8.0 / 7.0, size)) for size in (161, 1601)]
    # the premise: the FFT of the radial correlation sets the peak, above the
    # contraction, whose J1 scratch moves with the regime mix of its blocks
    assert all(peak > contraction for peak, _, contraction, _ in runs), runs
    peaks = [run[0] for run in runs]
    assert abs(peaks[1] / peaks[0] - 1.0) <= 0.1, peaks


_THREADS_SCRIPT = """
import math, sys
import numpy as np
from thz_ris_planner import radiation
from thz_ris_planner.aperture import ApertureSpec
from thz_ris_planner.core import BROADSIDE, Direction, Frequency, _wavenumber
from thz_ris_planner.surface import TaperSpec, quantize_profile, synthesize_profile

f0 = Frequency.from_ghz(140)
prof = synthesize_profile(ApertureSpec.from_element_grid(200, f0), BROADSIDE, Direction.from_degrees(45.0),
                          TaperSpec(-10.0))
radius_index, squared = radiation._lag_radii(200, 200)
corr = np.asfortranarray(np.stack([radiation._radial_corr(prof if bits is None else quantize_profile(prof, bits),
                                                          radius_index) for bits in (1, 2, 3, None)], axis=1))
k0 = _wavenumber(f0.hertz)
q = k0 * np.sin(np.arange(-math.pi / 2, math.pi / 2 + 1e-12, math.radians(0.05)))  # a fig5 cut at 200^2
np.savez(sys.argv[1],
         one=radiation._closed_form_power(prof.cell_pitch_m, squared, np.array([k0]), corr),
         grid=radiation._closed_form_power(prof.cell_pitch_m, squared, k0 * np.linspace(0.85, 1.15, 41), corr),
         cut=radiation._field(prof, [radiation._parity_fold(prof.coefficients)], q, np.zeros_like(q)))
"""


def test_power_and_field_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # fig5's settings at 200^2: a BLAS product at one wavenumber sums the
    # 13 648 radii in an order that moves with the thread count, which moved
    # the 1- and 3-bit powers' last bits
    arrays = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = tmp_path / f"threads_{threads}.npz"
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(out)], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        with np.load(out) as saved:
            arrays.append({name: saved[name] for name in saved.files})
    for name in ("one", "grid", "cut"):
        assert np.array_equal(arrays[0][name].view(np.uint64), arrays[1][name].view(np.uint64)), name


def test_a_profiles_power_has_the_same_bits_alone_and_in_a_stack(monkeypatch):
    # each column is contracted on its own: one einsum over every column at
    # once gave these powers other bits than alone at 200^2 (more radii than
    # einsum's buffer holds), at one wavenumber
    prof = synthesize_profile(ApertureSpec.from_element_grid(200, F140), BROADSIDE, OUT45, TaperSpec(-10.0))
    settings = [1, 2, 3, None]
    alone = [hemisphere_power_exact(prof if b is None else quantize_profile(prof, b)) for b in settings]
    monkeypatch.setattr(radiation, "_cuts", lambda p, folded, f, phi, step, powers: powers)  # the powers, no field
    stacked = quantized_cuts(prof, settings, 0.0)
    assert np.array_equal(np.asarray(stacked).view(np.uint64), np.array(alone).view(np.uint64))

    powers = []  # of the squint: one angle of a 13-angle sweep against that angle alone
    positive_power = radiation._positive_power
    monkeypatch.setattr(radiation, "_positive_power", lambda *args: powers.append(positive_power(*args)) or powers[-1])
    angles = [Direction.from_degrees(theta) for theta in np.linspace(10.0, 70.0, 13)]  # fig6's sweep
    panel = ApertureSpec.from_element_grid(75, F140)
    for bits in (None, 2):
        powers.clear()
        squint_vs_angle(panel, BROADSIDE, angles, bits=bits, f_span_hz=40e9, n_samples=41)
        squint_vs_angle(panel, BROADSIDE, angles[7:8], bits=bits, f_span_hz=40e9, n_samples=41)
        assert np.array_equal(powers[0][:, 7].view(np.uint64), powers[1][:, 0].view(np.uint64)), bits


# --- memory guard (estimates only; nothing large is allocated) ---------------


@pytest.mark.parametrize(
    "n,n_freqs,n_directions,name,size",
    [
        (100, 1, 3601, "lattice FFT", 16 * 200**2),  # fig5 pattern
        (75, 161, 0, "lattice FFT", 16 * 150**2),  # fig6 squint at one angle
        (1, 201, 0, "beam track", 8 * 201 * 21),  # one cell
        (20, 1, 1_000_001, "cut", 16 * 1_000_001),
        (200_000, 1, 0, "lattice FFT", 16 * 400_000**2),
        (75, 200_000_001, 0, "beam track", 8 * 200_000_001 * 21),
        (70, 1, 0, "lattice FFT", 16 * 144**2),  # 2n - 1 = 139 is prime; the power FFT pads to 144
        (7, 1, 0, "lattice FFT", 16 * 15**2),  # 13 pads to 15, past 2n = 14
    ],
)
def test_largest_array_estimate(n, n_freqs, n_directions, name, size):
    assert _largest_array(n, n_freqs, n_directions) == (name, size)


@pytest.mark.parametrize(
    "n,n_freqs,n_angles,name,size",
    [
        (75, 161, 14, "lattice FFT", 16 * 150**2),  # fig6 squint: its 14 angles' correlations are smaller
        (75, 161, 1000, "radial correlation", 8 * 2850 * 1000),
        (1, 161, 1000, "squint power", 8 * 161 * 1000),
    ],
)
def test_largest_array_counts_every_squint_angle(n, n_freqs, n_angles, name, size):
    assert _largest_array(n, n_freqs, 0, n_angles) == (name, size)


def test_fast_length_is_the_least_5_smooth_length():
    smooth = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(7))
    for n in range(1, 5001):
        assert _fast_length(n) == next(m for m in smooth if m >= n), n
    # below 1 it starts at 1: a search from 0 divides by 2 forever, and one from a negative never reaches 1
    assert _fast_length(0) == _fast_length(-7) == 1
    check_array_budget(0)


def test_largest_array_seeks_the_fft_length_only_when_the_map_fits(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "_fast_length", lambda n: calls.append(n) or n)
    fits = math.isqrt(core.MAX_ARRAY_BYTES // 16) // 2  # largest n with 16 (2n)^2 in the limit
    _largest_array(fits + 1)
    assert calls == []
    _largest_array(fits)
    assert calls == [2 * fits - 1]


@pytest.mark.parametrize(
    "n,n_freqs,n_directions,refused",
    [
        (100, 1, 3601, False),
        (75, 161, 0, False),
        (4096, 1, 0, False),  # exactly 1 GiB of FFT
        (4097, 1, 0, True),
        (200_000, 1, 0, True),  # pattern, n_per_side = 200000
        (75, 200_000_001, 0, True),  # squint, n_samples = 200000001
        (560, 1601, 0, False),  # fig6 at side = 600 mm and n_samples = 1601
        (20, 1, int(math.pi / math.radians(1e-9)) + 1, True),  # a cut sampled every 1e-9 deg
        (10**15, 1, 0, True),  # refused on the (2n)^2 bound, before any FFT length is sought
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


@pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
def test_principal_plane_cut_refuses_a_bad_step(step):
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, BROADSIDE)
    with pytest.raises(ValueError, match="theta_step must be positive and finite"):
        principal_plane_cut(prof, theta_step=step)


@pytest.mark.parametrize("total_power", [0.0, -1.0, math.nan, math.inf])
def test_principal_plane_cut_refuses_a_bad_total_power(total_power):
    # unchecked, 0 and -1 warned or gave NaN, NaN gave an all-NaN cut and inf an all -inf one
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, BROADSIDE)
    with pytest.raises(ValueError) as refusal:
        principal_plane_cut(prof, total_power=total_power)
    assert str(refusal.value) == f"total_power must be positive and finite, got {total_power}"


def test_principal_plane_cut_refuses_a_total_power_whose_directivity_overflows():
    # (sum |c|)^2 bounds |E|^2: unchecked, 1e-320 read +inf dBi at every sample, with an overflow warning
    panel = ApertureSpec.from_element_grid(16, F140)
    prof = synthesize_profile(panel, BROADSIDE, Direction.from_degrees(30.0), TaperSpec(-10.0))
    with pytest.raises(ValueError) as refusal:
        principal_plane_cut(prof, theta_step=0.01, total_power=1e-320)
    assert str(refusal.value) == "total_power 1e-320 is so small that the directivity overflows"
    lowest = 4.0 * math.pi * float(np.sum(np.abs(prof.coefficients))) ** 2 / sys.float_info.max
    _, dbi = principal_plane_cut(prof, theta_step=0.01, total_power=2.0 * lowest)
    assert dbi.size == 315 and np.all(dbi < math.inf) and np.max(dbi) > 3000.0


def _ramp_at(f):
    """16x16 cells at half a 140 GHz wavelength, one phase turn along x (the coefficients sum to 0), designed at f."""
    ramp = np.exp(2j * math.pi * np.arange(16) / 16)[:, None] * np.ones(16)
    return PhaseProfile(ramp, f, F140.wavelength_m / 2.0)


def _steered_at(f):
    """The 16x16 panel of 140 GHz steered to 30 deg, designed at f."""
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, Direction.from_degrees(30.0))
    return PhaseProfile(prof.coefficients, f, prof.cell_pitch_m)


_POWER_ROUTES = {
    "hemisphere_power_exact": lambda p: hemisphere_power_exact(p, p.design_freq),
    "gain_at": lambda p: gain_at(p, p.design_freq, BROADSIDE),
    "principal_plane_cut": lambda p: principal_plane_cut(p, p.design_freq, 0.0, math.radians(0.1)),
    "quantized_cuts": lambda p: quantized_cuts(p, [1, None], 0.0),
}
_BAD_POWERS = {
    # case: (profile, "<floor>, got <power>" of its refusal, that of quantized_cuts' first setting, its 1-bit profile)
    # the lag terms cancel the zero lag's down to a rounding residue of either sign: unchecked, a negative one
    # read NaN gains and cuts [-inf, nan, ...], and a positive one gains tens of dB too low
    "steered-2.5Hz": (_steered_at(Frequency(2.5)), "1.7555e-08, got -2.72848e-12", "1.83551e-08, got -9.09495e-13"),
    # summed in another order, these two read +4.5475e-13 and the cut a maximum of -37.56 and -25.52 dBi, where
    # the quadrature reads 7.89 dBi
    "steered-1Hz": (_steered_at(Frequency(1.0)), "1.7555e-08, got -9.09495e-13", "1.83551e-08, got -9.09495e-13"),
    "steered-4Hz": (_steered_at(Frequency(4.0)), "1.7555e-08, got -9.09495e-13", "1.83551e-08, got -9.09495e-13"),
    "ramp-1Hz": (_ramp_at(Frequency(1.0)), "1.74511e-08, got 4.09273e-12", "1.53664e-08, got -3.63798e-12"),
    # k is finite at every frequency, but k * rho overflows to inf at so wide a pitch
    "steered-1e308Hz-1e306m": (
        PhaseProfile(_steered_at(F140).coefficients, Frequency(1e308), 1e306), "1.7555e-08, got nan", None),
}


@pytest.mark.parametrize(
    "route, case",
    # quantized_cuts' beamwidth at a 1e306 m pitch underflows to 0, and its array budget refuses the endless cut first
    [(r, c) for r in _POWER_ROUTES for c in _BAD_POWERS if (r, c) != ("quantized_cuts", "steered-1e308Hz-1e306m")],
)
def test_power_routes_refuse_a_closed_form_power_that_is_not_positive_and_finite(monkeypatch, route, case):
    profile, got, quantized = _BAD_POWERS[case]
    monkeypatch.setattr(radiation, "_field", None)  # each route refuses before any field work
    with pytest.raises(ValueError) as refusal:
        _POWER_ROUTES[route](profile)
    got = quantized if route == "quantized_cuts" else got
    assert str(refusal.value) == f"the closed-form hemisphere power must be finite and above its rounding floor {got}"


# Measured over 900 panels drawn as the property below draws them: the
# quadrature at a 0.5 deg grid read sub-wavelength powers up to 5.1e-5 high,
# and the closed form's error stayed within 0.64 eps B0, B0 = pi sum_r
# |corr_r| (within 3.5 eps B0 up to 300^2 cells)
QUADRATURE_REL = 1e-4
ROUNDING_B0 = 4.0
FLOOR_B0 = 2.0**10


def _eps_b0(p):
    """eps * pi * sum_r |corr_r| of profile p: the scale of its closed-form power's rounding."""
    radius_index, _ = _lag_radii(p.rows, p.cols)
    return np.finfo(float).eps * math.pi * float(np.sum(np.abs(_radial_corr(p, radius_index))))


def _implied_powers(dbi, unit_dbi):
    """The powers that normalise each finite entry of dbi, from the same field over a power of 1."""
    finite = np.isfinite(unit_dbi)
    return 10.0 ** ((unit_dbi[finite] - np.asarray(dbi)[finite]) / 10.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 32),
    turns=st.none() | st.integers(1, 15),
    sin_theta=st.floats(0.0, 0.95),
    phi=st.floats(0.0, 2.0 * math.pi),
    edge_db=st.floats(-15.0, 0.0),
    bits=st.sampled_from([None, 1, 2, 3]),
    log_kr=st.floats(-12.0, 1.0),
)
@example(n=16, turns=1, sin_theta=0.0, phi=0.0, edge_db=0.0, bits=None, log_kr=-6.0)  # refused
@example(n=3, turns=1, sin_theta=0.0, phi=0.0, edge_db=0.0, bits=None, log_kr=math.log10(4.6e-6))  # 2e3 eps B0
@example(n=32, turns=None, sin_theta=0.5, phi=0.0, edge_db=-10.0, bits=1, log_kr=1.0)
def test_power_routes_refuse_or_match_the_quadrature_property(n, turns, sin_theta, phi, edge_db, bits, log_kr):
    # a steered panel, or a uniform one with whole phase turns along x, whose
    # coefficients sum to about 0; its largest lag rho_max (the pitch when
    # n = 1) at k rho_max = 10^log_kr, far below the wavelength to about 1.6 of it
    if turns is not None:
        assume(2 * turns < n)
        sin_theta, phi, edge_db = 2.0 * turns / n, 0.0, 0.0  # at a half-wavelength pitch: `turns` turns in n cells
    panel = ApertureSpec.from_element_grid(n, F140)
    steered = synthesize_profile(panel, BROADSIDE, Direction(math.asin(sin_theta), phi), TaperSpec(edge_db))
    rho_max = panel.cell_pitch_m * max(1.0, math.hypot(n - 1, n - 1))
    f = Frequency(10.0**log_kr / rho_max * SPEED_OF_LIGHT / (2.0 * math.pi))
    p = PhaseProfile(steered.coefficients, f, panel.cell_pitch_m)
    radiated = p if bits is None else quantize_profile(p, bits)
    eps_b0 = _eps_b0(radiated)
    reference = directivity(radiated, math.radians(0.5)).total_power
    if reference <= 2.0 * math.pi * (n * n * np.finfo(float).eps * np.sum(np.abs(radiated.coefficients))) ** 2:
        reference = math.pi * abs(np.sum(radiated.coefficients)) ** 2  # below the fields' rounding: the k -> 0 limit

    theta_deg, unit = principal_plane_cut(radiated, total_power=1.0)  # the same fields over a power of 1
    peak = int(np.nanargmax(unit))
    theta = math.radians(theta_deg[peak])
    step = min(radiation.analytical_hpbw(p), math.pi) / radiation.CUT_STEPS_PER_BEAMWIDTH
    routes = {  # each route's output, and the powers it implies
        "hemisphere_power_exact": (lambda: hemisphere_power_exact(radiated), lambda power: np.array([power])),
        "gain_at": (lambda: gain_at(radiated, f, Direction(abs(theta), 0.0 if theta >= 0.0 else math.pi)),
                    lambda dbi: _implied_powers([dbi], unit[peak : peak + 1])),
        "principal_plane_cut": (lambda: principal_plane_cut(radiated)[1], lambda dbi: _implied_powers(dbi, unit)),
        "quantized_cuts": (lambda: quantized_cuts(p, [bits], 0.0)[0][1],
                           lambda dbi: _implied_powers(dbi, principal_plane_cut(radiated, None, 0.0, step, 1.0)[1])),
    }
    for name, (route, implied) in routes.items():
        fields = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(radiation, "_field", lambda *args, **kwargs: fields.append(1) or _field(*args, **kwargs))
            try:
                out = route()
            except ValueError as refusal:
                message = str(refusal)
                out = None
        if out is None:  # at or below the floor, in one line and before any field work
            assert not fields and "\n" not in message, name
            head, floor = message.split(", got ")[0].rsplit(" ", 1)
            assert head == "the closed-form hemisphere power must be finite and above its rounding floor", name
            assert float(floor) == pytest.approx(FLOOR_B0 * eps_b0, rel=1e-5), name
            assert reference <= (FLOOR_B0 + ROUNDING_B0) * eps_b0 * (1.0 + QUADRATURE_REL), name
        else:
            powers = implied(out)  # above the floor, the rounding is at most ROUNDING_B0 / FLOOR_B0 of the power
            bound = QUADRATURE_REL + ROUNDING_B0 / FLOOR_B0
            assert powers.size and np.all(np.abs(powers / reference - 1.0) <= bound), name


@pytest.mark.parametrize("hertz", [3e307, 1e308, 1.7e308])
def test_power_routes_compute_at_the_top_of_the_frequency_range(hertz):
    # 2 pi f / c overflowed to inf above 2.86e307 Hz, and each route refused a NaN power; k = 2 pi / lambda
    # stays finite, and the lag terms vanish against the zero lag's, their large-k limit
    profile = _steered_at(Frequency(hertz))
    assert hemisphere_power_exact(profile) == math.pi * np.sum(np.abs(profile.coefficients) ** 2)
    assert math.isfinite(gain_at(profile, profile.design_freq, Direction.from_degrees(30.0)))
    assert np.all(principal_plane_cut(profile)[1] < math.inf)  # -inf at the horizon, where the element factor is 0


def test_squint_refuses_a_closed_form_power_that_is_not_positive(monkeypatch):
    # no squint sweep has been seen to lose its power's sign: a negated contraction stands in for one
    closed_form = radiation._closed_form_power
    monkeypatch.setattr(radiation, "_closed_form_power", lambda *args: -closed_form(*args))
    with pytest.raises(ValueError, match="^the closed-form hemisphere power must be finite and above its rounding "
                                         "floor [^,]+, got -"):
        squint_sweep(ApertureSpec.from_element_grid(16, F140), BROADSIDE, OUT45, n_samples=11)


@pytest.mark.parametrize("step", [1e-300, 1e-8, 5e-324])
def test_principal_plane_cut_refuses_a_cut_past_the_budget_before_any_work(step):
    # unguarded, a 1e-8 rad step asked numpy for 2.34 GiB and 1e-300 for more than an array may hold
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, BROADSIDE)

    def refuse():
        with pytest.raises(ValueError, match="GiB limit") as raised:
            principal_plane_cut(prof, theta_step=step)
        return raised.value

    error, peak = traced_peak(refuse)
    assert "\n" not in str(error) and peak < 2**16


def test_principal_plane_cut_budget_counts_its_cut(monkeypatch):
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, OUT45)
    step = 1e-3
    cut = 16 * (math.pi / step + 1)
    assert _largest_array(16)[1] < cut - 1  # the cut, not the panel, meets the limit
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", cut - 1)
    with pytest.raises(ValueError, match="GiB limit") as raised:
        principal_plane_cut(prof, theta_step=step)
    assert "\n" not in str(raised.value)
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", cut)
    theta_deg, _ = principal_plane_cut(prof, theta_step=step)
    assert theta_deg.size == math.floor(math.pi / step) + 1


def test_a_refusal_past_2_to_the_1000_bytes_names_its_size():
    # a float size never overflows the division; only an int past the float range reads inf
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, BROADSIDE)
    with pytest.raises(ValueError, match=r"^the cut would need 4\.68e\+292 GiB, over the 1 GiB limit"):
        principal_plane_cut(prof, theta_step=1e-300)
    with pytest.raises(ValueError, match=r"^the lattice FFT would need 5\.96e\+292 GiB, "):
        check_array_budget(10**150)  # 16 (2n)^2 bytes, an int above 2**1000 that a float holds
    with pytest.raises(ValueError, match=r"^the lattice FFT would need inf GiB, "):
        check_array_budget(10**200)  # an int past the float range


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", ["principal_plane_cut", "quantized_cuts"])
def test_cuts_refuse_a_non_finite_azimuth(route, phi):
    prof = synthesize_profile(ApertureSpec.from_element_grid(8, F140), BROADSIDE, OUT45)
    with pytest.raises(ValueError) as refusal:
        if route == "principal_plane_cut":
            principal_plane_cut(prof, phi=phi)
        else:
            quantized_cuts(prof, [1, None], phi)
    assert str(refusal.value) == f"phi must be finite, got {phi}"


@pytest.mark.parametrize("route", ["principal_plane_cut", "quantized_cuts"])
def test_cuts_refuse_a_non_finite_azimuth_before_any_work(monkeypatch, route):
    prof = synthesize_profile(ApertureSpec.from_element_grid(8, F140), BROADSIDE, OUT45)
    for name in ("hemisphere_power_exact", "quantize_profile", "_radial_corr", "_parity_fold", "_field"):
        monkeypatch.setattr(radiation, name, lambda *args, name=name: pytest.fail(f"{name} ran before the refusal"))
    with pytest.raises(ValueError, match="^phi must be finite, got nan$"):
        if route == "principal_plane_cut":
            principal_plane_cut(prof, phi=math.nan)
        else:
            quantized_cuts(prof, [1, None], math.nan)


def test_quantized_cuts_resolve_a_panel_far_below_a_wavelength():
    # 0.01 wavelengths across, so the analytical beamwidth is about 90 rad
    tiny = ApertureSpec.from_element_grid(2, F140, cell_pitch_m=F140.wavelength_m / 200)
    ((theta_deg, dbi),) = quantized_cuts(synthesize_profile(tiny, BROADSIDE, BROADSIDE), [None], 0.0)
    # a beamwidth above pi counts as pi, so the cut keeps 20 steps and its broadside sample
    assert theta_deg.size == 21
    # a point source with the cos(theta) element power has a directivity of 4
    assert np.max(dbi) == pytest.approx(10.0 * math.log10(4.0), abs=1e-3)


# --- field kernel against the direct-sum oracle ------------------------------


def _field_from_dbi(dbi, power):
    """|E| recovered from directivity in dBi and the hemisphere power."""
    return np.sqrt(10.0 ** (np.asarray(dbi) / 10.0) * power / (4.0 * math.pi))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 130),
    pitch=st.floats(1e-5, 1e-2),
    max_phase=st.floats(0.0, 1e5),
    seed=st.integers(0, 2**32 - 1),
)
def test_cos_sin_table_stays_within_two_eps_property(n, pitch, max_phase, seed):
    x = PhaseProfile(np.ones((n, 1)), F140, pitch).x_m
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, 64) * max_phase / max(np.max(np.abs(x)), pitch)  # |x q| <= max_phase
    # a cut in the plane phi = 0 has kv = 0 in every direction
    q[:2] = 0.0, -0.0
    upper = x[n // 2 :]
    m = upper.size
    table = _cos_sin_table(x, q)
    assert table.shape == (2 * m, q.size)
    cos, sin = table[:m], table[m:]
    assert np.all(cos[:, :2] == 1.0)
    assert np.all(sin[:, :2] == 0.0)

    # plain exp stays within the rounding of the argument; the table adds that of its
    # at most 2*sqrt(m) products: powers of the steps, coarse x fine
    exact = np.exp(1j * np.outer(upper.astype(np.longdouble), q.astype(np.longdouble)))
    eps = np.finfo(float).eps
    phase = max(1.0, np.max(np.abs(np.outer(x, q))))
    assert np.max(np.abs(cos + 1j * sin - exact)) <= eps * (2.0 * phase + 2.0 * math.sqrt(m))
    assert np.max(np.abs(np.exp(1j * np.outer(upper, q)) - exact)) <= 2.0 * eps * phase


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=2, seed=0)
@example(n=129, seed=0)
@example(n=130, seed=0)
def test_cos_sin_table_columns_are_computed_alone_property(n, seed):
    # a direction's table does not depend on the chunk around it, at the sizes _field passes;
    # numpy rounds an in-place complex multiply of length 1 differently from a longer one
    x = PhaseProfile(np.ones((n, 1)), F140, 1e-3).x_m
    rng = np.random.default_rng(seed)
    for size in (1, PEAK_WINDOW, FIELD_CHUNK):
        q = rng.uniform(-1.0, 1.0, size) * _wavenumber(F140.hertz)
        alone = np.concatenate([_cos_sin_table(x, q[s : s + 1]) for s in range(size)], axis=1)
        assert np.array_equal(_cos_sin_table(x, q), alone)


@pytest.mark.parametrize(
    "n, f_ghz, bits",
    [
        (100, 140.0, None),
        (100, 140.0, 1),
        (128, 300.0, 2),
        (48, 200.0, None),
        # odd and tiny panels fold a centre row and column that count once
        (1, 140.0, None),
        (3, 140.0, 1),
        (49, 200.0, None),
        (127, 300.0, 2),
        (49, 200.0, "magnitudes"),
    ],
)
def test_field_kernel_matches_direct_sum_to_1e13_of_peak(n, f_ghz, bits):
    f = Frequency.from_ghz(f_ghz)
    target = Direction.from_degrees(30.0, 20.0)
    prof = synthesize_profile(ApertureSpec.from_element_grid(n, f), BROADSIDE, target, TaperSpec(-10.0))
    if bits == "magnitudes":
        # the real grid |c| that the broadside beamwidth radiates
        prof = PhaseProfile(np.abs(prof.coefficients), f, prof.cell_pitch_m)
    elif bits is not None:
        prof = quantize_profile(prof, bits)
    rng = np.random.default_rng(n)
    theta = np.append(rng.uniform(0.0, 0.5 * math.pi, 300), target.theta)
    phi = np.append(rng.uniform(0.0, 2.0 * math.pi, 300), target.phi)
    # the small-phase regime near broadside (exact 0 included) and the far end near grazing
    edge = rng.uniform(0.0, 1e-3, 40)
    theta = np.concatenate([theta, [0.0], edge[:20], 0.5 * math.pi - edge[20:]])
    phi = np.append(phi, rng.uniform(0.0, 2.0 * math.pi, 41))
    kt = _wavenumber(f.hertz) * np.sin(theta)
    field = _field(prof, [_parity_fold(prof.coefficients)], kt * np.cos(phi), kt * np.sin(phi))[0]
    kernel = field * _element_factor(theta)
    direct = array_factor_direct(prof, f, [Direction(t, p) for t, p in zip(theta, phi)])
    assert np.max(np.abs(kernel - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("size", [FIELD_CHUNK + 1, 2 * FIELD_CHUNK - 1])
def test_field_chunks_are_computed_alone(size):
    # the last chunk holds 1 or FIELD_CHUNK - 1 directions
    rng = np.random.default_rng(size)
    prof = _random_lattice(7, 6, rng)
    ku, kv = rng.uniform(-1.0, 1.0, (2, size)) * _wavenumber(F140.hertz)
    grids = [_parity_fold(prof.coefficients)]
    chunks = [_field(prof, grids, ku[s : s + FIELD_CHUNK], kv[s : s + FIELD_CHUNK]) for s in (0, FIELD_CHUNK)]
    assert np.array_equal(_field(prof, grids, ku, kv), np.concatenate(chunks, axis=1))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1), mirrored=st.booleans())
@example(n=1, seed=0, mirrored=False)
@example(n=70, seed=0, mirrored=True)
def test_field_of_a_direction_has_the_same_bits_in_any_call_property(n, seed, mirrored):
    # each chunk is padded to a multiple of 8 directions, where BLAS rounds every column alike,
    # so a direction's value cannot move with how many directions share its call
    rng = np.random.default_rng(seed)
    prof = _random_lattice(n, n + int(rng.integers(0, 4)), rng)
    grids = [_parity_fold(prof.coefficients)]
    ku, kv = rng.uniform(-1.0, 1.0, (2, FIELD_CHUNK)) * _wavenumber(F140.hertz)
    whole = _field(prof, grids, ku, kv, mirrored)
    for width in (1, 2, 3, 4, 7, 8, 9, 17, 21, 182, int(rng.integers(1, FIELD_CHUNK)), 1023):
        start = int(rng.integers(0, FIELD_CHUNK - width + 1))
        part = slice(start, start + width)
        assert np.array_equal(_field(prof, grids, ku[part], kv[part], mirrored), whole[..., part])


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(rows=7, cols=7, seed=1)  # odd: the centre row and column mirror onto themselves
@example(rows=8, cols=8, seed=2)
@example(rows=5, cols=10, seed=3)
@example(rows=9, cols=4, seed=4)
def test_field_of_a_mirrored_grid_is_the_mirrored_field_property(rows, cols, seed):
    # on the centred lattice x[n-1-i] == -x[i], so reversing an axis of c negates that wavenumber,
    # and conj(c) radiates conj AF(-ku, -kv); the images of one product are those same fields
    rng = np.random.default_rng(seed)
    prof = _random_lattice(rows, cols, rng)
    c = prof.coefficients
    ku, kv = np.append(rng.uniform(-1.0, 1.0, (2, 301)), [[0.0], [0.0]], axis=1) * _wavenumber(F140.hertz)
    stack = _field(prof, [_parity_fold(g) for g in (c, c[::-1], c[::-1, ::-1], c[:, ::-1], np.conj(c))], ku, kv)
    mirrored = _field(prof, [_parity_fold(c)], np.stack([ku, -ku, -ku, ku, -ku]), np.stack([kv, kv, -kv, -kv, -kv]))[0]
    mirrored[4] = np.conj(mirrored[4])
    assert np.max(np.abs(stack - mirrored)) <= 1e-15 * np.max(np.abs(mirrored))

    images = _field(prof, [_parity_fold(c)], ku.reshape(2, -1), kv.reshape(2, -1), mirrored=True)
    assert images.shape == (1, 4, 2, ku.size // 2)
    images = images.reshape(4, -1)
    bound = 1e-15 * np.sum(np.abs(c))
    assert np.max(np.abs(images - mirrored[:4])) <= bound
    assert np.max(np.abs(images - stack[:4])) <= bound


@settings(max_examples=12, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(rows=7, cols=7, seed=1)
@example(rows=8, cols=8, seed=2)
@example(rows=5, cols=10, seed=3)
def test_field_of_a_grid_is_the_same_in_a_stack_property(rows, cols, seed):
    # each grid meets the same shared tables and its own product, so a stack changes no bit
    rng = np.random.default_rng(seed)
    grids = [_random_lattice(rows, cols, rng).coefficients for _ in range(3)]
    prof = PhaseProfile(grids[0], F140, F140.wavelength_m / 2.0)
    for size in (1, PEAK_WINDOW, FIELD_CHUNK + 1):
        ku, kv = rng.uniform(-1.0, 1.0, (2, size)) * _wavenumber(F140.hertz)
        stacked = _field(prof, [_parity_fold(grid) for grid in grids], ku, kv)
        assert stacked.shape == (3, size)
        for grid, field in zip(grids, stacked):
            assert np.array_equal(field, _field(prof, [_parity_fold(grid)], ku, kv)[0])


def _steered_lattice(rows, cols, target):
    """rows x cols half-wavelength panel phased toward target; |c| is 1 at the centre, 0.5 in the corners."""
    pitch = F140.wavelength_m / 2.0
    x = PhaseProfile(np.ones((rows, 1)), F140, pitch).x_m
    y = PhaseProfile(np.ones((cols, 1)), F140, pitch).x_m
    u, v = target.transverse()
    amp = 1.0 - 0.5 * np.hypot(x[:, None], y[None, :]) / math.hypot(x[-1], y[-1])
    phase = _wavenumber(F140.hertz) * (u * x[:, None] + v * y[None, :])
    return PhaseProfile(amp * np.exp(-1j * phase), F140, pitch)


def _directivity_axes(p, grid_resolution):
    """The (theta, phi) axes of directivity() from their definition, apart from its quadrant images."""
    hpbw = radiation.analytical_hpbw(p)
    window = max(radiation.LOBE_WINDOW, 2.0 * hpbw)
    _, upk, vpk = array_factor_fft(p, p.design_freq, uv_oversample=4).peak_uv()
    theta_pk = math.asin(min(math.hypot(upk, vpk), 1.0))
    phi_pk = math.atan2(vpk, upk) % (2.0 * math.pi)
    eps, coarse = 1e-12, radiation.COARSE_RESOLUTION
    theta_fine = np.arange(max(0.0, theta_pk - window), min(math.pi / 2, theta_pk + window) + eps, grid_resolution)
    theta = np.unique(np.concatenate([np.arange(0.0, math.pi / 2 + eps, coarse), [math.pi / 2], theta_fine]))
    phi_parts = [np.arange(0.0, 2.0 * math.pi + eps, coarse), [2.0 * math.pi]]
    if theta_pk > window:
        phi_parts.append(np.mod(np.arange(phi_pk - window, phi_pk + window + eps, grid_resolution), 2.0 * math.pi))
    return theta, np.unique(np.concatenate(phi_parts)), theta_pk > window


@pytest.mark.parametrize(
    "rows, cols, target, fine_phi",
    [
        (24, 24, BROADSIDE, False),  # the coarse phi grid alone
        (24, 24, Direction.from_degrees(30.0, 20.0), True),
        (25, 25, Direction.from_degrees(35.0, 110.0), True),  # odd: centre row and column
        (9, 14, Direction.from_degrees(40.0, 250.0), True),  # rows != cols: x and y mirror apart
        # small panels: one row, whose x axis is the centre alone, and a fine window of 4 to 7 cells per side
        (1, 3, BROADSIDE, False),
        (3, 5, Direction.from_degrees(30.0, 200.0), False),
        (6, 4, Direction.from_degrees(50.0, 300.0), True),
        (7, 7, Direction.from_degrees(60.0, 100.0), True),
        # square: one octant and its transpose give the eight images, the 45 deg column from both
        (16, 16, Direction.from_degrees(30.0, 45.0), True),
        (15, 15, Direction.from_degrees(50.0, 135.0), True),  # odd: centre row and column
    ],
)
def test_directivity_assembles_the_full_grid(rows, cols, target, fine_phi):
    p = _steered_lattice(rows, cols, target)
    pattern = directivity(p, grid_resolution=math.radians(0.1))
    theta, phi, has_fine = _directivity_axes(p, math.radians(0.1))
    assert has_fine == fine_phi
    assert pattern.ax1.shape == theta.shape and pattern.ax2.shape == phi.shape
    assert np.max(np.abs(pattern.ax1 - theta)) <= 1e-15 and np.max(np.abs(pattern.ax2 - phi)) <= 1e-15
    if not fine_phi:
        assert phi.size == 721

    # the same quadrature with every column radiated directly, with no mirror images
    st = np.sin(theta)[:, None]
    kt = _wavenumber(F140.hertz) * st
    e = _field(p, [_parity_fold(p.coefficients)], kt * np.cos(phi), kt * np.sin(phi))[0]
    e2 = np.abs(e * _element_factor(theta)[:, None]) ** 2
    total = np.trapezoid(np.trapezoid(e2 * st, x=phi, axis=1), x=theta)
    assert pattern.total_power == pytest.approx(total, rel=1e-13)
    # and each column in its place: the pattern itself, nulls included, and in dB away from deep nulls
    power = 10.0 ** (pattern.directivity_dbi / 10.0) * pattern.total_power / (4.0 * math.pi)
    assert np.max(np.abs(power - e2)) <= 1e-13 * np.max(e2)
    lit = e2 > 1e-6 * np.max(e2)
    assert np.max(np.abs(pattern.directivity_dbi[lit] - radiation._dbi(e2[lit], total))) <= 1e-9


@pytest.mark.parametrize("step", [0.0, -1.0, -0.01, math.nan, math.inf, -math.inf])
def test_directivity_refuses_a_bad_step(step):
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, BROADSIDE)
    with pytest.raises(ValueError, match="grid_resolution must be positive and finite") as raised:
        directivity(prof, grid_resolution=step)
    assert "\n" not in str(raised.value)


@pytest.mark.parametrize("step", [1e-300, 1e-7])
def test_directivity_refuses_a_grid_past_the_budget(step):
    # the grid's size is known before any axis is built, so nothing large is allocated
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, OUT45)
    with pytest.raises(ValueError, match="GiB limit") as raised:
        directivity(prof, grid_resolution=step)
    assert "\n" not in str(raised.value)


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


def test_field_is_exactly_zero_at_the_horizon():
    # cos(fl(pi/2)) is 6e-17, not 0, so without the horizon rule these rows
    # read rounding noise that moves with the kernel's arithmetic
    prof = synthesize_profile(ApertureSpec.from_element_grid(12, F140), BROADSIDE, OUT45)
    for theta_deg, dbi in quantized_cuts(prof, [1, 2, 3, None], 0.0):
        assert theta_deg[0] == -90.0 and dbi[0] == -math.inf
    horizon = [Direction(math.pi / 2, phi) for phi in (0.0, 1.0, math.pi)]
    assert np.array_equal(array_factor_direct(prof, F140, horizon), np.zeros(3))


def test_principal_plane_cut_ends_on_the_horizon():
    # arange at the 0.1 deg step stops 1.95e-13 rad short of pi/2, where the field is not 0
    prof = synthesize_profile(ApertureSpec.from_element_grid(12, F140), BROADSIDE, OUT45)
    theta_deg, dbi = principal_plane_cut(prof)
    assert theta_deg[-1] == 90.0 and dbi[-1] == -math.inf
    assert theta_deg[0] == -90.0 and dbi[0] == -math.inf
    # every other sample is arange's own
    step = math.radians(0.1)
    assert np.array_equal(theta_deg[:-1], np.degrees(np.arange(-math.pi / 2, math.pi / 2 + 1e-12, step))[:-1])


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


def test_quantization_loss_takes_its_settings_from_any_iterable():
    # a generator gave bits=[] beside its two peaks: the report read the spent generator again
    ap = ApertureSpec.from_element_grid(16, F140)
    listed = quantization_loss(ap, OUT45, [1, 2])
    generated = quantization_loss(ap, OUT45, (bits for bits in [1, 2]))
    assert generated == listed
    assert generated.bits == [1, 2] and len(generated.peak_dbi) == 2


def test_quantized_cuts_budget_counts_every_setting(monkeypatch):
    # the stacked field holds every setting's cut at once: room for three cuts refuses four
    prof = synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, OUT45)
    one_cut = 16 * (math.pi / (radiation.analytical_hpbw(prof) / radiation.CUT_STEPS_PER_BEAMWIDTH) + 1)
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", math.ceil(3 * one_cut))
    assert _largest_array(16)[1] <= core.MAX_ARRAY_BYTES  # the panel alone fits
    assert len(quantized_cuts(prof, [1, 2, None], 0.0)) == 3
    with pytest.raises(ValueError, match="GiB limit") as raised:
        quantized_cuts(prof, [1, 2, 3, None], 0.0)
    assert "\n" not in str(raised.value)


def test_quantized_cuts_hold_one_copy_per_setting():
    # each added setting holds its fold, 16 n^2 bytes, and its cut while the
    # stack is radiated; holding its quantised grid beside the fold as well
    # read 7.0 folds for the three added settings here
    n = 200
    prof = synthesize_profile(ApertureSpec.from_element_grid(n, F140), BROADSIDE, OUT45, TaperSpec(-10.0))
    quantized_cuts(prof, [1, 2, 3, None], 0.0)  # warm-up, so that caches are not counted
    _, one = traced_peak(quantized_cuts, prof, [None], 0.0)
    _, four = traced_peak(quantized_cuts, prof, [1, 2, 3, None], 0.0)
    assert four - one <= 5 * 16 * n * n


def test_quantization_loss_refuses_an_oversize_panel_before_building_it(monkeypatch):
    # a small budget stands in for a huge panel, so nothing large is allocated
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 1024)
    built = []
    amplitude = TaperSpec.amplitude
    monkeypatch.setattr(TaperSpec, "amplitude", lambda *args: built.append(args) or amplitude(*args))
    ap = ApertureSpec.from_element_grid(300, F140)
    with pytest.raises(ValueError, match="GiB limit") as raised:
        quantization_loss(ap, Direction.from_degrees(37.0), [1, 2], TaperSpec(-10.0))
    assert "\n" not in str(raised.value)
    assert built == []


@pytest.mark.parametrize(
    "route",
    [lambda p: quantize_profile(p, 1), hemisphere_power_exact, lambda p: gain_at(p, F140, OUT45)],
    ids=["quantize", "power", "gain"],
)
def test_profile_routes_refuse_a_profile_past_the_budget_before_any_work(monkeypatch, route):
    # a small budget stands in for a huge profile; unguarded, the power route peaked at 8.3 MiB
    prof = _random_lattice(300, 300, np.random.default_rng(0))
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 2**20)

    def refuse():
        with pytest.raises(ValueError, match="GiB limit") as raised:
            route(prof)
        return raised.value

    error, peak = traced_peak(refuse)
    assert "\n" not in str(error) and peak < 2**16


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
    with pytest.raises(ValueError, match="increase f_span"):
        squint_sweep(ap, BROADSIDE, Direction.from_degrees(10.0), TaperSpec(-10.0), f_span_hz=20e9)


def test_squint_parameter_validation():
    ap = ApertureSpec(0.080, F140)
    with pytest.raises(ValueError):
        squint_sweep(ap, BROADSIDE, OUT45, n_samples=10)  # even
    with pytest.raises(ValueError):
        squint_sweep(ap, BROADSIDE, OUT45, n_samples=9)  # too few
    with pytest.raises(ValueError):
        squint_sweep(ap, BROADSIDE, OUT45, f_span_hz=200e9)  # wider than f0


@pytest.mark.parametrize("n_samples", [11.0, 81.5, True, "81", None])
def test_squint_refuses_a_sample_count_that_is_not_an_integer(n_samples):
    # 11.0 passed the odd check and ended in a TypeError from linspace
    ap = ApertureSpec.from_element_grid(8, F140)
    with pytest.raises(ValueError, match="n_samples must be an odd integer") as raised:
        squint_vs_angle(ap, BROADSIDE, [OUT45], n_samples=n_samples)
    assert "\n" not in str(raised.value)


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


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(24, 40),
    thetas=st.lists(st.floats(25.0, 60.0), min_size=2, max_size=5),
    phi=st.floats(0.0, 2.0 * math.pi),
    edge_db=st.floats(-12.0, 0.0),
    bits=st.sampled_from([None, 2, 3]),
)
def test_squint_trace_does_not_depend_on_the_other_angles_property(n, thetas, phi, edge_db, bits):
    # every angle's power comes out of one contraction over all the angles
    # of the call; each trace stays that of the angle swept alone
    ap = ApertureSpec.from_element_grid(n, F140)
    targets = [Direction(math.radians(t), phi) for t in thetas]
    taper = TaperSpec(edge_db)
    reports = squint_vs_angle(ap, BROADSIDE, targets, taper, bits, 0.5 * F140.hertz, 21)
    for target, report in zip(targets, reports):
        single = squint_sweep(ap, BROADSIDE, target, taper, bits, 0.5 * F140.hertz, 21)
        assert np.max(np.abs(report.gain_dbi - single.gain_dbi)) <= 1e-12


def test_squint_measures_the_beamwidth_once_per_azimuth(monkeypatch):
    calls, synthesized = [], []
    measure, synthesize = radiation._broadside_hpbw, radiation.synthesize_profile
    monkeypatch.setattr(radiation, "_broadside_hpbw", lambda p, fold, phi: calls.append(phi) or measure(p, fold, phi))
    monkeypatch.setattr(radiation, "synthesize_profile", lambda *args: synthesized.append(args) or synthesize(*args))
    ap = ApertureSpec.from_element_grid(30, F140)
    taper = TaperSpec(-10.0)
    targets = [Direction.from_degrees(t, phi) for phi in (0.0, 30.0) for t in (30.0, 45.0)]
    quantized = squint_vs_angle(ap, BROADSIDE, targets, taper, 2, 40e9, 61)
    assert calls == [0.0, math.radians(30.0)]
    # one broadside (taper) profile serves every azimuth
    assert len(synthesized) == len(targets) + 1
    # measured on the taper steered to broadside, whatever the bits
    synthesized.clear()
    continuous = squint_vs_angle(ap, BROADSIDE, targets, taper, None, 40e9, 61)
    assert [r.hpbw_rad for r in quantized] == [r.hpbw_rad for r in continuous]
    # a continuous sweep takes every angle from the taper: it synthesises that one profile
    assert synthesized == [(ap, BROADSIDE, BROADSIDE, taper)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 80),
    theta_deg=st.floats(0.0, 70.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    edge_db=st.floats(-15.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_steered_squint_profile_follows_from_its_taper_property(n, theta_deg, phi, edge_db, seed):
    # c = a exp(-j g.r): Re corr_c(d) = cos(g.d) A(d) and AF_c(k) = AF_a(k - g);
    # over 600 random cases the worst read 6.5e-14 sum|c|^2 and 6.0e-15 sum|c|
    ap = ApertureSpec.from_element_grid(n, F140)
    target, taper = Direction(math.radians(theta_deg), phi), TaperSpec(edge_db)
    a = synthesize_profile(ap, BROADSIDE, BROADSIDE, taper)
    c = synthesize_profile(ap, BROADSIDE, target, taper)
    k0 = 2.0 * math.pi * F140.hertz / SPEED_OF_LIGHT
    gx, gy = (k0 * g for g in target.transverse())
    radius_index, _ = _lag_radii(n, n)
    column = _modulate(_half_corr(a)[:n], gx * ap.cell_pitch_m, gy * ap.cell_pitch_m, radius_index[: n * n])
    steered = _radial_corr(c, radius_index)
    assert np.max(np.abs(column - steered)) <= 1e-12 * np.sum(np.abs(c.coefficients) ** 2)

    q = k0 * np.random.default_rng(seed).uniform(-1.2, 1.2, 50)
    ku, kv = q * math.cos(phi), q * math.sin(phi)
    shifted = _field(a, [_parity_fold(a.coefficients)], ku - gx, kv - gy)
    assert np.max(np.abs(shifted - _field(c, [_parity_fold(c.coefficients)], ku, kv))) <= 1e-13 * np.sum(np.abs(c.coefficients))


def test_squint_samples_each_profile_once(monkeypatch):
    calls = []
    field = radiation._field
    monkeypatch.setattr(radiation, "_field", lambda p, grids, ku, kv: calls.append(ku.size) or field(p, grids, ku, kv))
    ap = ApertureSpec.from_element_grid(30, F140)
    targets = [Direction.from_degrees(t, phi) for phi in (0.0, 30.0) for t in (30.0, 45.0)]
    squint_vs_angle(ap, BROADSIDE, targets, TaperSpec(-10.0), None, 40e9, 61)
    # two bracketing passes of the beamwidth per azimuth, then one trace-and-track sample per angle
    assert calls == [radiation.HPBW_GRID] * 4 + [61 + PEAK_WINDOW] * len(targets)


def _counted_folds(monkeypatch):
    """The shapes of the grids that radiation._parity_fold folds from here on, in call order."""
    calls, fold = [], radiation._parity_fold
    monkeypatch.setattr(radiation, "_parity_fold", lambda c: calls.append(c.shape) or fold(c))
    return calls


def test_continuous_squint_folds_its_taper_once_however_many_angles(monkeypatch):
    calls, ap = _counted_folds(monkeypatch), ApertureSpec.from_element_grid(30, F140)
    counts = []
    for thetas in ([45.0], np.linspace(30.0, 66.0, 13)):
        calls.clear()
        squint_vs_angle(ap, BROADSIDE, [Direction.from_degrees(t) for t in thetas], TaperSpec(-10.0), None, 40e9, 61)
        counts.append(len(calls))
    # one fold serves the beamwidth's passes at every azimuth and every angle's field
    assert counts == [1, 1]


def test_directivity_folds_once(monkeypatch):
    calls = _counted_folds(monkeypatch)
    pattern = directivity(synthesize_profile(ApertureSpec.from_element_grid(16, F140), BROADSIDE, OUT45))
    assert pattern.ax2.size > 721  # the fine phi window around the lobe is radiated too
    assert calls == [(16, 16), (16, 16)]  # c, then c^T for the square panel's octant; the fine window reuses c's


def test_quantized_cuts_fold_each_setting_once(monkeypatch):
    calls = _counted_folds(monkeypatch)
    prof = synthesize_profile(ApertureSpec.from_element_grid(12, F140), BROADSIDE, OUT45)
    assert len(quantized_cuts(prof, [1, 2, 3, None], 0.0)) == 4
    assert calls == [(12, 12)] * 4


@pytest.mark.parametrize(
    "in_band,edges",
    [
        # 11 samples, f0 at index 5, "." in band and "x" off it: an in-band
        # sample past an off-band one lies outside the band
        (".x.x...x.x.", (3, 7)),
        ("..x......x.", (2, 9)),
        ("x...x.x....", (4, 6)),
        ("...........", "saturated"),
        ("x...x......", "refused"),
        (".........x.", "refused"),
    ],
)
def test_squint_band_edges_lie_next_to_the_nearest_off_band_samples(monkeypatch, in_band, edges):
    hpbw, theta = 0.1, math.radians(30.0)
    offsets = np.array([0.09 if c == "x" else 0.01 for c in in_band])
    offsets[1::2] *= -1.0  # either sign of drift
    monkeypatch.setattr(radiation, "_broadside_hpbw", lambda p, fold, phi: hpbw)
    monkeypatch.setattr(radiation, "_track_beam_peak", lambda af2, q, k: theta + offsets)
    ap, target = ApertureSpec.from_element_grid(16, F140), Direction(theta, 0.0)
    if edges == "refused":
        with pytest.raises(ValueError, match="^the squint band extends past a band edge; increase f_span$"):
            squint_sweep(ap, BROADSIDE, target, f_span_hz=20e9, n_samples=11)
        return
    report = squint_sweep(ap, BROADSIDE, target, f_span_hz=20e9, n_samples=11)
    if edges == "saturated":
        assert report.saturated and report.bw_3db_hz == 20e9
        return
    freqs, excess = report.freq_hz, np.abs(report.peak_theta_rad - theta) - hpbw / 2.0
    lo, hi = edges
    f_lo = freqs[lo] + (0.0 - excess[lo]) / (excess[lo + 1] - excess[lo]) * (freqs[lo + 1] - freqs[lo])
    f_hi = freqs[hi] + (0.0 - excess[hi]) / (excess[hi - 1] - excess[hi]) * (freqs[hi - 1] - freqs[hi])
    assert not report.saturated and report.bw_3db_hz == f_hi - f_lo


# with k this large cos(theta) rounds to 1 over the window, so af2 alone places the peak
K_FLAT = np.array([1e9, 2e9, 4e9])


def test_track_beam_peak_reads_a_symmetric_window_at_its_centre():
    q = 5.0 + np.linspace(-1.0, 1.0, PEAK_WINDOW)
    half = np.exp(-np.arange(PEAK_WINDOW // 2, 0, -1) / 3.0)
    af2 = np.concatenate((half, [1.0], half[::-1]))
    peak = _track_beam_peak(af2, q, K_FLAT)
    assert np.array_equal(peak, np.arcsin(q[PEAK_WINDOW // 2] / K_FLAT))


def test_track_beam_peak_reads_the_vertex_of_a_log_quadratic_window():
    q = 5.0 + np.linspace(-1.0, 1.0, PEAK_WINDOW)
    for vertex in (4.21, 5.0371, 5.6, 5.93):
        peak = _track_beam_peak(np.exp(-2.0 * (q - vertex) ** 2), q, K_FLAT)
        assert np.max(np.abs(K_FLAT * np.sin(peak) - vertex)) <= 1.2e-13


def test_track_beam_peak_reads_90_deg_when_the_largest_sample_is_on_an_edge():
    q = 5.0 + np.linspace(-1.0, 1.0, PEAK_WINDOW)
    rising = np.exp(q)
    for af2 in (rising, rising[::-1]):
        assert np.array_equal(_track_beam_peak(af2, q, K_FLAT), np.full(K_FLAT.size, math.pi / 2))


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
    assert [r.hpbw_rad for r in tracked_reports] == [hpbw] * 3
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


def test_squint_oblique_incidence_raises(monkeypatch):
    # the field model has no incident-phase term, so an oblique-incidence profile would
    # radiate toward u_out - u_in; the taper's synthesis refuses it before any lag, FFT or field work
    def unreachable(*args, **kwargs):
        raise AssertionError("lag, FFT or field work began before the incidence was checked")

    for name in ("_lag_radii", "_half_corr", "_field"):
        monkeypatch.setattr(radiation, name, unreachable)
    ap = ApertureSpec.from_element_grid(40, F140)
    for bits in (None, 2):
        with pytest.raises(ValueError, match="^only normal incidence is modelled .* got theta_in = 30 deg$"):
            squint_sweep(ap, Direction.from_degrees(30.0), OUT45, TaperSpec(-10.0), bits)


def test_squint_target_past_element_pull_raises():
    # near grazing the cos(theta) element power holds the f0 peak more than
    # HPBW/2 short of the programmed angle, so there is no band to measure
    ap = ApertureSpec(0.080, F140)
    with pytest.raises(ValueError, match="beyond half"):
        squint_sweep(ap, BROADSIDE, Direction.from_degrees(80.0), TaperSpec(-10.0))


# --- codebook coverage (uses the pattern engine) -----------------------------


def test_codebook_scan_coverage():
    ap = ApertureSpec.from_element_grid(16, F140)
    thetas = np.linspace(-60.0, 60.0, 31)
    targets = [Direction.from_degrees(abs(t), 0.0 if t >= 0 else 180.0) for t in thetas]
    book = [quantize_profile(synthesize_profile(ap, BROADSIDE, d), 2) for d in targets]
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
