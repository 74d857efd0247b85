import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thz_ris_planner.aperture import ApertureSpec
from thz_ris_planner.core import BROADSIDE, Direction, Frequency
from thz_ris_planner.radiation import gain_at, hemisphere_power_exact, principal_plane_cut
from thz_ris_planner.surface import (
    PhaseProfile,
    TaperSpec,
    _centred_axis,
    quantization_levels,
    quantize_profile,
    synthesize_profile,
)

from conftest import traced_peak

F140 = Frequency.from_ghz(140)
OUT45 = Direction.from_degrees(45)


# --- synthesis --------------------------------------------------------------


def test_specular_broadside_has_flat_phase():
    panel = ApertureSpec.from_element_grid(8, F140)
    prof = synthesize_profile(panel, BROADSIDE, BROADSIDE)
    phases = prof.phases()
    assert np.allclose(phases, phases[0, 0], atol=1e-9)


def test_gradient_slope_at_45deg():
    panel = ApertureSpec.from_element_grid(16, F140)
    prof = synthesize_profile(panel, BROADSIDE, OUT45)
    step = math.pi * math.sin(math.radians(45))  # 2.2214 rad per lambda/2 cell
    diffs = np.mod(np.diff(prof.phases(), axis=0), 2.0 * math.pi)
    # phase decreases along +x by the slope, so the wrapped step is 2*pi - step
    assert np.allclose(diffs, 2.0 * math.pi - step, atol=1e-9)
    # no gradient along y for phi_out = 0
    assert np.allclose(np.diff(prof.phases(), axis=1), 0.0, atol=1e-9)


def test_phase_wraps_after_full_fresnel_period():
    # pitch chosen so adjacent elements sit one full period apart; odd grid
    # keeps one element at the origin
    lam = F140.wavelength_m
    pitch = lam / math.sin(math.radians(45))
    panel = ApertureSpec(5 * pitch, F140, cell_pitch_m=pitch)
    prof = synthesize_profile(panel, BROADSIDE, OUT45)
    phases = prof.phases()
    wrapped = np.minimum(phases, 2.0 * math.pi - phases)
    assert np.allclose(wrapped, 0.0, atol=1e-6)


def test_oblique_incidence_cancels_matching_output():
    # u_out = u_in leaves no gradient at all
    panel = ApertureSpec.from_element_grid(8, F140)
    inc = Direction.from_degrees(30, 10)
    prof = synthesize_profile(panel, inc, inc)
    assert np.allclose(prof.phases(), prof.phases()[0, 0], atol=1e-9)


def test_synthesis_refuses_a_panel_past_the_budget_before_allocating_it():
    # unguarded, 10^6 cells per side asked numpy for 7.28 TiB
    panel = ApertureSpec.from_element_grid(10**6, F140)
    with pytest.raises(ValueError, match="GiB limit") as raised:
        synthesize_profile(panel, BROADSIDE, OUT45)
    assert "\n" not in str(raised.value)


# --- taper ------------------------------------------------------------------


def test_taper_center_and_corner_levels():
    taper = TaperSpec(-10.0)
    panel = ApertureSpec.from_element_grid(11, F140)  # odd grid has a center element
    prof = synthesize_profile(panel, BROADSIDE, BROADSIDE, taper)
    amps = prof.amplitudes()
    assert abs(amps[5, 5] - 1.0) < 1e-9
    assert abs(amps[0, 0] - 10.0 ** (-10.0 / 20.0)) < 1e-9


def test_taper_monotone_from_center():
    taper = TaperSpec(-10.0)
    rho = np.linspace(0.0, 1.0, 50)
    a = taper.amplitude(rho)
    assert a[0] == pytest.approx(1.0, abs=1e-14)
    assert a[-1] == pytest.approx(taper.pedestal, abs=1e-14)
    assert np.all(np.diff(a) <= 1e-12)


def test_taper_clips_beyond_edge():
    taper = TaperSpec(-12.0)
    assert taper.amplitude(np.array([1.4]))[0] == pytest.approx(taper.pedestal, abs=1e-14)


def test_uniform_taper_is_unity():
    assert np.allclose(TaperSpec().amplitude(np.linspace(0, 1, 9)), 1.0)


def test_taper_rejects_positive_edge():
    with pytest.raises(ValueError):
        TaperSpec(+1.0)


# --- quantization -----------------------------------------------------------


def _single_phase_profile(phase):
    return PhaseProfile(np.array([[np.exp(1j * phase)]]), F140, 1e-3)


def test_quantize_snaps_to_nearest_level():
    one_bit = quantize_profile(_single_phase_profile(0.1), 1)
    assert one_bit.phases()[0, 0] == pytest.approx(0.0, abs=1e-12)
    two_bit = quantize_profile(_single_phase_profile(math.pi / 4 + 0.01), 2)
    assert two_bit.phases()[0, 0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert quantize_profile(_single_phase_profile(math.pi / 4 - 0.01), 2).phases()[0, 0] == 0.0


def test_quantize_midpoint_rounds_down():
    tie = quantize_profile(_single_phase_profile(math.pi / 4), 2)
    assert tie.phases()[0, 0] == 0.0


def test_quantize_error_statistics():
    rng = np.random.default_rng(41)
    phases = rng.uniform(0.0, 2.0 * math.pi, (60, 60))
    prof = PhaseProfile(np.exp(1j * phases), F140, 1e-3)
    for bits in (1, 2, 3, 4):
        q = quantize_profile(prof, bits)
        err = np.angle(np.exp(1j * (phases - q.phases())))
        bound = math.pi / 2**bits
        assert np.max(np.abs(err)) <= bound + 1e-12
        # uniform errors average |err| ~ bound/2
        assert np.mean(np.abs(err)) == pytest.approx(bound / 2.0, rel=0.05)


def test_quantize_preserves_magnitude():
    panel = ApertureSpec.from_element_grid(12, F140)
    prof = synthesize_profile(panel, BROADSIDE, OUT45, TaperSpec(-10.0))
    q = quantize_profile(prof, 2)
    assert np.allclose(q.amplitudes(), prof.amplitudes(), atol=1e-12)


def test_quantize_idempotent():
    panel = ApertureSpec.from_element_grid(10, F140)
    prof = synthesize_profile(panel, BROADSIDE, OUT45)
    once = quantize_profile(prof, 2)
    twice = quantize_profile(once, 2)
    assert np.array_equal(once.phases(), twice.phases())
    assert np.allclose(once.coefficients, twice.coefficients, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    bits=st.integers(1, 8),
    data=st.data(),
)
def test_quantize_property(rows, cols, bits, data):
    n = rows * cols
    # a subnormal amplitude (below ~2e-308) cannot carry its phase to 1e-12
    amp = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False))
    amps = data.draw(st.lists(amp, min_size=n, max_size=n))
    phases = data.draw(st.lists(st.floats(-4.0 * math.pi, 4.0 * math.pi), min_size=n, max_size=n))
    prof = PhaseProfile(
        np.reshape(amps, (rows, cols)) * np.exp(1j * np.reshape(phases, (rows, cols))), F140, 1e-3
    )
    step = 2.0 * math.pi / 2**bits
    once = quantize_profile(prof, bits)
    twice = quantize_profile(once, bits)

    def level(q):
        return np.round(q.phases() / step).astype(int) % 2**bits

    def wrapped(a, b):
        return np.abs(np.angle(np.exp(1j * (a - b))))

    # a second pass keeps every element on its level; the exp/abs/angle round
    # trip may still move a coefficient by a few ulp, so it is not bit-equal
    assert np.array_equal(level(once), level(twice))
    assert np.max(np.abs(once.coefficients - twice.coefficients)) <= 1e-15
    assert np.allclose(once.amplitudes(), prof.amplitudes(), rtol=0.0, atol=1e-15)
    assert np.max(wrapped(once.phases(), level(once) * step)) <= 1e-12
    assert np.max(wrapped(once.phases(), prof.phases())) <= step / 2.0 + 1e-12
    _assert_per_cell_bits(prof, once, bits)


def _assert_per_cell_bits(prof, quantized, bits):
    """quantized holds the bits of one exp per cell of its level's phase, amplitudes kept."""
    step = 2.0 * math.pi / 2**bits
    idx = np.ceil(prof.phases() / step - 0.5).astype(int) % 2**bits
    per_cell = prof.amplitudes() * np.exp(1j * idx * step)
    assert np.array_equal(quantized.coefficients.view(np.uint64), per_cell.view(np.uint64))


@pytest.mark.parametrize("theta_deg", [30.0, 45.0, 60.0])
@pytest.mark.parametrize("phi_deg", [0.0, 90.0])
def test_quantized_steers_keep_the_per_cell_bits(theta_deg, phi_deg):
    # a steered gradient puts many phases on level ties, where the tie break decides the level
    prof = synthesize_profile(
        ApertureSpec.from_element_grid(24, F140), BROADSIDE, Direction.from_degrees(theta_deg, phi_deg)
    )
    for bits in range(1, 9):
        _assert_per_cell_bits(prof, quantize_profile(prof, bits), bits)


def test_quantization_levels_refine():
    for bits in range(1, 8):
        coarse = set(np.round(quantization_levels(bits), 12))
        fine = set(np.round(quantization_levels(bits + 1), 12))
        assert coarse <= fine


def test_quantize_bits_bounds():
    panel = ApertureSpec.from_element_grid(4, F140)
    prof = synthesize_profile(panel, BROADSIDE, OUT45)
    with pytest.raises(ValueError):
        quantize_profile(prof, 0)
    with pytest.raises(ValueError):
        quantize_profile(prof, 9)
    assert np.array_equal(quantization_levels(np.int64(2)), quantization_levels(2))  # a numpy integer is one


@pytest.mark.parametrize("bits", [2.5, 2.0, True, False, "2", None])
def test_quantize_refuses_bits_that_are_not_an_integer(bits):
    # 2.5 would quantise to 2**2.5 uneven states and True to 1 bit
    prof = synthesize_profile(ApertureSpec.from_element_grid(4, F140), BROADSIDE, OUT45)
    with pytest.raises(ValueError, match="quantization bits must be an integer") as raised:
        quantize_profile(prof, bits)
    assert "\n" not in str(raised.value)


def test_profile_arrays_immutable():
    panel = ApertureSpec.from_element_grid(4, F140)
    prof = synthesize_profile(panel, BROADSIDE, OUT45)
    with pytest.raises(ValueError):
        prof.coefficients[0, 0] = 0.0


def test_profile_shape_validation():
    with pytest.raises(ValueError, match="2-D"):
        PhaseProfile(np.ones(3, dtype=complex), F140, 1e-3)
    with pytest.raises(ValueError, match="<= 1"):
        PhaseProfile(1.5 * np.ones((3, 3), dtype=complex), F140, 1e-3)
    for bad in (math.nan, complex(math.nan, math.nan)):
        with pytest.raises(ValueError, match="<= 1"):
            PhaseProfile(np.array([[1.0, bad], [1j, 1.0]]), F140, 1e-3)
    for pitch in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="pitch"):
            PhaseProfile(np.ones((3, 3), dtype=complex), F140, pitch)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
def test_a_grid_with_an_empty_axis_is_refused_at_construction(shape):
    # such a grid was accepted, and its lag lattice sent _fast_length into an endless loop
    with pytest.raises(ValueError) as refusal:
        PhaseProfile(np.ones(shape, dtype=complex), F140, 1e-3)
    assert str(refusal.value) == f"coefficients must be a 2-D element grid, at least 1x1, got shape {shape}"


@pytest.mark.parametrize(
    "grid",
    [np.array([["a", "b"]]), np.array([[1.0, "a"]], dtype=object), [[1.0, 0.5], [1.0]], [[10**400]]],
    ids=["str", "object-str", "ragged", "big-int"],
)
def test_a_grid_that_does_not_convert_to_complex_is_refused_in_one_line(grid):
    with pytest.raises(ValueError) as refusal:
        PhaseProfile(grid, F140, 1e-3)
    assert str(refusal.value) == "coefficients must be a grid of numbers"


def test_a_profile_holds_a_read_only_complex128_copy_and_leaves_the_callers_array_as_it_was():
    grid = np.ones((3, 2))
    prof = PhaseProfile(grid, F140, 1e-3)
    assert grid.flags.writeable and grid.dtype == float
    assert prof.coefficients.dtype == np.complex128 and not prof.coefficients.flags.writeable
    grid[0, 0] = 0.0  # the profile holds its own copy
    assert prof.coefficients[0, 0] == 1.0


def test_equal_valued_grids_of_any_dtype_give_the_same_bits():
    # a float32 or complex64 grid was transformed in single precision, and a bool grid raised TypeError
    cells = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1], [1, 0, 0, 1]])
    out = Direction.from_degrees(20.0, 30.0)

    def bits(dtype):
        prof = PhaseProfile(cells.astype(dtype), F140, F140.wavelength_m / 2.0)
        theta, dbi = principal_plane_cut(prof, phi=0.5)
        return [np.float64(hemisphere_power_exact(prof)), np.float64(gain_at(prof, F140, out)), theta, dbi]

    expected = bits(complex)
    for dtype in (bool, int, np.float32, np.complex64, np.complex128, object):
        for a, b in zip(bits(dtype), expected, strict=True):
            assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64)), dtype


def test_lattice_axes_are_mirrored_exactly():
    # the field kernel folds each row i of the coefficient grid onto row n-1-i
    # against the even cos and odd sin of x q, which needs x[n-1-i] == -x[i]
    # with no rounding
    rng = np.random.default_rng(3)
    for rows, cols in [(1, 1), (1, 2), (7, 8), (64, 63), (101, 560)]:
        for pitch in [1e-3, *rng.uniform(1e-5, 1e-2, 5)]:
            prof = PhaseProfile(np.ones((rows, cols), dtype=complex), F140, pitch)
            assert np.array_equal(prof.x_m, -prof.x_m[::-1])
            assert np.array_equal(prof.y_m, -prof.y_m[::-1])


def test_lattice_axes_are_the_centred_formula():
    pitch = 1.07e-3
    prof = PhaseProfile(np.ones((34, 20), dtype=complex), F140, pitch)
    for axis, n in ((prof.x_m, 34), (prof.y_m, 20)):
        assert np.array_equal(axis.view(np.uint64), ((np.arange(n) - (n - 1) / 2.0) * pitch).view(np.uint64))


def test_profiles_keep_the_meshgrid_formulas_bits():
    # every profile equals the meshgrid formula bit for bit, at each design frequency
    rng = np.random.default_rng(5)
    for f0 in (F140, Frequency.from_ghz(100), Frequency.from_ghz(300)):
        for n, edge_db in ((1, 0.0), (7, -3.3), (56, -10.0)):
            panel = ApertureSpec.from_element_grid(n, f0)
            taper = TaperSpec(edge_db)
            x = _centred_axis(n, panel.cell_pitch_m)
            gx, gy = np.meshgrid(x, x, indexing="ij")
            amp = taper.amplitude(np.hypot(gx, gy) / (panel.side_m / 2.0))
            k0 = 2.0 * math.pi / f0.wavelength_m
            for out in (BROADSIDE, *(Direction(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3))):
                u_out, v_out = out.transverse()  # incidence from broadside: u_in = v_in = 0
                psi = np.mod(-k0 * (u_out * gx + v_out * gy), 2.0 * math.pi)
                prof = synthesize_profile(panel, BROADSIDE, out, taper)
                assert np.array_equal(prof.coefficients.view(np.uint64), (amp * np.exp(1j * psi)).view(np.uint64))


def test_synthesis_holds_no_memory_once_its_profile_is_dropped():
    # a 200^2 taper grid is 320 kB; a quarter of it is the slack for allocator noise
    panel = ApertureSpec.from_element_grid(200, F140)
    tracemalloc.start()
    try:
        synthesize_profile(ApertureSpec.from_element_grid(30, F140), BROADSIDE, OUT45, TaperSpec(-10.0))  # warm-up
        before = tracemalloc.get_traced_memory()[0]
        prof = synthesize_profile(panel, BROADSIDE, OUT45, TaperSpec(-10.0))
        del prof
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 8 * 200**2 // 4


def test_synthesis_peak_holds_no_grid_beside_its_phasor():
    # at 300^2 the tracemalloc peak read 3.56 complex grids while psi and the taper were held beside the
    # phasor, and 2.56 with both folded into it: the phasor, the profile's copy and its magnitude check
    panel = ApertureSpec.from_element_grid(300, F140)
    synthesize_profile(ApertureSpec.from_element_grid(30, F140), BROADSIDE, OUT45, TaperSpec(-10.0))  # warm-up
    _, peak = traced_peak(synthesize_profile, panel, BROADSIDE, OUT45, TaperSpec(-10.0))
    assert peak <= 3 * 16 * 300**2


def test_profile_equality_is_identity():
    panel = ApertureSpec.from_element_grid(4, F140)
    p = synthesize_profile(panel, BROADSIDE, OUT45)
    q = quantize_profile(p, 2)
    assert p == p
    assert (p == q) is False
    assert len({p, q}) == 2
