import math

import numpy as np
import pytest

from thz_ris_planner.aperture import ApertureSpec
from thz_ris_planner.core import BROADSIDE, Direction, Frequency
from thz_ris_planner.surface import (
    CellStateTable,
    PhaseProfile,
    TaperSpec,
    UNIFORM_TAPER,
    UnitCellState,
    apply_cell_model,
    demo_cell_table,
    generate_codebook,
    quantization_levels,
    quantize_profile,
    synthesize_profile,
)

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
    assert np.allclose(UNIFORM_TAPER.amplitude(np.linspace(0, 1, 9)), 1.0)


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
    assert tie.state_index[0, 0] == 0


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
    assert np.array_equal(once.state_index, twice.state_index)
    assert np.allclose(once.coefficients, twice.coefficients, atol=0.0)


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
    for pitch in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="pitch"):
            PhaseProfile(np.ones((3, 3), dtype=complex), F140, pitch)


# --- cell model -------------------------------------------------------------


def _ideal_two_bit_table(amplitude=1.0):
    states = []
    for s in range(4):
        refl = amplitude * np.exp(1j * s * math.pi / 2) * np.ones(2)
        states.append(UnitCellState(s, np.array([120e9, 160e9]), refl))
    return CellStateTable(states)


def test_lossless_flat_table_is_identity():
    panel = ApertureSpec.from_element_grid(10, F140)
    q = quantize_profile(synthesize_profile(panel, BROADSIDE, OUT45), 2)
    same = apply_cell_model(q, _ideal_two_bit_table(), F140)
    assert np.allclose(same.coefficients, q.coefficients, atol=1e-12)


def test_demo_table_applies_3db_loss():
    panel = ApertureSpec.from_element_grid(10, F140)
    q = quantize_profile(synthesize_profile(panel, BROADSIDE, OUT45, TaperSpec(-10.0)), 2)
    lossy = apply_cell_model(q, demo_cell_table(), F140)
    ratio = lossy.amplitudes() / q.amplitudes()
    assert np.allclose(ratio, 10.0 ** (-3.0 / 20.0), atol=1e-4)
    # phases untouched by a phase-ideal table
    assert np.allclose(lossy.phases(), q.phases(), atol=1e-9)


def test_table_interpolates_midband():
    state = UnitCellState(
        0, np.array([130e9, 150e9]), np.array([0.9 * np.exp(0.5j), 0.7 * np.exp(1.5j)])
    )
    table = CellStateTable([state])
    mid = table.response(0, F140)
    assert abs(mid) == pytest.approx(0.8, abs=1e-12)
    assert np.angle(mid) == pytest.approx(1.0, abs=1e-12)


def test_table_out_of_band_raises():
    table = demo_cell_table()
    panel = ApertureSpec.from_element_grid(4, F140)
    q = quantize_profile(synthesize_profile(panel, BROADSIDE, OUT45), 2)
    with pytest.raises(ValueError, match="out of band"):
        apply_cell_model(q, table, Frequency.from_ghz(200))


def test_cell_model_requires_quantized_profile():
    panel = ApertureSpec.from_element_grid(4, F140)
    continuous = synthesize_profile(panel, BROADSIDE, OUT45)
    with pytest.raises(ValueError):
        apply_cell_model(continuous, demo_cell_table(), F140)


def test_cell_table_validation():
    with pytest.raises(ValueError):
        UnitCellState(0, np.array([150e9, 130e9]), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        UnitCellState(0, np.array([130e9, 150e9]), 1.2 * np.ones(2, dtype=complex))


def test_cell_table_csv_round_trip(tmp_path):
    path = tmp_path / "cells.csv"
    src = demo_cell_table()
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "state_index", "amplitude_linear", "phase_rad"])
        for s in range(4):
            for f_hz in (120e9, 160e9):
                resp = src.response(s, Frequency(f_hz))
                writer.writerow([f_hz, s, abs(resp), np.angle(resp) % (2 * math.pi)])
    loaded = CellStateTable.from_csv(path)
    assert len(loaded) == 4
    for s in range(4):
        assert loaded.response(s, F140) == pytest.approx(src.response(s, F140), abs=1e-9)


# --- codebook ---------------------------------------------------------------


def test_codebook_single_broadside_entry():
    panel = ApertureSpec.from_element_grid(8, F140)
    (entry,) = generate_codebook(panel, [BROADSIDE], bits=2)
    assert np.all(entry.state_index == entry.state_index[0, 0])


def test_codebook_matches_composition():
    panel = ApertureSpec.from_element_grid(12, F140)
    grid = [Direction.from_degrees(t) for t in (30, 45, 60)]
    book = generate_codebook(panel, grid, bits=2)
    assert len(book) == 3
    expected = quantize_profile(synthesize_profile(panel, BROADSIDE, grid[1]), 2)
    assert np.array_equal(book[1].state_index, expected.state_index)


def test_codebook_rejects_empty_grid():
    panel = ApertureSpec.from_element_grid(4, F140)
    with pytest.raises(ValueError):
        generate_codebook(panel, [], bits=2)
