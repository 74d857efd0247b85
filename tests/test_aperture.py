import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thz_ris_planner.aperture import (
    ApertureSpec,
    EfficiencyLedger,
    UnreachableGeometryError,
    element_count,
    pec_bound_check,
    rcs,
    solve_aperture_size,
)
from thz_ris_planner.core import BROADSIDE, Direction, Frequency
from thz_ris_planner.surface import synthesize_profile

F140 = Frequency.from_ghz(140)
PITCH_3E8 = 0.15 / 140.0  # lambda/2 under the rounded c = 3e8 convention, 1.0714 mm


def test_rcs_reference_panel():
    panel = ApertureSpec(0.110, F140, aperture_efficiency=0.25)
    sigma = rcs(panel, Direction.from_degrees(0), Direction.from_degrees(45))
    assert sigma == pytest.approx(70.9, rel=0.01)


def test_rcs_pec_broadside_equals_flat_plate():
    panel = ApertureSpec(0.05, F140, aperture_efficiency=1.0)
    lam = F140.wavelength_m
    area = panel.side_m**2
    expected = 4.0 * math.pi * area**2 / lam**2
    assert rcs(panel, Direction(0.0), Direction(0.0)) == pytest.approx(expected, rel=1e-12)


def test_rcs_vanishes_at_grazing():
    panel = ApertureSpec(0.05, F140)
    assert rcs(panel, Direction(0.0), Direction(math.pi / 2)) == pytest.approx(0.0, abs=1e-12)


def test_rcs_quartic_in_size():
    inc, out = Direction(0.0), Direction.from_degrees(30)
    small = ApertureSpec(0.04, F140, aperture_efficiency=0.5)
    big = ApertureSpec(0.08, F140, aperture_efficiency=0.5)
    assert rcs(big, inc, out) == pytest.approx(16.0 * rcs(small, inc, out), rel=1e-12)


def test_solve_reference_aperture():
    side = solve_aperture_size(67.9, 0.25, Direction.from_degrees(0), Direction.from_degrees(45), F140)
    assert side * 1e3 == pytest.approx(108.9, abs=2.0)


def test_solve_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        side = rng.uniform(0.01, 1.0)
        eta = rng.uniform(0.05, 1.0)
        f = Frequency(rng.uniform(1e9, 1e12))
        inc = Direction(rng.uniform(0.0, 1.4))
        out = Direction(rng.uniform(0.0, 1.4))
        panel = ApertureSpec(side, f, aperture_efficiency=eta)
        sigma = rcs(panel, inc, out)
        back = solve_aperture_size(sigma, eta, inc, out, f)
        assert abs(back - side) / side < 1e-9


def test_rcs_refuses_its_underflow_to_zero():
    # side^4 = 1e-400 m^4 underflows, though every factor of the RCS is positive
    panel = ApertureSpec(1e-100, F140, cell_pitch_m=1e-100)
    with pytest.raises(UnreachableGeometryError) as raised:
        rcs(panel, BROADSIDE, BROADSIDE)
    assert str(raised.value) == "the panel's RCS underflows to 0 m^2"


@given(
    st.floats(100e9, 300e9),
    st.floats(0.0, 1.0),
    st.floats(1e-200, 1.0),
    st.floats(0.0, 85.0),
    st.floats(0.0, 85.0),
)
def test_rcs_solve_round_trip_property(hz, size, eta, theta_in_deg, theta_out_deg):
    """D -> rcs -> solve_aperture_size returns D for D from one half-wave pitch to 2 m.

    eta stops at 1e-200: below about 1e-290 the RCS is a subnormal float and
    no longer carries D to twelve digits.
    """
    f = Frequency(hz)
    side = f.wavelength_m / 2.0 + size * (2.0 - f.wavelength_m / 2.0)
    inc, out = Direction.from_degrees(theta_in_deg), Direction.from_degrees(theta_out_deg)
    sigma = rcs(ApertureSpec(side, f, aperture_efficiency=eta), inc, out)
    assert solve_aperture_size(sigma, eta, inc, out, f) == pytest.approx(side, rel=1e-12)


def test_solve_eta_scaling():
    inc, out = Direction(0.0), Direction.from_degrees(45)
    d_low = solve_aperture_size(67.9, 0.25, inc, out, F140)
    d_high = solve_aperture_size(67.9, 1.0, inc, out, F140)
    assert d_low / d_high == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_solve_grazing_raises():
    with pytest.raises(UnreachableGeometryError):
        solve_aperture_size(10.0, 0.25, Direction(0.0), Direction(math.pi / 2), F140)


def test_element_count_rounded_c_convention():
    # rounded-c pitch reproduces the quoted 10540 exactly
    panel = ApertureSpec(0.110, F140, cell_pitch_m=PITCH_3E8)
    assert element_count(panel) == 10540
    # exact-c default pitch stays within 1%
    exact = ApertureSpec(0.110, F140)
    assert abs(element_count(exact) - 10540) / 10540 < 0.01


def test_element_count_single_cell():
    panel = ApertureSpec(PITCH_3E8, F140, cell_pitch_m=PITCH_3E8)
    assert element_count(panel) == 1


def test_element_count_80mm():
    for pitch, expected in ((PITCH_3E8, 5575), (None, 5583)):
        panel = ApertureSpec(0.080, F140, cell_pitch_m=pitch)
        n = element_count(panel)
        assert n == expected
        assert abs(n - 5576) / 5576 < 0.01


def test_pec_bound_random_eta():
    rng = np.random.default_rng(37)
    for _ in range(200):
        eta = rng.uniform(1e-6, 1.0)
        panel = ApertureSpec(rng.uniform(0.01, 0.5), F140, aperture_efficiency=eta)
        inc = Direction(rng.uniform(0.0, math.pi / 2))
        out = Direction(rng.uniform(0.0, math.pi / 2))
        assert pec_bound_check(panel, inc, out)


def test_pec_bound_attained_at_unity():
    panel = ApertureSpec(0.1, F140, aperture_efficiency=1.0)
    assert pec_bound_check(panel, Direction(0.2), Direction(0.4))


def test_eta_above_unity_rejected():
    with pytest.raises(ValueError):
        ApertureSpec(0.1, F140, aperture_efficiency=1.2)
    with pytest.raises(ValueError, match="passive aperture efficiency"):
        EfficiencyLedger(1.2)
    for eta in (0.0, 1.2):
        with pytest.raises(ValueError, match="aperture efficiency must be in"):
            solve_aperture_size(67.9, eta, Direction(0.0), Direction.from_degrees(45), F140)


def test_efficiency_ledger_default_budget():
    ledger = EfficiencyLedger(0.5, 3.0)
    assert ledger.resulting_eff == pytest.approx(0.2506, abs=0.0001)
    # within half a percentage point of the quoted 25% limit
    assert abs(ledger.resulting_eff - 0.25) < 0.005


def test_aperture_default_pitch_is_half_wavelength():
    panel = ApertureSpec(0.110, F140)
    assert panel.cell_pitch_m == pytest.approx(F140.wavelength_m / 2.0, rel=1e-14)


def test_aperture_validation():
    with pytest.raises(ValueError):
        ApertureSpec(0.0005, F140)  # smaller than one cell
    with pytest.raises(ValueError):
        ApertureSpec(0.1, F140, cell_pitch_m=-1.0)
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match="required RCS must be positive"):
            solve_aperture_size(sigma, 0.25, Direction(0.0), Direction.from_degrees(45), F140)


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0), True, np.True_, "3"])
def test_element_grid_refuses_a_count_that_is_not_an_integer(n):
    # 2.5 used to give a panel 2.5 pitches wide holding 2^2 cells, and True one cell
    with pytest.raises(ValueError) as refusal:
        ApertureSpec.from_element_grid(n, F140)
    assert str(refusal.value) == f"n_per_side must be an integer in [1, 2^512), got {n!r}"


@pytest.mark.parametrize("n", [3, np.int64(3), np.uint8(3)])
def test_element_grid_takes_any_integer_type(n):
    assert ApertureSpec.from_element_grid(n, F140).n_per_side == 3


def test_element_coordinates_centered():
    panel = ApertureSpec.from_element_grid(5, F140)
    profile = synthesize_profile(panel, BROADSIDE, BROADSIDE)
    x, y = profile.x_m, profile.y_m
    assert x.size == 5
    assert np.allclose(x, -x[::-1])
    assert np.allclose(np.diff(x), panel.cell_pitch_m)
    assert np.allclose(x, y)
