import pytest

from thz_ris_planner.power import PROFILES, TechnologyProfile, panel_power


def test_cmos_panel_power():
    watts = panel_power(10540, PROFILES["cmos_rfsoi"])
    assert watts == pytest.approx(0.2108, rel=1e-12)
    assert watts == pytest.approx(0.211, abs=0.001)


def test_diode_panel_power():
    watts = panel_power(10540, PROFILES["pin_diode"])
    assert watts == pytest.approx(31.62, rel=1e-12)


def test_zero_power_profile():
    free = TechnologyProfile("ideal", 0.0)
    assert panel_power(1, free) == 0.0


def test_panel_power_linear():
    tech = TechnologyProfile("x", 5e-6)
    assert panel_power(200, tech) == pytest.approx(2 * panel_power(100, tech), rel=1e-12)
    doubled = TechnologyProfile("y", 10e-6)
    assert panel_power(100, doubled) == pytest.approx(2 * panel_power(100, tech), rel=1e-12)


def test_cmos_cheaper_than_diodes():
    n = 12345
    assert panel_power(n, PROFILES["cmos_rfsoi"]) < panel_power(n, PROFILES["pin_diode"])


def test_validation():
    with pytest.raises(ValueError):
        panel_power(0, PROFILES["cmos_rfsoi"])
    with pytest.raises(ValueError):
        TechnologyProfile("bad", -1.0)


@pytest.mark.parametrize("n_cells", [1.5, 1.0, True, float("inf"), "10"])
def test_a_cell_count_that_is_not_an_integer_is_refused(n_cells):
    # 1.5 cells drew the power of 1.5 cells, and True that of one
    with pytest.raises(ValueError) as refusal:
        panel_power(n_cells, PROFILES["cmos_rfsoi"])
    assert str(refusal.value) == f"a panel needs a whole number of cells, at least one, got {n_cells!r}"
