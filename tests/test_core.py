import math

import numpy as np
import pytest

from thz_ris_planner.aperture import ApertureSpec, EfficiencyLedger
from thz_ris_planner.core import (
    BistaticGeometry,
    Direction,
    Frequency,
    SPEED_OF_LIGHT,
    db_to_linear,
    dbm_to_watts,
    fraunhofer_distance,
    linear_to_db,
    watts_to_dbm,
    wavelength,
)
from thz_ris_planner.link_budget import ReceiverSpec
from thz_ris_planner.power import TechnologyProfile
from thz_ris_planner.surface import TaperSpec


def test_db_to_linear_anchors():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
    # 10^(-15.432)
    assert abs(db_to_linear(-154.32) - 3.70e-16) < 1e-18


def test_db_round_trip():
    rng = np.random.default_rng(42)
    for x in rng.uniform(-300.0, 300.0, 500):
        back = linear_to_db(db_to_linear(x))
        assert abs(back - x) <= 1e-12 * max(abs(x), 1.0)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-3.0)


def test_dbm_watts_round_trip():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-14)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    rng = np.random.default_rng(3)
    for p in rng.uniform(-120.0, 60.0, 200):
        assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p, abs=1e-10)


def test_wavelength_anchors():
    assert wavelength(Frequency.from_ghz(140)) == pytest.approx(2.1414e-3, abs=0.0001e-3)
    assert wavelength(Frequency(299.792458e6)) == pytest.approx(1.0, rel=1e-12)
    assert wavelength(Frequency.from_ghz(300)) == pytest.approx(0.99931e-3, abs=0.00001e-3)


def test_wavelength_strictly_decreasing():
    rng = np.random.default_rng(11)
    freqs = np.sort(rng.uniform(1e9, 1e13, 100))
    lams = [wavelength(Frequency(f)) for f in freqs]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_frequency_validation():
    with pytest.raises(ValueError):
        Frequency(0.0)
    with pytest.raises(ValueError):
        Frequency(-1e9)
    with pytest.raises(ValueError):
        Frequency(math.inf)


def test_direction_unit_vector_norm():
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = Direction(rng.uniform(0, math.pi / 2), rng.uniform(-10, 10))
        assert abs(np.linalg.norm(d.unit_vector()) - 1.0) < 1e-12


def test_direction_phi_wraps():
    d = Direction(0.3, 2.0 * math.pi + 0.25)
    assert d.phi == pytest.approx(0.25, abs=1e-12)
    assert 0.0 <= Direction(0.1, -0.1).phi < 2.0 * math.pi


def test_direction_theta_range():
    with pytest.raises(ValueError):
        Direction(-0.01)
    with pytest.raises(ValueError):
        Direction(math.pi / 2 + 0.01)


def test_direction_from_degrees():
    d = Direction.from_degrees(45.0, 90.0)
    u, v = d.transverse()
    assert u == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(math.sin(math.radians(45)), rel=1e-12)


def test_bistatic_geometry_validation():
    inc, out = Direction(0.0), Direction(0.5)
    with pytest.raises(ValueError):
        BistaticGeometry(0.0, 50.0, inc, out)
    with pytest.raises(ValueError):
        BistaticGeometry(50.0, -1.0, inc, out)


F140 = Frequency.from_ghz(140)
NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE, ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize(
    "build",
    [
        lambda x: ApertureSpec(x, F140),
        lambda x: ApertureSpec(0.08, F140, cell_pitch_m=x),
        lambda x: TaperSpec(x),
        lambda x: BistaticGeometry(x, 50.0, Direction(0.0), Direction(0.5)),
        lambda x: BistaticGeometry(50.0, x, Direction(0.0), Direction(0.5)),
        lambda x: ReceiverSpec(bandwidth_hz=x, noise_figure_db=7.0),
        lambda x: ReceiverSpec(bandwidth_hz=2e9, noise_figure_db=x),
        lambda x: ReceiverSpec(bandwidth_hz=2e9, noise_figure_db=7.0, implementation_loss_db=x),
        lambda x: TechnologyProfile("lab", x),
        lambda x: EfficiencyLedger(insertion_loss_db=x),
    ],
    ids=[
        "aperture-side", "aperture-pitch", "taper-edge", "geometry-d1", "geometry-d2",
        "receiver-bandwidth", "receiver-nf", "receiver-impl-loss", "tech-cell-power",
        "ledger-insertion-loss",
    ],
)
def test_validators_reject_non_finite(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_fraunhofer_anchors():
    f140 = Frequency.from_ghz(140)
    assert fraunhofer_distance(0.110, f140) == pytest.approx(11.30, abs=0.05)
    assert fraunhofer_distance(0.080, f140) == pytest.approx(5.98, abs=0.05)
    # D = lambda gives exactly 2*lambda
    lam = wavelength(f140)
    assert fraunhofer_distance(lam, f140) == pytest.approx(2.0 * lam, rel=1e-12)


def test_speed_of_light_is_exact():
    assert SPEED_OF_LIGHT == 299792458.0
