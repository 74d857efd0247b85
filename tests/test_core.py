import math

import numpy as np
import pytest

from thz_ris_planner.aperture import ApertureSpec, EfficiencyLedger
from thz_ris_planner.core import (
    BistaticGeometry,
    Direction,
    Frequency,
    SPEED_OF_LIGHT,
    fraunhofer_distance,
)
from thz_ris_planner.link_budget import ReceiverSpec
from thz_ris_planner.power import TechnologyProfile
from thz_ris_planner.surface import TaperSpec


def test_wavelength_anchors():
    assert Frequency.from_ghz(140).wavelength_m == pytest.approx(2.1414e-3, abs=0.0001e-3)
    assert Frequency(299.792458e6).wavelength_m == pytest.approx(1.0, rel=1e-12)
    assert Frequency.from_ghz(300).wavelength_m == pytest.approx(0.99931e-3, abs=0.00001e-3)


def test_wavelength_strictly_decreasing():
    rng = np.random.default_rng(11)
    freqs = np.sort(rng.uniform(1e9, 1e13, 100))
    lams = [Frequency(f).wavelength_m for f in freqs]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_frequency_validation():
    with pytest.raises(ValueError):
        Frequency(0.0)
    with pytest.raises(ValueError):
        Frequency(-1e9)
    with pytest.raises(ValueError):
        Frequency(math.inf)


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
    lam = f140.wavelength_m
    assert fraunhofer_distance(lam, f140) == pytest.approx(2.0 * lam, rel=1e-12)


def test_speed_of_light_is_exact():
    assert SPEED_OF_LIGHT == 299792458.0
