import math
import sys
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import norm

from thz_ris_planner.aperture import UnreachableGeometryError
from thz_ris_planner.core import BistaticGeometry, Direction, Frequency
from thz_ris_planner.link_budget import (
    LinkScenario,
    ReceiverSpec,
    evaluate_link,
    noise_floor_dbm,
    received_power,
    required_rcs,
    required_rcs_for_target,
    required_snr_db,
    _q_inverse,
    sensitivity,
    spreading_term,
)


def reference_geometry():
    return BistaticGeometry(50.0, 50.0, Direction.from_degrees(0), Direction.from_degrees(45))


def reference_scenario():
    return LinkScenario(reference_geometry(), Frequency.from_ghz(140), 20.0, 46.0, 10.0)


def reference_receiver(ber=1e-6):
    return ReceiverSpec(bandwidth_hz=2e9, noise_figure_db=7.0, modulation_order=4, target_ber=ber)


# --- spreading term ---------------------------------------------------------


def test_spreading_reference_value():
    value = spreading_term(reference_geometry(), Frequency.from_ghz(140))
    assert value == pytest.approx(-154.32, abs=0.02)
    assert value == pytest.approx(-154.321243, abs=1e-5)


def test_spreading_collapses_for_4pi_wavelength():
    # d1 = d2 = 1 m and lambda = 4*pi m leaves 10*log10(1/(4*pi))
    f = Frequency(299792458.0 / (4.0 * math.pi))
    geo = BistaticGeometry(1.0, 1.0, Direction(0.0), Direction(0.0))
    assert spreading_term(geo, f) == pytest.approx(10.0 * math.log10(1.0 / (4.0 * math.pi)), abs=1e-9)
    assert spreading_term(geo, f) == pytest.approx(-10.99, abs=0.01)


def test_spreading_depends_on_distance_product_only():
    f = Frequency.from_ghz(140)
    inc, out = Direction(0.0), Direction.from_degrees(45)
    a = spreading_term(BistaticGeometry(25.0, 100.0, inc, out), f)
    b = spreading_term(BistaticGeometry(50.0, 50.0, inc, out), f)
    assert a == pytest.approx(b, abs=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(100):
        d1, d2 = rng.uniform(1.0, 500.0, 2)
        fwd = spreading_term(BistaticGeometry(d1, d2, inc, out), f)
        rev = spreading_term(BistaticGeometry(d2, d1, inc, out), f)
        assert fwd == pytest.approx(rev, abs=1e-12)


def test_spreading_out_of_float_range_names_distance_product():
    f = Frequency.from_ghz(140)
    inc, out = Direction(0.0), Direction.from_degrees(45)
    # (4 pi)^-3 (lambda / (d1 d2))^2 underflows to 0 for d1 d2 above about 3e157 m^2 at 140 GHz
    with pytest.raises(ValueError, match=r"d1\*d2 = 1e\+160 m\^2 .* underflows"):
        spreading_term(BistaticGeometry(1e80, 1e80, inc, out), f)
    # and overflows, or divides by an underflowed d1 d2, at the other end
    for d in (1e-100, 1e-170):
        with pytest.raises(ValueError, match=r"d1\*d2 = .* overflows"):
            spreading_term(BistaticGeometry(d, d, inc, out), f)
    # just inside the range the value is finite and follows 20 log10 of the product
    near = spreading_term(BistaticGeometry(1e75, 1e75, inc, out), f)
    reference = spreading_term(reference_geometry(), f)
    assert near == pytest.approx(reference - 20.0 * math.log10(1e150 / 2500.0))


@pytest.mark.parametrize("hertz, end", [(1e300, "small that the spreading factor underflows"),
                                        (1e-200, "large that the spreading factor overflows")])
def test_spreading_out_of_float_range_names_the_wavelength_too(hertz, end):
    # at d1 = d2 = 50 m it is the wavelength, 3e-292 m or 3e208 m, that puts lambda/(d1*d2) out of range
    with pytest.raises(ValueError) as refusal:
        spreading_term(reference_geometry(), Frequency(hertz))
    lam = f"{299792458.0 / hertz:.3g}"
    assert str(refusal.value) == f"lambda = {lam} m and d1*d2 = 2.5e+03 m^2 make lambda/(d1*d2) so {end}"


# --- received power ---------------------------------------------------------


def test_received_power_reference_scenario():
    assert received_power(reference_scenario(), 18.32) == pytest.approx(-60.0, abs=0.1)


def test_received_power_additive_identity():
    s = LinkScenario(reference_geometry(), Frequency.from_ghz(140), 0.0, 0.0, 0.0)
    assert received_power(s, 0.0) == pytest.approx(spreading_term(s.geometry, s.f), abs=1e-12)


def test_received_power_distance_product_scaling():
    f = Frequency.from_ghz(140)
    inc, out = Direction(0.0), Direction.from_degrees(45)
    near = LinkScenario(BistaticGeometry(50.0, 50.0, inc, out), f, 20.0, 46.0, 10.0)
    far = LinkScenario(BistaticGeometry(50.0, 100.0, inc, out), f, 20.0, 46.0, 10.0)
    drop = received_power(near, 10.0) - received_power(far, 10.0)
    assert drop == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)  # 6.02 dB


def test_received_power_linear_in_gains():
    rng = np.random.default_rng(17)
    base = reference_scenario()
    p0 = received_power(base, 5.0)
    for _ in range(50):
        shift = rng.uniform(-30, 30)
        for field in ("tx_power_dbm", "bs_gain_dbi", "terminal_gain_dbi"):
            kwargs = {
                "geometry": base.geometry,
                "f": base.f,
                "tx_power_dbm": base.tx_power_dbm,
                "bs_gain_dbi": base.bs_gain_dbi,
                "terminal_gain_dbi": base.terminal_gain_dbi,
            }
            kwargs[field] += shift
            assert received_power(LinkScenario(**kwargs), 5.0) - p0 == pytest.approx(shift, abs=1e-9)
        # and in the RCS itself
        assert received_power(base, 5.0 + shift) - p0 == pytest.approx(shift, abs=1e-9)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_received_power_refuses_a_cross_section_that_is_not_finite(sigma):
    with pytest.raises(ValueError) as raised:
        received_power(reference_scenario(), sigma)
    assert str(raised.value) == f"the RIS cross section must be finite, got {sigma} dBsm"


@pytest.mark.parametrize("terms, shown", [(1e308, "inf"), (-1e308, "-inf")])
def test_received_power_refuses_a_sum_beyond_the_float_range(terms, shown):
    # the transmit terms and the cross section are each finite, and so is their own sum
    s = reference_scenario()
    scenario = LinkScenario(s.geometry, s.f, terms, 0.0, 0.0)
    with pytest.raises(ValueError) as raised:
        received_power(scenario, terms)
    assert str(raised.value) == f"the received power of {shown} dBm is beyond the float range"


# --- sensitivity ------------------------------------------------------------


def test_sensitivity_reference_reconstruction():
    # -60 dBm design sensitivity for 4-QAM, 7 dB NF, 2 GHz
    value = sensitivity(reference_receiver())
    assert value == pytest.approx(-60.0, abs=1.0)
    assert value == pytest.approx(-60.4496, abs=0.001)


def test_sensitivity_matches_independent_qpsk_inversion():
    # oracle via scipy's norm.isf instead of the NormalDist route used by the module
    for ber in (1e-6, 1e-3, 1e-4):
        ebn0 = norm.isf(ber) ** 2 / 2.0
        expected = -174.0 + 10 * math.log10(2e9) + 7.0 + 10 * math.log10(2.0 * ebn0)
        assert sensitivity(reference_receiver(ber)) == pytest.approx(expected, abs=1e-9)


def test_q_inverse_matches_norm_isf():
    for p in np.geomspace(1e-15, 0.49, 2001):
        assert _q_inverse(p) == pytest.approx(norm.isf(p), rel=1e-14)


@pytest.mark.parametrize("c_routine", [True, False])
def test_q_inverse_is_normal_dist_bit_for_bit(monkeypatch, c_routine):
    # the C routine and the statistics fallback both give NormalDist's own bits
    if not c_routine:
        monkeypatch.setitem(sys.modules, "_statistics", None)  # its import now raises ImportError
    for p in [*np.geomspace(1e-300, 0.49, 2001).tolist(), 1e-6, 0.25, 0.5 - 2**-54]:
        assert _q_inverse(p) == -NormalDist().inv_cdf(p)


def test_sensitivity_ber_1e3():
    value = sensitivity(reference_receiver(1e-3))
    assert value == pytest.approx(-64.19, abs=0.02)
    assert value == pytest.approx(-63.7, abs=0.5)


def test_noise_floor_is_thermal_floor():
    assert noise_floor_dbm(1.0, 0.0) == pytest.approx(-174.0, abs=1e-12)


def test_sensitivity_monotonic():
    base = reference_receiver()
    wider = ReceiverSpec(4e9, 7.0, 4, 1e-6)
    noisier = ReceiverSpec(2e9, 10.0, 4, 1e-6)
    assert sensitivity(wider) > sensitivity(base)
    assert sensitivity(noisier) > sensitivity(base)
    orders = [2, 4, 16, 64]
    sens = [sensitivity(ReceiverSpec(2e9, 7.0, m, 1e-6)) for m in orders]
    assert all(a < b for a, b in zip(sens, sens[1:]))


def test_required_snr_rejects_unsupported_orders():
    for m in (3, 8, 32, 128):
        with pytest.raises(ValueError):
            required_snr_db(m, 1e-6)
    with pytest.raises(ValueError):
        ReceiverSpec(2e9, 7.0, modulation_order=8)


@pytest.mark.parametrize("m", [16.0, 4.0, math.inf, 1e308, math.nan, True, "16"])
def test_a_modulation_order_that_is_not_an_integer_is_refused_in_one_line(m):
    # a float order reached math.isqrt and raised TypeError, or passed as 4.0
    for refuse in (lambda: required_snr_db(m, 1e-6), lambda: ReceiverSpec(2e9, 7.0, m)):
        with pytest.raises(ValueError) as refusal:
            refuse()
        assert str(refusal.value) == f"unsupported modulation order M={m}; use 2, 4, or square M-QAM (16, 64, ...)"


def test_a_numpy_integer_modulation_order_is_accepted():
    assert required_snr_db(np.int64(16), 1e-6) == required_snr_db(16, 1e-6)


@pytest.mark.parametrize("m", [2, 4, 16])
@pytest.mark.parametrize("ber", [math.nan, math.inf, -math.inf, 0.0, -1e-6, 0.5, 0.9])
def test_required_snr_refuses_a_ber_outside_zero_to_half(m, ber):
    # the check ReceiverSpec runs: without it QPSK took Q^-1 of 0.9 and NaN passed through
    with pytest.raises(ValueError, match=r"target BER must be in \(0, 0.5\)") as raised:
        required_snr_db(m, ber)
    assert "\n" not in str(raised.value)
    with pytest.raises(ValueError, match=r"target BER must be in \(0, 0.5\)"):
        ReceiverSpec(2e9, 7.0, m, ber)


def test_receiver_spec_validation():
    with pytest.raises(ValueError):
        ReceiverSpec(0.0, 7.0)
    with pytest.raises(ValueError):
        ReceiverSpec(2e9, 7.0, target_ber=0.7)
    for bandwidth in (0.0, -1e9):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            noise_floor_dbm(bandwidth)


# --- required RCS -----------------------------------------------------------


def test_required_rcs_reference_scenario():
    # against the -60 dBm design closure
    sigma = required_rcs_for_target(reference_scenario(), -60.0)
    assert sigma == pytest.approx(18.3, abs=0.5)
    assert 10 ** (sigma / 10.0) == pytest.approx(67.9, abs=0.7)
    # full reconstruction lands inside the same window
    assert required_rcs(reference_scenario(), reference_receiver()) == pytest.approx(18.3, abs=0.5)


def test_required_rcs_balanced_budget_is_zero():
    s = reference_scenario()
    target = s.tx_power_dbm + s.bs_gain_dbi + s.terminal_gain_dbi + spreading_term(s.geometry, s.f)
    assert required_rcs_for_target(s, target) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_required_rcs_refuses_a_target_that_is_not_finite(target):
    with pytest.raises(ValueError) as raised:
        required_rcs_for_target(reference_scenario(), target)
    assert str(raised.value) == f"the target received power must be finite, got {target} dBm"


@pytest.mark.parametrize("terms, shown", [(-1e308, "inf"), (1e308, "-inf")])
def test_required_rcs_beyond_the_float_range_is_unreachable(terms, shown):
    # a finite target less finite transmit terms leaves the float range: no panel has that RCS
    s = reference_scenario()
    scenario = LinkScenario(s.geometry, s.f, terms, 0.0, 0.0)
    with pytest.raises(UnreachableGeometryError) as raised:
        required_rcs_for_target(scenario, -terms)
    assert str(raised.value) == f"the required RCS of {shown} dBsm is beyond the float range"


def test_required_rcs_distance_scaling():
    f = Frequency.from_ghz(140)
    inc, out = Direction(0.0), Direction.from_degrees(45)
    full = LinkScenario(BistaticGeometry(50.0, 50.0, inc, out), f, 20.0, 46.0, 10.0)
    half = LinkScenario(BistaticGeometry(25.0, 50.0, inc, out), f, 20.0, 46.0, 10.0)
    r = reference_receiver()
    assert required_rcs(full, r) - required_rcs(half, r) == pytest.approx(
        20.0 * math.log10(2.0), abs=1e-9
    )


def test_budget_closure_consistency():
    rng = np.random.default_rng(23)
    for _ in range(200):
        geo = BistaticGeometry(
            rng.uniform(1, 500),
            rng.uniform(1, 500),
            Direction(rng.uniform(0, math.pi / 2)),
            Direction(rng.uniform(0, math.pi / 2)),
        )
        s = LinkScenario(
            geo,
            Frequency(rng.uniform(1e9, 1e12)),
            rng.uniform(-10, 40),
            rng.uniform(0, 60),
            rng.uniform(0, 30),
        )
        r = ReceiverSpec(rng.uniform(1e6, 1e10), rng.uniform(0, 15))
        residual = received_power(s, required_rcs(s, r)) - sensitivity(r)
        assert abs(residual) < 1e-9


def test_link_report_margin():
    report = evaluate_link(reference_scenario(), -60.0, 18.5082)
    assert report.margin_db == pytest.approx(report.rx_power_dbm - report.sensitivity_dbm, abs=1e-12)
    assert report.margin_db == pytest.approx(0.187, abs=0.01)


def test_budget_terms_must_stay_in_the_float_range():
    f = Frequency.from_ghz(140)
    # each term is finite, their sum is not
    for gains in ((1e308, 1e308, 0.0), (-1e308, -1e308, 10.0)):
        with pytest.raises(ValueError, match=r"tx_power \+ bs_gain \+ terminal_gain must be finite"):
            LinkScenario(reference_geometry(), f, *gains)
    with pytest.raises(ValueError, match="sensitivity must be finite, got -inf dBm"):
        sensitivity(ReceiverSpec(2e9, -1e308, implementation_loss_db=-1e308))
    with pytest.raises(ValueError, match="margin .* must be finite"):
        evaluate_link(LinkScenario(reference_geometry(), f, 1e308, 0.0, 0.0), -1e308, 0.0)
