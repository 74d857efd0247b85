"""Bistatic RIS link budget: received power, receiver sensitivity, and the
radar cross section required to close a link.

The receive/transmit power ratio in dB is

    P_rx - P_tx = G_BS + G_T + sigma_RIS + 10*log10( (4*pi)^-3 * (lambda/(d1*d2))^2 )

with sigma_RIS in dBsm. Sensitivity follows the standard chain

    P_min = -174 dBm/Hz + 10*log10(B) + NF + SNR_req

where SNR_req comes from inverting the Gray-coded square M-QAM BER curve at
the target BER (Nyquist signaling, symbol rate equal to bandwidth).
"""

from __future__ import annotations

import math

from .aperture import UnreachableGeometryError
from .core import BistaticGeometry, Frequency, Value, _finite, _integer

THERMAL_NOISE_DBM_HZ = -174.0  # kT at 290 K


class LinkScenario(Value):
    """Geometry, gains, and transmit power of one BS-RIS-terminal link."""

    __slots__ = ("geometry", "f", "tx_power_dbm", "bs_gain_dbi", "terminal_gain_dbi")

    def __init__(self, geometry: BistaticGeometry, f: Frequency, tx_power_dbm: float,
                 bs_gain_dbi: float, terminal_gain_dbi: float):
        terms = [_finite(term, "tx_power, bs_gain and terminal_gain must each be finite, got {}")
                 for term in (tx_power_dbm, bs_gain_dbi, terminal_gain_dbi)]
        _finite(sum(terms), "tx_power + bs_gain + terminal_gain must be finite, got {} dBm")
        super().__init__(geometry, f, *terms)


class ReceiverSpec(Value):
    """Receiver noise bandwidth, noise figure, and modulation target.

    modulation_order is the M of M-QAM; supported orders are 2 (BPSK), 4
    (QPSK), and square constellations 16, 64, 256, ...
    """

    __slots__ = ("bandwidth_hz", "noise_figure_db", "modulation_order", "target_ber",
                 "implementation_loss_db")

    def __init__(self, bandwidth_hz: float, noise_figure_db: float, modulation_order: int = 4,
                 target_ber: float = 1e-6, implementation_loss_db: float = 0.0):
        bandwidth_hz = _finite(bandwidth_hz, "bandwidth must be positive and finite", lambda b: b > 0.0)
        noise_figure_db = _finite(noise_figure_db, "noise_figure_db must be finite")
        implementation_loss_db = _finite(implementation_loss_db, "implementation_loss_db must be finite")
        target_ber = _check_target_ber(target_ber)
        modulation_order = _check_modulation_order(modulation_order)
        super().__init__(bandwidth_hz, noise_figure_db, modulation_order, target_ber, implementation_loss_db)


class LinkReport(Value):
    """One link's received rx_power_dbm and sensitivity_dbm (dBm), and its spreading_term_db (dB)."""

    __slots__ = ("rx_power_dbm", "sensitivity_dbm", "spreading_term_db")

    @property
    def margin_db(self) -> float:
        return self.rx_power_dbm - self.sensitivity_dbm


def _check_modulation_order(m: int) -> int:
    return _integer(m, "unsupported modulation order M={}; use 2, 4, or square M-QAM (16, 64, ...)",
                    lambda m: m in (2, 4) or (m >= 16 and math.isqrt(m) ** 2 == m and m & (m - 1) == 0))


def _check_target_ber(ber: float) -> float:
    return _finite(ber, "target BER must be in (0, 0.5)", lambda b: 0.0 < b < 0.5)


def _q_inverse(p: float) -> float:
    """Inverse of the Gaussian tail function Q: -NormalDist().inv_cdf(p), bit for bit.

    CPython's NormalDist.inv_cdf is the C routine _statistics._normal_dist_inv_cdf;
    calling it directly spares a scalar command that derives its sensitivity from
    M-QAM the import of statistics, with fractions, decimal and random: about 3 ms.
    """
    try:
        from _statistics import _normal_dist_inv_cdf
    except ImportError:  # an interpreter without the C routine
        from statistics import NormalDist

        return -NormalDist().inv_cdf(p)
    return -_normal_dist_inv_cdf(p, 0.0, 1.0)


def required_snr_db(modulation_order: int, target_ber: float) -> float:
    """SNR (dB) needed for the target BER with Gray-coded M-QAM.

    BPSK/QPSK use the exact relation BER = Q(sqrt(2*Eb/N0)); higher square
    orders invert BER ~ (4/log2 M)(1 - 1/sqrt(M)) Q(sqrt(3*SNR/(M-1))).
    Past M = 4^510 that SNR is beyond the float range, and the order is refused.
    """
    m = _check_modulation_order(modulation_order)
    _check_target_ber(target_ber)
    bits = math.log2(m)
    if m in (2, 4):
        ebn0 = _q_inverse(target_ber) ** 2 / 2.0
        return 10.0 * math.log10(ebn0 * bits)

    def snr() -> float:  # overflows to inf, or raises OverflowError once M itself is past the float range
        arg = target_ber * bits / (4.0 * (1.0 - 1.0 / math.sqrt(m)))
        if arg >= 0.5:
            raise ValueError("target BER too loose for this modulation order")
        return (m - 1) / 3.0 * _q_inverse(arg) ** 2

    return 10.0 * math.log10(_finite(snr, f"unsupported modulation order M=2^{bits:g}: its required SNR overflows"))


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Receiver noise power: -174 dBm/Hz + 10*log10(B) + NF."""
    _finite(bandwidth_hz, "bandwidth must be positive and finite", lambda b: b > 0.0)
    _finite(noise_figure_db, "noise_figure_db must be finite")
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def sensitivity(r: ReceiverSpec) -> float:
    """Minimum received power (dBm) that sustains the target BER; it must be a finite float."""
    return _finite(
        noise_floor_dbm(r.bandwidth_hz, r.noise_figure_db)
        + required_snr_db(r.modulation_order, r.target_ber)
        + r.implementation_loss_db,
        "the sensitivity must be finite, got {} dBm",
    )


def spreading_term(geometry: BistaticGeometry, f: Frequency) -> float:
    """Bistatic spreading factor 10*log10((4*pi)^-3 * (lambda/(d1*d2))^2) in dB.

    Raises ValueError when lambda/(d1*d2) is so large or so small that the
    factor leaves the range of a float.
    """
    lam = f.wavelength_m
    d1d2 = geometry.d1_m * geometry.d2_m
    terms = f"lambda = {lam:.3g} m and d1*d2 = {d1d2:.3g} m^2 make lambda/(d1*d2) so"
    factor = _finite(
        lambda: (1.0 / (4.0 * math.pi) ** 3) * (lam / d1d2) ** 2,
        f"{terms} large that the spreading factor overflows",
    )
    if factor == 0.0:
        raise ValueError(f"{terms} small that the spreading factor underflows")
    return 10.0 * math.log10(factor)


def received_power(s: LinkScenario, sigma_ris_dbsm: float) -> float:
    """Received power (dBm) for a given RIS radar cross section in dBsm.

    Raises ValueError when that power is beyond the float range.
    """
    _finite(sigma_ris_dbsm, "the RIS cross section must be finite, got {} dBsm")
    return _finite(
        s.tx_power_dbm
        + s.bs_gain_dbi
        + s.terminal_gain_dbi
        + sigma_ris_dbsm
        + spreading_term(s.geometry, s.f),
        "the received power of {} dBm is beyond the float range",
    )


def required_rcs_for_target(s: LinkScenario, target_rx_dbm: float) -> float:
    """RCS (dBsm) that makes the received power equal target_rx_dbm.

    Raises UnreachableGeometryError when that RCS is beyond the float range.
    """
    _finite(target_rx_dbm, "the target received power must be finite, got {} dBm")
    return _finite(
        target_rx_dbm
        - s.tx_power_dbm
        - s.bs_gain_dbi
        - s.terminal_gain_dbi
        - spreading_term(s.geometry, s.f),
        "the required RCS of {} dBsm is beyond the float range",
        error=UnreachableGeometryError,
    )


def required_rcs(s: LinkScenario, r: ReceiverSpec) -> float:
    """RCS (dBsm) that closes the link exactly at the receiver sensitivity."""
    return required_rcs_for_target(s, sensitivity(r))


def evaluate_link(s: LinkScenario, sensitivity_dbm: float, sigma_ris_dbsm: float) -> LinkReport:
    """Assemble the received power, sensitivity, and margin into one report; the margin must be finite."""
    report = LinkReport(
        rx_power_dbm=received_power(s, sigma_ris_dbsm),
        sensitivity_dbm=_finite(sensitivity_dbm, "the sensitivity must be finite, got {} dBm"),
        spreading_term_db=spreading_term(s.geometry, s.f),
    )
    _finite(report.margin_db,
            f"the margin {report.rx_power_dbm:.6g} - ({report.sensitivity_dbm:.6g}) dB must be finite")
    return report
