"""Aperture sizing from a required radar cross section.

The RCS of a square RIS panel of side D with aperture efficiency eta is

    sigma = eta * (4*pi / lambda^2) * D^4 * cos(theta_in) * cos(theta_out)

which is bounded by the eta = 1 specular flat-plate value. Inverting for D
gives the panel size needed to close a link budget.
"""

from __future__ import annotations

import math

from .core import Direction, Frequency, Value, _finite, _integer


class UnreachableGeometryError(ValueError):
    """Raised when the requested scatter geometry cannot produce the RCS."""


def _cell_pitch(cell_pitch_m: float | None, design_freq: Frequency) -> float:
    """cell_pitch_m, or half a wavelength at design_freq where it is None, if it is positive and finite."""
    pitch = design_freq.wavelength_m / 2.0 if cell_pitch_m is None else cell_pitch_m
    return _finite(pitch, "cell pitch must be positive and finite", lambda p: p > 0.0)


class ApertureSpec(Value):
    """Square RIS aperture: side length, unit-cell pitch, and efficiency.

    cell_pitch_m defaults to half a wavelength at the design frequency.
    """

    __slots__ = ("side_m", "design_freq", "cell_pitch_m", "aperture_efficiency")

    def __init__(self, side_m: float, design_freq: Frequency, cell_pitch_m: float | None = None,
                 aperture_efficiency: float = 1.0):
        pitch = _cell_pitch(cell_pitch_m, design_freq)
        eff = _finite(aperture_efficiency, "aperture efficiency must be in (0, 1]", lambda e: 0.0 < e <= 1.0)
        # below 2^512 pitches, so that (side/pitch)^2 cells do not overflow a float
        side_m = _finite(side_m, "aperture side must be finite and span [1, 2^512) cell pitches",
                         lambda s: 1.0 <= s / pitch < 2.0**512)
        super().__init__(side_m, design_freq, pitch, eff)

    @classmethod
    def from_element_grid(
        cls,
        n_per_side: int,
        design_freq: Frequency,
        cell_pitch_m: float | None = None,
        aperture_efficiency: float = 1.0,
    ) -> "ApertureSpec":
        """Aperture sized to hold exactly n_per_side x n_per_side cells; n_per_side is an integer in [1, 2^512)."""
        # below 2^512, so that n_per_side^2 cells do not overflow a float
        n_per_side = _integer(n_per_side, "n_per_side must be an integer in [1, 2^512), got {!r}",
                              lambda n: 1 <= n < 2**512)
        pitch = _cell_pitch(cell_pitch_m, design_freq)  # checked first: n_per_side times a str repeats it
        return cls(n_per_side * pitch, design_freq, pitch, aperture_efficiency)

    @property
    def n_per_side(self) -> int:
        """Cells per axis of the populated grid (nearest integer to D/pitch)."""
        return int(round(self.side_m / self.cell_pitch_m))


def rcs(a: ApertureSpec, incident: Direction, outgoing: Direction) -> float:
    """RIS radar cross section in square meters.

    Raises ValueError when the side or the wavelength puts the RCS beyond
    the float range, and UnreachableGeometryError when the RCS, which is
    positive, underflows to 0 m^2.
    """
    lam = a.design_freq.wavelength_m
    sigma = _finite(
        lambda: a.aperture_efficiency * (4.0 * math.pi / lam**2) * a.side_m**4
        * math.cos(incident.theta) * math.cos(outgoing.theta),
        f"the RCS of a {a.side_m:.3g} m side at {lam:.3g} m wavelength overflows",
    )
    if sigma == 0.0:
        raise UnreachableGeometryError("the panel's RCS underflows to 0 m^2")
    return sigma


def solve_aperture_size(
    required_sigma_m2: float,
    eta: float,
    incident: Direction,
    outgoing: Direction,
    f: Frequency,
) -> float:
    """Side length D (m) whose RCS equals required_sigma_m2.

    Raises UnreachableGeometryError at grazing incidence or reflection, where
    the cosine product collapses, and when D^4 overflows because eta times
    that product is too small or lambda too long: no finite aperture closes it.
    """
    _finite(required_sigma_m2, "required RCS must be positive and finite, got {} m^2", lambda s: s > 0.0)
    _finite(eta, "aperture efficiency must be in (0, 1]", lambda e: 0.0 < e <= 1.0)
    cos_product = math.cos(incident.theta) * math.cos(outgoing.theta)
    if cos_product <= 1e-12:
        raise UnreachableGeometryError(
            "unreachable geometry: cos(theta_in)*cos(theta_out) is zero at grazing angles"
        )
    denominator = 4.0 * math.pi * eta * cos_product
    quartic = _finite(
        lambda: required_sigma_m2 * f.wavelength_m**2 / denominator,
        "no finite side reaches the required RCS: eta*cos(theta_in)*cos(theta_out)/lambda^2 is too small",
        error=UnreachableGeometryError,
    )
    return quartic**0.25


def element_count(a: ApertureSpec) -> int:
    """Number of unit cells, as the area ratio (D/pitch)^2 rounded to an integer.

    This is the count that solve-aperture and power report. The radiating
    grid instead holds n_per_side^2 cells, with n_per_side the per-axis ratio
    rounded; the two can differ (10555 vs 103^2 = 10609 for a 110 mm panel
    with half-wave cells at 140 GHz).
    """
    return int(round((a.side_m / a.cell_pitch_m) ** 2))


def pec_bound_check(a: ApertureSpec, incident: Direction, outgoing: Direction) -> bool:
    """True iff the RCS does not exceed the specular PEC flat-plate limit."""
    pec = ApertureSpec(a.side_m, a.design_freq, a.cell_pitch_m, 1.0)
    return rcs(a, incident, outgoing) <= rcs(pec, incident, outgoing) * (1.0 + 1e-12)


class EfficiencyLedger(Value):
    """Decomposition of the lumped aperture efficiency into its budget lines."""

    __slots__ = ("passive_aperture_eff", "insertion_loss_db")

    def __init__(self, passive_aperture_eff: float = 0.5, insertion_loss_db: float = 3.0):
        super().__init__(
            _finite(passive_aperture_eff, "passive aperture efficiency must be in (0, 1]", lambda e: 0.0 < e <= 1.0),
            _finite(insertion_loss_db, "insertion loss must be finite and >= 0 dB", lambda db: db >= 0.0),
        )

    @property
    def resulting_eff(self) -> float:
        return self.passive_aperture_eff * 10.0 ** (-self.insertion_loss_db / 10.0)
