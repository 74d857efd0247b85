"""Units, constants, angular primitives, and dB arithmetic shared by all modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0  # m/s, exact


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to a linear power ratio: 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a positive linear power ratio to dB."""
    if x <= 0:
        raise ValueError("linear power ratio must be positive")
    return 10.0 * math.log10(x)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    if p_w <= 0:
        raise ValueError("power must be positive")
    return 10.0 * math.log10(p_w) + 30.0


@dataclass(frozen=True)
class Frequency:
    """A positive frequency in hertz."""

    hertz: float

    def __post_init__(self):
        if not (self.hertz > 0 and math.isfinite(self.hertz)):
            raise ValueError(f"frequency must be positive and finite, got {self.hertz}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.hertz

    @classmethod
    def from_ghz(cls, value: float) -> "Frequency":
        return cls(value * 1e9)


def wavelength(f: Frequency) -> float:
    """Free-space wavelength in meters."""
    return f.wavelength_m


@dataclass(frozen=True)
class Direction:
    """Propagation direction: polar angle theta in [0, pi/2], azimuth phi in [0, 2*pi).

    theta is measured from the surface normal (broadside); phi wraps modulo 2*pi
    at construction.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi / 2):
            raise ValueError(f"theta must be in [0, pi/2], got {self.theta}")
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float = 0.0) -> "Direction":
        return cls(math.radians(theta_deg), math.radians(phi_deg))

    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)

    def transverse(self) -> tuple[float, float]:
        """In-plane direction cosines (u, v) = (sin(theta)cos(phi), sin(theta)sin(phi))."""
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi)


BROADSIDE = Direction(0.0, 0.0)


@dataclass(frozen=True)
class BistaticGeometry:
    """One BS -> RIS -> terminal hop: path lengths plus incident/outgoing directions."""

    d1_m: float
    d2_m: float
    incident: Direction
    outgoing: Direction

    def __post_init__(self):
        if not (0.0 < self.d1_m < math.inf and 0.0 < self.d2_m < math.inf):
            raise ValueError("path lengths d1 and d2 must be positive and finite")


def fraunhofer_distance(aperture_d_m: float, f: Frequency) -> float:
    """Far-field boundary 2*D^2/lambda for an aperture of size D."""
    if aperture_d_m <= 0:
        raise ValueError("aperture size must be positive")
    return 2.0 * aperture_d_m**2 / f.wavelength_m
