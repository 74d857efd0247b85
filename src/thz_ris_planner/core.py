"""Units, constants and angular primitives shared by all modules."""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299792458.0  # m/s, exact


def _finite(compute, error: Exception) -> float:
    """compute(), or raise error where it overflows, divides by an underflowed zero or is not finite."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise error
    return value


class Value:
    """Immutable record whose fields are the names in __slots__, in order.

    Value.__init__ takes each field once, by position or by name, so a record
    that checks nothing declares no constructor; a subclass with invariants
    validates its arguments in __init__ and stores them through Value.__init__.
    Equality, hash and repr go field by field; copies and pickles rebuild the
    object through __init__, so they are validated too.
    """

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        names = self.__slots__
        fields = {**dict(zip(names, values)), **named}  # a surplus or doubled field shows in the count
        if fields.keys() != set(names) or len(values) + len(named) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes each of ({', '.join(names)}) once")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class Frequency(Value):
    """A positive frequency in hertz."""

    __slots__ = ("hertz",)

    def __init__(self, hertz: float):
        if not (hertz > 0 and math.isfinite(hertz)):
            raise ValueError(f"frequency must be positive and finite, got {hertz}")
        super().__init__(hertz)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.hertz

    @classmethod
    def from_ghz(cls, value: float) -> "Frequency":
        return cls(value * 1e9)


class Direction(Value):
    """Propagation direction: polar angle theta in [0, pi/2], azimuth phi in [0, 2*pi).

    theta is measured from the surface normal (broadside); phi wraps modulo 2*pi
    at construction.
    """

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float = 0.0):
        if not (0.0 <= theta <= math.pi / 2):
            raise ValueError(f"theta must be in [0, pi/2], got {theta}")
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi}")
        super().__init__(theta, phi % (2.0 * math.pi))

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float = 0.0) -> "Direction":
        return cls(math.radians(theta_deg), math.radians(phi_deg))

    def transverse(self) -> tuple[float, float]:
        """In-plane direction cosines (u, v) = (sin(theta)cos(phi), sin(theta)sin(phi))."""
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi)


BROADSIDE = Direction(0.0, 0.0)


class BistaticGeometry(Value):
    """One BS -> RIS -> terminal hop: path lengths plus incident/outgoing directions."""

    __slots__ = ("d1_m", "d2_m", "incident", "outgoing")

    def __init__(self, d1_m: float, d2_m: float, incident: Direction, outgoing: Direction):
        if not (0.0 < d1_m < math.inf and 0.0 < d2_m < math.inf):
            raise ValueError("path lengths d1 and d2 must be positive and finite")
        super().__init__(d1_m, d2_m, incident, outgoing)
