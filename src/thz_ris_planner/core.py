"""Units, constants, angular primitives and the 1 GiB array budget shared by all modules."""

from __future__ import annotations

import itertools
import math
import operator
import types

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
PEAK_WINDOW = 21  # samples of the steering-plane array factor around the beam
MAX_ARRAY_BYTES = 2**30  # largest single array a pattern or squint run may allocate


def _finite(value, message: str, within=lambda x: True, error: type = ValueError) -> float:
    """value as a float, or raise error(message) unless it is a finite real that within accepts.

    The one rule for a real scalar: a str or another non-number, an int past
    the float range, NaN and +-inf are refused alike. A function value, made
    of values already checked, is called first, so a product is checked even
    where building it overflows or divides by an underflowed zero. The {} in
    message shows value, or the function's result (inf where it overflowed);
    an int of more than 64 bits shows as its size, since its digits would make a
    line of hundreds of characters, or more than Python prints.
    """
    deferred = isinstance(value, types.FunctionType)
    try:
        x = value() if deferred else value
        x = math.nan if isinstance(x, (str, bytes)) else float(x)
    except (OverflowError, ZeroDivisionError):
        x = math.inf
    except TypeError:
        if deferred:  # a function of checked values meets no non-number: this is a fault, not an input
            raise
        x = math.nan
    if not (math.isfinite(x) and within(x)):
        raise error(message.format(x if deferred else _shown(value)))
    return x


def _integer(value, message: str, within=lambda n: True) -> int:
    """value as the Python int of its value, or raise ValueError(message) unless it is an integer that within accepts.

    The one rule for an integer input: it is converted with operator.index,
    which takes an int or a numpy integer, so a numpy integer is used at its
    value and never in its fixed width, and refuses numpy's bool, a float, a
    str and None; a bool is refused too. The {} in message shows value, an
    int of more than 64 bits by its size, as _finite does.
    """
    if not isinstance(value, bool) and hasattr(type(value), "__index__") and within(n := operator.index(value)):
        return n
    raise ValueError(message.format(_shown(value)))


class _Size(str):
    """The size of an int too long to print, as a message shows it: alike under {} and {!r}."""

    __repr__ = str.__str__


def _shown(value):
    """value as a message shows it, an int of more than 64 bits by its size: its digits would make too long a line."""
    if isinstance(value, int) and value.bit_length() > 64:
        return _Size(f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits")
    return value


def _fast_length(n: int) -> int:
    """Least 5-smooth length 2^a 3^b 5^c >= max(n, 1), a size pocketfft transforms without Bluestein."""
    for length in itertools.count(max(n, 1)):
        m = length
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return length


def _largest_array(
    n_per_side: int, n_freqs: int = 1, n_directions: int = 0, n_angles: int = 1
) -> tuple[str, int]:
    """(name, bytes) of the largest array a pattern or squint run would allocate.

    Estimated from the sizes alone: the lattice FFT counts max(2n, L)^2
    complex values, 2n the side of the pattern_uv map, which peaks near two
    such lattices, and L the 5-smooth length of the power autocorrelation,
    whose blocks hold about one; squint n_freqs floats per PEAK_WINDOW
    sample of the beam track and per angle, and one float per distinct lag
    radius (at most n(n+1)/2) per angle; the cuts one complex value per
    direction of each. L is only sought once (2n)^2 fits the limit, so the
    estimate costs nothing however large n is.
    """
    side = 2 * n_per_side
    if 16 * side**2 <= MAX_ARRAY_BYTES:
        side = max(side, _fast_length(side - 1))
    candidates = (
        ("lattice FFT", 16 * side**2),
        ("beam track", 8 * n_freqs * PEAK_WINDOW),
        ("radial correlation", 8 * n_per_side * (n_per_side + 1) // 2 * n_angles),
        ("squint power", 8 * n_freqs * n_angles),
        ("cut", 16 * n_directions),
    )
    return max(candidates, key=lambda c: c[1])


def _refuse_over_limit(name: str, size: float) -> None:
    """Raise ValueError, one line, if the named array of size bytes would exceed MAX_ARRAY_BYTES."""
    if size > MAX_ARRAY_BYTES:
        gib = size / 2**30 if size < 2**1024 else math.inf  # only an int past the float range reads inf
        raise ValueError(
            f"the {name} would need {gib:.3g} GiB, over the "
            f"{MAX_ARRAY_BYTES / 2**30:g} GiB limit; reduce the panel or samples"
        )


def check_array_budget(n_per_side: int, n_freqs: int = 1, n_directions: int = 0, n_angles: int = 1) -> None:
    """Raise ValueError before a run whose largest array would exceed MAX_ARRAY_BYTES."""
    _refuse_over_limit(*_largest_array(n_per_side, n_freqs, n_directions, n_angles))


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


class ArrayRecord(Value):
    """A Value whose fields hold arrays, whose == gives no one truth value: it compares and hashes by identity."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Frequency(Value):
    """A positive frequency in hertz whose wavelength is finite: above about 1.67e-300 Hz."""

    __slots__ = ("hertz",)

    def __init__(self, hertz: float):
        hertz = _finite(hertz, "frequency must be positive and finite, got {}", lambda hz: hz > 0.0)
        _finite(SPEED_OF_LIGHT / hertz, f"frequency {hertz:.3g} Hz is so low that its wavelength overflows")
        super().__init__(hertz)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.hertz

    @classmethod
    def from_ghz(cls, value: float) -> "Frequency":
        return cls(_finite(value, "frequency must be finite, got {} GHz") * 1e9)


def _wavenumber(hertz):
    """k = 2*pi/lambda (rad/m) of a frequency or an array of them: finite for every frequency Frequency accepts."""
    return 2.0 * math.pi / (SPEED_OF_LIGHT / hertz)


class Direction(Value):
    """Propagation direction: polar angle theta in [0, pi/2], azimuth phi in [0, 2*pi).

    theta is measured from the surface normal (broadside); phi wraps modulo 2*pi
    at construction.
    """

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float = 0.0):
        theta = _finite(theta, "theta must be in [0, pi/2], got {}", lambda t: 0.0 <= t <= math.pi / 2)
        super().__init__(theta, _finite(phi, "phi must be finite, got {}") % (2.0 * math.pi))

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float = 0.0) -> "Direction":
        return cls(*(math.radians(_finite(a, "an angle must be finite, got {} deg")) for a in (theta_deg, phi_deg)))

    def transverse(self) -> tuple[float, float]:
        """In-plane direction cosines (u, v) = (sin(theta)cos(phi), sin(theta)sin(phi))."""
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi)


BROADSIDE = Direction(0.0, 0.0)


class BistaticGeometry(Value):
    """One BS -> RIS -> terminal hop: path lengths plus incident/outgoing directions."""

    __slots__ = ("d1_m", "d2_m", "incident", "outgoing")

    def __init__(self, d1_m: float, d2_m: float, incident: Direction, outgoing: Direction):
        d1_m, d2_m = (_finite(d, "path lengths d1 and d2 must be positive and finite", lambda d: d > 0.0)
                      for d in (d1_m, d2_m))
        super().__init__(d1_m, d2_m, incident, outgoing)
