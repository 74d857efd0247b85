"""Per-element reflection profiles: anomalous-reflection phase gradients,
amplitude taper and b-bit phase quantization.

The continuous profile for redirecting a plane wave arriving from direction
u_in toward u_out is the wrapped linear gradient

    psi(r) = mod(-k0 * (u_out - u_in) . r, 2*pi)

evaluated at the design frequency f0 on the element lattice. The field model
has no illumination phase, so synthesis takes u_in = 0 (normal incidence) only.
"""

from __future__ import annotations

import math

import numpy as np

from .aperture import ApertureSpec
from .core import ArrayRecord, Direction, Frequency, Value, _finite, _integer, _wavenumber, check_array_budget

MAX_QUANTIZATION_BITS = 8  # beyond practical per-cell switch counts


class TaperSpec(Value):
    """Amplitude illumination: raised cosine on a pedestal over the aperture radius.

    edge_level_db is the field amplitude at the aperture edge relative to the
    center (0 dB = uniform). The law is a(rho) = p + (1-p)*cos^2(pi*rho/2)
    with pedestal p = 10^(edge_level_db/20) and rho the radial distance
    normalized to the half-side, clipped at 1 toward the corners.
    """

    __slots__ = ("edge_level_db",)

    def __init__(self, edge_level_db: float = 0.0):
        super().__init__(_finite(edge_level_db, "taper edge level must be finite and <= 0 dB", lambda db: db <= 0.0))

    @property
    def pedestal(self) -> float:
        return 10.0 ** (self.edge_level_db / 20.0)

    def amplitude(self, rho: np.ndarray) -> np.ndarray:
        rho = np.minimum(np.asarray(rho, dtype=float), 1.0)
        p = self.pedestal
        return p + (1.0 - p) * np.cos(np.pi * rho / 2.0) ** 2


class PhaseProfile(ArrayRecord):
    """Programmed complex reflection coefficients on a uniform element lattice.

    The lattice is centred on the panel by construction: coefficients[i, j]
    belongs to the element at (x_m[i], y_m[j]), and both axes follow from the
    grid shape and cell_pitch_m. A quantized profile is one whose phases sit
    on the levels of quantization_levels. The coefficients are held as a
    read-only complex128 copy of at least one cell per axis, so every route
    computes in double precision and the caller's array is left as it was.
    """

    __slots__ = ("coefficients", "design_freq", "cell_pitch_m")

    def __init__(self, coefficients: np.ndarray, design_freq: Frequency, cell_pitch_m: float):
        try:
            coefficients = np.array(coefficients, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("coefficients must be a grid of numbers") from None
        if coefficients.ndim != 2 or 0 in coefficients.shape:  # an empty axis has no power and no lag lattice
            raise ValueError(f"coefficients must be a 2-D element grid, at least 1x1, got shape {coefficients.shape}")
        cell_pitch_m = _finite(cell_pitch_m, "cell pitch must be positive and finite", lambda p: p > 0.0)
        # written as not-all-<= so that NaN magnitudes fail too
        if not np.all(np.abs(coefficients) <= 1.0 + 1e-9):
            raise ValueError("reflection coefficient magnitudes must be <= 1")
        coefficients.setflags(write=False)
        super().__init__(coefficients, design_freq, cell_pitch_m)

    @property
    def rows(self) -> int:
        return self.coefficients.shape[0]

    @property
    def cols(self) -> int:
        return self.coefficients.shape[1]

    @property
    def x_m(self) -> np.ndarray:
        return _centred_axis(self.rows, self.cell_pitch_m)

    @property
    def y_m(self) -> np.ndarray:
        return _centred_axis(self.cols, self.cell_pitch_m)

    def phases(self) -> np.ndarray:
        return np.mod(np.angle(self.coefficients), 2.0 * np.pi)

    def amplitudes(self) -> np.ndarray:
        return np.abs(self.coefficients)


def _centred_axis(n: int, pitch: float) -> np.ndarray:
    """Coordinates of n cells at the given pitch along one axis, centred on 0."""
    return (np.arange(n) - (n - 1) / 2.0) * pitch


def synthesize_profile(
    a: ApertureSpec,
    incident: Direction,
    outgoing: Direction,
    taper: TaperSpec = TaperSpec(),
) -> PhaseProfile:
    """Continuous (unquantized) profile steering incident -> outgoing at f0.

    Only normal incidence is modelled: the field model has no illumination
    phase, so a profile programmed for an oblique incident wave would be
    radiated as if lit head-on. Any incident.theta other than 0 raises
    ValueError, before the budget check and any allocation.
    """
    _finite(math.degrees(incident.theta), "only normal incidence is modelled (theta_in = 0), got theta_in = {:g} deg",
            lambda d: d == 0.0)
    check_array_budget(a.n_per_side)
    x = _centred_axis(a.n_per_side, a.cell_pitch_m)
    k0 = _wavenumber(a.design_freq.hertz)
    u_in, v_in = incident.transverse()
    u_out, v_out = outgoing.transverse()
    # j*psi, then its phasor and the taper product in place, with neither psi nor the taper held beside them
    c = np.mod(-k0 * ((u_out - u_in) * x[:, None] + (v_out - v_in) * x[None, :]), 2.0 * math.pi) * 1j
    np.exp(c, out=c)
    c *= taper.amplitude(np.hypot(x[:, None], x[None, :]) / (a.side_m / 2.0))
    return PhaseProfile(
        coefficients=c,
        design_freq=a.design_freq,
        cell_pitch_m=a.cell_pitch_m,
    )


def quantization_levels(bits: int) -> np.ndarray:
    """The 2^bits uniformly spaced phase states, starting at 0 rad."""
    bits = _integer(bits, f"quantization bits must be an integer in [1, {MAX_QUANTIZATION_BITS}], got {{!r}}",
                    lambda b: 1 <= b <= MAX_QUANTIZATION_BITS)
    return 2.0 * math.pi * np.arange(2**bits) / 2**bits


def quantize_profile(p: PhaseProfile, bits: int) -> PhaseProfile:
    """Snap each phase to the nearest of 2^bits levels; magnitudes are kept.

    Exact midpoints round toward the lower level index.
    """
    check_array_budget(max(p.rows, p.cols))
    levels = quantization_levels(bits)
    step = levels[1]  # 2*pi / 2^bits
    # ceil(x - 0.5) is round-half-down, the documented tie break
    idx = np.ceil(p.phases() / step - 0.5).astype(int) % levels.size
    return PhaseProfile(
        coefficients=p.amplitudes() * np.exp(1j * np.arange(levels.size) * step)[idx],  # one exp per level
        design_freq=p.design_freq,
        cell_pitch_m=p.cell_pitch_m,
    )
