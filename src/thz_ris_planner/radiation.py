"""Far-field array-factor engine for programmed reflection profiles.

The radiated field of a profile with coefficients c_n at positions r_n is

    E(u) = EF(theta) * sum_n c_n * exp(j * k(f) * r_n . u)

with k(f) = 2*pi*f/c and the per-element field factor EF(theta) =
sqrt(cos(theta)), so element power falls as cos(theta). The programmed phases
inside c_n are fixed at the design frequency and frequency-flat; evaluating at
f != f0 is what produces beam squint.

Every production field evaluation (principal cuts, single-direction gain,
the directivity quadrature, the squint gain trace, the broadside beamwidth
and the beam-peak track) goes through one kernel, _field, which is separable
over the lattice axes: per chunk of directions it builds two exponential
tables and does one matrix product. Two further routes exist:

* array_factor_fft: zero-padded 2-D DFT on the (u, v) lattice, equal to the
  direct sum at lattice points for every profile, because a PhaseProfile
  derives its element positions from the grid shape and pitch and so always
  lies on the centred uniform lattice the DFT assumes;
* array_factor_direct: a per-direction loop over the elements, kept as the
  reference oracle that tests compare both routes against.

directivity() integrates |E|^2 over the front hemisphere by the trapezoid
rule with the sin(theta) Jacobian on a grid refined around the main lobe. No
production route calls it: like array_factor_direct, it is kept as the
independent quadrature cross-check that tests compare the closed form and the
cut route against. A closed form for the same integral on a uniform lattice,

    P(k) = sum_d corr(d) * 2*pi*J1(k*|d|)/(k*|d|),

with corr(d) = sum_m c_m conj(c_{m-d}) the lattice autocorrelation at lag d,
follows from integrating the cos(theta) element power pattern over the
hemisphere. It normalises cuts, single-direction gains and the squint sweep,
in two parts: _power_kernel holds what depends on the lattice and the
wavenumbers only, and _fold_power applies it to one profile. Since the
kernel depends on |d| only, corr is summed per distinct squared integer lag
i^2 + j^2 (about a tenth of the (2R-1)(2C-1) lags), and the kernel is a J1
table over (k, distinct radius). squint_vs_angle builds it once for its
frequency grid and shares that one table across every angle; squint_sweep is
its single-angle case. J1 itself is _j1, a numpy routine in three regimes:
the power series for x <= 2, Miller's backward recurrence up to 25 and the
Hankel asymptotic expansion above (Abramowitz & Stegun 9.1.10, 9.1.27,
9.1.46, 9.2.5, 9.2.9-10); it is within 3e-16 of the exact value.

Quantization loss reads each peak directivity off the principal-plane cut in
the steering plane, normalised by that closed form; quantized_cuts takes
those cuts for it and for the pattern command. The cut step is a fixed
fraction of the analytical beamwidth, so no resolution is left to the caller.

Squint bandwidth follows the beam-shift convention (Mailloux, Phased Array
Antenna Handbook): with the phases frozen, the beam peak drifts as
sin(theta(f)) = sin(theta0) * f0/f, i.e. dtheta ~ tan(theta0) * df/f, and the
band is where the measured peak stays within half a beamwidth of theta0. It
scales as f0 * HPBW / tan(theta0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aperture import ApertureSpec
from .core import BROADSIDE, SPEED_OF_LIGHT, Direction, Frequency
from .surface import PhaseProfile, TaperSpec, UNIFORM_TAPER, quantize_profile, synthesize_profile

BEAMWIDTH_FACTOR = 0.886  # uniform-aperture 3 dB beamwidth in units of lambda/D
HPBW_GRID = 17  # samples per bracketing pass of the broadside -3 dB point
PEAK_WINDOW = 21  # samples of the steering-plane array factor around the beam
FIELD_CHUNK = 1024  # directions per pair of exponential tables in _field
COARSE_RESOLUTION = math.radians(0.5)  # directivity grid step away from the main lobe
LOBE_WINDOW = math.radians(2.0)  # least half-width of the fine grid around the main lobe
CUT_STEPS_PER_BEAMWIDTH = 20  # quantization-loss cut samples per analytical beamwidth
MAX_ARRAY_BYTES = 2**30  # largest single array a pattern or squint run may allocate
J1_SERIES_MAX = 2.0  # _j1 sums the power series up to here,
J1_HANKEL_MIN = 25.0  # the Hankel expansion above here, and Miller's recurrence between
MILLER_ORDER = 64  # even starting order of the backward recurrence; from 60 the error at x = 25 is rounding


def _series_coefficients(terms: int) -> tuple[float, ...]:
    """(-1)^m / (m! (m+1)!): J1(x) = (x/2) * sum_m c_m (x/2)^(2m), A&S 9.1.10."""
    return tuple((-1) ** m / (math.factorial(m) * math.factorial(m + 1)) for m in range(terms))


def _hankel_coefficients(terms: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Signed a_k(1) of P (even k) and Q (odd k) in A&S 9.2.9-10, a_k = a_{k-1} (4 - (2k-1)^2) / 8k."""
    a = [1.0]
    for k in range(1, terms):
        a.append(a[-1] * (4.0 - (2 * k - 1) ** 2) / (8.0 * k))
    signed = [(-1) ** (k // 2) * a_k for k, a_k in enumerate(a)]
    return tuple(signed[0::2]), tuple(signed[1::2])


_SERIES = _series_coefficients(12)  # the first omitted term is 3e-19 at x = 2
_HANKEL_P, _HANKEL_Q = _hankel_coefficients(16)  # the first omitted term is 5e-17 at x = 25


class GridResolutionError(ValueError):
    """Raised when the angular grid under-resolves the main lobe."""


class FrequencySpanError(ValueError):
    """Raised when a squint sweep band is too narrow to bracket the squint band."""


@dataclass
class UVPattern:
    """Complex field E on a (u, v) lattice: ax1/ax2 are direction cosines.

    field is NaN in the invisible region u^2 + v^2 > 1.
    """

    ax1: np.ndarray
    ax2: np.ndarray
    field: np.ndarray

    def peak_uv(self) -> tuple[float, float, float]:
        """(|E|, u, v) at the strongest visible lattice point."""
        mag = np.abs(self.field)
        mag = np.where(np.isnan(mag), -1.0, mag)
        flat = int(np.argmax(mag))
        i, j = np.unravel_index(flat, mag.shape)
        return float(mag[i, j]), float(self.ax1[i]), float(self.ax2[j])


@dataclass
class SpherePattern:
    """Directivity on a (theta, phi) grid: ax1 is theta (rad), ax2 is phi (rad).

    directivity_dbi holds 4*pi*|E|^2 / total_power in dB, where total_power
    is the quadrature of |E|^2 over the front hemisphere.
    """

    ax1: np.ndarray
    ax2: np.ndarray
    directivity_dbi: np.ndarray
    total_power: float

    def peak_directivity(self) -> tuple[float, Direction]:
        """Peak directivity in dBi and its direction."""
        flat = int(np.argmax(self.directivity_dbi))
        i, j = np.unravel_index(flat, self.directivity_dbi.shape)
        return float(self.directivity_dbi[i, j]), Direction(float(self.ax1[i]), float(self.ax2[j]))


@dataclass
class SquintReport:
    """Beam-peak track and gain trace of a frozen profile versus frequency.

    bw_3db_hz is the band around f0 where the measured beam peak in the
    steering plane, peak_theta_rad (signed, rad, one per frequency), stays
    within hpbw_rad/2 of the target angle. hpbw_rad is the measured -3 dB
    width of the same aperture and taper steered to broadside. gain_dbi is
    the directivity toward the fixed target direction.
    """

    design_freq_hz: float
    target: Direction
    freq_hz: np.ndarray
    gain_dbi: np.ndarray
    peak_theta_rad: np.ndarray
    hpbw_rad: float
    bw_3db_hz: float
    fractional_bw_pct: float
    saturated: bool = False


@dataclass
class QuantizationReport:
    """Peak directivity per quantization setting and the loss vs continuous."""

    bits: list[int]
    peak_dbi: list[float]
    continuous_dbi: float

    @property
    def losses_db(self) -> list[float]:
        return [self.continuous_dbi - p for p in self.peak_dbi]


def _element_factor(theta: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(np.cos(theta), 0.0))


def _wavenumber(f: Frequency) -> float:
    return 2.0 * math.pi * f.hertz / SPEED_OF_LIGHT


def array_factor_direct(
    p: PhaseProfile, f: Frequency, directions: list[Direction]
) -> np.ndarray:
    """Exact complex field at each direction by direct summation (the oracle).

    Summation order is fixed (C order over the element grid) so results are
    reproducible bit-for-bit.
    """
    k = _wavenumber(f)
    gx, gy = np.meshgrid(p.x_m, p.y_m, indexing="ij")
    out = np.empty(len(directions), dtype=complex)
    for idx, d in enumerate(directions):
        u, v = d.transverse()
        phase = k * (gx * u + gy * v)
        out[idx] = np.sum(p.coefficients * np.exp(1j * phase)) * math.sqrt(
            max(math.cos(d.theta), 0.0)
        )
    return out


def array_factor_fft(p: PhaseProfile, f: Frequency, uv_oversample: int = 4) -> UVPattern:
    """Complex field on the (u, v) lattice via a zero-padded 2-D DFT.

    The lattice spacing is lambda/(pitch * n * uv_oversample) per axis. Every
    profile lies on the centred uniform lattice the DFT assumes, so at those
    points the result equals array_factor_direct to machine precision.
    Points outside the visible region u^2 + v^2 <= 1 are NaN.
    """
    if uv_oversample < 1:
        raise ValueError("uv_oversample must be >= 1")
    nx, ny = p.rows, p.cols
    lx, ly = nx * uv_oversample, ny * uv_oversample

    spectrum = np.fft.ifft2(p.coefficients, s=(lx, ly)) * (lx * ly)
    spectrum = np.fft.fftshift(spectrum)
    alpha = np.fft.fftshift(np.fft.fftfreq(lx))  # pitch * u / lambda
    beta = np.fft.fftshift(np.fft.fftfreq(ly))

    lam = f.wavelength_m
    u = alpha * lam / p.cell_pitch_m
    v = beta * lam / p.cell_pitch_m

    # grid centering: x_i = (i - (nx-1)/2) * pitch
    centering = np.exp(-2j * math.pi * alpha * (nx - 1) / 2.0)[:, None] * np.exp(
        -2j * math.pi * beta * (ny - 1) / 2.0
    )[None, :]
    field = spectrum * centering

    uu, vv = np.meshgrid(u, v, indexing="ij")
    r2 = uu**2 + vv**2
    visible = r2 <= 1.0
    ef = np.zeros_like(r2)
    ef[visible] = (1.0 - r2[visible]) ** 0.25  # sqrt(cos(theta))
    field = np.where(visible, field * ef, np.nan + 0j)

    return UVPattern(ax1=u, ax2=v, field=field)


def _field(c: np.ndarray, p: PhaseProfile, ku: np.ndarray, kv: np.ndarray) -> np.ndarray:
    """Array factor sum_ij c_ij exp(j (ku_s x_i + kv_s y_j)) at each pair (ku_s, kv_s).

    ku and kv are k*u and k*v (rad/m) of the same shape; the result has that
    shape and carries no element factor. c is the coefficient grid on the
    lattice of p (p.coefficients, or e.g. its magnitudes). The sum is
    separable over the lattice axes: per FIELD_CHUNK directions it builds the
    tables exp(j x ku) and exp(j y kv) and does one matrix product. Directions
    run along the last axis, so the final sum over x is over long rows.
    """
    ku = np.asarray(ku, dtype=float)
    kv = np.asarray(kv, dtype=float)
    flat_u, flat_v = ku.ravel(), kv.ravel()
    x, y = p.x_m, p.y_m
    out = np.empty(flat_u.size, dtype=complex)
    for s in range(0, flat_u.size, FIELD_CHUNK):
        chunk = slice(s, s + FIELD_CHUNK)
        ax = np.exp(1j * np.outer(x, flat_u[chunk]))
        by = np.exp(1j * np.outer(y, flat_v[chunk]))
        out[chunk] = np.einsum("is,is->s", ax, c @ by)
    return out.reshape(ku.shape)


def analytical_hpbw(p: PhaseProfile, f: Frequency) -> float:
    """Uniform-aperture 3 dB beamwidth estimate (rad): sets grid steps and guards."""
    span = max(p.rows, p.cols) * p.cell_pitch_m
    return BEAMWIDTH_FACTOR * f.wavelength_m / span


def directivity(
    p: PhaseProfile,
    f: Frequency | None = None,
    grid_resolution: float = math.radians(0.05),
) -> SpherePattern:
    """Directivity over the front hemisphere, in dBi: the quadrature cross-check.

    No production route calls it; tests compare it with the closed-form power
    and the cut route, as array_factor_direct is compared with the kernel. The
    total radiated power is integrated by the trapezoid rule with the
    sin(theta) Jacobian on a (theta, phi) grid: COARSE_RESOLUTION everywhere,
    grid_resolution within the larger of LOBE_WINDOW and two analytical
    beamwidths of the main lobe. grid_resolution must resolve the analytical
    beamwidth (at most half of it).
    """
    if f is None:
        f = p.design_freq
    hpbw = analytical_hpbw(p, f)
    if grid_resolution > hpbw / 2.0:
        raise GridResolutionError(
            f"grid resolution {math.degrees(grid_resolution):.3f} deg under-resolves the "
            f"{math.degrees(hpbw):.3f} deg main lobe; use at most {math.degrees(hpbw / 2):.3f} deg"
        )
    window = max(LOBE_WINDOW, 2.0 * hpbw)

    # locate the main lobe on an oversampled uv lattice
    _, upk, vpk = array_factor_fft(p, f, uv_oversample=4).peak_uv()
    r = min(math.hypot(upk, vpk), 1.0)
    theta_pk = math.asin(r)
    phi_pk = math.atan2(vpk, upk) % (2.0 * math.pi)

    eps = 1e-12
    theta_coarse = np.arange(0.0, math.pi / 2 + eps, COARSE_RESOLUTION)
    theta_fine = np.arange(
        max(0.0, theta_pk - window), min(math.pi / 2, theta_pk + window) + eps, grid_resolution
    )
    theta = np.unique(np.concatenate([theta_coarse, [math.pi / 2], theta_fine]))

    phi_parts = [np.arange(0.0, 2.0 * math.pi + eps, COARSE_RESOLUTION), np.array([2.0 * math.pi])]
    if theta_pk > window:
        phi_fine = np.arange(phi_pk - window, phi_pk + window + eps, grid_resolution)
        phi_parts.append(np.mod(phi_fine, 2.0 * math.pi))
    phi = np.unique(np.concatenate(phi_parts))

    k = _wavenumber(f)
    st = np.sin(theta)[:, None]
    field = _field(p.coefficients, p, k * st * np.cos(phi), k * st * np.sin(phi))
    e2 = np.abs(field * _element_factor(theta)[:, None]) ** 2
    inner = np.trapezoid(e2 * st, x=phi, axis=1)
    total = float(np.trapezoid(inner, x=theta))

    with np.errstate(divide="ignore"):
        dbi = 10.0 * np.log10(4.0 * math.pi * e2 / total)
    return SpherePattern(
        ax1=theta,
        ax2=phi,
        directivity_dbi=dbi,
        total_power=total,
    )


def hemisphere_power_exact(p: PhaseProfile, f: Frequency | None = None) -> float:
    """Closed-form hemisphere integral sum_d corr(d) * 2*pi*J1(k|d|)/(k|d|) of |E|^2."""
    k = np.array([_wavenumber(p.design_freq if f is None else f)])
    return float(_fold_power(p, _power_kernel(p.rows, p.cols, p.cell_pitch_m, k))[0])


def _power_kernel(rows: int, cols: int, pitch: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The profile-independent half of the closed-form power: (radius index, J1 table).

    A cyclic correlation of length 2n-1 per axis holds every lag without
    wrap-around; fftfreq gives each bin its integer lag. The kernel depends on
    |d|^2 = pitch^2 * (i^2 + j^2) only, so the lags are indexed by their
    distinct values of i^2 + j^2. Those values are small integers, so counting
    finds them in ascending order without a sort; the first is the zero lag.
    The table holds 2*pi*J1(k rho)/(k rho) for each k and each nonzero
    distinct radius rho.
    """
    nx, ny = 2 * rows - 1, 2 * cols - 1
    i = np.rint(np.fft.fftfreq(nx) * nx).astype(np.int64)
    j = np.rint(np.fft.fftfreq(ny) * ny).astype(np.int64)
    r2 = (i[:, None] ** 2 + j[None, :] ** 2).ravel()
    present = np.bincount(r2) > 0
    radius_index = (np.cumsum(present) - 1)[r2]
    kr = np.outer(k, pitch * np.sqrt(np.flatnonzero(present)[1:]))
    table = _j1(kr)
    table *= 2.0 * math.pi
    table /= kr
    return radius_index, table


def _fold_power(p: PhaseProfile, kernel: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Closed-form power of profile p at each k of a _power_kernel built on its lattice.

    Only the real part of corr survives the Hermitian sum over +d and -d; it
    is summed per distinct radius, and the zero lag takes the kernel's limit pi.
    """
    radius_index, table = kernel
    nx, ny = 2 * p.rows - 1, 2 * p.cols - 1
    spectrum = np.fft.fft2(p.coefficients, s=(nx, ny))
    corr = np.fft.ifft2(spectrum * np.conj(spectrum)).real
    folded = np.bincount(radius_index, weights=corr.ravel())
    return math.pi * folded[0] + table @ folded[1:]


def _j1(x: np.ndarray) -> np.ndarray:
    """Bessel function J1 of non-negative real x, within 3e-16 absolute.

    Three regimes: the power series for x <= J1_SERIES_MAX; Miller's backward
    recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from MILLER_ORDER, normalised by
    J0 + 2 sum_k J_2k = 1 (A&S 9.1.27, 9.1.46), up to J1_HANKEL_MIN; and the
    Hankel expansion J1 = (P (sin x - cos x) + Q (sin x + cos x)) / sqrt(pi x)
    above it (A&S 9.2.5, 9.2.9-10). That phase is cos(x - 3pi/4) and
    sin(x - 3pi/4) expanded, so no rounding comes from the subtraction.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)

    series = x <= J1_SERIES_MAX
    half = x[series] / 2.0
    out[series] = half * _polynomial(_SERIES, half * half)

    hankel = x > J1_HANKEL_MIN
    xh = x[hankel]
    z = 1.0 / (xh * xh)
    big_p = _polynomial(_HANKEL_P, z)
    big_q = _polynomial(_HANKEL_Q, z) / xh
    sin, cos = np.sin(xh), np.cos(xh)
    out[hankel] = (big_p * (sin - cos) + big_q * (sin + cos)) / np.sqrt(math.pi * xh)

    miller = ~(series | hankel)
    xm = x[miller]
    # unscaled: from MILLER_ORDER at x > J1_SERIES_MAX the recurrence peaks
    # below 1e89, far from overflow, and the normalisation divides the scale out
    j_next, j = np.zeros_like(xm), np.ones_like(xm)
    even_sum, j1 = np.zeros_like(xm), np.zeros_like(xm)
    for n in range(MILLER_ORDER, 0, -1):
        j_next, j = j, (2.0 * n / xm) * j - j_next  # j is now J_{n-1}
        if n == 2:
            j1 = j.copy()
        elif n % 2 == 1 and n > 1:
            even_sum += j
    out[miller] = j1 / (j + 2.0 * even_sum)
    return out


def _polynomial(coefficients: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_m coefficients[m] * t^m by Horner's rule."""
    acc = np.zeros_like(t)
    for c in reversed(coefficients):
        acc *= t
        acc += c
    return acc


def check_normal_incidence(incident: Direction) -> None:
    """Raise ValueError unless incident is broadside (theta = 0).

    The field model carries no incident-phase term, so a profile programmed
    for oblique incidence would radiate toward u_out - u_in, not u_out.
    """
    if incident.theta != 0.0:
        raise ValueError(
            f"only normal incidence is modelled (theta_in = 0), got theta_in = "
            f"{math.degrees(incident.theta):g} deg"
        )


def _largest_array(n_per_side: int, n_freqs: int = 1, n_directions: int = 0) -> tuple[str, int]:
    """(name, bytes) of the largest array a pattern or squint run would allocate.

    Estimated from the sizes alone: the zero-padded lattice FFT holds (2n)^2
    complex values (the power autocorrelation, the pattern_uv map); the power
    kernel n_freqs floats per distinct lag radius, at most n(n+1)/2 of them,
    or per PEAK_WINDOW sample of the beam track when that is wider; the cut
    one complex value per direction.
    """
    radii = max(n_per_side * (n_per_side + 1) // 2, PEAK_WINDOW)
    candidates = (
        ("lattice FFT", 16 * (2 * n_per_side) ** 2),
        ("power kernel", 8 * n_freqs * radii),
        ("cut", 16 * n_directions),
    )
    return max(candidates, key=lambda c: c[1])


def check_array_budget(n_per_side: int, n_freqs: int = 1, n_directions: int = 0) -> None:
    """Raise ValueError before a run whose largest array would exceed MAX_ARRAY_BYTES."""
    name, size = _largest_array(n_per_side, n_freqs, n_directions)
    if size > MAX_ARRAY_BYTES:
        raise ValueError(
            f"the {name} would need {size / 2**30:.3g} GiB, over the "
            f"{MAX_ARRAY_BYTES / 2**30:g} GiB limit; reduce the panel, samples or cut resolution"
        )


def gain_at(p: PhaseProfile, f: Frequency, direction: Direction) -> float:
    """Directivity (dBi) at one direction, normalized by the exact power."""
    k = _wavenumber(f)
    u, v = direction.transverse()
    e = _field(p.coefficients, p, k * u, k * v) * _element_factor(direction.theta)
    power = hemisphere_power_exact(p, f)
    return 10.0 * math.log10(4.0 * math.pi * abs(e) ** 2 / power)


def principal_plane_cut(
    p: PhaseProfile,
    f: Frequency | None = None,
    phi: float = 0.0,
    theta_step: float = math.radians(0.1),
    total_power: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Directivity cut through the plane at azimuth phi.

    Returns (theta_deg, dbi) with signed theta: negative angles lie at
    phi + 180 deg. total_power defaults to the closed-form hemisphere
    integral.
    """
    if f is None:
        f = p.design_freq
    if total_power is None:
        total_power = hemisphere_power_exact(p, f)
    theta = np.arange(-math.pi / 2, math.pi / 2 + 1e-12, theta_step)
    # negative theta at phi + 180 deg is positive theta with k*sin(theta) negated
    q = _wavenumber(f) * np.sin(theta)
    e = _field(p.coefficients, p, q * math.cos(phi), q * math.sin(phi)) * _element_factor(theta)
    with np.errstate(divide="ignore"):
        dbi = 10.0 * np.log10(4.0 * math.pi * np.abs(e) ** 2 / total_power)
    return np.degrees(theta), dbi


def quantization_loss(
    a: ApertureSpec,
    outgoing: Direction,
    bits_list: list[int],
    taper: TaperSpec = UNIFORM_TAPER,
) -> QuantizationReport:
    """Peak directivity per quantization setting plus the continuous reference.

    Each peak is the maximum of the principal-plane cut at azimuth
    outgoing.phi, normalized by the closed-form hemisphere power, sampled
    CUT_STEPS_PER_BEAMWIDTH times per analytical beamwidth.
    """
    continuous = synthesize_profile(a, BROADSIDE, outgoing, taper)
    step = analytical_hpbw(continuous, a.design_freq) / CUT_STEPS_PER_BEAMWIDTH
    cuts = quantized_cuts(continuous, [*bits_list, None], outgoing.phi, step)
    peaks = [float(np.max(dbi)) for _, dbi in cuts]
    return QuantizationReport(bits=list(bits_list), peak_dbi=peaks[:-1], continuous_dbi=peaks[-1])


def quantized_cuts(
    p: PhaseProfile, bits_list: list[int | None], phi: float, theta_step: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """principal_plane_cut (theta_deg, dbi) of p at azimuth phi per quantization setting.

    Each entry of bits_list quantizes p to that many bits, or keeps it
    continuous when None.
    """
    return [
        principal_plane_cut(p if bits is None else quantize_profile(p, bits), None, phi, theta_step)
        for bits in bits_list
    ]


def squint_sweep(
    a: ApertureSpec,
    incident: Direction,
    outgoing: Direction,
    taper: TaperSpec = UNIFORM_TAPER,
    bits: int | None = None,
    f_span_hz: float = 20e9,
    n_samples: int = 81,
) -> SquintReport:
    """Beam-peak drift versus frequency for one outgoing direction.

    The squint_vs_angle report of the single angle outgoing; see there.
    """
    return squint_vs_angle(a, incident, [outgoing], taper, bits, f_span_hz, n_samples)[0]


def squint_vs_angle(
    a: ApertureSpec,
    incident: Direction,
    outgoing_list: list[Direction],
    taper: TaperSpec = UNIFORM_TAPER,
    bits: int | None = None,
    f_span_hz: float = 20e9,
    n_samples: int = 81,
) -> list[SquintReport]:
    """Beam-peak drift versus frequency per outgoing direction, with the squint band.

    The profile phases stay frozen at the design frequency. At each of the
    n_samples frequencies across f_span_hz around f0 the beam peak is located
    in the steering plane (azimuth outgoing.phi), and the band is the
    contiguous stretch around f0 where it stays within HPBW/2 of
    outgoing.theta; HPBW is measured on the same aperture and taper steered
    to broadside. Band edges are located by linear interpolation between
    samples. Frequencies where the beam has left the visible region record a
    peak at 90 deg and lie out of band. The gain toward the fixed target,
    normalized by the exact hemisphere power, is kept as a trace.

    If the peak never drifts by HPBW/2 anywhere in the band (e.g. a
    frequency-flat broadside profile) the report saturates at f_span_hz. If
    only one edge lies inside the band the sweep cannot bracket it and
    FrequencySpanError asks for a larger span. Only normal incidence is
    modelled; any other incident direction raises ValueError.

    The sweep is validated and the J1 table of the closed-form power built
    once, for the lattice and the frequency grid, and shared by every angle.
    """
    check_normal_incidence(incident)
    if n_samples < 11 or n_samples % 2 == 0:
        raise ValueError("n_samples must be odd and >= 11 so f0 lies on the grid")
    f0 = a.design_freq
    if not (0.0 < f_span_hz < f0.hertz):
        raise ValueError("f_span must be positive and below the design frequency")
    check_array_budget(a.n_per_side, n_freqs=n_samples)
    freqs = f0.hertz + np.linspace(-f_span_hz / 2.0, f_span_hz / 2.0, n_samples)
    k_per_f = 2.0 * math.pi * freqs / SPEED_OF_LIGHT
    kernel = _power_kernel(a.n_per_side, a.n_per_side, a.cell_pitch_m, k_per_f)
    return [
        _squint(a, incident, outgoing, taper, bits, f_span_hz, freqs, k_per_f, kernel)
        for outgoing in outgoing_list
    ]


def _squint(
    a: ApertureSpec,
    incident: Direction,
    outgoing: Direction,
    taper: TaperSpec,
    bits: int | None,
    f_span_hz: float,
    freqs: np.ndarray,
    k_per_f: np.ndarray,
    kernel: tuple[np.ndarray, np.ndarray],
) -> SquintReport:
    """The squint sweep of one outgoing direction on a validated grid and its power kernel."""
    f0 = a.design_freq
    n_samples = freqs.size
    profile = synthesize_profile(a, incident, outgoing, taper)
    if bits is not None:
        profile = quantize_profile(profile, bits)

    u_t, v_t = outgoing.transverse()
    e = _field(profile.coefficients, profile, k_per_f * u_t, k_per_f * v_t)
    e *= _element_factor(outgoing.theta)
    power = _fold_power(profile, kernel)
    gain = 10.0 * np.log10(4.0 * math.pi * np.abs(e) ** 2 / power)

    hpbw = _broadside_hpbw(profile, outgoing.phi, f0)
    peak = _track_beam_peak(profile, outgoing, _wavenumber(f0), hpbw, k_per_f)
    excess = np.abs(peak - outgoing.theta) - hpbw / 2.0

    mid = n_samples // 2
    if excess[mid] > 0.0:
        raise ValueError(
            f"the beam peak at f0 lies {math.degrees(peak[mid] - outgoing.theta):+.3f} deg "
            f"from the target, beyond half the {math.degrees(hpbw):.3f} deg beamwidth"
        )
    lo = mid
    while lo > 0 and excess[lo - 1] <= 0.0:
        lo -= 1
    hi = mid
    while hi < n_samples - 1 and excess[hi + 1] <= 0.0:
        hi += 1
    lo_crossed = lo > 0
    hi_crossed = hi < n_samples - 1

    if not lo_crossed and not hi_crossed:
        bw = f_span_hz
        saturated = True
    elif lo_crossed != hi_crossed:
        raise FrequencySpanError(
            "the squint band extends past a band edge; increase f_span"
        )
    else:
        f_lo = _interp_crossing(freqs[lo - 1], freqs[lo], excess[lo - 1], excess[lo])
        f_hi = _interp_crossing(freqs[hi + 1], freqs[hi], excess[hi + 1], excess[hi])
        bw = f_hi - f_lo
        saturated = False

    return SquintReport(
        design_freq_hz=f0.hertz,
        target=outgoing,
        freq_hz=freqs,
        gain_dbi=gain,
        peak_theta_rad=peak,
        hpbw_rad=hpbw,
        bw_3db_hz=bw,
        fractional_bw_pct=100.0 * bw / f0.hertz,
        saturated=saturated,
    )


def _interp_crossing(x_out: float, x_in: float, y_out: float, y_in: float, level: float = 0.0) -> float:
    """Abscissa where y crosses level between an outside and an inside sample.

    The two samples lie strictly on opposite sides of level, so y_in != y_out.
    """
    frac = (level - y_out) / (y_in - y_out)
    return x_out + frac * (x_in - x_out)


def _broadside_hpbw(p: PhaseProfile, phi: float, f: Frequency) -> float:
    """Measured -3 dB width (rad) in the plane phi of |c_n| radiated to broadside.

    The half-power angle is bracketed on a grid up to twice the uniform
    aperture's half width, the bracket is resampled once on the same number
    of points, and the -3 dB point is interpolated linearly in dB. For a
    symmetric taper the pattern is even in theta, so the width is twice it.
    """
    amps = np.abs(p.coefficients)
    peak = np.sum(amps) ** 2
    k = _wavenumber(f)
    lo, hi = 0.0, min(analytical_hpbw(p, f), math.pi / 2)
    for _ in range(2):
        theta = np.linspace(lo, hi, HPBW_GRID)
        q = k * np.sin(theta)
        power = np.abs(_field(amps, p, q * math.cos(phi), q * math.sin(phi))) ** 2 * np.cos(theta)
        with np.errstate(divide="ignore"):
            rel = 10.0 * np.log10(power / peak)
        below = np.flatnonzero(rel < -3.0)
        if below.size == 0 or below[0] == 0:
            raise ValueError("cannot bracket the -3 dB point of the broadside beam")
        i = below[0]
        lo, hi = theta[i - 1], theta[i]
    return 2.0 * _interp_crossing(theta[i], theta[i - 1], rel[i], rel[i - 1], level=-3.0)


def _track_beam_peak(
    p: PhaseProfile, outgoing: Direction, k0: float, hpbw: float, k_per_f: np.ndarray
) -> np.ndarray:
    """Signed beam-peak angle (rad) in the steering plane at each wavenumber.

    |AF(q)|^2 is sampled once on PEAK_WINDOW points within the broadside
    half-power half width of q0 = k0*sin(theta0). At each wavenumber the
    cos(theta) element power is applied and the peak is refined by a parabola
    through the log power around the largest sample. A peak that the window
    cannot hold, because the lobe has run to the horizon or out of the
    visible region, is recorded at 90 deg.
    """
    q = k0 * (math.sin(outgoing.theta) + math.sin(hpbw / 2.0) * np.linspace(-1.0, 1.0, PEAK_WINDOW))
    # along azimuth phi the frozen-phase array factor depends on k*sin(theta)
    # only, so one evaluation at q serves every frequency
    ku, kv = q * math.cos(outgoing.phi), q * math.sin(outgoing.phi)
    af2 = np.abs(_field(p.coefficients, p, ku, kv)) ** 2
    cos_theta = np.sqrt(np.maximum(1.0 - (q[None, :] / k_per_f[:, None]) ** 2, 0.0))
    log_p = np.log(np.maximum(af2 * cos_theta, np.finfo(float).tiny))
    idx = np.argmax(log_p, axis=1)
    j = np.clip(idx, 1, PEAK_WINDOW - 2)
    rows = np.arange(k_per_f.size)
    ym, y0, yp = log_p[rows, j - 1], log_p[rows, j], log_p[rows, j + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        q_peak = q[j] + 0.5 * (ym - yp) / (ym - 2.0 * y0 + yp) * (q[1] - q[0])
    sin_peak = np.where(idx == j, q_peak / k_per_f, 1.0)
    return np.arcsin(np.clip(sin_peak, -1.0, 1.0))
