"""Far-field array-factor engine for programmed reflection profiles.

The radiated field of a profile with coefficients c_n at positions r_n is

    E(u) = EF(theta) * sum_n c_n * exp(j * k(f) * r_n . u)

with k(f) = 2*pi/lambda (core._wavenumber, finite at every accepted f) and the
per-element field factor EF(theta) = sqrt(cos(theta)), so element power falls
as cos(theta). The programmed phases inside c_n are fixed at the design
frequency and frequency-flat; evaluating at f != f0 is what produces beam squint.

Integrating the cos(theta) element power over the front hemisphere gives, on
a uniform lattice, the closed form

    P(k) = sum_d corr(d) * 2*pi*J1(k*|d|)/(k*|d|),

with corr(d) = sum_m c_m conj(c_{m-d}) the lattice autocorrelation at lag d.
It normalises cuts, single-direction gains and the squint sweep, which refuse
it unless it is finite and above its rounding floor (_positive_power). A
continuous squint profile c is its taper a times exp(-j g.r): Re corr_c(d) =
cos(g.d) A(d) and AF_c(k) = AF_a(k - g), so one autocorrelation A of a per
call serves every angle.

The routes, one line each:

* _field: every production field (cuts, gain_at, the broadside beamwidth, the squint samples);
* _closed_form_power: every production power, from one autocorrelation per profile;
* quantized_cuts: the steering-plane cuts of quantization_loss and the pattern command;
* array_factor_fft: the (u, v) lattice by zero-padded DFT, the direct sum at its points;
* array_factor_direct and directivity(): the test oracles, a direct sum and a quadrature.

Squint bandwidth follows the beam-shift convention (Mailloux, Phased Array
Antenna Handbook): with the phases frozen, the beam peak drifts as
sin(theta(f)) = sin(theta0) * f0/f, i.e. dtheta ~ tan(theta0) * df/f. The band,
about f0 * HPBW / tan(theta0), is where the peak stays within HPBW/2 of theta0;
each edge lies between the nearest off-band sample and its inward neighbour.
"""

from __future__ import annotations

import math

import numpy as np

from .aperture import ApertureSpec
from .core import BROADSIDE, PEAK_WINDOW, ArrayRecord, Direction, Frequency, Value
from .core import _fast_length, _finite, _integer, _refuse_over_limit, _wavenumber, check_array_budget
from .surface import PhaseProfile, TaperSpec, quantize_profile, synthesize_profile

BEAMWIDTH_FACTOR = 0.886  # uniform-aperture 3 dB beamwidth in units of lambda/D
HPBW_GRID = 17  # samples per bracketing pass of the broadside -3 dB point
FIELD_CHUNK = 1024  # directions per cos/sin table pair in _field; fewer is slower, more no faster
COARSE_RESOLUTION = math.radians(0.5)  # directivity grid step away from the main lobe
LOBE_WINDOW = math.radians(2.0)  # least half-width of the fine grid around the main lobe
CUT_STEPS_PER_BEAMWIDTH = 20  # quantization-loss cut samples per analytical beamwidth
FFT_BLOCK_BYTES = 2**20  # bytes per block of a padded-lattice pass; _radial_corr of up to 100^2 cells takes one
J1_BLOCK_BYTES = 2**17  # bytes per _closed_form_power J1 block: the least of 2**15-2**19 that costs no time
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


_MIRROR_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]], dtype=float)
_SERIES = _series_coefficients(12)  # the first omitted term is 3e-19 at x = 2
_HANKEL_P, _HANKEL_Q = _hankel_coefficients(16)  # the first omitted term is 5e-17 at x = 25


class UVPattern(ArrayRecord):
    """Complex field E at (ax1[i], ax2[j]) on a lattice of direction cosines (u, v).

    field is NaN in the invisible region u^2 + v^2 > 1.
    """

    __slots__ = ("ax1", "ax2", "field")

    def peak_uv(self) -> tuple[float, float, float]:
        """(|E|, u, v) at the strongest visible lattice point."""
        mag = np.abs(self.field)
        flat = int(np.nanargmax(mag))
        i, j = np.unravel_index(flat, mag.shape)
        return float(mag[i, j]), float(self.ax1[i]), float(self.ax2[j])


class SpherePattern(ArrayRecord):
    """Directivity on a (theta, phi) grid: ax1 is theta (rad), ax2 is phi (rad).

    directivity_dbi holds 4*pi*|E|^2 / total_power in dB at (ax1[i], ax2[j]), where
    total_power is the quadrature of |E|^2 over the front hemisphere.
    """

    __slots__ = ("ax1", "ax2", "directivity_dbi", "total_power")

    def peak_directivity(self) -> tuple[float, Direction]:
        """Peak directivity in dBi and its direction."""
        flat = int(np.argmax(self.directivity_dbi))
        i, j = np.unravel_index(flat, self.directivity_dbi.shape)
        return float(self.directivity_dbi[i, j]), Direction(float(self.ax1[i]), float(self.ax2[j]))


class SquintReport(ArrayRecord):
    """Beam-peak track and gain trace versus frequency of a profile frozen at design_freq_hz (f0).

    gain_dbi is the directivity toward the target Direction at each frequency
    of freq_hz. bw_3db_hz is the band around f0 where the measured beam peak
    in the steering plane, peak_theta_rad (signed, rad, one per frequency),
    stays within hpbw_rad/2 of the target; hpbw_rad is the measured -3 dB width
    of the same aperture and taper steered to broadside. saturated: the peak
    never leaves it, and bw_3db_hz is the span.
    """

    __slots__ = ("design_freq_hz", "target", "freq_hz", "gain_dbi", "peak_theta_rad",
                 "hpbw_rad", "bw_3db_hz", "saturated")

    @property
    def fractional_bw_pct(self) -> float:
        return 100.0 * self.bw_3db_hz / self.design_freq_hz


class QuantizationReport(Value):
    """Peak directivity peak_dbi[i] (dBi) at bits[i] bits, against continuous_dbi unquantized."""

    __slots__ = ("bits", "peak_dbi", "continuous_dbi")

    @property
    def losses_db(self) -> list[float]:
        return [self.continuous_dbi - p for p in self.peak_dbi]


def _element_factor(theta: np.ndarray) -> np.ndarray:
    """sqrt(cos theta), exactly 0 at |theta| >= pi/2, where cos(fl(pi/2)) reads 6e-17."""
    return np.where(np.abs(theta) < math.pi / 2, np.sqrt(np.maximum(np.cos(theta), 0.0)), 0.0)


def _dbi(e2, power: float):
    """Directivity 10*log10(4*pi*e2/power) in dBi of field power e2; an exact null reads -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(4.0 * math.pi * e2 / power)


def array_factor_direct(
    p: PhaseProfile, f: Frequency, directions: list[Direction]
) -> np.ndarray:
    """Exact complex field at each direction by direct summation (the oracle).

    The element factor sqrt(cos theta) is exactly 0 at theta = pi/2.
    Summation order is fixed (C order over the element grid) so results are
    reproducible bit-for-bit.
    """
    k = _wavenumber(f.hertz)
    gx, gy = np.meshgrid(p.x_m, p.y_m, indexing="ij")
    out = np.empty(len(directions), dtype=complex)
    for idx, d in enumerate(directions):
        u, v = d.transverse()
        phase = k * (gx * u + gy * v)
        element = math.sqrt(math.cos(d.theta)) if d.theta < math.pi / 2 else 0.0
        out[idx] = np.sum(p.coefficients * np.exp(1j * phase)) * element
    return out


def array_factor_fft(p: PhaseProfile, f: Frequency, uv_oversample: int = 4) -> UVPattern:
    """Complex field on the (u, v) lattice via a zero-padded 2-D DFT.

    The lattice spacing is lambda/(pitch * n * uv_oversample) per axis. Every
    profile lies on the centred uniform lattice the DFT assumes, so at those
    points the result equals array_factor_direct to machine precision.
    Points outside the visible region u^2 + v^2 <= 1 are NaN.
    """
    uv_oversample = _integer(uv_oversample, "uv_oversample must be an integer >= 1, got {!r}", lambda s: s >= 1)
    nx, ny = p.rows, p.cols
    lx, ly = nx * uv_oversample, ny * uv_oversample
    # the sides are named while they print short; 10**400 would print a 400-digit line
    _refuse_over_limit(f"{lx}x{ly} (u, v) lattice" if lx * ly < 2**64 else "(u, v) lattice", 16 * lx * ly)
    field = np.fft.fftshift(np.fft.ifft2(p.coefficients, s=(lx, ly), norm="forward"))  # the one shifted copy
    alpha = np.fft.fftshift(np.fft.fftfreq(lx))  # pitch * u / lambda
    beta = np.fft.fftshift(np.fft.fftfreq(ly))

    # grid centering: x_i = (i - (nx-1)/2) * pitch, one axis at a time
    field *= np.exp(-2j * math.pi * alpha * (nx - 1) / 2.0)[:, None]
    field *= np.exp(-2j * math.pi * beta * (ny - 1) / 2.0)
    # a pitch so far below the wavelength that u or u^2 overflows to inf puts
    # that point outside the visible region, where it belongs
    with np.errstate(over="ignore", invalid="ignore"):
        u = alpha * f.wavelength_m / p.cell_pitch_m
        v = beta * f.wavelength_m / p.cell_pitch_m
        r2 = u[:, None] ** 2 + v[None, :] ** 2
        invisible = ~(r2 <= 1.0)
        field *= np.power(np.subtract(1.0, r2, out=r2), 0.25, out=r2)  # sqrt(cos(theta)), NaN if invisible
    field[invisible] = np.nan
    return UVPattern(ax1=u, ax2=v, field=field)


def _parity_fold(c: np.ndarray) -> np.ndarray:
    """The coefficient grid c folded for _field: one real (4*mx, 2*my) matrix.

    On an axis mirrored about 0 (x[n-1-i] == -x[i]) cos(x q) is even in x and
    sin(x q) odd, so the sum over the rows of c against exp(j x q) is a sum
    over the upper m = n - n//2 rows only: of c[h+u] + c[m-1-u] against cos
    and of c[h+u] - c[m-1-u] against j sin, h = n//2. The centre row of an
    odd axis mirrors onto itself and counts once; its x is 0, where sin
    vanishes. Folding both axes gives four parity parts (cos or sin in x by
    cos or sin in y), each times j for each sine axis. Rows of the result are
    (real or imaginary part, cos or sin in x, upper row u), columns (cos or
    sin in y, upper column v).
    """
    parts = _parity_halves(_parity_halves(c).transpose(2, 0, 1))  # [py, v, px, u]
    signed = parts.transpose(2, 3, 0, 1) * np.array([[1.0, 1j], [1j, -1.0]])[:, None, :, None]
    folded = np.empty((2, *signed.shape))
    folded[0] = signed.real
    folded[1] = signed.imag
    return folded.reshape(4 * signed.shape[1], 2 * signed.shape[3])


def _parity_halves(a: np.ndarray) -> np.ndarray:
    """[a[h+u] + a[m-1-u], a[h+u] - a[m-1-u]] over the m = n - n//2 upper rows of axis 0, centre once."""
    n = a.shape[0]
    h = n // 2
    upper, lower = a[h:], a[n - h - 1 :: -1]
    parts = np.empty((2, *upper.shape), dtype=upper.dtype)
    np.add(upper, lower, out=parts[0])
    np.subtract(upper, lower, out=parts[1])
    if n % 2:
        parts[0, 0] = a[h]
    return parts


def _cos_sin_table(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """[cos(x_i q_s); sin(x_i q_s)] over the upper m = n - n//2 rows i = h.., h = n//2, of x.

    Three exps per direction: h0 = exp(j x[h] q) and the steps w and W of 1
    and f = ceil(sqrt(m)) rows. Row h + a*f + b is h0 W^a times w^b, b < f,
    each factor a chain of products built row by row: within eps*(2*max(1,
    max|x q|) + 2*sqrt(m)) of exact. Real, (2m, q.size): cos rows, then sin rows.
    """
    upper = x[x.size // 2 :]
    m, x0 = upper.size, upper[0]
    f = math.isqrt(m - 1) + 1  # ceil(sqrt(m)); a step past row m - 1 is never used
    steps = [1j * x0, 1j * (upper[min(f, m - 1)] - x0), 1j * (upper[min(1, m - 1)] - x0)]
    exps = np.exp(np.multiply.outer(steps, q))  # [h0, W, w]
    chains, table = np.empty((f, 2, q.size), dtype=complex), np.empty((2, m, q.size))
    chains[0, 0], chains[0, 1] = exps[0], 1.0
    for b in range(1, f):  # row b is [h0 W^b, w^b]; not in place, which rounds differently at q.size 1
        np.multiply(chains[b - 1], exps[1:], out=chains[b])
    span = f * max(1, FIELD_CHUNK // q.size)  # whole coarse rows per product, <= f*FIELD_CHUNK entries
    for a in range(0, m, span):
        rows = (chains[a // f : (a + span) // f, 0, None] * chains[None, :, 1]).reshape(-1, q.size)[: m - a]
        table[0, a : a + span], table[1, a : a + span] = rows.real, rows.imag
    return table.reshape(2 * m, q.size)


def _field(p: PhaseProfile, folded: list[np.ndarray], ku: np.ndarray, kv: np.ndarray, mirrored=False) -> np.ndarray:
    """Array factor sum_ij c_ij exp(j (ku_s x_i + kv_s y_j)) of each grid c at each pair (ku_s, kv_s).

    folded is a stack of P grids c on the lattice of p as _parity_fold returns
    them, so a caller that radiates a grid in many calls folds it once; ku and
    kv are k*u and k*v (rad/m) of one shape, and the result is (P, *ku.shape),
    with no element factor. The sum is separable, and the centred lattice lets
    it run on the upper half of each axis in real arithmetic: per FIELD_CHUNK
    directions _cos_sin_table builds [cos; sin] of x ku and of y kv once, and
    each folded grid times the y table, one real matrix product, is summed
    against the x table for the real and imaginary part, so a grid's field is
    the same in a stack as alone. Directions run along the last axis, padded
    with copies of the last one to a multiple of 8, where BLAS rounds every
    column of a product alike, so a direction's field is the same in any call.
    It is within 1e-15 of the peak of array_factor_direct on 1^2 to 128^2 panels.

    mirrored: the result is (P, 4, *ku.shape), the field at (ku, kv), (-ku,
    kv), (-ku, -kv) and (ku, -kv): _MIRROR_SIGNS times the parity parts, cos
    or sin in x by cos or sin in y, from the cos-y and sin-y halves of the
    product (the flops of one) against the cos-x and sin-x halves of the x table.
    """
    ku, kv = np.asarray(ku, dtype=float), np.asarray(kv, dtype=float)
    pad = np.minimum(np.arange(ku.size + -ku.size % 8), ku.size - 1)
    flat_u, flat_v = ku.ravel()[pad], kv.ravel()[pad]
    out = np.empty((len(folded), 4 if mirrored else 1, pad.size), dtype=complex)
    x, y = p.x_m, p.y_m
    for s in range(0, pad.size, FIELD_CHUNK):
        chunk = slice(s, s + FIELD_CHUNK)
        ax, ay = _cos_sin_table(x, flat_u[chunk]), _cos_sin_table(y, flat_v[chunk])
        axp, my = ax.reshape(2, -1, ax.shape[1]), ay.shape[0] // 2  # axp: [px, u, s]
        for fold, row in zip(folded, out):
            if mirrored:  # each y-parity half of the product, [r, px, u, s], in turn against axp: [px, py, r, s]
                parts = np.stack([np.einsum("rpus,pus->prs", (fold[:, y] @ ay[y]).reshape(2, *axp.shape), axp)
                                  for y in (slice(0, my), slice(my, None))], axis=1)
                re, im = (_MIRROR_SIGNS @ parts.reshape(4, -1)).reshape(4, 2, -1).transpose(1, 0, 2)
            else:
                re, im = np.einsum("rks,ks->rs", (fold @ ay).reshape(2, ax.shape[0], -1), ax)
            row.real[:, chunk], row.imag[:, chunk] = re, im
    out = out[..., : ku.size] if mirrored else out[:, 0, : ku.size]
    return out.reshape(*out.shape[:-1], *ku.shape)


def analytical_hpbw(p: PhaseProfile) -> float:
    """Uniform-aperture 3 dB beamwidth estimate (rad) at p.design_freq: sets grid steps and guards."""
    span = max(p.rows, p.cols) * p.cell_pitch_m
    return BEAMWIDTH_FACTOR * p.design_freq.wavelength_m / span


def directivity(p: PhaseProfile, grid_resolution: float = math.radians(0.05)) -> SpherePattern:
    """Directivity over the front hemisphere at p.design_freq, in dBi: the quadrature cross-check.

    No production route calls it; tests compare it with the closed-form power
    and the cut route, as array_factor_direct is compared with the kernel. The
    total radiated power is integrated by the trapezoid rule with the
    sin(theta) Jacobian on a (theta, phi) grid: COARSE_RESOLUTION everywhere,
    grid_resolution within the larger of LOBE_WINDOW and two analytical
    beamwidths of the main lobe. grid_resolution must be positive, finite,
    at most half the analytical beamwidth, and keep the grid within
    MAX_ARRAY_BYTES. One mirrored _field call radiates the coarse phi grid's
    first quadrant and the other three from the same products; on a square
    lattice, where AF_c(kv, ku) = AF_cT(ku, kv), the first octant (0 to 45
    deg) of c and of c^T, whose eight images fill the grid. The fine phi
    window around a steered lobe is radiated directly.
    """
    _finite(grid_resolution, "grid_resolution must be positive and finite, got {}", lambda g: g > 0.0)
    f = p.design_freq
    hpbw = analytical_hpbw(p)
    if grid_resolution > hpbw / 2.0:
        raise ValueError(
            f"grid resolution {math.degrees(grid_resolution):.3f} deg under-resolves the "
            f"{math.degrees(hpbw):.3f} deg main lobe; use at most {math.degrees(hpbw / 2):.3f} deg"
        )
    window = max(LOBE_WINDOW, 2.0 * hpbw)
    spans = (math.pi / 2, 2.0 * math.pi)  # of theta and phi
    n_theta, n_phi = (min(2.0 * window, s) / grid_resolution + s / COARSE_RESOLUTION + 4.0 for s in spans)
    # at most one complex value per direction is held
    _refuse_over_limit(f"{grid_resolution:.3g} rad grid", 16.0 * n_theta * n_phi)

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

    coarse = np.arange(0.0, 2.0 * math.pi + eps, COARSE_RESOLUTION)  # 4q + 1 angles, coarse[q] == pi/2
    phi_fine = np.empty(0)
    if theta_pk > window:
        phi_fine = np.mod(np.arange(phi_pk - window, phi_pk + window + eps, grid_resolution), 2.0 * math.pi)
    phi = np.unique(np.concatenate([coarse, [2.0 * math.pi], phi_fine]))

    st = np.sin(theta)[:, None]
    kt, ef = _wavenumber(f.hertz) * st, _element_factor(theta)[:, None]
    fold, q = [_parity_fold(p.coefficients)], (coarse.size - 1) // 4
    square = p.rows == p.cols  # then x == y and AF_c(kv, ku) = AF_cT(ku, kv): the first octant serves
    i = np.arange(q // 2 + 1 if square else q + 1)
    stack = [*fold, _parity_fold(p.coefficients.T)] if square else fold
    images = _field(p, stack, kt * np.cos(coarse[i]), kt * np.sin(coarse[i]), mirrored=True)
    e2 = np.empty((theta.size, phi.size))  # not held beside the kernel's tables
    columns = (i, 2 * q - i, 2 * q + i, 4 * q - i, q - i, 3 * q + i, 3 * q - i, q + i)  # c's images, then c^T's
    for image, column in zip(images.reshape(-1, theta.size, i.size), columns[: 4 * len(stack)], strict=True):
        e2[:, np.searchsorted(phi, coarse[column])] = np.abs(image * ef) ** 2
    del images, image, stack  # image is the loop's last view of images: all are freed before the fine window
    fine = np.searchsorted(phi, phi_fine)
    e2[:, fine] = np.abs(_field(p, fold, kt * np.cos(phi_fine), kt * np.sin(phi_fine))[0] * ef) ** 2
    inner = np.trapezoid(e2 * st, x=phi, axis=1)
    total = float(np.trapezoid(inner, x=theta))
    return SpherePattern(
        ax1=theta,
        ax2=phi,
        directivity_dbi=_dbi(e2, total),
        total_power=total,
    )


def hemisphere_power_exact(p: PhaseProfile, f: Frequency | None = None) -> float:
    """Closed-form hemisphere integral sum_d corr(d) * 2*pi*J1(k|d|)/(k|d|) of |E|^2."""
    check_array_budget(max(p.rows, p.cols))
    k = np.array([_wavenumber((p.design_freq if f is None else f).hertz)])
    radius_index, squared = _lag_radii(p.rows, p.cols)
    corr = _radial_corr(p, radius_index)[:, None]
    return float(_positive_power(p.cell_pitch_m, squared, k, corr)[0, 0])


def _lag_radii(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(radius index, distinct squared lags i^2 + j^2) of the half lattice of lags of rows x cols.

    Re corr is even in the lag, so only the half lattice j >= 0 is folded:
    lag rows i = 0..rows-1, -(rows-1)..-1 (the order _radial_corr reads them
    in) by lag columns j = 0..cols-1. The J1 kernel depends on i^2 + j^2
    only, small integers, so counting finds the distinct ones in ascending
    order without a sort; the first is the zero lag.
    """
    i = np.concatenate([np.arange(rows), np.arange(1 - rows, 0)])
    j = np.arange(cols)
    r2 = (i[:, None] ** 2 + j[None, :] ** 2).ravel()
    present = np.bincount(r2) > 0
    return (np.cumsum(present) - 1)[r2], np.flatnonzero(present)


def _radial_corr(p: PhaseProfile, radius_index: np.ndarray) -> np.ndarray:
    """Re corr of profile p over its half lattice of lags, summed per distinct radius of _lag_radii."""
    return np.bincount(radius_index, weights=_half_corr(p).ravel())


def _half_corr(p: PhaseProfile) -> np.ndarray:
    """Re corr of profile p on the half lattice of lags of _lag_radii, (2 rows - 1, cols), j > 0 doubled.

    At a 5-smooth length L >= 2n-1 per axis no lag wraps around. Re corr =
    Re fft2(|F|^2)/N survives the Hermitian sum over +d and -d, and rfft2's
    half spectrum j >= 0 is the half lattice. The 1-D passes of fft2 and
    rfft2 run in their order, so the bits are theirs, in blocks of
    FFT_BLOCK_BYTES: y on the n rows; x per column block into one real power
    lattice; rfft per row block, first cols kept; x per column block, in
    place. Columns j > 0 are doubled for their mirrors (j = 0: both signs).
    """
    lx, ly = _fast_length(2 * p.rows - 1), _fast_length(2 * p.cols - 1)
    spectrum = np.fft.fft(p.coefficients, n=ly, axis=1)
    power = np.empty((lx, ly))
    block = max(1, FFT_BLOCK_BYTES // (24 * lx))  # columns of lx complex values and their squares
    for j in range(0, ly, block):
        part = np.fft.fft(spectrum[:, j : j + block], n=lx, axis=0)
        np.square(part.real, out=power[:, j : j + block])
        power[:, j : j + block] += np.square(part.imag)
        del part  # before the next block's is allocated
    del spectrum
    half = np.empty((lx, p.cols), dtype=complex)
    step = max(1, FFT_BLOCK_BYTES // (16 * (ly // 2 + 1)))  # rows of one rfft
    for i in range(0, lx, step):
        half[i : i + step] = np.fft.rfft(power[i : i + step], axis=1)[:, : p.cols]
    del power
    for j in range(0, p.cols, block):
        np.fft.fft(half[:, j : j + block], axis=0, out=half[:, j : j + block])
    corr = half.real[np.r_[0 : p.rows, lx - p.rows + 1 : lx]] / (lx * ly)
    corr[:, 1:] *= 2.0
    return corr


def _modulate(corr: np.ndarray, gx: float, gy: float, radius_index: np.ndarray) -> np.ndarray:
    """Re corr per radius of a exp(-j g.r), (gx, gy) = g * pitch, from corr: the _half_corr rows i >= 0 of a.

    a is even in x, so rows i > 0 and -i of cos(gx i + gy j) A(i, j) sum to 2 cos(gx i) cos(gy j) A(i, j).
    radius_index is that of those rows: the first corr.size entries of _lag_radii's.
    """
    weights = corr * np.cos(gx * np.arange(corr.shape[0]))[:, None]
    weights[1:] *= 2.0
    weights *= np.cos(gy * np.arange(corr.shape[1]))
    return np.bincount(radius_index, weights=weights.ravel())


def _positive_power(pitch: float, squared: np.ndarray, k: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """_closed_form_power(pitch, squared, k, corr) to normalise by: ValueError unless it is finite and above rounding.

    Every term of a column's sum is at most pi |corr_r| in size, so eps * pi *
    sum_r |corr_r| is the scale of its rounding error (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4); residues stayed within 3.5 of
    that scale from 8^2 to 300^2 cells, continuous and 1-2 bits, 0.3 Hz to 1
    kHz. On a panel far smaller than the wavelength the lag terms cancel the
    zero lag's down to such a residue, of either sign, so a power at or below
    2**10 times that scale, its floor, is refused. So is a NaN power: k is
    finite at every frequency, but a pitch so large that k*rho overflows to
    inf makes it NaN, and the overflow is not warned of on the way. A power
    above its floor is within about 3.5 / 2**10 of its value.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        power = _closed_form_power(pitch, squared, k, corr)
    floor = 2**10 * np.finfo(float).eps * math.pi * np.sum(np.abs(corr), axis=0)
    bad = np.argwhere(~((power > floor) & (power < math.inf)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"the closed-form hemisphere power must be finite and above its rounding floor "
                         f"{floor[j]:.6g}, got {power[i, j]:.6g}")
    return power


def _closed_form_power(pitch: float, squared: np.ndarray, k: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Closed-form power (k.size, profiles) of each column of corr, a _radial_corr, at each k.

    The zero lag takes the kernel's limit pi, each radius rho = pitch *
    sqrt(squared) 2*pi*J1(k rho)/(k rho). Each block holds every k by a range
    of radii, max(1, J1_BLOCK_BYTES // (8 k.size)) of them, so its entries are
    what one _j1 and _k_phases call on every k and radius would give; it is
    contracted with each column of corr on its own, so that no profile's
    power depends on the others, and dropped. The contraction is numpy's
    einsum loop, which sums in one fixed order, never BLAS's gemv, whose
    order and so last bits move with the OpenBLAS thread count.
    """
    rho = pitch * np.sqrt(squared[1:])
    power = np.full((k.size, corr.shape[1]), math.pi * corr[0])
    block_cols = max(1, J1_BLOCK_BYTES // (power.itemsize * k.size))
    for c in range(0, rho.size, block_cols):
        cols = slice(c, c + block_cols)
        kr = np.outer(k, rho[cols])
        block = _j1(kr, _k_phases(k, rho[cols]))
        block *= 2.0 * math.pi
        block /= kr
        for column, weights in zip(power.T, corr[1:].T):
            column += np.einsum("ks,s->k", block, weights[cols])
    return power


def _k_phases(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """exp(j k_m rho_s) for every k_m and rho_s, built coarse x fine along k.

    Row m = a*f + b is the product of exp(j k[a*f] rho) and exp(j (k[b] -
    k[0]) rho), one exp per coarse and per fine argument; rows b = 0 are plain
    exp. f = ceil(sqrt(k.size)) when k is uniform to 16*eps*|k|; a single k
    or a grid that is not uniform takes one plain exp per entry. The grid's
    rounding leaves r = k[m] - k[a*f] - (k[b] - k[0]), exact (Sterbenz) and
    worth up to 3*eps*|k rho|; the factor 1 + j r rho takes it out to first
    order, to within 2*eps*max(1, |k rho|).
    """
    f = math.isqrt(k.size - 1) + 1
    m = np.arange(k.size)
    residual = (k - k[m - m % f]) - (k[m % f] - k[0])
    if f == 1 or np.any(np.abs(residual) > 16.0 * np.finfo(float).eps * np.abs(k)):
        return np.exp(np.outer(1j * k, rho))
    coarse = k[::f]
    phase = np.empty((coarse.size, f, rho.size), dtype=complex)
    np.exp(np.outer(1j * coarse, rho), out=phase[:, 0])
    np.multiply(phase[:, :1], np.exp(np.outer(1j * (k[1:f] - k[0]), rho)), out=phase[:, 1:])
    phase = phase.reshape(-1, rho.size)[: k.size]
    theta = np.outer(residual, rho)
    d_cos = phase.imag * theta  # phase *= 1 + j theta, in place in real arithmetic
    theta *= phase.real
    phase.real -= d_cos
    phase.imag += theta
    return phase


def _j1(x: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Bessel function J1 of non-negative real x, given phase = exp(j x).

    Three regimes: the power series for x <= J1_SERIES_MAX; Miller's backward
    recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from MILLER_ORDER, normalised by
    J0 + 2 sum_k J_2k = 1 (A&S 9.1.27, 9.1.46), up to J1_HANKEL_MIN; and the
    Hankel expansion J1 = (P (sin x - cos x) + Q (sin x + cos x)) / sqrt(pi x)
    above it (A&S 9.2.5, 9.2.9-10). That phase is cos(x - 3pi/4) and
    sin(x - 3pi/4) expanded, so no rounding comes from the subtraction; sin x
    and cos x are the parts of phase. Against a 40-digit reference: within
    3e-16 with phase = np.exp(1j * x); with the coarse x fine phase of
    _k_phases, 3e-15 up to x = 300 and 7e-15 up to 3000 (phase error times
    amplitude).

    Most of a power block lies above J1_HANKEL_MIN, so the expansion runs on
    the whole block in a few reused buffers, with no gather or scatter; below
    it the expansion means nothing (it is inf or nan at 0), and those entries
    are overwritten by the series and Miller results; an empty regime is skipped.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        z = np.multiply(x, x)
        np.divide(1.0, z, out=z)  # z = 1/x^2
        out = _polynomial(_HANKEL_P, z)  # P
        big_q = _polynomial(_HANKEL_Q, z)
        big_q /= x  # Q
        np.subtract(phase.imag, phase.real, out=z)
        out *= z  # P (sin - cos)
        np.add(phase.imag, phase.real, out=z)
        big_q *= z  # Q (sin + cos)
        out += big_q
        np.multiply(x, math.pi, out=z)
        np.sqrt(z, out=z)
        out /= z
    del z, big_q  # freed before the series and Miller buffers

    low = x <= J1_HANKEL_MIN
    if not low.any():
        return out
    series = x <= J1_SERIES_MAX
    if series.any():
        half = x[series] / 2.0
        out[series] = half * _polynomial(_SERIES, half * half)
    miller = low ^ series  # J1_SERIES_MAX < x <= J1_HANKEL_MIN
    if miller.any():
        xm = x[miller]
        # unscaled: from MILLER_ORDER at x > J1_SERIES_MAX the recurrence peaks
        # below 1e89, far from overflow, and the normalisation divides the scale out
        j_next, j, even_sum = np.zeros_like(xm), np.ones_like(xm), np.zeros_like(xm)
        for n in range(MILLER_ORDER, 0, -1):
            j_next, j = j, (2.0 * n / xm) * j - j_next  # j is now J_{n-1}, a new array
            if n == 2:
                j1 = j  # no step writes into j, so J1 is kept by reference
            elif n % 2 == 1 and n > 1:
                even_sum += j
        out[miller] = j1 / (j + 2.0 * even_sum)
    return out


def _polynomial(coefficients: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_m coefficients[m] * t^m by Horner's rule."""
    acc = np.full_like(t, coefficients[-1])
    for c in reversed(coefficients[:-1]):
        acc *= t
        acc += c
    return acc


def gain_at(p: PhaseProfile, f: Frequency, direction: Direction) -> float:
    """Directivity (dBi) at one direction, normalized by the exact power, which refuses an oversize p first."""
    power, k = hemisphere_power_exact(p, f), _wavenumber(f.hertz)
    u, v = direction.transverse()
    e = _field(p, [_parity_fold(p.coefficients)], k * u, k * v)[0] * _element_factor(direction.theta)
    return float(_dbi(abs(e) ** 2, power))


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
    integral. A theta_step or total_power that is not positive and finite, a
    total_power so small that 4*pi*(sum |c|)^2/total_power, a bound of every
    directivity, overflows, a phi that is not finite and a cut past
    check_array_budget raise ValueError before any work.
    """
    theta_step = _finite(theta_step, "theta_step must be positive and finite, got {}", lambda step: step > 0.0)
    if total_power is not None:
        total_power = _finite(total_power, "total_power must be positive and finite, got {}", lambda power: power > 0.0)
        _finite(lambda: 4.0 * math.pi * float(np.sum(np.abs(p.coefficients))) ** 2 / total_power,
                f"total_power {total_power:.3g} is so small that the directivity overflows")
    phi = _finite(phi, "phi must be finite, got {}")
    check_array_budget(max(p.rows, p.cols), n_directions=math.pi / theta_step + 1)
    f = p.design_freq if f is None else f
    total_power = hemisphere_power_exact(p, f) if total_power is None else total_power
    return _cuts(p, [_parity_fold(p.coefficients)], f, phi, theta_step, [total_power])[0]


def _cuts(p: PhaseProfile, folded, f: Frequency, phi: float, step: float, powers) -> list[tuple]:
    """(theta_deg, dbi) of a principal-plane cut at finite azimuth phi of each folded grid, over its entry of powers."""
    theta = np.arange(-math.pi / 2, math.pi / 2 + 1e-12, step)
    theta[np.abs(theta - math.pi / 2) <= 1e-12] = math.pi / 2  # arange may stop a rounding short of it
    # negative theta at phi + 180 deg is positive theta with k*sin(theta) negated
    q = _wavenumber(f.hertz) * np.sin(theta)
    e = _field(p, folded, q * math.cos(phi), q * math.sin(phi)) * _element_factor(theta)
    return [(np.degrees(theta), _dbi(np.abs(row) ** 2, power)) for row, power in zip(e, powers, strict=True)]


def quantization_loss(
    a: ApertureSpec,
    outgoing: Direction,
    bits_list: list[int],
    taper: TaperSpec = TaperSpec(),
) -> QuantizationReport:
    """Peak directivity per quantization setting plus the continuous reference.

    Each peak is the maximum of the quantized_cuts cut at azimuth
    outgoing.phi, normalized by the closed-form hemisphere power.
    """
    settings = [*bits_list, None]  # read once, so an iterator gives its bits to the cuts and the report alike
    continuous = synthesize_profile(a, BROADSIDE, outgoing, taper)
    cuts = quantized_cuts(continuous, settings, outgoing.phi)
    peaks = [float(np.max(dbi)) for _, dbi in cuts]
    bits = [None if b is None else int(b) for b in settings[:-1]]  # each an integer by the cuts' rule: its int is exact
    return QuantizationReport(bits=bits, peak_dbi=peaks[:-1], continuous_dbi=peaks[-1])


def quantized_cuts(
    p: PhaseProfile, bits_list: list[int | None], phi: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """principal_plane_cut (theta_deg, dbi) of p at azimuth phi per quantization setting.

    Each entry of bits_list quantizes p to that many bits, or keeps it
    continuous when None. All settings share one theta grid and one stacked
    _field call, so check_array_budget counts every setting's cut. Each cut
    takes CUT_STEPS_PER_BEAMWIDTH samples per analytical beamwidth at
    p.design_freq, at most pi, so that a panel much smaller than a wavelength
    is not cut at one angle; a beamwidth that underflows to 0 asks for an
    endless cut, which the budget refuses; a non-finite phi is refused first.
    """
    phi = _finite(phi, "phi must be finite, got {}")
    step = min(analytical_hpbw(p), math.pi) / CUT_STEPS_PER_BEAMWIDTH
    n_directions = len(bits_list) * (math.pi / step + 1) if step > 0.0 else math.inf
    check_array_budget(max(p.rows, p.cols), n_directions=n_directions)
    radius_index, squared = _lag_radii(p.rows, p.cols)
    corr = np.empty((squared.size, len(bits_list)), order="F")  # each setting's column contiguous
    folded = []  # each setting is folded as it is made, so one copy of it is held
    for bits, column in zip(bits_list, corr.T):
        profile = p if bits is None else quantize_profile(p, bits)
        column[:] = _radial_corr(profile, radius_index)
        folded.append(_parity_fold(profile.coefficients))
        del profile
    del radius_index  # not held beside the cuts
    powers = _positive_power(p.cell_pitch_m, squared, np.array([_wavenumber(p.design_freq.hertz)]), corr)[0]
    return _cuts(p, folded, p.design_freq, phi, step, powers)


def squint_sweep(
    a: ApertureSpec,
    incident: Direction,
    outgoing: Direction,
    taper: TaperSpec = TaperSpec(),
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
    taper: TaperSpec = TaperSpec(),
    bits: int | None = None,
    f_span_hz: float = 20e9,
    n_samples: int = 81,
) -> list[SquintReport]:
    """Beam-peak drift versus frequency per outgoing direction, with the squint band.

    The profile phases stay frozen at the design frequency. At each of the
    n_samples frequencies across f_span_hz around f0 the beam peak is located
    in the steering plane (azimuth outgoing.phi); the band is the contiguous
    stretch around f0 where it stays within HPBW/2 of outgoing.theta, HPBW
    measured on the same aperture and taper steered to broadside. Each band
    edge is interpolated linearly between the nearest off-band sample on its
    side of f0 and that sample's inward neighbour. A frequency where the beam
    has left the visible region records a peak at 90 deg and is off-band. The
    gain toward the fixed target, over the exact hemisphere power, is a trace.

    If the peak never drifts by HPBW/2 anywhere in the band (e.g. a
    frequency-flat broadside profile) the report saturates at f_span_hz. If
    only one edge lies inside the band the sweep cannot bracket it and
    ValueError asks for a larger span. Only normal incidence is
    modelled: after n_samples, f_span and the array budget are checked, the
    taper's synthesis refuses any other incident direction with ValueError,
    before any lag, FFT or field work.

    The sweep is validated first. HPBW depends on the aperture, the taper and
    the azimuth only, so it is measured on the taper (the broadside profile),
    folded once, per distinct outgoing.phi, in first-seen order, before any
    angle is swept. A continuous angle is the taper times exp(-j g.r), g =
    k0 (u_out - u_in), so its correlation and field follow from the taper's
    and that fold (see the module docstring); a quantized angle builds, folds
    and FFTs its own profile. One _field call per angle samples its trace
    and PEAK_WINDOW track window; one contraction gives every angle's
    power, with no J1 table.
    """
    n_samples = _integer(n_samples, "n_samples must be an odd integer >= 11 so f0 lies on the grid, got {!r}",
                         lambda n: n >= 11 and n % 2 == 1)
    f0 = a.design_freq
    f_span_hz = _finite(f_span_hz, "f_span must be positive and below the design frequency",
                        lambda span: 0.0 < span < f0.hertz)
    check_array_budget(a.n_per_side, n_freqs=n_samples, n_angles=len(outgoing_list))
    profile = synthesize_profile(a, incident, BROADSIDE, taper)  # the taper: every continuous angle's lattice
    freqs = f0.hertz + np.linspace(-f_span_hz / 2.0, f_span_hz / 2.0, n_samples)
    k_per_f, k0 = _wavenumber(freqs), _wavenumber(f0.hertz)
    radius_index, squared = _lag_radii(a.n_per_side, a.n_per_side)
    corr = np.empty((squared.size, len(outgoing_list)), order="F")  # each angle's column contiguous
    if bits is None:  # every angle's correlation from the taper's, by one FFT, on its lags i >= 0
        taper_corr = _half_corr(profile)[: a.n_per_side].copy()
        radius_index = radius_index[: taper_corr.size].copy()  # only those lags are binned
    fold = [_parity_fold(profile.coefficients)]  # made after that FFT's scratch is freed
    azimuths = dict.fromkeys(o.phi for o in outgoing_list)  # distinct, in first-seen order
    hpbw_per_phi = {phi: _broadside_hpbw(profile, fold, phi) for phi in azimuths}
    if bits is not None:
        del profile, fold  # a quantized sweep does not hold them beside each angle's field scratch
    mid = n_samples // 2
    tracks = []
    for outgoing, column in zip(outgoing_list, corr.T):
        if bits is None:  # the taper times exp(-j g.r), g = k0 (u_out - u_in) its gradient
            gx, gy = k0 * np.subtract(outgoing.transverse(), incident.transverse())
            column[:] = _modulate(taper_corr, gx * a.cell_pitch_m, gy * a.cell_pitch_m, radius_index)
        else:  # the gradient is in the quantized coefficients, folded for their one _field call
            profile, gx, gy = quantize_profile(synthesize_profile(a, incident, outgoing, taper), bits), 0.0, 0.0
            column[:] = _radial_corr(profile, radius_index)

        # the target at every k, then the track window, on one line q = k*sin(theta)
        hpbw = hpbw_per_phi[outgoing.phi]
        window = k0 * (math.sin(outgoing.theta) + math.sin(hpbw / 2.0) * np.linspace(-1.0, 1.0, PEAK_WINDOW))
        q = np.concatenate((k_per_f * math.sin(outgoing.theta), window))
        e = _field(profile, fold if bits is None else [_parity_fold(profile.coefficients)],
                   q * math.cos(outgoing.phi) - gx, q * math.sin(outgoing.phi) - gy)
        peak = _track_beam_peak(np.abs(e[0, n_samples:]) ** 2, window, k_per_f)
        excess = np.abs(peak - outgoing.theta) - hpbw / 2.0
        if excess[mid] > 0.0:
            raise ValueError(
                f"the beam peak at f0 lies {math.degrees(peak[mid] - outgoing.theta):+.3f} deg "
                f"from the target, beyond half the {math.degrees(hpbw):.3f} deg beamwidth"
            )
        off = np.flatnonzero(~(excess <= 0.0))  # off-band samples; a NaN peak is never in band
        below, above = off[off < mid], off[off > mid]
        saturated = below.size == above.size == 0
        if saturated:
            bw = f_span_hz
        elif below.size == 0 or above.size == 0:
            raise ValueError("the squint band extends past a band edge; increase f_span")
        else:  # each edge lies between the nearest off-band sample and its inward neighbour
            lo, hi = below[-1], above[0]
            f_lo = _interp_crossing(freqs[lo], freqs[lo + 1], excess[lo], excess[lo + 1])
            f_hi = _interp_crossing(freqs[hi], freqs[hi - 1], excess[hi], excess[hi - 1])
            bw = f_hi - f_lo
        trace = np.abs(e[0, :n_samples] * _element_factor(outgoing.theta)) ** 2
        tracks.append((outgoing, trace, peak, hpbw, bw, saturated))

    power = _positive_power(a.cell_pitch_m, squared, k_per_f, corr)
    return [
        SquintReport(f0.hertz, outgoing, freqs, _dbi(e2, angle_power), *band)
        for (outgoing, e2, *band), angle_power in zip(tracks, power.T)
    ]


def _interp_crossing(x_out: float, x_in: float, y_out: float, y_in: float, level: float = 0.0) -> float:
    """Abscissa where y crosses level between an outside and an inside sample.

    The two samples lie strictly on opposite sides of level, so y_in != y_out.
    """
    frac = (level - y_out) / (y_in - y_out)
    return x_out + frac * (x_in - x_out)


def _broadside_hpbw(p: PhaseProfile, folded: list[np.ndarray], phi: float) -> float:
    """Measured -3 dB width (rad) in the plane phi of the broadside beam of p at p.design_freq.

    folded is [_parity_fold(p.coefficients)], which the caller holds for its
    other uses. p is steered to broadside, so its coefficients are its real
    taper and its peak is their sum. The half-power angle is bracketed on a
    grid up to twice the uniform aperture's half width, the bracket is
    resampled once on the same number of points, and the -3 dB point is
    interpolated linearly in dB. For a symmetric taper the pattern is even
    in theta, so the width is twice it.
    """
    peak = np.sum(np.abs(p.coefficients)) ** 2
    k = _wavenumber(p.design_freq.hertz)
    lo, hi = 0.0, min(analytical_hpbw(p), math.pi / 2)
    for _ in range(2):
        theta = np.linspace(lo, hi, HPBW_GRID)
        ku, kv = k * np.sin(theta) * math.cos(phi), k * np.sin(theta) * math.sin(phi)
        power = np.abs(_field(p, folded, ku, kv)[0]) ** 2 * np.cos(theta)
        with np.errstate(divide="ignore"):
            rel = 10.0 * np.log10(power / peak)
        below = np.flatnonzero(rel < -3.0)
        if below.size == 0 or below[0] == 0:
            raise ValueError("cannot bracket the -3 dB point of the broadside beam")
        i = below[0]
        lo, hi = theta[i - 1], theta[i]
    return 2.0 * _interp_crossing(theta[i], theta[i - 1], rel[i], rel[i - 1], level=-3.0)


def _track_beam_peak(af2: np.ndarray, q: np.ndarray, k_per_f: np.ndarray) -> np.ndarray:
    """Signed beam-peak angle (rad) in the steering plane at each wavenumber.

    af2 is |AF|^2 at PEAK_WINDOW uniform samples q of k*sin(theta) in the
    steering plane, where the frozen-phase array factor depends on q only.
    At each wavenumber the cos(theta) element power is applied and the peak
    is refined by a parabola through the log power around the largest
    sample. A peak that the window cannot hold, because the lobe has run to
    the horizon or out of the visible region, is recorded at 90 deg.
    """
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
