"""Per-element reflection profiles: anomalous-reflection phase gradients,
amplitude taper, b-bit phase quantization, measured-cell responses, and flat
beam codebooks.

The continuous profile for redirecting a plane wave arriving from direction
u_in toward u_out is the wrapped linear gradient

    psi(r) = mod(-k0 * (u_out - u_in) . r, 2*pi)

evaluated at the design frequency f0 on the element lattice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .aperture import ApertureSpec
from .core import BROADSIDE, Direction, Frequency

MAX_QUANTIZATION_BITS = 8  # beyond practical per-cell switch counts


@dataclass(frozen=True)
class TaperSpec:
    """Amplitude illumination: raised cosine on a pedestal over the aperture radius.

    edge_level_db is the field amplitude at the aperture edge relative to the
    center (0 dB = uniform). The law is a(rho) = p + (1-p)*cos^2(pi*rho/2)
    with pedestal p = 10^(edge_level_db/20) and rho the radial distance
    normalized to the half-side, clipped at 1 toward the corners.
    """

    edge_level_db: float = 0.0

    def __post_init__(self):
        if not (-math.inf < self.edge_level_db <= 0.0):
            raise ValueError("taper edge level must be finite and <= 0 dB")

    @property
    def pedestal(self) -> float:
        return 10.0 ** (self.edge_level_db / 20.0)

    def amplitude(self, rho: np.ndarray) -> np.ndarray:
        rho = np.minimum(np.asarray(rho, dtype=float), 1.0)
        p = self.pedestal
        return p + (1.0 - p) * np.cos(np.pi * rho / 2.0) ** 2


UNIFORM_TAPER = TaperSpec(0.0)


@dataclass(frozen=True)
class PhaseProfile:
    """Programmed complex reflection coefficients on a uniform element lattice.

    coefficients[i, j] belongs to the element at (x_m[i], y_m[j]). Quantized
    profiles additionally carry the per-element state index.
    """

    x_m: np.ndarray
    y_m: np.ndarray
    coefficients: np.ndarray
    design_freq: Frequency
    cell_pitch_m: float
    quantization_bits: int | None = None
    state_index: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.coefficients.shape != (self.x_m.size, self.y_m.size):
            raise ValueError("coefficient grid does not match element coordinates")
        if np.any(np.abs(self.coefficients) > 1.0 + 1e-9):
            raise ValueError("reflection coefficient magnitudes must be <= 1")
        if self.state_index is not None and self.state_index.shape != self.coefficients.shape:
            raise ValueError("state index grid does not match coefficients")
        for arr in (self.x_m, self.y_m, self.coefficients, self.state_index):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.x_m.size

    @property
    def cols(self) -> int:
        return self.y_m.size

    @property
    def is_quantized(self) -> bool:
        return self.quantization_bits is not None

    def phases(self) -> np.ndarray:
        return np.mod(np.angle(self.coefficients), 2.0 * np.pi)

    def amplitudes(self) -> np.ndarray:
        return np.abs(self.coefficients)


def element_coordinates(a: ApertureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Centered per-axis element coordinates (x, y) of the populated grid."""
    n = a.n_per_side
    coords = (np.arange(n) - (n - 1) / 2.0) * a.cell_pitch_m
    return coords, coords.copy()


def synthesize_profile(
    a: ApertureSpec,
    incident: Direction,
    outgoing: Direction,
    taper: TaperSpec = UNIFORM_TAPER,
) -> PhaseProfile:
    """Continuous (unquantized) profile steering incident -> outgoing at f0."""
    x, y = element_coordinates(a)
    gx, gy = np.meshgrid(x, y, indexing="ij")

    k0 = 2.0 * math.pi / a.design_freq.wavelength_m
    u_in, v_in = incident.transverse()
    u_out, v_out = outgoing.transverse()
    psi = np.mod(-k0 * ((u_out - u_in) * gx + (v_out - v_in) * gy), 2.0 * math.pi)

    rho = np.hypot(gx, gy) / (a.side_m / 2.0)
    amp = taper.amplitude(rho)

    return PhaseProfile(
        x_m=x,
        y_m=y,
        coefficients=amp * np.exp(1j * psi),
        design_freq=a.design_freq,
        cell_pitch_m=a.cell_pitch_m,
    )


def quantization_levels(bits: int) -> np.ndarray:
    """The 2^bits uniformly spaced phase states, starting at 0 rad."""
    if not (1 <= bits <= MAX_QUANTIZATION_BITS):
        raise ValueError(f"quantization bits must be in [1, {MAX_QUANTIZATION_BITS}]")
    return 2.0 * math.pi * np.arange(2**bits) / 2**bits


def quantize_profile(p: PhaseProfile, bits: int) -> PhaseProfile:
    """Snap each phase to the nearest of 2^bits levels; magnitudes are kept.

    Exact midpoints round toward the lower level index.
    """
    levels = quantization_levels(bits)
    step = levels[1]  # 2*pi / 2^bits
    # ceil(x - 0.5) is round-half-down, the documented tie break
    idx = np.ceil(p.phases() / step - 0.5).astype(int) % levels.size
    return PhaseProfile(
        x_m=p.x_m.copy(),
        y_m=p.y_m.copy(),
        coefficients=p.amplitudes() * np.exp(1j * idx * step),
        design_freq=p.design_freq,
        cell_pitch_m=p.cell_pitch_m,
        quantization_bits=bits,
        state_index=idx,
    )


@dataclass(frozen=True)
class UnitCellState:
    """Measured complex reflection of one cell state over frequency."""

    state_index: int
    freq_hz: np.ndarray
    reflection: np.ndarray

    def __post_init__(self):
        if self.freq_hz.size < 1 or self.freq_hz.size != self.reflection.size:
            raise ValueError("state table needs matching frequency and reflection samples")
        if np.any(np.diff(self.freq_hz) <= 0):
            raise ValueError("state table frequencies must be strictly increasing")
        if np.any(np.abs(self.reflection) > 1.0 + 1e-9):
            raise ValueError("cell reflection magnitude must be <= 1")
        self.freq_hz.setflags(write=False)
        self.reflection.setflags(write=False)


class CellStateTable:
    """Lookup table of UnitCellState entries, one per discrete state."""

    def __init__(self, states: list[UnitCellState]):
        if not states:
            raise ValueError("cell table needs at least one state")
        indices = sorted(s.state_index for s in states)
        if indices != list(range(len(states))):
            raise ValueError("state indices must be 0..n_states-1")
        self._states = {s.state_index: s for s in states}

    def __len__(self) -> int:
        return len(self._states)

    @property
    def band_hz(self) -> tuple[float, float]:
        lo = max(float(s.freq_hz[0]) for s in self._states.values())
        hi = min(float(s.freq_hz[-1]) for s in self._states.values())
        return lo, hi

    def response(self, state_index: int, f: Frequency) -> complex:
        """Complex reflection at f: linear interpolation of amplitude and
        unwrapped phase between table samples."""
        state = self._states.get(state_index)
        if state is None:
            raise KeyError(f"no state {state_index} in cell table")
        fq = f.hertz
        if fq < state.freq_hz[0] or fq > state.freq_hz[-1]:
            raise ValueError("cell model out of band")
        amp = np.interp(fq, state.freq_hz, np.abs(state.reflection))
        phase = np.interp(fq, state.freq_hz, np.unwrap(np.angle(state.reflection)))
        return complex(amp * np.exp(1j * phase))

    @classmethod
    def from_csv(cls, path: str | Path) -> "CellStateTable":
        """Load from CSV columns: freq_hz, state_index, amplitude_linear, phase_rad."""
        rows: dict[int, list[tuple[float, complex]]] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"freq_hz", "state_index", "amplitude_linear", "phase_rad"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"cell table CSV must have columns {sorted(required)}")
            for rec in reader:
                idx = int(rec["state_index"])
                amp = float(rec["amplitude_linear"])
                ph = float(rec["phase_rad"])
                rows.setdefault(idx, []).append((float(rec["freq_hz"]), amp * np.exp(1j * ph)))
        states = []
        for idx, samples in sorted(rows.items()):
            samples.sort(key=lambda t: t[0])
            freqs = np.array([s[0] for s in samples])
            refl = np.array([s[1] for s in samples])
            states.append(UnitCellState(idx, freqs, refl))
        return cls(states)


def demo_cell_table() -> CellStateTable:
    """Bundled 2-bit demo table: frequency-flat states with 3 dB insertion loss."""
    with resources.as_file(
        resources.files("thz_ris_planner").joinpath("data/demo_cell_table.csv")
    ) as path:
        return CellStateTable.from_csv(path)


def apply_cell_model(p: PhaseProfile, table: CellStateTable, f: Frequency) -> PhaseProfile:
    """Replace the ideal quantized states with the table's response at f.

    The taper amplitude stays as the incident illumination; each element's
    reflection becomes taper * table(state, f), capturing amplitude loss and
    phase dispersion of the hardware.
    """
    if not p.is_quantized:
        raise ValueError("cell model applies to quantized profiles only")
    n_states = 2**p.quantization_bits
    responses = np.array([table.response(s, f) for s in range(n_states)])
    coeffs = p.amplitudes() * responses[p.state_index]
    return PhaseProfile(
        x_m=p.x_m.copy(),
        y_m=p.y_m.copy(),
        coefficients=coeffs,
        design_freq=p.design_freq,
        cell_pitch_m=p.cell_pitch_m,
        quantization_bits=p.quantization_bits,
        state_index=p.state_index.copy(),
    )


def generate_codebook(
    a: ApertureSpec,
    angular_grid: list[Direction],
    bits: int,
    taper: TaperSpec = UNIFORM_TAPER,
    incident: Direction = BROADSIDE,
) -> list[PhaseProfile]:
    """One quantized far-field profile per grid direction, in grid order."""
    if not angular_grid:
        raise ValueError("angular grid must be non-empty")
    return [
        quantize_profile(synthesize_profile(a, incident, target, taper), bits)
        for target in angular_grid
    ]
