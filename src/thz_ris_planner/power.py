"""RIS panel control-power estimates from per-cell technology profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyProfile:
    name: str
    per_cell_power_w: float
    switches_per_cell: int = 2
    notes: str = ""

    def __post_init__(self):
        if not (0.0 <= self.per_cell_power_w < math.inf):
            raise ValueError("per-cell power must be finite and >= 0")
        if self.switches_per_cell < 1:
            raise ValueError("switches per cell must be >= 1")


# order-of-magnitude defaults for the two mainstream switch families
PROFILES = {
    "cmos_rfsoi": TechnologyProfile(
        "cmos_rfsoi", 20e-6, 2, "CMOS RF-SOI switches, tens of uW per cell"
    ),
    "pin_diode": TechnologyProfile(
        "pin_diode", 3e-3, 2, "PIN diodes, several mW per cell"
    ),
}


def panel_power(n_cells: int, tech: TechnologyProfile) -> float:
    """Total panel control power in watts: n_cells * per-cell power."""
    if n_cells < 1:
        raise ValueError("panel needs at least one cell")
    return n_cells * tech.per_cell_power_w
