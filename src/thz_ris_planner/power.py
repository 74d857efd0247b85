"""RIS panel control-power estimates from per-cell technology profiles."""

from __future__ import annotations

from .core import Value, _finite, _integer


class TechnologyProfile(Value):
    __slots__ = ("name", "per_cell_power_w")

    def __init__(self, name: str, per_cell_power_w: float):
        super().__init__(name, _finite(per_cell_power_w, "per-cell power must be finite and >= 0", lambda w: w >= 0.0))


# order-of-magnitude defaults for the two mainstream switch families: CMOS
# RF-SOI switches draw tens of uW per cell, PIN diodes several mW per cell
PROFILES = {
    "cmos_rfsoi": TechnologyProfile("cmos_rfsoi", 20e-6),
    "pin_diode": TechnologyProfile("pin_diode", 3e-3),
}


def panel_power(n_cells: int, tech: TechnologyProfile) -> float:
    """Total panel control power in watts: n_cells * per-cell power.

    Raises ValueError when the product leaves the range of a float.
    """
    n_cells = _integer(n_cells, "a panel needs a whole number of cells, at least one, got {!r}", lambda n: n >= 1)
    return _finite(  # n_cells may be an int too large for a float
        lambda: n_cells * tech.per_cell_power_w,
        "panel power overflows: n_cells * per-cell power is beyond the float range",
    )
