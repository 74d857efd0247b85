"""THz RIS planning toolkit: bistatic link budget, required radar cross
section, aperture sizing, phase-profile synthesis with quantization,
far-field directivity, beam-squint bandwidth, and panel power estimates."""

import importlib

from .aperture import (
    ApertureSpec,
    EfficiencyLedger,
    UnreachableGeometryError,
    element_count,
    pec_bound_check,
    rcs,
    solve_aperture_size,
)
from .core import (
    BROADSIDE,
    SPEED_OF_LIGHT,
    BistaticGeometry,
    Direction,
    Frequency,
    db_to_linear,
    dbm_to_watts,
    fraunhofer_distance,
    linear_to_db,
    watts_to_dbm,
    wavelength,
)
from .link_budget import (
    LinkReport,
    LinkScenario,
    ReceiverSpec,
    evaluate_link,
    received_power,
    required_rcs,
    required_rcs_for_target,
    required_snr_db,
    sensitivity,
    spreading_term,
)
from .power import PROFILES, TechnologyProfile, panel_power
# radiation and surface need numpy; their names are resolved on first use
# (PEP 562), so the scalar planning commands start without it
_LAZY = {
    **dict.fromkeys(
        (
            "FrequencySpanError",
            "GridResolutionError",
            "QuantizationReport",
            "SpherePattern",
            "SquintReport",
            "UVPattern",
            "array_factor_direct",
            "array_factor_fft",
            "directivity",
            "gain_at",
            "hemisphere_power_exact",
            "principal_plane_cut",
            "quantization_loss",
            "squint_sweep",
            "squint_vs_angle",
        ),
        "radiation",
    ),
    **dict.fromkeys(
        (
            "CellStateTable",
            "PhaseProfile",
            "TaperSpec",
            "UNIFORM_TAPER",
            "UnitCellState",
            "apply_cell_model",
            "demo_cell_table",
            "generate_codebook",
            "quantize_profile",
            "synthesize_profile",
        ),
        "surface",
    ),
}

__all__ = [
    "ApertureSpec",
    "EfficiencyLedger",
    "UnreachableGeometryError",
    "element_count",
    "pec_bound_check",
    "rcs",
    "solve_aperture_size",
    "BROADSIDE",
    "SPEED_OF_LIGHT",
    "BistaticGeometry",
    "Direction",
    "Frequency",
    "db_to_linear",
    "dbm_to_watts",
    "fraunhofer_distance",
    "linear_to_db",
    "watts_to_dbm",
    "wavelength",
    "LinkReport",
    "LinkScenario",
    "ReceiverSpec",
    "evaluate_link",
    "received_power",
    "required_rcs",
    "required_rcs_for_target",
    "required_snr_db",
    "sensitivity",
    "spreading_term",
    "PROFILES",
    "TechnologyProfile",
    "panel_power",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
