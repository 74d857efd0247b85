"""THz RIS planning toolkit: bistatic link budget, required radar cross
section, aperture sizing, phase-profile synthesis with quantization,
far-field directivity, beam-squint bandwidth, and panel power estimates."""

import importlib

# every public name, listed once under the module that defines it; a name is
# resolved on first use (PEP 562), so importing the package loads no submodule
# and the scalar planning commands start without numpy
_EXPORTS = {
    "aperture": (
        "ApertureSpec",
        "EfficiencyLedger",
        "UnreachableGeometryError",
        "element_count",
        "pec_bound_check",
        "rcs",
        "solve_aperture_size",
    ),
    "core": (
        "BROADSIDE",
        "SPEED_OF_LIGHT",
        "BistaticGeometry",
        "Direction",
        "Frequency",
    ),
    "link_budget": (
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
    ),
    "power": ("PROFILES", "TechnologyProfile", "panel_power"),
    "radiation": (
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
    "surface": (
        "PhaseProfile",
        "TaperSpec",
        "quantize_profile",
        "synthesize_profile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
