"""Scenario config files: INI-style sections with unit-suffixed scalars.

Physical quantities must carry a unit ("140 GHz", "50 m", "-10 dB"); bare
numbers are rejected for them. Unknown sections or keys are rejected with the
offending line number; reading a key the file does not set names the section
and the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# factors convert the suffixed number to the SI / dB base of each dimension
_UNITS = {
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12},
    "length": {"m": 1.0, "mm": 1e-3, "cm": 1e-2, "um": 1e-6, "km": 1e3},
    "angle": {"deg": math.pi / 180.0, "rad": 1.0},
    "power_dbm": {"dBm": 1.0},
    "gain_db": {"dBi": 1.0, "dB": 1.0},
    "level_db": {"dB": 1.0},
    "watts": {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "µW": 1e-6, "kW": 1e3},
}


def parse_quantity(text: str, dimension: str, key: str = "", line: int | None = None) -> float:
    """Parse "value unit" into the dimension's base unit."""
    parts = text.split()
    units = _UNITS[dimension]
    if len(parts) != 2:
        expected = "/".join(units)
        raise ConfigError(
            f"'{key}' needs a value with a unit ({expected}), got {text!r}", line
        )
    raw, unit = parts
    if unit not in units:
        raise ConfigError(
            f"'{key}': unit {unit!r} is not valid for {dimension} (use {'/'.join(units)})", line
        )
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"'{key}': cannot parse number {raw!r}", line) from None
    return _finite(value * units[unit], key, line)


def _finite(value: float, key: str, line: int | None) -> float:
    """value itself; nan and +-inf (which float() accepts) raise ConfigError."""
    if not math.isfinite(value):
        raise ConfigError(f"'{key}': expected a finite number, got {value}", line)
    return value


def _parse_fraction(text: str, key: str, line: int | None) -> float:
    """Efficiencies: either a bare fraction ("0.25") or a percentage ("25 %")."""
    parts = text.split()
    try:
        if len(parts) == 2 and parts[1] in ("%", "percent"):
            return _finite(float(parts[0]), key, line) / 100.0
        if len(parts) == 1:
            return _finite(float(parts[0]), key, line)
    except ValueError:
        pass
    raise ConfigError(f"'{key}': expected a fraction or percentage, got {text!r}", line)


def _parse_int(text: str, key: str, line: int | None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"'{key}': expected an integer, got {text!r}", line) from None


def _parse_float(text: str, key: str, line: int | None) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"'{key}': expected a number, got {text!r}", line) from None
    return _finite(value, key, line)


def _parse_modulation(text: str, key: str, line: int | None) -> int:
    """Modulation like "4-QAM" -> order 4."""
    token = text.strip().upper()
    if token.endswith("-QAM"):
        try:
            return int(token[:-4])
        except ValueError:
            pass
    raise ConfigError(f"'{key}': expected '<M>-QAM' (e.g. 4-QAM), got {text!r}", line)


def _parse_bits_list(text: str, key: str, line: int | None) -> list[int | None]:
    """Quantization list: comma-separated bit counts and/or 'continuous', each once."""
    out: list[int | None] = []
    for token in text.split(","):
        token = token.strip().lower()
        try:
            bits = None if token == "continuous" else int(token)
        except ValueError:
            raise ConfigError(
                f"'{key}': expected bit counts or 'continuous', got {token!r}", line
            ) from None
        if bits in out:
            raise ConfigError(f"'{key}': setting {token!r} is listed twice", line)
        out.append(bits)
    return out


def _parse_angle_list(text: str, key: str, line: int | None) -> list[float]:
    return [parse_quantity(t.strip(), "angle", key, line) for t in text.split(",")]


def _quantity(dimension: str):
    """Schema parser for a value with a unit of the given dimension."""
    return lambda text, key, line: parse_quantity(text, dimension, key, line)


# key -> parser (text, key, line) -> value, per section
_SCHEMAS = {
    "link": {
        "frequency": _quantity("frequency"),
        "d1": _quantity("length"),
        "d2": _quantity("length"),
        "theta_in": _quantity("angle"),
        "theta_out": _quantity("angle"),
        "phi_in": _quantity("angle"),
        "phi_out": _quantity("angle"),
        "tx_power": _quantity("power_dbm"),
        "bs_gain": _quantity("gain_db"),
        "terminal_gain": _quantity("gain_db"),
    },
    "receiver": {
        "bandwidth": _quantity("frequency"),
        "noise_figure": _quantity("level_db"),
        "modulation": _parse_modulation,
        "target_ber": _parse_float,
        "implementation_loss": _quantity("level_db"),
        "sensitivity": _quantity("power_dbm"),
    },
    "aperture": {
        "design_frequency": _quantity("frequency"),
        "side": _quantity("length"),
        "n_per_side": _parse_int,
        "cell_pitch": _quantity("length"),
        "aperture_efficiency": _parse_fraction,
    },
    "taper": {
        "edge_level": _quantity("level_db"),
    },
    "quantization": {
        "bits": _parse_bits_list,
    },
    "sweep": {
        "f_span": _quantity("frequency"),
        "n_samples": _parse_int,
        "theta_out_sweep": _parse_angle_list,
    },
    "power": {
        "profile": lambda text, key, line: text,
        "cells": _parse_int,
        "per_cell_power": _quantity("watts"),
    },
}


class _Section(dict):
    """One section's parsed values; reading a key the file did not set raises ConfigError."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, key: str):
        raise ConfigError(f"section [{self.name}] is missing required key '{key}'")


@dataclass
class ScenarioConfig:
    """Parsed and validated scenario file; one dict of typed values per section."""

    sections: dict[str, dict[str, object]] = field(default_factory=dict)

    def section(self, name: str) -> dict[str, object]:
        if name not in self.sections:
            raise ConfigError(f"missing required section [{name}]")
        return self.sections[name]

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate an INI-style scenario file."""
    text = Path(path).read_text(encoding="utf-8-sig")
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        # strip trailing inline comments
        for marker in (" #", " ;", "\t#", "\t;"):
            pos = line.find(marker)
            if pos != -1:
                line = line[:pos].rstrip()
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMAS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = _Section(name)
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        schema = _SCHEMAS[current]
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key '{key}' in section [{current}]", lineno)
        sections[current][key] = schema[key](value, key, lineno)

    return ScenarioConfig(sections=sections)
