"""Scenario config files: INI-style sections with unit-suffixed scalars.

Physical quantities must carry a unit ("140 GHz", "50 m", "-10 dB"); bare
numbers are rejected for them. Unknown sections or keys are rejected with the
offending line number.
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
    """Quantization list: comma-separated bit counts and/or 'continuous'."""
    out: list[int | None] = []
    for token in text.split(","):
        token = token.strip().lower()
        if token == "continuous":
            out.append(None)
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise ConfigError(
                    f"'{key}': expected bit counts or 'continuous', got {token!r}", line
                ) from None
    return out


def _parse_angle_list(text: str, key: str, line: int | None) -> list[float]:
    return [parse_quantity(t.strip(), "angle", key, line) for t in text.split(",")]


# key -> (parser spec) per section; parser spec is either a dimension name
# for parse_quantity or a callable tag
_SCHEMAS: dict[str, dict[str, str]] = {
    "link": {
        "frequency": "frequency",
        "d1": "length",
        "d2": "length",
        "theta_in": "angle",
        "theta_out": "angle",
        "phi_in": "angle",
        "phi_out": "angle",
        "tx_power": "power_dbm",
        "bs_gain": "gain_db",
        "terminal_gain": "gain_db",
    },
    "receiver": {
        "bandwidth": "frequency",
        "noise_figure": "level_db",
        "modulation": "modulation",
        "target_ber": "float",
        "implementation_loss": "level_db",
        "sensitivity": "power_dbm",
    },
    "aperture": {
        "design_frequency": "frequency",
        "side": "length",
        "n_per_side": "int",
        "cell_pitch": "length",
        "aperture_efficiency": "fraction",
    },
    "taper": {
        "edge_level": "level_db",
    },
    "quantization": {
        "bits": "bits_list",
    },
    "sweep": {
        "f_span": "frequency",
        "n_samples": "int",
        "theta_out_sweep": "angle_list",
    },
    "power": {
        "profile": "str",
        "cells": "int",
        "per_cell_power": "watts",
    },
}

_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": lambda text, key, line: text,
    "fraction": _parse_fraction,
    "modulation": _parse_modulation,
    "bits_list": _parse_bits_list,
    "angle_list": _parse_angle_list,
}


@dataclass
class ScenarioConfig:
    """Parsed and validated scenario file; one dict of typed values per section."""

    sections: dict[str, dict[str, object]] = field(default_factory=dict)

    def section(self, name: str) -> dict[str, object]:
        if name not in self.sections:
            raise ConfigError(f"missing required section [{name}]")
        return self.sections[name]

    def require(self, section: str, *keys: str) -> None:
        values = self.section(section)
        for key in keys:
            if key not in values:
                raise ConfigError(f"section [{section}] is missing required key '{key}'")

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate an INI-style scenario file."""
    text = Path(path).read_text()
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
            sections[name] = {}
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
        spec = schema[key]
        if spec in _UNITS:
            parsed: object = parse_quantity(value, spec, key, lineno)
        else:
            parsed = _PARSERS[spec](value, key, lineno)
        sections[current][key] = parsed

    return ScenarioConfig(sections=sections)
