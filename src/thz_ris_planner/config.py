"""Scenario config files: INI-style sections with unit-suffixed scalars.

Physical quantities must carry a unit ("140 GHz", "50 m", "-10 dB"); bare
numbers are rejected for them. Each schema parser turns a value's text into
its value or raises ConfigError with the reason alone; load_config prefixes
the line and the key. Unknown sections or keys are rejected with the offending
line number; reading a key or section the file does not set names it.
"""

from __future__ import annotations

import math
from pathlib import Path

from .core import _finite


class ConfigError(Exception):
    """A scenario file, or one value in it, that cannot be read."""


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


def _number(convert, text: str, reason: str):
    """convert(text), with the ValueError of a text it refuses raised as ConfigError(reason)."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(reason) from None


def _real(text: str, reason: str, factor: float = 1.0) -> float:
    """float(text) * factor; raises ConfigError(reason) where float() refuses text.

    nan, +-inf and a product that overflows, which float() lets through, are
    refused by core._finite, raising ConfigError.
    """
    return _finite(_number(float, text, reason) * factor, "expected a finite number, got {}", error=ConfigError)


def parse_quantity(text: str, dimension: str) -> float:
    """Parse "value unit" into the dimension's base unit."""
    parts = text.split()
    units = _UNITS[dimension]
    if len(parts) != 2:
        raise ConfigError(f"needs a value with a unit ({'/'.join(units)}), got {text!r}")
    raw, unit = parts
    if unit not in units:
        raise ConfigError(f"unit {unit!r} is not valid for {dimension} (use {'/'.join(units)})")
    return _real(raw, f"cannot parse number {raw!r}", units[unit])


def _parse_fraction(text: str) -> float:
    """Efficiencies: either a bare fraction ("0.25") or a percentage ("25 %")."""
    parts = text.split()
    reason = f"expected a fraction or percentage, got {text!r}"
    percent = len(parts) == 2 and parts[1] in ("%", "percent")
    if len(parts) != 1 and not percent:
        raise ConfigError(reason)
    return _real(parts[0], reason) / (100.0 if percent else 1.0)


def _parse_int(text: str) -> int:
    return _number(int, text, f"expected an integer, got {text!r}")


def _parse_float(text: str) -> float:
    return _real(text, f"expected a number, got {text!r}")


def _parse_modulation(text: str) -> int:
    """Modulation like "4-QAM" -> order 4."""
    token = text.strip().upper()
    reason = f"expected '<M>-QAM' (e.g. 4-QAM), got {text!r}"
    if not token.endswith("-QAM"):
        raise ConfigError(reason)
    return _number(int, token[:-4], reason)


def _parse_bits(token: str) -> int | None:
    """One quantization setting: a bit count or 'continuous'."""
    token = token.lower()
    if token == "continuous":
        return None
    return _number(int, token, f"expected bit counts or 'continuous', got {token!r}")


def _parse_name(text: str) -> str:
    """A technology profile name, which power.csv writes as one unquoted cell."""
    if "," in text or '"' in text:
        raise ConfigError(f"a name cannot contain ',' or '\"', got {text!r}")
    return text


def _distinct_list(parse_entry):
    """Schema parser for a comma-separated list whose entries parse_entry reads, each once."""

    def parse(text: str) -> list:
        out = []
        for token in text.split(","):
            token = token.strip()
            value = parse_entry(token)
            if value in out:
                raise ConfigError(f"setting {token!r} is listed twice")
            out.append(value)
        return out

    return parse


def _quantity(dimension: str):
    """Schema parser for a value with a unit of the given dimension."""
    return lambda text: parse_quantity(text, dimension)


# key -> parser text -> value, per section
_SCHEMAS = {
    "link": {
        "frequency": _quantity("frequency"),
        "d1": _quantity("length"),
        "d2": _quantity("length"),
        "theta_in": _quantity("angle"),
        "theta_out": _quantity("angle"),
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
        "bits": _distinct_list(_parse_bits),
    },
    "sweep": {
        "f_span": _quantity("frequency"),
        "n_samples": _parse_int,
        "theta_out_sweep": _distinct_list(_quantity("angle")),
    },
    "power": {
        "profile": _parse_name,
        "cells": _parse_int,
        "per_cell_power": _quantity("watts"),
    },
}


class _Section(dict):
    """One section's parsed values; reading a key the file did not set raises ConfigError."""

    def __init__(self, name: str, present: bool = True):
        super().__init__()
        self.name, self.present = name, present

    def __missing__(self, key: str):
        if not self.present:
            raise ConfigError(f"missing required section [{self.name}]")
        raise ConfigError(f"section [{self.name}] is missing required key '{key}'")


class ScenarioConfig(dict):
    """Parsed and validated scenario file: section name -> its _Section.

    A section the file lacks reads as an empty one, so its optional keys take
    their defaults and its first required key raises the missing section.
    """

    def __missing__(self, name: str) -> _Section:
        return _Section(name, present=False)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate an INI-style scenario file."""
    text = Path(path).read_text(encoding="utf-8-sig")
    cfg = ScenarioConfig()
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
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in cfg:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            cfg[name] = _Section(name)
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        schema = _SCHEMAS[current]
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in section [{current}]")
        if key in cfg[current]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in section [{current}]")
        try:
            cfg[current][key] = schema[key](value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: '{key}': {exc}") from None

    return cfg
