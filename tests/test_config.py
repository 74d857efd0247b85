import math

import pytest
from hypothesis import given, strategies as st

from thz_ris_planner.config import _UNITS, ConfigError, load_config, parse_quantity


def test_parse_quantity_units():
    assert parse_quantity("140 GHz", "frequency") == pytest.approx(140e9)
    assert parse_quantity("50 m", "length") == 50.0
    assert parse_quantity("110 mm", "length") == pytest.approx(0.110)
    assert parse_quantity("-10 dB", "level_db") == -10.0
    assert parse_quantity("45 deg", "angle") == pytest.approx(math.radians(45))
    assert parse_quantity("20 uW", "watts") == pytest.approx(20e-6)


@given(
    st.sampled_from([(dim, unit) for dim, units in _UNITS.items() for unit in units]),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_parse_quantity_round_trip(dim_unit, x):
    dimension, unit = dim_unit
    scaled = x * _UNITS[dimension][unit]
    text = f"{x!r} {unit}"
    if math.isfinite(scaled):
        assert parse_quantity(text, dimension) == scaled
    else:
        with pytest.raises(ConfigError, match="finite"):
            parse_quantity(text, dimension)


def test_parse_quantity_rejects_unitless():
    with pytest.raises(ConfigError, match="needs a value with a unit"):
        parse_quantity("140", "frequency", key="frequency")


def test_parse_quantity_rejects_wrong_unit():
    with pytest.raises(ConfigError, match="not valid"):
        parse_quantity("140 m", "frequency", key="frequency")


def _write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return path


GOOD = """
[link]
frequency = 140 GHz
d1 = 50 m
d2 = 50 m
theta_in = 0 deg
theta_out = 45 deg
tx_power = 20 dBm
bs_gain = 46 dBi
terminal_gain = 10 dBi

[receiver]
bandwidth = 2 GHz
noise_figure = 7 dB
modulation = 4-QAM
target_ber = 1e-6
"""


@pytest.mark.parametrize(
    "section,line",
    [
        ("link", "d1 = nan m"),
        ("link", "tx_power = inf dBm"),
        ("aperture", "aperture_efficiency = -inf"),
        ("aperture", "aperture_efficiency = nan %"),
        ("receiver", "target_ber = inf"),
        # finite as written, infinite once scaled to the base unit
        ("link", "d1 = 1e306 km"),
        ("aperture", "design_frequency = 1e300 THz"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, section, line):
    with pytest.raises(ConfigError, match=r"line 2: .*expected a finite number"):
        load_config(_write(tmp_path, f"[{section}]\n{line}\n"))


def test_load_good_config(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD))
    link = cfg.section("link")
    assert link["frequency"] == pytest.approx(140e9)
    assert link["theta_out"] == pytest.approx(math.radians(45))
    assert cfg.section("receiver")["modulation"] == 4
    assert cfg.get("receiver", "target_ber") == pytest.approx(1e-6)


def test_unknown_key_is_line_anchored(tmp_path):
    bad = GOOD + "\nwrong_key = 3 dB\n"
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'wrong_key'"):
        load_config(_write(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(_write(tmp_path, GOOD + "\n[mystery]\nx = 1\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(_write(tmp_path, GOOD + "\n[taper]\nedge_level = -10 dB\nedge_level = -3 dB\n"))


def test_missing_section_reported():
    from thz_ris_planner.config import ScenarioConfig

    cfg = ScenarioConfig(sections={"link": {}})
    with pytest.raises(ConfigError, match=r"missing required section \[receiver\]"):
        cfg.section("receiver")


def test_require_reports_missing_key(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD))
    with pytest.raises(ConfigError, match="missing required key 'sensitivity'"):
        cfg.require("receiver", "sensitivity")


def test_bits_list_parsing(tmp_path):
    cfg = load_config(_write(tmp_path, "[quantization]\nbits = 1, 2, 3, continuous\n"))
    assert cfg.section("quantization")["bits"] == [1, 2, 3, None]


def test_angle_list_parsing(tmp_path):
    cfg = load_config(_write(tmp_path, "[sweep]\nf_span = 20 GHz\nn_samples = 81\ntheta_out_sweep = 10 deg, 20 deg\n"))
    sweep = cfg.section("sweep")
    assert sweep["theta_out_sweep"] == pytest.approx([math.radians(10), math.radians(20)])
    assert sweep["n_samples"] == 81


def test_fraction_and_percent(tmp_path):
    cfg1 = load_config(_write(tmp_path, "[aperture]\nside = 110 mm\naperture_efficiency = 0.25\n"))
    assert cfg1.section("aperture")["aperture_efficiency"] == 0.25
    cfg2 = load_config(_write(tmp_path, "[aperture]\nside = 110 mm\naperture_efficiency = 25 %\n"))
    assert cfg2.section("aperture")["aperture_efficiency"] == pytest.approx(0.25)


def test_inline_comments_stripped(tmp_path):
    cfg = load_config(_write(tmp_path, "[taper]\nedge_level = -10 dB  # heavy taper\n"))
    assert cfg.section("taper")["edge_level"] == -10.0


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        load_config(_write(tmp_path, "[taper]\nedge_level -10 dB\n"))


def test_bad_modulation_string(tmp_path):
    with pytest.raises(ConfigError, match="QAM"):
        load_config(_write(tmp_path, "[receiver]\nbandwidth = 2 GHz\nnoise_figure = 7 dB\nmodulation = QPSK\n"))
