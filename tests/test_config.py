import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from thz_ris_planner.config import _SCHEMAS, _UNITS, ConfigError, load_config, parse_quantity


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
        parse_quantity("140", "frequency")


def test_parse_quantity_rejects_wrong_unit():
    with pytest.raises(ConfigError, match="not valid"):
        parse_quantity("140 m", "frequency")


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
    link = cfg["link"]
    assert link["frequency"] == pytest.approx(140e9)
    assert link["theta_out"] == pytest.approx(math.radians(45))
    assert cfg["receiver"]["modulation"] == 4
    assert cfg["receiver"].get("target_ber") == pytest.approx(1e-6)


def test_unknown_key_is_line_anchored(tmp_path):
    bad = GOOD + "\nwrong_key = 3 dB\n"
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'wrong_key'"):
        load_config(_write(tmp_path, bad))


def test_incident_azimuth_is_not_a_key(tmp_path):
    # no output reads phi_in: rcs takes theta_in only, and pattern and squint refuse theta_in != 0
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'phi_in' in section \[link\]"):
        load_config(_write(tmp_path, "[link]\nphi_in = 10 deg\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(_write(tmp_path, GOOD + "\n[mystery]\nx = 1\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(_write(tmp_path, GOOD + "\n[taper]\nedge_level = -10 dB\nedge_level = -3 dB\n"))


def test_missing_section_reported(tmp_path):
    cfg = load_config(_write(tmp_path, "[link]\n"))
    with pytest.raises(ConfigError, match=r"missing required section \[receiver\]"):
        cfg["receiver"]["bandwidth"]


def test_require_reports_missing_key(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD))
    with pytest.raises(ConfigError, match="missing required key 'sensitivity'"):
        cfg["receiver"]["sensitivity"]


def test_bits_list_parsing(tmp_path):
    cfg = load_config(_write(tmp_path, "[quantization]\nbits = 1, 2, 3, continuous\n"))
    assert cfg["quantization"]["bits"] == [1, 2, 3, None]
    with pytest.raises(ConfigError, match=r"line 2: 'bits': setting '2' is listed twice"):
        load_config(_write(tmp_path, "[quantization]\nbits = 2, 2\n"))


def test_angle_list_parsing(tmp_path):
    cfg = load_config(_write(tmp_path, "[sweep]\nf_span = 20 GHz\nn_samples = 81\ntheta_out_sweep = 10 deg, 20 deg\n"))
    sweep = cfg["sweep"]
    assert sweep["theta_out_sweep"] == pytest.approx([math.radians(10), math.radians(20)])
    assert sweep["n_samples"] == 81


def test_fraction_and_percent(tmp_path):
    cfg1 = load_config(_write(tmp_path, "[aperture]\nside = 110 mm\naperture_efficiency = 0.25\n"))
    assert cfg1["aperture"]["aperture_efficiency"] == 0.25
    cfg2 = load_config(_write(tmp_path, "[aperture]\nside = 110 mm\naperture_efficiency = 25 %\n"))
    assert cfg2["aperture"]["aperture_efficiency"] == pytest.approx(0.25)


def test_byte_order_mark_and_utf8_units(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("[power]\nprofile = lab\nper_cell_power = 20 \u00b5W\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    cfg = load_config(path)
    assert cfg["power"]["profile"] == "lab"
    assert cfg["power"]["per_cell_power"] == pytest.approx(20e-6)


def test_inline_comments_stripped(tmp_path):
    cfg = load_config(_write(tmp_path, "[taper]\nedge_level = -10 dB  # heavy taper\n"))
    assert cfg["taper"]["edge_level"] == -10.0


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        load_config(_write(tmp_path, "[taper]\nedge_level -10 dB\n"))


def test_bad_modulation_string(tmp_path):
    with pytest.raises(ConfigError, match="QAM"):
        load_config(_write(tmp_path, "[receiver]\nbandwidth = 2 GHz\nnoise_figure = 7 dB\nmodulation = QPSK\n"))


UNIT_NAMES = sorted({unit for units in _UNITS.values() for unit in units})
NUMBER = st.one_of(st.integers(-3, 300), st.floats(-1e3, 1e3, allow_nan=False)).map(str)
KEYS = [(section, key) for section, schema in _SCHEMAS.items() for key in schema]


def _takes(parser, text):
    """Whether the schema parser accepts text."""
    try:
        parser(text)
    except ConfigError:
        return False
    return True


@functools.cache
def _values(parser):
    """Values for one schema key: valid ones, near misses, and garbage."""
    units = [unit for unit in UNIT_NAMES if _takes(parser, f"1 {unit}")] or UNIT_NAMES
    entry = st.one_of(
        st.tuples(NUMBER, st.sampled_from(units)).map(" ".join),
        NUMBER,
        st.sampled_from(["continuous", "4-QAM", "25 %", "cmos_rfsoi"]),
    )
    return st.one_of(
        entry,
        NUMBER.map(lambda x: f"{x} furlong"),
        st.tuples(st.sampled_from(["nan", "inf", "-inf"]), st.sampled_from(["", *units])).map(" ".join),
        st.sampled_from(units).map(lambda unit: f"1e400 {unit}"),
        # anything that stays on its line and holds no comment marker
        st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters="#;"), max_size=12),
        st.lists(entry, min_size=1, max_size=3).map(lambda entries: ", ".join(entries + entries[:1])),
    )


@pytest.fixture(scope="module")
def one_key_file(tmp_path_factory):
    return tmp_path_factory.mktemp("schema") / "scenario.cfg"


@pytest.mark.parametrize("section,key", KEYS)
@settings(derandomize=True, max_examples=25)
@given(data=st.data())
def test_every_schema_key_parses_or_names_line_and_key(one_key_file, section, key, data):
    value = data.draw(_values(_SCHEMAS[section][key]), label="value")
    one_key_file.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    try:
        cfg = load_config(one_key_file)
    except ConfigError as exc:
        assert str(exc).startswith(f"line 2: '{key}': "), str(exc)
    else:
        assert cfg[section][key] == _SCHEMAS[section][key](value.strip())
