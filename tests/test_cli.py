import argparse
import ast
import contextlib
import functools
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import thz_ris_planner
from thz_ris_planner import core, radiation
from thz_ris_planner.cli import _fmt_cell, build_parser, main
from thz_ris_planner.config import _SCHEMAS, _UNITS, load_config

from conftest import traced_peak
from test_config import UNIT_NAMES, _takes, _values

DATA = resources.files("thz_ris_planner").joinpath("data")
PAPER = DATA.joinpath("paper_scenario.cfg").read_text()


def data_path(name):
    return str(DATA.joinpath(name))


def test_link_budget_bundled_scenario(tmp_path, capsys):
    code = main(["--config", data_path("paper_scenario.cfg"), "--out", str(tmp_path), "link-budget"])
    out = capsys.readouterr().out
    assert code == 0
    margin = float([l for l in out.splitlines() if l.startswith("margin")][0].split()[1])
    assert abs(margin) < 0.5
    csv_text = (tmp_path / "link_budget.csv").read_text()
    assert csv_text.startswith("# thz-ris-planner v1\n")


def test_link_budget_fails_with_low_power(tmp_path):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text(PAPER.replace("tx_power = 20 dBm", "tx_power = 10 dBm"))
    code = main(["--config", str(cfg), "--out", str(tmp_path), "link-budget"])
    assert code == 2


def test_link_budget_missing_receiver_section(tmp_path, capsys):
    cfg = tmp_path / "partial.cfg"
    lines = []
    skipping = False
    for line in PAPER.splitlines(keepends=True):
        if line.strip() == "[receiver]":
            skipping = True
        elif line.startswith("[") and skipping:
            skipping = False
        if not skipping:
            lines.append(line)
    cfg.write_text("".join(lines))
    code = main(["--config", str(cfg), "--out", str(tmp_path), "link-budget"])
    assert code == 1
    assert "receiver" in capsys.readouterr().err


def test_solve_aperture_bundled_scenario(tmp_path, capsys):
    code = main(
        ["--config", data_path("paper_scenario.cfg"), "--out", str(tmp_path), "--format", "json",
         "solve-aperture"]
    )
    assert code == 0
    record = json.loads((tmp_path / "solve_aperture.json").read_text())
    assert 0.105 <= record["d_m"] <= 0.112
    assert abs(record["n_elements"] - 10540) / 10540 < 0.03


def test_solve_aperture_eta_scaling(tmp_path):
    cfg_low = tmp_path / "low.cfg"
    cfg_low.write_text(PAPER)
    cfg_high = tmp_path / "high.cfg"
    cfg_high.write_text(PAPER.replace("aperture_efficiency = 0.25", "aperture_efficiency = 1.0"))
    assert main(["--config", str(cfg_low), "--out", str(tmp_path / "a"), "--format", "json", "solve-aperture"]) == 0
    assert main(["--config", str(cfg_high), "--out", str(tmp_path / "b"), "--format", "json", "solve-aperture"]) == 0
    d_low = json.loads((tmp_path / "a" / "solve_aperture.json").read_text())["d_m"]
    d_high = json.loads((tmp_path / "b" / "solve_aperture.json").read_text())["d_m"]
    assert d_low / d_high == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_solve_aperture_grazing_warns(tmp_path, capsys):
    cfg = tmp_path / "grazing.cfg"
    cfg.write_text(PAPER.replace("theta_out = 45 deg", "theta_out = 89.9 deg"))
    code = main(["--config", str(cfg), "--out", str(tmp_path), "solve-aperture"])
    assert code == 0
    assert "grazing" in capsys.readouterr().err


SMALL_PATTERN = """
[link]
frequency = 140 GHz
theta_in = 0 deg
theta_out = 45 deg

[aperture]
design_frequency = 140 GHz
n_per_side = 20

[taper]
edge_level = -10 dB

[quantization]
bits = 1, 2, 3, continuous
"""


def test_pattern_curves_and_ordering(tmp_path, capsys):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    code = main(["--config", str(cfg), "--out", str(tmp_path), "--svg", "pattern"])
    assert code == 0
    out = capsys.readouterr().out
    peaks = {}
    for line in out.splitlines():
        if line.startswith("peak directivity"):
            label = line.split("[")[1].split("]")[0].strip()
            peaks[label] = float(line.split()[-2])
    assert peaks["1"] < peaks["2"] < peaks["3"] < peaks["continuous"]
    csv_lines = (tmp_path / "pattern.csv").read_text().splitlines()
    assert csv_lines[0] == "# thz-ris-planner v1"
    assert csv_lines[1] == "bits,theta_deg,phi_deg,directivity_dbi"
    labels = {line.split(",")[0] for line in csv_lines[2:]}
    assert labels == {"1", "2", "3", "continuous"}
    assert (tmp_path / "pattern.svg").exists()
    assert (tmp_path / "pattern_uv.svg").exists()
    svg = (tmp_path / "pattern.svg").read_text()
    assert svg.startswith("<svg ") and "href" not in svg  # self-contained


def test_pattern_broadside_uniform_anchor(tmp_path, capsys):
    cfg = tmp_path / "broadside.cfg"
    cfg.write_text(
        "[link]\nfrequency = 140 GHz\ntheta_in = 0 deg\ntheta_out = 0 deg\n\n"
        "[aperture]\ndesign_frequency = 140 GHz\nn_per_side = 100\n\n"
        "[quantization]\nbits = continuous\n"
    )
    code = main(["--config", str(cfg), "--out", str(tmp_path), "pattern"])
    assert code == 0
    out = capsys.readouterr().out
    peak = float([l for l in out.splitlines() if "continuous" in l][0].split()[-2])
    assert peak == pytest.approx(44.97, abs=0.3)


def test_pattern_peaks_are_the_quantization_loss_peaks(tmp_path):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    assert main(["--config", str(cfg), "--out", str(tmp_path), "pattern"]) == 0
    peaks = {}
    for bits, _, _, dbi in _numbers((tmp_path / "pattern.csv").read_text(), label_columns=1):
        peaks[bits] = max(peaks.get(bits, -math.inf), dbi)
    panel = thz_ris_planner.ApertureSpec.from_element_grid(20, thz_ris_planner.Frequency.from_ghz(140))
    report = radiation.quantization_loss(
        panel, thz_ris_planner.Direction.from_degrees(45), [1, 2, 3], thz_ris_planner.TaperSpec(-10.0)
    )
    expected = {**{str(b): d for b, d in zip(report.bits, report.peak_dbi)}, "continuous": report.continuous_dbi}
    # both take the same cuts, so the CSV holds each peak at its printed digits
    assert peaks == {label: float(_fmt_cell(d)) for label, d in expected.items()}


def test_pattern_csv_is_streamed(tmp_path, monkeypatch):
    # a finer cut than the real one, so that the rows and not the fixed overhead set the peak
    monkeypatch.setattr(radiation, "CUT_STEPS_PER_BEAMWIDTH", 500)
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    argv = ["--config", str(cfg), "--out", str(tmp_path), "pattern"]
    assert main(argv) == 0  # warm-up, so that imports and caches are not counted
    code, peak = traced_peak(main, argv)
    assert code == 0
    rows = len((tmp_path / "pattern.csv").read_text().splitlines()) - 2
    assert rows == 4 * 17730
    # holding a Python list per row until the file is written costs about 360 bytes a row
    assert peak < 128 * rows


def test_pattern_csv_deterministic(tmp_path):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r1"), "pattern"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r2"), "pattern"]) == 0
    assert (tmp_path / "r1" / "pattern.csv").read_bytes() == (tmp_path / "r2" / "pattern.csv").read_bytes()


SMALL_SQUINT = """
[link]
frequency = 140 GHz
theta_in = 0 deg
theta_out = 45 deg

[aperture]
design_frequency = 140 GHz
side = 80 mm

[taper]
edge_level = -10 dB

[sweep]
f_span = 20 GHz
n_samples = 41
"""


def test_squint_single_angle(tmp_path, capsys):
    cfg = tmp_path / "squint.cfg"
    cfg.write_text(SMALL_SQUINT)
    code = main(["--config", str(cfg), "--out", str(tmp_path), "--svg", "squint"])
    assert code == 0
    out = capsys.readouterr().out
    assert "BW_3dB" in out
    lines = (tmp_path / "squint.csv").read_text().splitlines()
    assert lines[1] == "freq_hz,gain_db"
    assert len(lines) == 2 + 41
    assert (tmp_path / "squint.svg").exists()


def test_squint_angle_sweep_decreasing(tmp_path):
    cfg = tmp_path / "squint.cfg"
    cfg.write_text(
        SMALL_SQUINT.replace("f_span = 20 GHz", "f_span = 40 GHz").replace(
            "n_samples = 41", "n_samples = 81"
        )
        + "theta_out_sweep = 20 deg, 30 deg, 40 deg, 50 deg, 60 deg, 70 deg\n"
    )
    code = main(["--config", str(cfg), "--out", str(tmp_path), "squint"])
    assert code == 0
    rows = (tmp_path / "squint_vs_angle.csv").read_text().splitlines()[2:]
    bws = [float(r.split(",")[1]) for r in rows]
    assert all(a > b for a, b in zip(bws, bws[1:]))


def test_squint_band_edge_exits_1(tmp_path, capsys):
    cfg = tmp_path / "squint.cfg"
    cfg.write_text(SMALL_SQUINT.replace("theta_out = 45 deg", "theta_out = 10 deg"))
    code = main(["--config", str(cfg), "--out", str(tmp_path), "squint"])
    assert code == 1
    assert "f_span" in capsys.readouterr().err


def test_squint_one_sweep_angle_is_drawn_as_a_dot(tmp_path):
    cfg = tmp_path / "squint.cfg"
    cfg.write_text(SMALL_SQUINT + "theta_out_sweep = 45 deg\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "--svg", "squint"]) == 0
    svg = (tmp_path / "squint_vs_angle.svg").read_text()
    # one x widens to a unit axis starting at the left margin, one y sits mid-plot
    assert re.findall(r'<polyline points="([^"]*)"', svg) == ["70.00,232.50"]
    assert re.findall(r"<circle [^>]*>", svg) == ['<circle cx="70.00" cy="232.50" r="3" fill="#1f77b4"/>']


ONE_CELL_SQUINT = SMALL_SQUINT.replace("side = 80 mm", "n_per_side = 1\ncell_pitch = 2.141 mm")


def test_squint_unbracketed_beamwidth_exits_1(tmp_path, capsys):
    # one cell a wavelength wide: the analytical beamwidth is 50.77 deg, but
    # a lone cell's cos(theta) power falls 3 dB only at 60 deg
    cfg = tmp_path / "squint.cfg"
    cfg.write_text(ONE_CELL_SQUINT)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--svg", "squint"]) == 1
    assert capsys.readouterr().err == "error: cannot bracket the -3 dB point of the broadside beam\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,config,old,new",
    [
        ("pattern", SMALL_PATTERN, "theta_in = 0 deg", "theta_in = 30 deg"),
        ("squint", SMALL_SQUINT, "theta_in = 0 deg", "theta_in = 30 deg"),
        ("link-budget", None, "d1 = 50 m", "d1 = nan m"),
        ("link-budget", None, "aperture_efficiency = 0.25", "aperture_efficiency = 1.5"),
    ],
)
def test_rejected_input_exits_1(tmp_path, capsys, command, config, old, new):
    text = PAPER if config is None else config
    assert old in text
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text.replace(old, new))
    code = main(["--config", str(cfg), "--out", str(tmp_path), command])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "config error: ")) and err.count("\n") == 1
    assert "Traceback" not in err


def _exit_code(argv):
    """main's exit code, including the usage errors that argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# (base config or None for a missing file, (old, new) edit or None, the
# arguments after --config and --out, exit code); "old" must occur in the
# base config, and "{tmp}" and "{cfg}" in the arguments stand for the test's
# directory and its config file
BAD_INPUT = [
    ("[power]\nprofile = cmos_rfsoi\n", None, ["link-budget"], 1),
    (PAPER, ("tx_power = 20 dBm", "tx_power = twenty dBm"), ["link-budget"], 1),
    (PAPER, ("d2 = 50 m", "d2 = nan m"), ["link-budget"], 1),
    (PAPER, ("theta_out = 45 deg", "theta_out = 100 deg"), ["link-budget"], 1),
    (PAPER, None, ["--format", "xml", "link-budget"], 1),
    (None, None, ["link-budget"], 1),
    (PAPER, ("aperture_efficiency = 0.25", ""), ["solve-aperture"], 1),
    (PAPER, ("sensitivity = -60 dBm", "sensitivity = low dBm"), ["solve-aperture"], 1),
    (PAPER, ("theta_in = 0 deg", "theta_in = 90 deg"), ["solve-aperture"], 2),
    (PAPER, ("[power]\nprofile = cmos_rfsoi\n", ""), ["power"], 1),
    (PAPER, ("profile = cmos_rfsoi", "profile = unobtainium"), ["power"], 1),
    (PAPER, ("profile = cmos_rfsoi", "profile = cmos_rfsoi\ncells = 0"), ["power"], 1),
    (PAPER, ("profile = cmos_rfsoi", "profile = lab\nper_cell_power = nan uW"), ["power"], 1),
    (SMALL_PATTERN, ("[quantization]\nbits = 1, 2, 3, continuous\n", ""), ["pattern"], 1),
    (SMALL_PATTERN, ("bits = 1, 2, 3, continuous", "bits = 1, 9"), ["pattern"], 1),
    (SMALL_PATTERN, ("edge_level = -10 dB", "edge_level = 3 dB"), ["pattern"], 1),
    (SMALL_PATTERN, ("n_per_side = 20", "n_per_side = 0"), ["pattern"], 1),
    # an aperture efficiency above 1, refused where the aperture is solved
    (PAPER, ("aperture_efficiency = 0.25", "aperture_efficiency = 1.5"), ["solve-aperture"], 1),
    (SMALL_SQUINT, ("[sweep]\nf_span = 20 GHz\nn_samples = 41\n", ""), ["squint"], 1),
    (SMALL_SQUINT, ("n_samples = 41", "n_samples = many"), ["squint"], 1),
    (SMALL_SQUINT, ("f_span = 20 GHz", "f_span = nan GHz"), ["squint"], 1),
    (SMALL_SQUINT, ("n_samples = 41", "n_samples = 40"), ["squint"], 1),
    (SMALL_SQUINT, ("edge_level = -10 dB", "edge_level = 3 dB"), ["squint"], 1),
    (SMALL_SQUINT, ("[sweep]", "[quantization]\nbits = 1, 2\n\n[sweep]"), ["squint"], 1),
    # theta_out succeeds and a sweep angle hits the band edge
    (SMALL_SQUINT, ("n_samples = 41", "n_samples = 41\ntheta_out_sweep = 30 deg, 10 deg"), ["squint"], 1),
    # the config is a directory, and the output directory is an existing file
    (PAPER, None, ["--config", "{tmp}", "link-budget"], 1),
    (PAPER, None, ["--out", "{cfg}", "link-budget"], 1),
    # a key the power estimate would not read is refused, not ignored
    (PAPER, ("profile = cmos_rfsoi", "profile = cmos_rfsoi\nswitches_per_cell = 4"), ["power"], 1),
    # so small an efficiency that the side^4 overflows: no finite panel reaches the RCS
    (PAPER, ("aperture_efficiency = 0.25", "aperture_efficiency = 5e-324"), ["solve-aperture"], 2),
    # a zero design frequency is refused, not replaced by [link] frequency
    (PAPER, ("design_frequency = 140 GHz", "design_frequency = 0 GHz"), ["link-budget"], 1),
    # d1*d2 so large that the spreading factor underflows, and so small that it overflows
    (PAPER, ("d1 = 50 m\nd2 = 50 m", "d1 = 1e80 m\nd2 = 1e80 m"), ["link-budget"], 1),
    (PAPER, ("d1 = 50 m\nd2 = 50 m", "d1 = 1e80 m\nd2 = 1e80 m"), ["solve-aperture"], 1),
    (PAPER, ("d1 = 50 m\nd2 = 50 m", "d1 = 1e-100 m\nd2 = 1e-100 m"), ["link-budget"], 1),
    # a panel is sized by its side or by its cell count, never both
    (SMALL_PATTERN, ("n_per_side = 20", "n_per_side = 20\nside = 80 mm"), ["pattern"], 1),
    # a bit setting listed twice would write two identical curves
    (SMALL_PATTERN, ("bits = 1, 2, 3, continuous", "bits = 2, 2"), ["pattern"], 1),
    # a sweep angle listed twice would write two identical rows
    (SMALL_SQUINT, ("n_samples = 41", "n_samples = 41\ntheta_out_sweep = 30 deg, 30 deg"), ["squint"], 1),
    # a required RCS beyond the float range, and a panel RCS that underflows to 0 m^2
    (PAPER, ("sensitivity = -60 dBm", "sensitivity = 3100 dBm"), ["solve-aperture"], 2),
    (
        PAPER.replace("aperture_efficiency = 0.25", "aperture_efficiency = 5e-324"),
        ("theta_in = 0 deg\ntheta_out = 45 deg", "theta_in = 89.9 deg\ntheta_out = 89.9 deg"),
        ["link-budget"],
        2,
    ),
    # so large a side that side^4 overflows
    (PAPER, ("side = 110 mm", "side = 1e100 m"), ["link-budget"], 1),
    # a cell count too large for a float, and a finite product beyond the float range
    (PAPER, ("profile = cmos_rfsoi", "profile = cmos_rfsoi\ncells = " + "9" * 310), ["power"], 1),
    (
        PAPER,
        ("profile = cmos_rfsoi", "profile = lab\nper_cell_power = 1e300 kW\ncells = 1000000"),
        ["power"],
        1,
    ),
    # transmit terms whose sum leaves the float range, either way
    (PAPER, ("tx_power = 20 dBm\nbs_gain = 46 dBi", "tx_power = 1e308 dBm\nbs_gain = 1e308 dBi"), ["link-budget"], 1),
    (PAPER, ("tx_power = 20 dBm\nbs_gain = 46 dBi", "tx_power = -1e308 dBm\nbs_gain = -1e308 dBi"), ["solve-aperture"], 1),
    # a derived sensitivity of -inf dBm
    (
        PAPER.replace("sensitivity = -60 dBm", ""),
        ("noise_figure = 7 dB", "noise_figure = -1e308 dB\nimplementation_loss = -1e308 dB"),
        ["link-budget"],
        1,
    ),
    # a required RCS of +inf dBsm, and a margin of -inf dB
    *(
        (
            PAPER.replace("tx_power = 20 dBm", "tx_power = -1e308 dBm"),
            ("sensitivity = -60 dBm", "sensitivity = 1e308 dBm"),
            [command],
            code,
        )
        for command, code in (("solve-aperture", 2), ("link-budget", 1))
    ),
    # d1*d2 so small that lambda/(d1*d2) overflows to inf without raising
    (PAPER, ("d1 = 50 m", "d1 = 5e-324 m"), ["link-budget"], 1),
    # a profile name with a comma would shift the cells of power.csv
    (PAPER, ("profile = cmos_rfsoi", "profile = a, b\nper_cell_power = 20 uW\ncells = 10"), ["power"], 1),
    # a link so loose that any panel closes it: the required RCS underflows to
    # 0 m^2, or the solved side is below one cell pitch
    *(
        (PAPER, ("sensitivity = -60 dBm", f"sensitivity = {s} dBm"), ["solve-aperture"], 1)
        for s in (-3500, -300)
    ),
    # a bad pitch is refused before the near-grazing warning, so stderr holds one line
    (
        PAPER.replace("theta_out = 45 deg", "theta_out = 89.9 deg"),
        ("aperture_efficiency = 0.25", "aperture_efficiency = 0.25\ncell_pitch = -1 mm"),
        ["solve-aperture"],
        1,
    ),
    # a repeated section, and a key before the first section
    (PAPER + "[power]\n", None, ["power"], 1),
    ("profile = cmos_rfsoi\n" + PAPER, None, ["power"], 1),
    # no frequency to derive the cell pitch from, and a panel with no size
    ("[aperture]\nside = 110 mm\n\n[power]\nprofile = cmos_rfsoi\n", None, ["power"], 1),
    (PAPER, ("side = 110 mm\n", ""), ["link-budget"], 1),
    # no cell count and no panel to count cells on
    ("[power]\nprofile = cmos_rfsoi\n", None, ["power"], 1),
    # more cells than a float can count, by side and by count
    (PAPER, ("side = 110 mm", "side = 1e160 m"), ["link-budget"], 1),
    (SMALL_PATTERN, ("n_per_side = 20", "n_per_side = " + "9" * 310), ["pattern"], 1),
    # a sweep whose size is beyond the float range, and a cut that is so because its beamwidth underflows to 0
    (SMALL_SQUINT, ("n_samples = 41", "n_samples = " + "9" * 400), ["squint"], 1),
    (
        SMALL_PATTERN,
        (
            "design_frequency = 140 GHz\nn_per_side = 20",
            "design_frequency = 1e296 THz\nn_per_side = 1\ncell_pitch = 1e300 m",
        ),
        ["pattern"],
        1,
    ),
    # a target BER too loose for the modulation to need any SNR
    (
        PAPER.replace("sensitivity = -60 dBm", ""),
        ("modulation = 4-QAM\ntarget_ber = 1e-6", "modulation = 16-QAM\ntarget_ber = 0.45"),
        ["link-budget"],
        1,
    ),
    # M-QAM orders whose required SNR is beyond the float range: it overflows to
    # inf at 4^511, and 4^512 = 2^1024 is past the float range itself
    *(
        (
            PAPER.replace("sensitivity = -60 dBm", ""),
            ("modulation = 4-QAM", f"modulation = {4**e}-QAM"),
            ["link-budget"],
            1,
        )
        for e in (511, 512)
    ),
    # two sweep angles that squint_vs_angle.csv would write as one text, so as two identical rows
    (
        SMALL_SQUINT.replace("side = 80 mm", "side = 16 mm"),
        ("n_samples = 41", "n_samples = 41\ntheta_out_sweep = 20 deg, 20.0000000001 deg"),
        ["squint"],
        1,
    ),
]


@pytest.mark.parametrize(
    "config,edit,args,expected",
    BAD_INPUT,
    ids=[f"{i:02d}-{'_'.join(row[2])}" for i, row in enumerate(BAD_INPUT)],
)
def test_bad_input_fails_with_one_line(tmp_path, capsys, config, edit, args, expected):
    cfg = tmp_path / "scenario.cfg"
    if config is not None:
        if edit is not None:
            assert edit[0] in config
            config = config.replace(*edit)
        cfg.write_text(config)
    out = tmp_path / "out"
    args = [arg.format(tmp=tmp_path, cfg=cfg) for arg in args]
    assert _exit_code(["--config", str(cfg), "--out", str(out), *args]) == expected
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    # a refused run leaves no artifact, and no --out directory, behind
    assert not out.exists()


@pytest.mark.parametrize("command", ["link-budget", "solve-aperture"])
def test_overflowing_wavelength_is_named_in_the_spreading_refusal(tmp_path, capsys, command):
    # a 1e-200 Hz link has a 3e208 m wavelength; the 2500 m^2 path product is not what overflowed
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(PAPER.replace("frequency = 140 GHz\nd1", "frequency = 1e-200 Hz\nd1"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 1
    assert capsys.readouterr().err == (
        "error: lambda = 3e+208 m and d1*d2 = 2.5e+03 m^2 make lambda/(d1*d2) so large"
        " that the spreading factor overflows\n"
    )
    assert not (tmp_path / "out").exists()


def test_infinite_required_rcs_is_beyond_the_float_range(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        PAPER.replace("tx_power = 20 dBm", "tx_power = -1e308 dBm")
        .replace("sensitivity = -60 dBm", "sensitivity = 1e308 dBm")
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "solve-aperture"]) == 2
    assert capsys.readouterr().err == "infeasible: the required RCS of inf dBsm is beyond the float range\n"


@pytest.mark.parametrize("sensitivity,sigma", [("-3500 dBm", "-3421.68"), ("-300 dBm", "-221.679")])
def test_solve_aperture_names_a_link_any_panel_closes(tmp_path, capsys, sensitivity, sigma):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(PAPER.replace("sensitivity = -60 dBm", f"sensitivity = {sensitivity}"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "solve-aperture"]) == 1
    assert capsys.readouterr().err == (
        f"error: the required RCS of {sigma} dBsm gives a side below one cell pitch, so any panel closes the link\n"
    )


def _without_section(text, name):
    """text minus the [name] header and every line up to the next header."""
    kept, skipping = [], False
    for line in text.splitlines(keepends=True):
        if line.startswith("["):
            skipping = line.strip() == f"[{name}]"
        if not skipping:
            kept.append(line)
    return "".join(kept)


# every command under each section it cannot run without
SECTION_CASES = [
    *(
        (command, PAPER, section)
        for command in ("link-budget", "solve-aperture")
        for section in ("link", "receiver", "aperture")
    ),
    *(("pattern", SMALL_PATTERN, section) for section in ("link", "aperture", "quantization")),
    *(("squint", SMALL_SQUINT, section) for section in ("link", "aperture", "sweep")),
    ("power", PAPER, "power"),
]


@pytest.mark.parametrize(
    "command,config,section", SECTION_CASES, ids=[f"{c}-{s}" for c, _, s in SECTION_CASES]
)
def test_missing_section_is_named(tmp_path, capsys, command, config, section):
    text = _without_section(config, section)
    assert f"[{section}]" in config and f"[{section}]" not in text
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert capsys.readouterr().err == f"config error: missing required section [{section}]\n"
    assert not out.exists()


LINK_KEYS = ["frequency", "d1", "d2", "theta_in", "theta_out", "tx_power", "bs_gain", "terminal_gain"]


# every key a scalar command reads from paper_scenario.cfg without a default
@pytest.mark.parametrize(
    "command,section,key",
    [(command, "link", key) for command in ("link-budget", "solve-aperture") for key in LINK_KEYS]
    + [("solve-aperture", "aperture", "aperture_efficiency"), ("power", "power", "profile")],
)
def test_missing_required_key_is_named(tmp_path, capsys, command, section, key):
    lines = PAPER.splitlines()
    kept = [line for line in lines if line.partition("=")[0].strip() != key]
    assert len(kept) == len(lines) - 1
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("\n".join(kept) + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: section [{section}] is missing required key '{key}'\n"
    assert not out.exists()


def test_solve_aperture_underflowing_efficiency_is_infeasible(tmp_path, capsys):
    # eta * cos(theta_in) * cos(theta_out) underflows to zero at 89 deg
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        PAPER.replace("aperture_efficiency = 0.25", "aperture_efficiency = 5e-324").replace(
            "theta_out = 45 deg", "theta_out = 89 deg"
        )
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "solve-aperture"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_failed_write_leaves_no_artifact(tmp_path, capsys):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    out = tmp_path / "out"
    (out / "pattern_uv.svg").mkdir(parents=True)
    # the last of the three targets cannot be written, after the other two are
    assert main(["--config", str(cfg), "--out", str(out), "--svg", "pattern"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [path.name for path in out.iterdir()] == ["pattern_uv.svg"]
    assert not any((out / "pattern_uv.svg").iterdir())


@pytest.mark.parametrize(
    "command,config,args",
    [
        ("pattern", SMALL_PATTERN, []),
        ("squint", SMALL_SQUINT, []),
    ],
)
def test_oversize_run_exits_1(tmp_path, capsys, monkeypatch, command, config, args):
    # a small budget stands in for a huge problem, so nothing large is allocated
    monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 1024)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    code = main(["--config", str(cfg), "--out", str(tmp_path), command, *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and "GiB limit" in err and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_pattern_refuses_an_oversize_panel_before_synthesis(tmp_path, capsys):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN.replace("n_per_side = 20", "n_per_side = 5000"))
    argv = ["--config", str(cfg), "--out", str(tmp_path), "pattern"]
    assert main(argv) == 1  # warm-up, so that imports are not counted
    code, peak = traced_peak(main, argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err == 2 * "error: the lattice FFT would need 1.49 GiB, over the 1 GiB limit; reduce the panel or samples\n"
    assert peak < 2**20  # the 5000^2 profile alone would take 381 MiB


def test_power_command(tmp_path, capsys):
    cfg = tmp_path / "power.cfg"
    cfg.write_text("[power]\nprofile = cmos_rfsoi\ncells = 10540\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "--format", "json", "power"])
    assert code == 0
    record = json.loads((tmp_path / "power.json").read_text())
    assert record["panel_power_w"] == pytest.approx(0.2108, rel=1e-9)


def test_power_custom_profile_from_config(tmp_path):
    cfg = tmp_path / "power.cfg"
    cfg.write_text("[power]\nprofile = lab_switch\nper_cell_power = 50 uW\ncells = 1000\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "--format", "json", "power"])
    assert code == 0
    record = json.loads((tmp_path / "power.json").read_text())
    assert record["profile"] == "lab_switch"
    assert record["panel_power_w"] == pytest.approx(0.05, rel=1e-9)


def test_power_unknown_profile(tmp_path, capsys):
    cfg = tmp_path / "power.cfg"
    cfg.write_text("[power]\nprofile = unobtainium\ncells = 100\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "power"])
    assert code == 1
    assert "unknown technology profile" in capsys.readouterr().err


def test_power_counts_cells_from_aperture(tmp_path, capsys):
    code = main(["--config", data_path("paper_scenario.cfg"), "--out", str(tmp_path), "power"])
    assert code == 0
    assert "cmos_rfsoi" in capsys.readouterr().out


def test_bundled_fig5_runs_to_completion(tmp_path, capsys):
    code = main(["--config", data_path("fig5.cfg"), "--out", str(tmp_path), "pattern"])
    assert code == 0
    out = capsys.readouterr().out
    peaks = {}
    for line in out.splitlines():
        if line.startswith("peak directivity"):
            label = line.split("[")[1].split("]")[0].strip()
            peaks[label] = float(line.split()[-2])
    assert peaks["1"] < peaks["2"] < peaks["3"] < peaks["continuous"]
    # 2-bit peak sits the quantization-law loss below continuous
    assert peaks["continuous"] - peaks["2"] == pytest.approx(0.91, abs=0.3)


def test_bundled_fig6_runs_to_completion(tmp_path, capsys):
    for run_dir in ("r1", "r2"):
        code = main(["--config", data_path("fig6.cfg"), "--out", str(tmp_path / run_dir), "squint"])
        assert code == 0
    rows = (tmp_path / "r1" / "squint_vs_angle.csv").read_text().splitlines()[2:]
    bws = [float(r.split(",")[1]) for r in rows]
    assert len(bws) == 13
    assert all(a > b for a, b in zip(bws, bws[1:]))
    for name in ("squint.csv", "squint_vs_angle.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_malformed_config_line_anchored(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[link]\nfrequency = 140\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "link-budget"])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg"), "link-budget"])
    assert code == 1


@pytest.mark.parametrize("command", [None, "pattern", "squint"])
def test_cli_import_leaves_scipy_signal_out(tmp_path, command):
    src = str(Path(thz_ris_planner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the runtime needs numpy only: no scipy module at all, not just scipy.signal;
    # and an array command without --svg draws nothing, so it compiles no svgplot either
    run = ""
    if command is not None:
        config = data_path("fig5.cfg" if command == "pattern" else "fig6.cfg")
        argv = ["--config", config, "--out", str(tmp_path), command]
        run = f"assert thz_ris_planner.cli.main({argv!r}) == 0; "
    probe = (
        f"import sys, thz_ris_planner.cli; {run}"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'thz_ris_planner.svgplot'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "command, m_qam",
    [(None, False), ("link-budget", False), ("solve-aperture", False), ("power", False), ("link-budget", True)],
    ids=["None", "link-budget", "solve-aperture", "power", "link-budget-m-qam"],
)
def test_scalar_path_loads_no_numpy(tmp_path, command, m_qam):
    src = str(Path(thz_ris_planner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # numpy, and the stdlib modules whose import cost more than the scalar commands' own work
    heavy = ("numpy", "dataclasses", "inspect", "json", "statistics")
    loaded = f"[m for m in sys.modules if m.split('.')[0] in {heavy!r}]"
    if command is None:
        # importing the package itself loads none of its submodules
        probe = (
            f"import sys, thz_ris_planner; print({loaded}); "
            "print([m for m in sys.modules if m.startswith('thz_ris_planner.')]); "
            f"import thz_ris_planner.cli; print({loaded})"
        )
        expected = ["[]", "[]", "[]"]
    else:
        config = data_path("paper_scenario.cfg")
        if m_qam:  # without its sensitivity line, the receiver's M-QAM fields give the sensitivity through Q^-1
            text = Path(config).read_text()
            config = tmp_path / "m_qam.cfg"
            config.write_text(text.replace("sensitivity = -60 dBm\n", ""))
        argv = ["--config", str(config), "--out", str(tmp_path), command]
        probe = f"import sys; from thz_ris_planner.cli import main; code = main({argv!r}); print(code, {loaded})"
        expected = ["0 []"]
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-len(expected):] == expected


def test_package_exports_resolve_to_their_modules():
    from thz_ris_planner import aperture, core, link_budget, power, surface

    modules = (aperture, core, link_budget, power, radiation, surface)
    for name in thz_ris_planner.__all__:
        owners = [m for m in modules if hasattr(m, name)]
        assert owners, name
        assert all(getattr(m, name) is getattr(thz_ris_planner, name) for m in owners), name
    namespace = {}
    exec("from thz_ris_planner import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(thz_ris_planner.__all__)
    assert set(thz_ris_planner.__all__) <= set(dir(thz_ris_planner))


def test_benchmark_imports_resolve():
    # the benchmark imports public names; renaming or dropping one must fail here, not only in a benchmark run
    imported = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local alias -> thz_ris_planner module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "thz_ris_planner":
                imported.update((alias.name, path.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("thz_ris_planner.") and alias.asname:
                        modules[alias.asname] = importlib.import_module(alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), (path.name, node.value.id, node.attr)
    assert imported
    for name, source in imported.items():
        assert name in thz_ris_planner.__all__, (source, name)
        assert getattr(thz_ris_planner, name, None) is not None, (source, name)


def test_readme_usage_lists_every_option_and_no_other():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage = [line for line in readme.splitlines() if line.startswith("thz-ris-planner")]
    listed = {flag for line in usage for flag in re.findall(r"--[a-z][a-z-]*", line)}
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for p in (parser, *sub.choices.values())
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert listed == options


def test_packaging_metadata_names_the_entry_point_and_every_bundled_config():
    # tier-1 imports the sources from the checkout, so only the metadata says what an install gets
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, attribute = project["project"]["scripts"]["thz-ris-planner"].partition(":")
    target = getattr(importlib.import_module(module), attribute)
    assert callable(target) and target is main
    package = root / "src" / "thz_ris_planner"
    globs = project["tool"]["setuptools"]["package-data"]["thz_ris_planner"]
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    bundled = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert bundled and bundled <= shipped
    for path in sorted(bundled):
        load_config(path)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})
    side_mm, squint_ghz = (float(line.split()[0]) for line in capsys.readouterr().out.splitlines())
    assert side_mm == pytest.approx(110, abs=10)
    assert squint_ghz == pytest.approx(3.78, abs=0.1)


# command -> (artifact stem, stdout before the "wrote" line) on paper_scenario.cfg
SCALAR_LINES = {
    "link-budget": (
        "link_budget",
        "received power       -59.81 dBm\n"
        "sensitivity          -60.00 dBm\n"
        "margin                 0.19 dB\n"
        "spreading term      -154.32 dB\n",
    ),
    "solve-aperture": (
        "solve_aperture",
        "required RCS          18.32 dBsm  (67.9 m^2)\n"
        "aperture side D      108.82 mm\n"
        "unit elements         10330\n",
    ),
    "power": ("power", "cmos_rfsoi: 10555 cells x 20.0 uW = 0.211 W\n"),
}
# (bundled config, (old, new) edit or None, the arguments after --config and
# --out, exit code, stdout, stderr); "<out>" stands for the output directory
SNAPSHOTS = [
    (
        "fig5.cfg",
        None,
        ["--svg", "pattern"],
        0,
        "peak directivity [         1]    38.91 dBi\n"
        "peak directivity [         2]    41.89 dBi\n"
        "peak directivity [         3]    42.58 dBi\n"
        "peak directivity [continuous]    42.80 dBi\n"
        "wrote <out>/pattern.csv\nwrote <out>/pattern.svg\nwrote <out>/pattern_uv.svg\n",
        "",
    ),
    (
        "fig6.cfg",
        None,
        ["--svg", "squint"],
        0,
        "BW_3dB at theta_out=45.0 deg: 3.775 GHz (2.70%)\n"
        "wrote <out>/squint.csv\nwrote <out>/squint.svg\n"
        "wrote <out>/squint_vs_angle.csv\nwrote <out>/squint_vs_angle.svg\n",
        "",
    ),
    *(
        ("paper_scenario.cfg", None, ["--format", fmt, command], 0, lines + f"wrote <out>/{stem}.{fmt}\n", "")
        for fmt in ("csv", "json")
        for command, (stem, lines) in SCALAR_LINES.items()
    ),
    (
        "paper_scenario.cfg",
        ("sensitivity = -60 dBm", "sensitivity = 40 dBm"),
        ["link-budget"],
        2,
        "received power       -59.81 dBm\n"
        "sensitivity           40.00 dBm\n"
        "margin               -99.81 dB\n"
        "spreading term      -154.32 dB\n"
        "wrote <out>/link_budget.csv\n",
        "link does not close (negative margin)\n",
    ),
    (
        "paper_scenario.cfg",
        ("theta_out = 45 deg", "theta_out = 89.9 deg"),
        ["solve-aperture"],
        0,
        "required RCS          18.32 dBsm  (67.9 m^2)\n"
        "aperture side D      488.23 mm\n"
        "unit elements        207929\n"
        "wrote <out>/solve_aperture.csv\n",
        "warning: near-grazing geometry inflates the required aperture\n",
    ),
]


@pytest.mark.parametrize(
    "config,edit,args,code,stdout,stderr",
    SNAPSHOTS,
    ids=[f"{i:02d}-{row[0].removesuffix('.cfg')}-{'_'.join(row[2])}" for i, row in enumerate(SNAPSHOTS)],
)
def test_stdout_and_stderr_snapshot(tmp_path, capsys, config, edit, args, code, stdout, stderr):
    text = DATA.joinpath(config).read_text()
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *args]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout.replace("<out>", str(out))
    assert captured.err == stderr


# --- hostile configs for every command -----------------------------------------

SCALAR_COMMANDS = ("link-budget", "solve-aperture", "power")
SCALAR_KEYS = [(section, key) for section in ("link", "receiver", "aperture", "power") for key in _SCHEMAS[section]]


def _sections(text):
    """section -> {key: value text} of a config without repeated sections or keys."""
    sections, current = {}, None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            current = sections.setdefault(line[1:-1], {})
        elif line and not line.startswith("#"):
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return sections


PAPER_SECTIONS = _sections(PAPER)


@functools.cache
def _hostile(parser):
    """Removal (None), the config fuzz's values, or a float-range extreme with a valid unit.

    A modulation may also be 4^e-QAM up to e = 600, past 4^510, the largest order whose required SNR is finite.
    """
    units = [unit for unit in UNIT_NAMES if _takes(parser, f"1 {unit}")] or [""]
    extreme = st.tuples(st.sampled_from(["1e-308", "1e308", "-1e308"]), st.sampled_from(units))
    extreme = extreme.map(lambda pair: " ".join(pair).strip())
    if parser is _SCHEMAS["receiver"]["modulation"]:
        extreme = st.one_of(extreme, st.integers(0, 600).map(lambda e: f"{4**e}-QAM"))
    return st.one_of(st.none(), _values(parser), extreme)


# up to three keys of paper_scenario.cfg removed or set to a hostile value
HOSTILE_EDITS = st.lists(st.sampled_from(SCALAR_KEYS), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _hostile(_SCHEMAS[k[0]][k[1]]) for k in keys})
)

# one structural fault, or none: (kind, a number that picks the line it hits)
GARBAGE_LINES = ("no equals sign here", "[link", "[]", "= 5 GHz")
STRUCTURE = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(("drop key", "repeat key", "repeat section", "key first", "garbage")),
        st.integers(0, 100),
    ),
)


def _render(edits, base=PAPER_SECTIONS, structure=None):
    """The config text of base with edits applied, then the structural fault, if any."""
    sections = {name: dict(keys) for name, keys in base.items()}
    for (section, key), value in edits.items():
        keys = sections.setdefault(section, {})
        keys.pop(key, None)
        if value is not None:
            keys[key] = value
    lines = [
        line
        for name, keys in sections.items()
        for line in (f"[{name}]\n", *(f"{key} = {value}\n" for key, value in keys.items()))
    ]
    if structure is not None:
        kind, n = structure
        key_lines = [i for i, line in enumerate(lines) if "=" in line]
        i = key_lines[n % len(key_lines)]
        if kind == "drop key":
            del lines[i]
        elif kind == "repeat key":
            lines.insert(i, lines[i])
        elif kind == "repeat section":
            lines.append(next(line for line in lines[i::-1] if line.startswith("[")))
        elif kind == "key first":
            lines.insert(0, lines.pop(i))
        else:
            lines.insert(n % (len(lines) + 1), GARBAGE_LINES[n % len(GARBAGE_LINES)] + "\n")
    return "".join(lines)


def _run(cfg, out, argv):
    """(exit code, stderr, {artifact name: text}) of one in-process run."""
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = _exit_code(["--config", str(cfg), "--out", str(out), *argv])
    written = {path.name: path.read_text() for path in out.iterdir()} if out.exists() else {}
    return code, err.getvalue(), written


def _check_exit(command, code, err):
    assert code in (0, 1, 2), (command, code)
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), (command, err)
    assert "Traceback" not in err


def _run_scalar(cfg, out, command, fmt):
    """(exit code, stderr, the record written or None) of one in-process run."""
    code, err, written = _run(cfg, out, ["--format", fmt, command])
    assert len(written) <= 1, written
    if not written:
        return code, err, None
    (text,) = written.values()
    if fmt == "json":
        return code, err, json.loads(text)
    _, header, row = text.splitlines()
    return code, err, dict(zip(header.split(","), row.split(","), strict=True))


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edits=HOSTILE_EDITS, structure=STRUCTURE)
@example(edits={("link", "tx_power"): "1e308 dBm", ("link", "bs_gain"): "1e308 dBi"}, structure=None)
@example(edits={("link", "tx_power"): "-1e308 dBm", ("link", "bs_gain"): "-1e308 dBi"}, structure=None)
@example(
    edits={
        ("receiver", "sensitivity"): None,
        ("receiver", "noise_figure"): "-1e308 dB",
        ("receiver", "implementation_loss"): "-1e308 dB",
    },
    structure=None,
)
@example(edits={("receiver", "sensitivity"): "1e308 dBm", ("link", "tx_power"): "-1e308 dBm"}, structure=None)
# a wavelength so long that (lambda/(d1*d2))^2 overflows
@example(edits={("link", "frequency"): "1e-308 GHz"}, structure=None)
# M-QAM orders whose required SNR overflows: to inf at 4^511, past the float range at 4^512
@example(edits={("receiver", "sensitivity"): None, ("receiver", "modulation"): f"{4**511}-QAM"}, structure=None)
@example(edits={("receiver", "sensitivity"): None, ("receiver", "modulation"): f"{4**512}-QAM"}, structure=None)
# a profile name with a comma would shift the cells of power.csv
@example(
    edits={("power", "profile"): "a, b", ("power", "per_cell_power"): "20 uW", ("power", "cells"): "10"},
    structure=None,
)
def test_scalar_commands_survive_hostile_configs(hostile_dir, edits, structure):
    cfg = hostile_dir / "scenario.cfg"
    cfg.write_text(_render(edits, structure=structure))
    for command in SCALAR_COMMANDS:
        runs = {fmt: _run_scalar(cfg, hostile_dir / fmt, command, fmt) for fmt in ("csv", "json")}
        for code, err, record in runs.values():
            _check_exit(command, code, err)
            if code == 0:
                assert record is not None, command
        (csv_code, csv_err, csv_record), (json_code, json_err, json_record) = runs.values()
        assert (csv_code, csv_err) == (json_code, json_err), command
        if json_record is None:
            assert csv_record is None, command
            continue
        # whatever a run writes is finite, also under exit 2
        numbers = [v for v in json_record.values() if isinstance(v, (int, float))]
        assert all(math.isfinite(v) for v in numbers), (command, json_record)
        assert csv_record == {k: _fmt_cell(v) for k, v in json_record.items()}, command


# SMALL_PATTERN and SMALL_SQUINT cut to 16 and 15 cells per side
ARRAY_BASES = {
    "pattern": _sections(SMALL_PATTERN.replace("n_per_side = 20", "n_per_side = 16")),
    "squint": _sections(SMALL_SQUINT.replace("side = 80 mm", "side = 16 mm")),
}
ARRAY_SECTIONS = ("link", "aperture", "taper", "quantization", "sweep")
ARRAY_KEYS = [(section, key) for section in ARRAY_SECTIONS for key in _SCHEMAS[section]]


def _capped(valid, extremes):
    """Removal, a value from a range that keeps the run small, an extreme, or a malformed value."""
    return st.one_of(st.none(), valid, extremes, st.sampled_from(["16", "16 furlong", "many", "1.5", ""]))


def _scaled(low, high, unit):
    return st.floats(low, high).map(lambda x: f"{x:.6g} {unit}")


def _extremes(dimension):
    values = st.sampled_from(["0", "nan", "1e-308", "1e308", "-1e308"])
    return st.tuples(values, st.sampled_from(list(_UNITS[dimension]))).map(" ".join)


def _list_of(parser, entries):
    """The config fuzz's values, or up to four valid entries, as often with a repeat as without."""
    return st.one_of(_hostile(parser), st.lists(st.sampled_from(entries), min_size=1, max_size=4).map(", ".join))


# the keys that size a run: every valid draw keeps the panel at 16 cells per
# side or fewer (a pitch of at least 1 mm, 150 GHz at most, a side of 16 mm at
# most), the sweep at 41 samples or fewer and each list at four entries or
# fewer; an extreme must be refused before anything is allocated. The list
# keys draw valid lists too, because every entry must give its own rows.
CAPPED = {
    ("link", "frequency"): _capped(_scaled(1e-3, 150.0, "GHz"), _extremes("frequency")),
    ("aperture", "design_frequency"): _capped(_scaled(1e-3, 150.0, "GHz"), _extremes("frequency")),
    ("aperture", "side"): _capped(_scaled(0.5, 16.0, "mm"), _extremes("length")),
    ("aperture", "cell_pitch"): _capped(_scaled(1.0, 10.0, "mm"), _extremes("length")),
    ("aperture", "n_per_side"): _capped(st.integers(-3, 16).map(str), st.sampled_from(["0", "9" * 310])),
    ("sweep", "n_samples"): _capped(st.integers(-3, 41).map(str), st.sampled_from(["0", "9" * 400])),
    ("quantization", "bits"): _list_of(_SCHEMAS["quantization"]["bits"], ["1", "2", "3", "continuous"]),
    ("sweep", "theta_out_sweep"): _list_of(
        _SCHEMAS["sweep"]["theta_out_sweep"], ["0 deg", "20 deg", "30 deg", "40 deg", "0.75 rad"]
    ),
}
# up to three keys of each base removed or set to a hostile value
ARRAY_EDITS = st.lists(st.sampled_from(ARRAY_KEYS), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {k: CAPPED[k] if k in CAPPED else _hostile(_SCHEMAS[k[0]][k[1]]) for k in keys}
    )
)


def _numbers(text, label_columns=0):
    """Each data row of a planner CSV: its first label_columns cells, then floats."""
    _, header, *rows = text.splitlines()
    width = len(header.split(","))
    out = []
    for row in rows:
        cells = row.split(",")
        assert len(cells) == width, row
        out.append((*cells[:label_columns], *map(float, cells[label_columns:])))
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edits=ARRAY_EDITS, structure=STRUCTURE)
def test_array_commands_survive_hostile_configs(hostile_dir, edits, structure):
    cfg = hostile_dir / "scenario.cfg"
    for command in ("pattern", "squint"):
        cfg.write_text(_render(edits, ARRAY_BASES[command], structure))
        # --format does not apply to these commands: both runs write the same
        runs = [_run(cfg, hostile_dir / fmt, ["--format", fmt, "--svg", command]) for fmt in ("csv", "json")]
        for code, err, _ in runs:
            _check_exit(command, code, err)
        assert runs[0] == runs[1], command
        code, _, written = runs[0]
        if code != 0:
            continue
        if command == "pattern":
            rows = _numbers(written["pattern.csv"], label_columns=1)
            assert all(math.isfinite(t) and math.isfinite(p) for _, t, p, _ in rows)
            # an exact null reads -inf
            assert all(math.isfinite(d) or d == -math.inf for *_, d in rows)
            assert len({(bits, t) for bits, t, *_ in rows}) == len(rows)
        else:
            rows = _numbers(written["squint.csv"])
            assert rows and all(map(math.isfinite, (x for row in rows for x in row)))
            if "squint_vs_angle.csv" in written:
                rows = _numbers(written["squint_vs_angle.csv"])
                assert all(map(math.isfinite, (x for row in rows for x in row)))
                assert len({row[0] for row in rows}) == len(rows)
