import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import thz_ris_planner
from thz_ris_planner import radiation
from thz_ris_planner.cli import main

DATA = resources.files("thz_ris_planner").joinpath("data")
PAPER = DATA.joinpath("paper_scenario.cfg").read_text()


def data_path(name):
    return str(DATA.joinpath(name))


def run(args, capsys=None):
    code = main(args)
    return code


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
    code = main(
        ["--config", str(cfg), "--out", str(tmp_path), "--svg", "pattern", "--cut-step-deg", "0.25"]
    )
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
    code = main(["--config", str(cfg), "--out", str(tmp_path), "pattern", "--cut-step-deg", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    peak = float([l for l in out.splitlines() if "continuous" in l][0].split()[-2])
    assert peak == pytest.approx(44.97, abs=0.3)


def test_pattern_under_resolved_exits_1(tmp_path, capsys):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN.replace("n_per_side = 20", "n_per_side = 64"))
    code = main(["--config", str(cfg), "--out", str(tmp_path), "pattern", "--cut-step-deg", "3.0"])
    assert code == 1
    assert "cut-step-deg" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1", "nan"])
def test_pattern_bad_cut_step_exits_1(tmp_path, capsys, step):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    code = main(["--config", str(cfg), "--out", str(tmp_path), "pattern", "--cut-step-deg", step])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --cut-step-deg must be a positive angle")
    assert err.count("\n") == 1


def test_pattern_csv_is_streamed(tmp_path):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    argv = ["--config", str(cfg), "--out", str(tmp_path), "pattern", "--cut-step-deg", "0.01"]
    assert main(argv) == 0  # warm-up, so that imports and caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len((tmp_path / "pattern.csv").read_text().splitlines()) - 2
    assert rows == 4 * 18001
    # holding a Python list per row until the file is written costs about 360 bytes a row
    assert peak < 128 * rows


def test_pattern_csv_deterministic(tmp_path):
    cfg = tmp_path / "pattern.cfg"
    cfg.write_text(SMALL_PATTERN)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r1"), "pattern", "--cut-step-deg", "0.5"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r2"), "pattern", "--cut-step-deg", "0.5"]) == 0
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
    (SMALL_PATTERN, None, ["pattern", "--cut-step-deg", "fine"], 1),
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
    # a refused run leaves no artifact behind
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command,config,args",
    [
        ("pattern", SMALL_PATTERN, ["--cut-step-deg", "0.5"]),
        ("squint", SMALL_SQUINT, []),
    ],
)
def test_oversize_run_exits_1(tmp_path, capsys, monkeypatch, command, config, args):
    # a small budget stands in for a huge problem, so nothing large is allocated
    monkeypatch.setattr(radiation, "MAX_ARRAY_BYTES", 1024)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    code = main(["--config", str(cfg), "--out", str(tmp_path), command, *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and "GiB limit" in err and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


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
    code = main(["--config", data_path("fig6.cfg"), "--out", str(tmp_path), "squint"])
    assert code == 0
    rows = (tmp_path / "squint_vs_angle.csv").read_text().splitlines()[2:]
    bws = [float(r.split(",")[1]) for r in rows]
    assert len(bws) == 13
    assert all(a > b for a, b in zip(bws, bws[1:]))


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


def test_cli_import_leaves_scipy_signal_out():
    src = str(Path(thz_ris_planner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the runtime needs numpy only: no scipy module at all, not just scipy.signal
    probe = (
        "import sys, thz_ris_planner.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [None, "link-budget", "solve-aperture", "power"])
def test_scalar_path_loads_no_numpy(tmp_path, command):
    src = str(Path(thz_ris_planner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = "[m for m in sys.modules if m.split('.')[0] == 'numpy']"
    if command is None:
        # importing the package itself loads none of its submodules
        probe = (
            f"import sys, thz_ris_planner; print({loaded}); "
            "print([m for m in sys.modules if m.startswith('thz_ris_planner.')]); "
            f"import thz_ris_planner.cli; print({loaded})"
        )
        expected = ["[]", "[]", "[]"]
    else:
        argv = ["--config", data_path("paper_scenario.cfg"), "--out", str(tmp_path), command]
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
