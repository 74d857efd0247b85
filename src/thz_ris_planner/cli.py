"""Command-line front end chaining the analysis together.

Subcommands: link-budget, solve-aperture, pattern, squint, power. All read an
INI-style scenario file (see config module) and write deterministic CSV/JSON
artifacts plus optional self-contained SVG plots.

link-budget, solve-aperture and power run on the standard library alone.
pattern and squint import numpy, with the radiation and surface modules,
when they run, so the scalar commands start without it.

Exit codes: 0 success, 1 usage, config or file error, 2 physics/feasibility failure.
Every failure is reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .aperture import (
    ApertureSpec,
    UnreachableGeometryError,
    element_count,
    rcs,
    solve_aperture_size,
)
from .config import ConfigError, ScenarioConfig, load_config
from .core import BistaticGeometry, Direction, Frequency
from .link_budget import (
    LinkScenario,
    ReceiverSpec,
    evaluate_link,
    required_rcs_for_target,
    sensitivity,
)
from .power import PROFILES, TechnologyProfile, panel_power

CSV_VERSION_LINE = "# thz-ris-planner v1"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the version line, the header and each row of the iterable rows as it comes."""
    with path.open("w") as fh:
        fh.write(f"{CSV_VERSION_LINE}\n{','.join(header)}\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(c) for c in row) + "\n")


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_result(out_dir: Path, stem: str, record: dict, fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    else:
        path = out_dir / f"{stem}.csv"
        keys = list(record)
        _write_csv(path, keys, [[record[k] for k in keys]])
    return path


def _direction(cfg: ScenarioConfig, which: str) -> Direction:
    theta = cfg.get("link", f"theta_{which}")
    phi = cfg.get("link", f"phi_{which}", 0.0)
    return Direction(theta, phi)


def _link_scenario(cfg: ScenarioConfig) -> LinkScenario:
    cfg.require("link", "frequency", "d1", "d2", "theta_in", "theta_out",
                "tx_power", "bs_gain", "terminal_gain")
    link = cfg.section("link")
    geometry = BistaticGeometry(
        d1_m=link["d1"],
        d2_m=link["d2"],
        incident=_direction(cfg, "in"),
        outgoing=_direction(cfg, "out"),
    )
    return LinkScenario(
        geometry=geometry,
        f=Frequency(link["frequency"]),
        tx_power_dbm=link["tx_power"],
        bs_gain_dbi=link["bs_gain"],
        terminal_gain_dbi=link["terminal_gain"],
    )


def _sensitivity_dbm(cfg: ScenarioConfig) -> float:
    """Explicit [receiver] sensitivity wins; otherwise reconstruct from M-QAM."""
    recv = cfg.section("receiver")
    if "sensitivity" in recv:
        return float(recv["sensitivity"])
    cfg.require("receiver", "bandwidth", "noise_figure", "modulation")
    spec = ReceiverSpec(
        bandwidth_hz=recv["bandwidth"],
        noise_figure_db=recv["noise_figure"],
        modulation_order=recv["modulation"],
        target_ber=recv.get("target_ber", 1e-6),
        implementation_loss_db=recv.get("implementation_loss", 0.0),
    )
    return sensitivity(spec)


def _design_frequency(cfg: ScenarioConfig) -> Frequency:
    hz = cfg.get("aperture", "design_frequency") or cfg.get("link", "frequency")
    if hz is None:
        raise ConfigError("need [aperture] design_frequency or [link] frequency")
    return Frequency(hz)


def _aperture(cfg: ScenarioConfig) -> ApertureSpec:
    ap = cfg.section("aperture")
    freq = _design_frequency(cfg)
    pitch = ap.get("cell_pitch")
    eta = ap.get("aperture_efficiency", 1.0)
    if "n_per_side" in ap:
        return ApertureSpec.from_element_grid(ap["n_per_side"], freq, pitch, eta)
    if "side" in ap:
        return ApertureSpec(ap["side"], freq, pitch, eta)
    raise ConfigError("section [aperture] needs either 'side' or 'n_per_side'")


def _taper(cfg: ScenarioConfig):
    from .surface import UNIFORM_TAPER, TaperSpec

    level = cfg.get("taper", "edge_level")
    if level is None:
        return UNIFORM_TAPER
    return TaperSpec(level)


def cmd_link_budget(args, cfg: ScenarioConfig) -> int:
    scenario = _link_scenario(cfg)
    sens = _sensitivity_dbm(cfg)
    panel = _aperture(cfg)
    sigma_m2 = rcs(panel, scenario.geometry.incident, scenario.geometry.outgoing)
    report = evaluate_link(scenario, sens, 10.0 * math.log10(sigma_m2))

    record = {
        "rx_power_dbm": report.rx_power_dbm,
        "sensitivity_dbm": report.sensitivity_dbm,
        "margin_db": report.margin_db,
        "spreading_term_db": report.spreading_term_db,
        "sigma_dbsm": 10.0 * math.log10(sigma_m2),
    }
    print(f"received power   {report.rx_power_dbm:10.2f} dBm")
    print(f"sensitivity      {report.sensitivity_dbm:10.2f} dBm")
    print(f"margin           {report.margin_db:10.2f} dB")
    print(f"spreading term   {report.spreading_term_db:10.2f} dB")
    path = _write_result(args.out, "link_budget", record, args.format)
    print(f"wrote {path}")
    if report.margin_db < 0:
        print("link does not close (negative margin)", file=sys.stderr)
        return 2
    return 0


def cmd_solve_aperture(args, cfg: ScenarioConfig) -> int:
    scenario = _link_scenario(cfg)
    sens = _sensitivity_dbm(cfg)
    cfg.require("aperture", "aperture_efficiency")
    eta = cfg.section("aperture")["aperture_efficiency"]
    freq = _design_frequency(cfg)
    incident = scenario.geometry.incident
    outgoing = scenario.geometry.outgoing

    sigma_dbsm = required_rcs_for_target(scenario, sens)
    sigma_m2 = 10.0 ** (sigma_dbsm / 10.0)
    side = solve_aperture_size(sigma_m2, eta, incident, outgoing, freq)

    cos_product = math.cos(incident.theta) * math.cos(outgoing.theta)
    if cos_product < 0.01:
        print(
            "warning: near-grazing geometry inflates the required aperture",
            file=sys.stderr,
        )

    pitch = cfg.get("aperture", "cell_pitch")
    panel = ApertureSpec(side, freq, pitch, eta)
    n_elements = element_count(panel)

    record = {
        "sigma_dbsm": sigma_dbsm,
        "sigma_m2": sigma_m2,
        "d_m": side,
        "n_elements": n_elements,
    }
    print(f"required RCS     {sigma_dbsm:10.2f} dBsm  ({sigma_m2:.1f} m^2)")
    print(f"aperture side D  {side * 1e3:10.2f} mm")
    print(f"unit elements    {n_elements:10d}")
    path = _write_result(args.out, "solve_aperture", record, args.format)
    print(f"wrote {path}")
    return 0


def cmd_pattern(args, cfg: ScenarioConfig) -> int:
    import numpy as np

    from . import svgplot
    from .radiation import (
        GridResolutionError,
        analytical_hpbw,
        array_factor_fft,
        check_array_budget,
        check_normal_incidence,
        quantized_cuts,
    )
    from .surface import synthesize_profile

    if not (math.isfinite(args.cut_step_deg) and args.cut_step_deg > 0.0):
        raise ValueError(f"--cut-step-deg must be a positive angle, got {args.cut_step_deg}")
    cfg.require("link", "theta_in", "theta_out")
    cfg.require("quantization", "bits")
    panel = _aperture(cfg)
    taper = _taper(cfg)
    incident = _direction(cfg, "in")
    check_normal_incidence(incident)
    outgoing = _direction(cfg, "out")
    bits_list = cfg.section("quantization")["bits"]
    step = math.radians(args.cut_step_deg)
    check_array_budget(panel.n_per_side, n_directions=int(math.pi / step) + 1)

    continuous = synthesize_profile(panel, incident, outgoing, taper)
    hpbw = analytical_hpbw(continuous, panel.design_freq)
    if step > hpbw / 2.0:
        raise GridResolutionError(
            f"cut step {args.cut_step_deg} deg under-resolves the "
            f"{math.degrees(hpbw):.3f} deg beam; use --cut-step-deg "
            f"{math.degrees(hpbw / 2):.3f} or less"
        )

    cuts = quantized_cuts(continuous, bits_list, outgoing.phi, step)
    labels = ["continuous" if bits is None else str(bits) for bits in bits_list]
    phi_deg = math.degrees(outgoing.phi)
    back_deg = (phi_deg + 180.0) % 360.0
    csv_path = args.out / "pattern.csv"
    _write_csv(
        csv_path,
        ["bits", "theta_deg", "phi_deg", "directivity_dbi"],
        (
            [label, t, phi_deg if t >= 0 else back_deg, d]
            for label, (theta_deg, dbi) in zip(labels, cuts)
            for t, d in zip(theta_deg, dbi)
        ),
    )
    peaks = {label: float(np.max(dbi)) for label, (_, dbi) in zip(labels, cuts)}
    for label, peak in peaks.items():
        print(f"peak directivity [{label:>10s}]  {peak:7.2f} dBi")
    print(f"wrote {csv_path}")

    if args.svg:
        # floor deep nulls so the plot scale stays readable; CSV keeps raw values
        curves = [
            (
                list(theta_deg),
                list(np.maximum(dbi, peaks[label] - 60.0)),
                label if bits is None else f"{label} bit",
            )
            for bits, label, (theta_deg, dbi) in zip(bits_list, labels, cuts)
        ]
        svg_path = args.out / "pattern.svg"
        svgplot.line_plot(
            svg_path,
            curves,
            xlabel="theta (deg)",
            ylabel="directivity (dBi)",
            title="principal-plane cut",
        )
        uv = array_factor_fft(continuous, panel.design_freq, uv_oversample=2)
        mag = np.abs(uv.field)
        with np.errstate(divide="ignore", invalid="ignore"):
            mag_db = 20.0 * np.log10(mag / np.nanmax(mag))
        heat_path = args.out / "pattern_uv.svg"
        svgplot.heatmap(
            heat_path,
            list(uv.ax1),
            list(uv.ax2),
            [list(r) for r in mag_db],
            xlabel="u",
            ylabel="v",
            title="|E(u,v)| (dB rel. peak)",
            z_floor=-60.0,
        )
        print(f"wrote {svg_path}")
        print(f"wrote {heat_path}")
    return 0


def cmd_squint(args, cfg: ScenarioConfig) -> int:
    from . import svgplot
    from .radiation import squint_vs_angle

    cfg.require("link", "theta_in", "theta_out")
    cfg.require("sweep", "f_span", "n_samples")
    panel = _aperture(cfg)
    taper = _taper(cfg)
    incident = _direction(cfg, "in")
    outgoing = _direction(cfg, "out")
    sweep = cfg.section("sweep")
    bits_setting = cfg.get("quantization", "bits")
    if bits_setting is not None and len(bits_setting) != 1:
        raise ConfigError("squint uses a single [quantization] bits setting")
    bits = bits_setting[0] if bits_setting else None
    angles = sweep.get("theta_out_sweep") or []

    # one power kernel serves theta_out and every sweep angle; nothing is
    # written until all of them have succeeded
    report, *reports = squint_vs_angle(
        panel,
        incident,
        [outgoing, *(Direction(t, outgoing.phi) for t in angles)],
        taper,
        bits,
        sweep["f_span"],
        sweep["n_samples"],
    )
    trace_path = args.out / "squint.csv"
    _write_csv(trace_path, ["freq_hz", "gain_db"], zip(report.freq_hz, report.gain_dbi))
    suffix = " (saturated at band edges)" if report.saturated else ""
    print(
        f"BW_3dB at theta_out={math.degrees(outgoing.theta):.1f} deg: "
        f"{report.bw_3db_hz / 1e9:.3f} GHz ({report.fractional_bw_pct:.2f}%){suffix}"
    )
    print(f"wrote {trace_path}")

    if args.svg:
        svg_path = args.out / "squint.svg"
        svgplot.line_plot(
            svg_path,
            [(list(report.freq_hz / 1e9), list(report.gain_dbi), "gain at target")],
            xlabel="frequency (GHz)",
            ylabel="gain (dBi)",
            title="beam-squint gain trace",
        )
        print(f"wrote {svg_path}")

    if reports:
        rows = [
            [math.degrees(r.target.theta), r.bw_3db_hz, r.fractional_bw_pct]
            for r in reports
        ]
        sweep_path = args.out / "squint_vs_angle.csv"
        _write_csv(sweep_path, ["theta_out_deg", "bw_3db_hz", "fractional_bw_pct"], rows)
        print(f"wrote {sweep_path}")
        if args.svg:
            svg_path = args.out / "squint_vs_angle.svg"
            svgplot.line_plot(
                svg_path,
                [(
                    [math.degrees(r.target.theta) for r in reports],
                    [r.bw_3db_hz / 1e9 for r in reports],
                    "BW_3dB",
                )],
                xlabel="theta_out (deg)",
                ylabel="BW_3dB (GHz)",
                title="beam-squint bandwidth vs reflection angle",
            )
            print(f"wrote {svg_path}")
    return 0


def cmd_power(args, cfg: ScenarioConfig) -> int:
    cfg.require("power", "profile")
    name = cfg.section("power")["profile"]
    custom_power = cfg.get("power", "per_cell_power")
    if custom_power is not None:
        tech = TechnologyProfile(name, custom_power)
    else:
        tech = PROFILES.get(name)
    if tech is None:
        raise ConfigError(f"unknown technology profile '{name}' (known: {', '.join(sorted(PROFILES))})")
    cells = cfg.get("power", "cells")
    if cells is None:
        if "aperture" in cfg.sections:
            cells = element_count(_aperture(cfg))
        else:
            raise ConfigError("need [power] cells or an [aperture] section to count cells")
    total = panel_power(cells, tech)
    record = {
        "profile": tech.name,
        "n_cells": cells,
        "per_cell_power_w": tech.per_cell_power_w,
        "panel_power_w": total,
    }
    print(f"{tech.name}: {cells} cells x {tech.per_cell_power_w * 1e6:.1f} uW = {total:.3f} W")
    path = _write_result(args.out, "power", record, args.format)
    print(f"wrote {path}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors reported like every other input error."""

    def error(self, message: str):
        self.exit(1, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="thz-ris-planner",
        description="Link-budget, aperture sizing, and beamforming analysis for THz RIS panels",
    )
    parser.add_argument("--config", required=True, type=Path, help="scenario config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--svg", action="store_true", help="also write SVG plots")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("link-budget", help="received power, sensitivity, and margin").set_defaults(
        func=cmd_link_budget
    )
    sub.add_parser("solve-aperture", help="aperture size for the required RCS").set_defaults(
        func=cmd_solve_aperture
    )
    p_pattern = sub.add_parser("pattern", help="directivity cuts per quantization setting")
    p_pattern.add_argument("--cut-step-deg", type=float, default=0.05)
    p_pattern.set_defaults(func=cmd_pattern)
    sub.add_parser("squint", help="gain vs frequency and the beam-squint band").set_defaults(
        func=cmd_squint
    )
    sub.add_parser("power", help="panel control power for a technology profile").set_defaults(
        func=cmd_power
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except UnreachableGeometryError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
