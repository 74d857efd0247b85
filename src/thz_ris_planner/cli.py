"""Command-line front end chaining the analysis together.

Subcommands: link-budget, solve-aperture, pattern, squint, power. All read an
INI-style scenario file (see config module) and write deterministic CSV/JSON
artifacts plus optional self-contained SVG plots.

Each cmd_* function only computes. It returns its stdout lines, its stderr
warnings, an exit-2 failure line or None, and (file name, writer) pairs;
main alone prints them and calls each writer on the output directory, so no
command writes anything until all its results are computed, nor names any
artifact until every writer has returned.

link-budget, solve-aperture and power run on the standard library alone.
pattern and squint import numpy, with the radiation and surface modules,
when they run, so the scalar commands start without it.

Exit codes: 0 success, 1 usage, config or file error, 2 physics/feasibility failure.
Every failure is reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .aperture import (
    ApertureSpec,
    UnreachableGeometryError,
    _cell_pitch,
    element_count,
    rcs,
    solve_aperture_size,
)
from .config import ConfigError, ScenarioConfig, load_config
from .core import BistaticGeometry, Direction, Frequency, _finite
from .link_budget import (
    LinkScenario,
    ReceiverSpec,
    evaluate_link,
    required_rcs_for_target,
    sensitivity,
)
from .power import PROFILES, TechnologyProfile, panel_power

CSV_VERSION_LINE = "# thz-ris-planner v1"


def _write_csv(header: list[str], rows):
    """Writer of the version line, the header and each row of the iterable rows as it comes."""

    def write(path: Path) -> None:
        with path.open("w") as fh:
            fh.write(f"{CSV_VERSION_LINE}\n{','.join(header)}\n")
            for row in rows:
                fh.write(",".join(_fmt_cell(c) for c in row) + "\n")

    return write


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_result(stem: str, record: dict, fmt: str):
    """(file name, writer) of one scalar record in the --format fmt."""
    if fmt == "csv":
        return f"{stem}.csv", _write_csv(list(record), [list(record.values())])

    def write(path: Path) -> None:
        import json  # imported here: the default CSV output does not need it

        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    return f"{stem}.json", write


def _direction(cfg: ScenarioConfig, which: str) -> Direction:
    link = cfg["link"]
    return Direction(link[f"theta_{which}"], link.get(f"phi_{which}", 0.0))


def _link_scenario(cfg: ScenarioConfig) -> LinkScenario:
    link = cfg["link"]
    f = Frequency(link["frequency"])
    geometry = BistaticGeometry(
        d1_m=link["d1"],
        d2_m=link["d2"],
        incident=_direction(cfg, "in"),
        outgoing=_direction(cfg, "out"),
    )
    return LinkScenario(
        geometry=geometry,
        f=f,
        tx_power_dbm=link["tx_power"],
        bs_gain_dbi=link["bs_gain"],
        terminal_gain_dbi=link["terminal_gain"],
    )


def _sensitivity_dbm(cfg: ScenarioConfig) -> float:
    """Explicit [receiver] sensitivity wins; otherwise reconstruct from M-QAM."""
    recv = cfg["receiver"]
    if "sensitivity" in recv:
        return float(recv["sensitivity"])
    spec = ReceiverSpec(
        bandwidth_hz=recv["bandwidth"],
        noise_figure_db=recv["noise_figure"],
        modulation_order=recv["modulation"],
        target_ber=recv.get("target_ber", 1e-6),
        implementation_loss_db=recv.get("implementation_loss", 0.0),
    )
    return sensitivity(spec)


def _design_frequency(cfg: ScenarioConfig) -> Frequency:
    hz = cfg["aperture"].get("design_frequency", cfg["link"].get("frequency"))
    if hz is None:
        raise ConfigError("need [aperture] design_frequency or [link] frequency")
    return Frequency(hz)


def _aperture(cfg: ScenarioConfig) -> ApertureSpec:
    ap = cfg["aperture"]
    freq = _design_frequency(cfg)
    pitch = ap.get("cell_pitch")
    eta = ap.get("aperture_efficiency", 1.0)
    if "side" in ap and "n_per_side" in ap:
        raise ConfigError("section [aperture] takes 'side' or 'n_per_side', not both")
    if "n_per_side" in ap:
        return ApertureSpec.from_element_grid(ap["n_per_side"], freq, pitch, eta)
    if "side" in ap or "aperture" not in cfg:
        # reading 'side' from an absent section reports the missing section
        return ApertureSpec(ap["side"], freq, pitch, eta)
    raise ConfigError("section [aperture] needs either 'side' or 'n_per_side'")


def _taper(cfg: ScenarioConfig):
    from .surface import TaperSpec

    return TaperSpec(cfg["taper"].get("edge_level", 0.0))


def cmd_link_budget(args, cfg: ScenarioConfig):
    scenario = _link_scenario(cfg)
    sens = _sensitivity_dbm(cfg)
    panel = _aperture(cfg)
    sigma_dbsm = 10.0 * math.log10(rcs(panel, scenario.geometry.incident, scenario.geometry.outgoing))
    report = evaluate_link(scenario, sens, sigma_dbsm)

    record = {
        "rx_power_dbm": report.rx_power_dbm,
        "sensitivity_dbm": report.sensitivity_dbm,
        "margin_db": report.margin_db,
        "spreading_term_db": report.spreading_term_db,
        "sigma_dbsm": sigma_dbsm,
    }
    lines = [
        f"received power   {report.rx_power_dbm:10.2f} dBm",
        f"sensitivity      {report.sensitivity_dbm:10.2f} dBm",
        f"margin           {report.margin_db:10.2f} dB",
        f"spreading term   {report.spreading_term_db:10.2f} dB",
    ]
    failure = "link does not close (negative margin)" if report.margin_db < 0 else None
    return lines, [], failure, [_write_result("link_budget", record, args.format)]


def cmd_solve_aperture(args, cfg: ScenarioConfig):
    scenario = _link_scenario(cfg)
    sens = _sensitivity_dbm(cfg)
    eta = cfg["aperture"]["aperture_efficiency"]
    freq = _design_frequency(cfg)
    incident = scenario.geometry.incident
    outgoing = scenario.geometry.outgoing

    sigma_dbsm = required_rcs_for_target(scenario, sens)
    sigma_m2 = _finite(
        lambda: 10.0 ** (sigma_dbsm / 10.0),
        f"the required RCS of {sigma_dbsm:.6g} dBsm is beyond the float range",
        error=UnreachableGeometryError,
    )
    # a required RCS that underflows to 0 m^2 needs no panel at all
    side = solve_aperture_size(sigma_m2, eta, incident, outgoing, freq) if sigma_m2 > 0.0 else 0.0
    pitch = _cell_pitch(cfg["aperture"].get("cell_pitch"), freq)
    if side < pitch:
        raise ValueError(
            f"the required RCS of {sigma_dbsm:.6g} dBsm gives a side below one cell pitch, "
            "so any panel closes the link"
        )

    warnings = []
    if math.cos(incident.theta) * math.cos(outgoing.theta) < 0.01:
        warnings.append("warning: near-grazing geometry inflates the required aperture")
    n_elements = element_count(ApertureSpec(side, freq, pitch, eta))

    record = {
        "sigma_dbsm": sigma_dbsm,
        "sigma_m2": sigma_m2,
        "d_m": side,
        "n_elements": n_elements,
    }
    lines = [
        f"required RCS     {sigma_dbsm:10.2f} dBsm  ({sigma_m2:.1f} m^2)",
        f"aperture side D  {side * 1e3:10.2f} mm",
        f"unit elements    {n_elements:10d}",
    ]
    return lines, warnings, None, [_write_result("solve_aperture", record, args.format)]


def cmd_pattern(args, cfg: ScenarioConfig):
    import numpy as np

    from .radiation import array_factor_fft, check_normal_incidence, quantized_cuts
    from .surface import synthesize_profile

    incident = _direction(cfg, "in")
    outgoing = _direction(cfg, "out")
    bits_list = cfg["quantization"]["bits"]
    panel = _aperture(cfg)
    taper = _taper(cfg)
    check_normal_incidence(incident)

    continuous = synthesize_profile(panel, incident, outgoing, taper)
    cuts = quantized_cuts(continuous, bits_list, outgoing.phi)
    labels = ["continuous" if bits is None else str(bits) for bits in bits_list]
    phi_deg = math.degrees(outgoing.phi)
    back_deg = (phi_deg + 180.0) % 360.0
    peaks = {label: float(np.max(dbi)) for label, (_, dbi) in zip(labels, cuts)}
    lines = [f"peak directivity [{label:>10s}]  {peak:7.2f} dBi" for label, peak in peaks.items()]
    rows = (
        [label, t, phi_deg if t >= 0 else back_deg, d]
        for label, (theta_deg, dbi) in zip(labels, cuts)
        for t, d in zip(theta_deg.tolist(), dbi.tolist())
    )
    writers = [("pattern.csv", _write_csv(["bits", "theta_deg", "phi_deg", "directivity_dbi"], rows))]
    if not args.svg:
        return lines, [], None, writers
    from . import svgplot  # imported here: pattern without --svg draws nothing

    uv = array_factor_fft(continuous, panel.design_freq, uv_oversample=2)

    def cut_plot(path: Path) -> None:
        # the cuts share one theta grid; floor deep nulls so the plot scale
        # stays readable, while the CSV keeps raw values
        theta = cuts[0][0].tolist()
        series = [
            (theta, np.maximum(dbi, peaks[label] - 60.0).tolist(), label if bits is None else f"{label} bit")
            for bits, label, (_, dbi) in zip(bits_list, labels, cuts)
        ]
        svgplot.line_plot(path, series, "theta (deg)", "directivity (dBi)", "principal-plane cut")

    def uv_plot(path: Path) -> None:
        mag = np.abs(uv.field)  # normalised to dB in place: one real lattice, not three
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(mag, np.nanmax(mag), out=mag)
            np.log10(mag, out=mag)
        mag *= 20.0
        svgplot.heatmap(
            path, uv.ax1.tolist(), uv.ax2.tolist(), mag.tolist(),
            xlabel="u", ylabel="v", title="|E(u,v)| (dB rel. peak)", z_floor=-60.0,
        )

    return lines, [], None, [*writers, ("pattern.svg", cut_plot), ("pattern_uv.svg", uv_plot)]


def cmd_squint(args, cfg: ScenarioConfig):
    from .radiation import squint_vs_angle

    incident = _direction(cfg, "in")
    outgoing = _direction(cfg, "out")
    sweep = cfg["sweep"]
    f_span, n_samples = sweep["f_span"], sweep["n_samples"]
    panel = _aperture(cfg)
    taper = _taper(cfg)
    bits_setting = cfg["quantization"].get("bits")
    if bits_setting is not None and len(bits_setting) != 1:
        raise ConfigError("squint uses a single [quantization] bits setting")
    bits = bits_setting[0] if bits_setting else None
    angles = sweep.get("theta_out_sweep") or []
    written = {}  # angles that squint_vs_angle.csv would write as one text make identical rows
    for theta in angles:
        text = _fmt_cell(math.degrees(theta))
        if written.setdefault(text, theta) != theta:
            first, second = math.degrees(written[text]), math.degrees(theta)
            raise ValueError(
                f"theta_out_sweep angles {first:.15g} and {second:.15g} deg are both written as {text}"
            )

    # one contraction, block by block with no J1 table, gives theta_out and every sweep angle their power
    report, *reports = squint_vs_angle(
        panel,
        incident,
        [outgoing, *(Direction(t, outgoing.phi) for t in angles)],
        taper,
        bits,
        f_span,
        n_samples,
    )
    suffix = " (saturated at band edges)" if report.saturated else ""
    line = (
        f"BW_3dB at theta_out={math.degrees(outgoing.theta):.1f} deg: "
        f"{report.bw_3db_hz / 1e9:.3f} GHz ({report.fractional_bw_pct:.2f}%){suffix}"
    )
    trace = zip(report.freq_hz.tolist(), report.gain_dbi.tolist())
    writers = [("squint.csv", _write_csv(["freq_hz", "gain_db"], trace))]
    if args.svg:
        from . import svgplot  # imported here: squint without --svg draws nothing

        writers.append(("squint.svg", lambda path: svgplot.line_plot(
            path, [((report.freq_hz / 1e9).tolist(), report.gain_dbi.tolist(), "gain at target")],
            "frequency (GHz)", "gain (dBi)", "beam-squint gain trace",
        )))
    if reports:
        rows = [[math.degrees(r.target.theta), r.bw_3db_hz, r.fractional_bw_pct] for r in reports]
        header = ["theta_out_deg", "bw_3db_hz", "fractional_bw_pct"]
        writers.append(("squint_vs_angle.csv", _write_csv(header, rows)))
    if reports and args.svg:
        writers.append(("squint_vs_angle.svg", lambda path: svgplot.line_plot(
            path, [([row[0] for row in rows], [row[1] / 1e9 for row in rows], "BW_3dB")],
            "theta_out (deg)", "BW_3dB (GHz)", "beam-squint bandwidth vs reflection angle",
        )))
    return [line], [], None, writers


def cmd_power(args, cfg: ScenarioConfig):
    name = cfg["power"]["profile"]
    custom_power = cfg["power"].get("per_cell_power")
    if custom_power is not None:
        tech = TechnologyProfile(name, custom_power)
    else:
        tech = PROFILES.get(name)
    if tech is None:
        raise ConfigError(f"unknown technology profile '{name}' (known: {', '.join(sorted(PROFILES))})")
    cells = cfg["power"].get("cells")
    if cells is None:
        if "aperture" in cfg:
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
    line = f"{tech.name}: {cells} cells x {tech.per_cell_power_w * 1e6:.1f} uW = {total:.3f} W"
    return [line], [], None, [_write_result("power", record, args.format)]


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
    for name, func, text in (
        ("link-budget", cmd_link_budget, "received power, sensitivity, and margin"),
        ("solve-aperture", cmd_solve_aperture, "aperture size for the required RCS"),
        ("pattern", cmd_pattern, "directivity cuts per quantization setting"),
        ("squint", cmd_squint, "gain vs frequency and the beam-squint band"),
        ("power", cmd_power, "panel control power for a technology profile"),
    ):
        sub.add_parser(name, help=text).set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    temps = []  # each artifact's temporary sibling, renamed into place once every writer has returned
    try:
        cfg = load_config(args.config)
        lines, warnings, failure, writers = args.func(args, cfg)
        args.out.mkdir(parents=True, exist_ok=True)  # once the command has computed: a refused run makes no directory
        for line in warnings:
            print(line, file=sys.stderr)
        for line in lines:
            print(line)
        for name, write in writers:
            if (args.out / name).exists() and not (args.out / name).is_file():
                raise ValueError(f"{args.out / name} exists and is not a regular file")
            temps.append(args.out / f".{name}.{os.getpid()}.tmp")
            write(temps[-1])
        for (name, _), temp in zip(writers, temps):
            temp.replace(args.out / name)
        for name, _ in writers:
            print(f"wrote {args.out / name}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except UnreachableGeometryError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:  # a failed run leaves no temporary, and so no artifact, behind
        for temp in temps:
            temp.unlink(missing_ok=True)
    if failure is not None:
        print(failure, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
