"""cli-plan: each job runs the planner CLI once in a fresh interpreter.

The configs are seeded variants of the three bundled scenarios: mostly
link-budget, solve-aperture and power, plus one pattern and one squint run
on a smaller panel in every block of eight, one of them with --svg. One link budget
per block is infeasible by construction (a 20-40 mm panel, margin below
-10 dB) and must exit 2. This is the interactive planner's experience,
dominated by import, which the in-process workloads never pay.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import subprocess
import sys
from pathlib import Path

from common import CheckError, within
from spans import NullTracer
from thz_ris_planner import (
    PROFILES,
    ApertureSpec,
    BistaticGeometry,
    Direction,
    Frequency,
    LinkScenario,
    ReceiverSpec,
    TaperSpec,
    array_factor_direct,
    element_count,
    evaluate_link,
    gain_at,
    hemisphere_power_exact,
    panel_power,
    quantize_profile,
    rcs,
    required_rcs_for_target,
    sensitivity,
    solve_aperture_size,
    squint_sweep,
    synthesize_profile,
)
from squint_sweep import BAND_FACTOR, SPAN_MARGIN

NOMINAL_BLOCK_S = 12.5  # one block in reference seconds, sizes the run
IMPORT = "thz_ris_planner.cli"
RSS_WHO = resource.RUSAGE_CHILDREN  # the largest child; the parent only generates and checks
KEEP = ("code", "sha")  # what finish() needs of each job once it is checked
CHILD = str(Path(__file__).with_name("cli_child.py"))
CHILD_TIMEOUT_S = 120.0
BLOCK = ["link-budget", "link-budget", "infeasible", "solve-aperture",
         "solve-aperture", "power", "pattern", "squint"]
DEG = math.pi / 180.0  # the config parser's factor for "deg"
BS_GAIN_DBI = 46.0
TERMINAL_GAIN_DBI = 10.0
RECEIVER = ReceiverSpec(bandwidth_hz=2e9, noise_figure_db=7.0, modulation_order=4, target_ber=1e-6)
REL_TOL = 1e-6
DB_KEYS = {"rx_power_dbm", "sensitivity_dbm", "margin_db", "spreading_term_db", "sigma_dbsm",
           "directivity_dbi", "gain_db"}
HASHED_JOBS = 11  # the first jobs, whose artifacts enter artifacts_sha256 (a timed run has at least 11)
# Panel sizes of the pattern and squint jobs, fixed so runs with different
# seeds carry the same work; one of the two writes SVGs in every block.
SIZES = {"full": {"pattern_n": 28, "squint_n": 30, "samples": 61, "angles": 4},
         "tiny": {"pattern_n": 10, "squint_n": 18, "samples": 25, "angles": 3}}


def blocks(rng: random.Random, size: str):
    while True:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        svg = rng.choice(["pattern", "squint"])
        block = []
        for kind in kinds:
            job = _MAKERS[kind](rng, SIZES[size])
            job["svg"] = kind == svg
            job["expect"] = 2 if kind == "infeasible" else 0
            job["check_seed"] = rng.getrandbits(32)
            block.append(job)
        yield block


def _link_params(rng, feasible):
    return {
        "f_ghz": round(rng.uniform(120.0, 160.0), 1),
        "d1_m": round(rng.uniform(35.0, 55.0), 2),
        "d2_m": round(rng.uniform(35.0, 55.0), 2),
        "theta_in_deg": round(rng.uniform(0.0, 20.0), 2),
        "theta_out_deg": round(rng.uniform(25.0, 50.0), 2),
        "tx_dbm": round(rng.uniform(20.0, 26.0), 2),
        "side_mm": round(rng.uniform(160.0, 240.0) if feasible else rng.uniform(20.0, 40.0), 2),
        "eta": round(rng.uniform(0.2, 0.5), 3),
        "sensitivity_dbm": -60.0 if rng.random() < 0.5 else None,
    }


def _link_sections(p):
    receiver = {"bandwidth": "2 GHz", "noise_figure": "7 dB", "modulation": "4-QAM",
                "target_ber": "1e-6"}
    if p["sensitivity_dbm"] is not None:
        receiver["sensitivity"] = f"{p['sensitivity_dbm']!r} dBm"
    return {
        "link": {
            "frequency": f"{p['f_ghz']!r} GHz",
            "d1": f"{p['d1_m']!r} m",
            "d2": f"{p['d2_m']!r} m",
            "theta_in": f"{p['theta_in_deg']!r} deg",
            "theta_out": f"{p['theta_out_deg']!r} deg",
            "tx_power": f"{p['tx_dbm']!r} dBm",
            "bs_gain": f"{BS_GAIN_DBI!r} dBi",
            "terminal_gain": f"{TERMINAL_GAIN_DBI!r} dBi",
        },
        "receiver": receiver,
        "aperture": {
            "design_frequency": f"{p['f_ghz']!r} GHz",
            "side": f"{p['side_mm']!r} mm",
            "aperture_efficiency": f"{p['eta']!r}",
        },
    }


def _small_job(sub, rng, feasible=True):
    p = _link_params(rng, feasible)
    fmt = rng.choice(["csv", "json"])
    return {"sub": sub, "params": p, "sections": _link_sections(p), "format": fmt}


def _power_job(rng, sizes):
    p = {"profile": rng.choice(sorted(PROFILES)), "f_ghz": round(rng.uniform(120.0, 160.0), 1)}
    if rng.random() < 0.5:
        p["cells"] = rng.randint(1000, 40000)
        sections = {"power": {"profile": p["profile"], "cells": str(p["cells"])}}
    else:
        p["side_mm"] = round(rng.uniform(60.0, 200.0), 2)
        sections = {
            "aperture": {"design_frequency": f"{p['f_ghz']!r} GHz", "side": f"{p['side_mm']!r} mm"},
            "power": {"profile": p["profile"]},
        }
    return {"sub": "power", "params": p, "sections": sections, "format": rng.choice(["csv", "json"])}


def _pattern_job(rng, sizes):
    p = {
        "f_ghz": round(rng.uniform(120.0, 160.0), 1),
        "n": sizes["pattern_n"],
        "theta_out_deg": round(rng.uniform(10.0, 60.0), 2),
        "phi_out_deg": round(rng.uniform(0.0, 359.0), 2),
        "edge_db": round(rng.uniform(-15.0, 0.0), 1),
        "bits": sorted(rng.sample(["1", "2", "3", "continuous"], 2)),
    }
    sections = {
        "link": {"frequency": f"{p['f_ghz']!r} GHz", "theta_in": "0 deg",
                 "theta_out": f"{p['theta_out_deg']!r} deg", "phi_out": f"{p['phi_out_deg']!r} deg"},
        "aperture": {"design_frequency": f"{p['f_ghz']!r} GHz", "n_per_side": str(p["n"])},
        "taper": {"edge_level": f"{p['edge_db']!r} dB"},
        "quantization": {"bits": ", ".join(p["bits"])},
    }
    return {"sub": "pattern", "params": p, "sections": sections, "format": "csv"}


def _squint_job(rng, sizes):
    n = sizes["squint_n"]
    lo, hi = rng.uniform(20.0, 30.0), rng.uniform(50.0, 60.0)
    count = sizes["angles"]
    angles = [round(lo + (hi - lo) * i / (count - 1), 2) for i in range(count)]
    trace = round(rng.uniform(25.0, 50.0), 2)
    f_ghz = round(rng.uniform(120.0, 160.0), 1)
    span_frac = min(0.8, SPAN_MARGIN * BAND_FACTOR / (n * math.sin(math.radians(min(angles)))))
    p = {
        "f_ghz": f_ghz,
        "n": n,
        "theta_out_deg": trace,
        "sweep_deg": angles,
        "edge_db": round(rng.uniform(-15.0, 0.0), 1),
        "span_ghz": round(span_frac * f_ghz, 2),
        "n_samples": sizes["samples"],
        "bits": rng.choice([None, 2]),
    }
    sections = {
        "link": {"frequency": f"{f_ghz!r} GHz", "theta_in": "0 deg", "theta_out": f"{trace!r} deg"},
        "aperture": {"design_frequency": f"{f_ghz!r} GHz", "n_per_side": str(n)},
        "taper": {"edge_level": f"{p['edge_db']!r} dB"},
        "sweep": {"f_span": f"{p['span_ghz']!r} GHz", "n_samples": str(p["n_samples"]),
                  "theta_out_sweep": ", ".join(f"{a!r} deg" for a in angles)},
    }
    if p["bits"] is not None:
        sections["quantization"] = {"bits": str(p["bits"])}
    return {"sub": "squint", "params": p, "sections": sections, "format": "csv"}


_MAKERS = {
    "link-budget": lambda rng, sizes: _small_job("link-budget", rng),
    "infeasible": lambda rng, sizes: _small_job("link-budget", rng, feasible=False),
    "solve-aperture": lambda rng, sizes: _small_job("solve-aperture", rng),
    "power": _power_job,
    "pattern": _pattern_job,
    "squint": _squint_job,
}


def render(sections) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def prepare(job, ctx):
    job_dir = ctx.work_dir / "jobs" / f"{ctx.job:04d}{ctx.tag}"
    job_dir.mkdir(parents=True)
    (job_dir / "config.cfg").write_text(render(job["sections"]))
    argv = ["--config", "config.cfg", "--out", "out", "--format", job["format"]]
    if job["svg"]:
        argv.append("--svg")
    argv.append(job["sub"])
    return {"dir": job_dir, "argv": argv, "sub": job["sub"]}


def execute(inputs, ctx):
    """Exit code of one CLI process; a traced run also collects its spans."""
    job_dir = inputs["dir"]
    if ctx.tracer.enabled:
        cmd = [sys.executable, CHILD, "spans.json", inputs["sub"], *inputs["argv"]]
    else:
        cmd = [sys.executable, "-m", "thz_ris_planner.cli", *inputs["argv"]]
    with open(job_dir / "stdout.txt", "wb") as out, open(job_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=job_dir, env=ctx.env)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    spans = job_dir / "spans.json"
    if ctx.tracer.enabled and spans.is_file():
        for name, start, end, parent, ok in json.loads(spans.read_text()):
            ctx.tracer.add(name, start, end, parent, ok)
    return code


def digest(job, inputs, code):
    out = inputs["dir"] / "out"
    files = sorted(out.iterdir()) if out.is_dir() else []
    stderr = (inputs["dir"] / "stderr.txt").read_text(errors="replace").strip()
    artifacts = {f.name: f.read_bytes() for f in files}
    return {
        "code": code,
        "artifacts": artifacts,
        "sha": {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()},
        "stderr": stderr.splitlines()[-1] if stderr else "",
        "ops": {},
        "keys": {},
    }


def check(job, rec) -> float:
    """Largest error in dB; raises CheckError past a tolerance."""
    if rec["code"] != job["expect"]:
        raise CheckError(f"{job['sub']} exited {rec['code']}, expected {job['expect']}: {rec['stderr']}")
    rng = random.Random(job["check_seed"])
    return _CHECKS[job["sub"]](job, rec["artifacts"], rng)


def _record(job, artifacts):
    stem = job["sub"].replace("-", "_")
    if job["format"] == "json":
        return json.loads(artifacts[f"{stem}.json"])
    header, values = _csv(artifacts[f"{stem}.csv"])
    return dict(zip(header, values[0]))


def _csv(data: bytes):
    lines = data.decode().splitlines()
    if lines[0] != "# thz-ris-planner v1":
        raise CheckError(f"unexpected CSV version line {lines[0]!r}")
    rows = [[_number(cell) for cell in line.split(",")] for line in lines[2:]]
    return lines[1].split(","), rows


def _number(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _compare(got: dict, want: dict) -> float:
    """Largest error as a dB figure; relative tolerance REL_TOL on each value."""
    worst = 0.0
    for key, ref in want.items():
        if isinstance(ref, str):
            if got[key] != ref:
                raise CheckError(f"{key}: {got[key]!r} != {ref!r}")
            continue
        rel = abs(got[key] - ref) / max(abs(ref), 1.0)
        within(rel, REL_TOL, f"{key} vs library (relative)")
        err = abs(got[key] - ref) if key in DB_KEYS else 10.0 * math.log10(1.0 + rel)
        worst = max(worst, err)
    return worst


def _scenario(p):
    f = Frequency(p["f_ghz"] * 1e9)
    geometry = BistaticGeometry(
        p["d1_m"], p["d2_m"], Direction(p["theta_in_deg"] * DEG), Direction(p["theta_out_deg"] * DEG)
    )
    scenario = LinkScenario(geometry, f, p["tx_dbm"], BS_GAIN_DBI, TERMINAL_GAIN_DBI)
    sens = p["sensitivity_dbm"] if p["sensitivity_dbm"] is not None else sensitivity(RECEIVER)
    return f, scenario, sens


def _check_link_budget(job, artifacts, rng):
    p = job["params"]
    f, scenario, sens = _scenario(p)
    panel = ApertureSpec(p["side_mm"] * 1e-3, f, None, p["eta"])
    sigma_dbsm = 10.0 * math.log10(rcs(panel, scenario.geometry.incident, scenario.geometry.outgoing))
    report = evaluate_link(scenario, sens, sigma_dbsm)
    if (report.margin_db < 0) != (job["expect"] == 2):
        raise CheckError(f"library margin {report.margin_db:.3f} dB disagrees with the expected exit code")
    return _compare(_record(job, artifacts), {
        "rx_power_dbm": report.rx_power_dbm,
        "sensitivity_dbm": report.sensitivity_dbm,
        "margin_db": report.margin_db,
        "spreading_term_db": report.spreading_term_db,
        "sigma_dbsm": sigma_dbsm,
    })


def _check_solve_aperture(job, artifacts, rng):
    p = job["params"]
    f, scenario, sens = _scenario(p)
    sigma_dbsm = required_rcs_for_target(scenario, sens)
    sigma_m2 = 10.0 ** (sigma_dbsm / 10.0)
    side = solve_aperture_size(sigma_m2, p["eta"], scenario.geometry.incident, scenario.geometry.outgoing, f)
    return _compare(_record(job, artifacts), {
        "sigma_dbsm": sigma_dbsm,
        "sigma_m2": sigma_m2,
        "d_m": side,
        "n_elements": element_count(ApertureSpec(side, f, None, p["eta"])),
    })


def _check_power(job, artifacts, rng):
    p = job["params"]
    tech = PROFILES[p["profile"]]
    cells = p.get("cells")
    if cells is None:
        cells = element_count(ApertureSpec(p["side_mm"] * 1e-3, Frequency(p["f_ghz"] * 1e9)))
    return _compare(_record(job, artifacts), {
        "profile": tech.name,
        "n_cells": cells,
        "per_cell_power_w": tech.per_cell_power_w,
        "panel_power_w": panel_power(cells, tech),
    })


def _profile(p, outgoing, bits):
    panel = ApertureSpec.from_element_grid(p["n"], Frequency(p["f_ghz"] * 1e9))
    profile = synthesize_profile(panel, Direction(0.0), outgoing, TaperSpec(p["edge_db"]))
    return panel, profile if bits is None else quantize_profile(profile, bits)


def _check_svgs(job, artifacts, names):
    if not job["svg"]:
        return
    for name in names:
        if not artifacts.get(name, b"").lstrip().startswith((b"<svg", b"<?xml")):
            raise CheckError(f"{name} missing or not SVG")


def _check_pattern(job, artifacts, rng):
    p = job["params"]
    outgoing = Direction(p["theta_out_deg"] * DEG, p["phi_out_deg"] * DEG)
    _check_svgs(job, artifacts, ["pattern.svg", "pattern_uv.svg"])
    header, rows = _csv(artifacts["pattern.csv"])
    if header != ["bits", "theta_deg", "phi_deg", "directivity_dbi"]:
        raise CheckError(f"pattern.csv header {header}")
    worst = 0.0
    for label in p["bits"]:
        mine = [r for r in rows if str(r[0]) == label]
        if not mine:
            raise CheckError(f"pattern.csv has no rows for bits={label}")
        _, profile = _profile(p, outgoing, None if label == "continuous" else int(label))
        power = hemisphere_power_exact(profile)
        peak = max(mine, key=lambda r: r[3])
        # dB comparisons only within 30 dB of the peak, away from nulls
        picks = [peak] + rng.sample([r for r in mine if r[3] >= peak[3] - 30.0], 4)
        dirs = [Direction(abs(r[1]) * DEG, r[2] * DEG) for r in picks]
        fields = array_factor_direct(profile, profile.design_freq, dirs)
        for r, e in zip(picks, fields):
            ref = 10.0 * math.log10(4.0 * math.pi * abs(e) ** 2 / power)
            worst = max(worst, _compare({"directivity_dbi": r[3]}, {"directivity_dbi": ref}))
    return worst


def _check_squint(job, artifacts, rng):
    p = job["params"]
    span = p["span_ghz"] * 1e9
    _check_svgs(job, artifacts, ["squint.svg", "squint_vs_angle.svg"])
    trace = Direction(p["theta_out_deg"] * DEG)
    panel, profile = _profile(p, trace, p["bits"])
    _, rows = _csv(artifacts["squint.csv"])
    worst = 0.0
    for freq, gain in rng.sample(rows, 3):
        ref = gain_at(profile, Frequency(freq), trace)
        worst = max(worst, _compare({"gain_db": gain}, {"gain_db": ref}))
    _, rows = _csv(artifacts["squint_vs_angle.csv"])
    if len(rows) != len(p["sweep_deg"]) or not all(0.0 < r[1] <= span for r in rows):
        raise CheckError(f"squint_vs_angle.csv bands outside (0, span]: {rows}")
    i = rng.randrange(len(rows))
    ref = squint_sweep(panel, Direction(0.0), Direction(p["sweep_deg"][i] * DEG),
                       TaperSpec(p["edge_db"]), p["bits"], span, p["n_samples"])
    return max(worst, _compare({"bw_3db_hz": rows[i][1]}, {"bw_3db_hz": ref.bw_3db_hz}))


_CHECKS = {
    "link-budget": _check_link_budget,
    "solve-aperture": _check_solve_aperture,
    "power": _check_power,
    "pattern": _check_pattern,
    "squint": _check_squint,
}


def finish(ctx, executed):
    """Determinism check and artifact digest, run after the timed loop.

    executed: (job index, job, kept fields or None) of every checked job, in
    order. Re-runs the first pattern or squint job (else the first job)
    untimed and compares its artifacts byte for byte through their sha256;
    returns (fields for the run record, [(job index, failure message)]).
    """
    combined = hashlib.sha256()
    for j, job, kept in executed[:HASHED_JOBS]:
        for name, sha in sorted((kept or {}).get("sha", {}).items()):
            combined.update(f"{j}/{name}:{sha}\n".encode())
    j, job, kept = next((e for e in executed if e[1]["sub"] in ("pattern", "squint")), executed[0])
    tracer, tag = ctx.tracer, ctx.tag
    ctx.tracer, ctx.tag, ctx.job = NullTracer(), "d", j
    try:
        inputs = prepare(job, ctx)
        again = digest(job, inputs, execute(inputs, ctx))
    finally:
        ctx.tracer, ctx.tag = tracer, tag
    same = kept is not None and again["sha"] == kept["sha"] and again["code"] == kept["code"]
    fields = {
        "artifacts_sha256": combined.hexdigest(),
        "artifacts_jobs": min(HASHED_JOBS, len(executed)),
        "determinism_job": j,
        "determinism_ok": same,
    }
    return fields, [] if same else [(j, f"job {j} artifacts differ between two runs of one config")]
