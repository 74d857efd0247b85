"""squint-sweep: one squint_vs_angle call per job on a seeded panel.

It is the one-direction, many-frequencies use of the field, where the
J1-kernel power sum is most of the time. Every angle of a job reuses the
same (lattice, frequency grid), so this is where a power-kernel cache should
win, while pattern-cuts is where it must not cost.
"""

from __future__ import annotations

import math
import random

import numpy as np

from common import CheckError, within
from thz_ris_planner import (
    BROADSIDE,
    ApertureSpec,
    Direction,
    Frequency,
    TaperSpec,
    gain_at,
    quantize_profile,
    squint_vs_angle,
    synthesize_profile,
)

NOMINAL_BLOCK_S = 3.9  # one block in reference seconds, sizes the run
IMPORT = "thz_ris_planner"
# (cells per side, frequency samples, angles) of the five jobs in every
# block. Shapes are fixed so runs with different seeds carry the same work;
# the seed draws their order, f0, angles, azimuth, taper and bits. The
# power-kernel work, (2n-1)^2 x samples x angles, is about 4M, 9M (three
# shapes within 4% of each other) and 20M evaluations, so the median and the
# tail job fall among many jobs of similar time.
BLOCK_SHAPES = {
    "full": ((34, 81, 11), (46, 161, 7), (52, 101, 9), (56, 121, 6), (70, 81, 13)),
    "tiny": ((20, 21, 2), (24, 25, 3), (24, 29, 3), (24, 33, 2), (28, 21, 4)),
}
# The fixed-target 3 dB band is close to 2.0*f0/(n*sin(theta)) for the
# tapers drawn here; the span covers 2.5 times a slightly wider estimate at
# the smallest angle, so both crossings of every angle fall inside the band.
BAND_FACTOR = 2.2
SPAN_MARGIN = 2.5
GAIN_CHECKS_PER_ANGLE = 3


def blocks(rng: random.Random, size: str):
    while True:
        shapes = list(BLOCK_SHAPES[size])
        bits = [None, None, None, 2, 3]
        rng.shuffle(shapes)
        rng.shuffle(bits)
        yield [_job(rng, n, ns, na, b) for (n, ns, na), b in zip(shapes, bits)]


def _job(rng, n, n_samples, n_angles, bits):
    theta_lo = rng.uniform(20.0, 30.0)
    theta_hi = rng.uniform(55.0, 65.0)
    span_frac = min(0.8, SPAN_MARGIN * BAND_FACTOR / (n * math.sin(math.radians(theta_lo))))
    return {
        "n": n,
        "f0_hz": rng.uniform(100e9, 300e9),
        "span_frac": span_frac,
        "n_samples": n_samples,
        "theta_deg": [float(t) for t in np.linspace(theta_lo, theta_hi, n_angles)],
        "phi_deg": rng.uniform(0.0, 360.0),
        "edge_db": rng.uniform(-15.0, 0.0),
        "bits": bits,
        "check_seed": rng.getrandbits(32),
    }


def prepare(job, ctx):
    f0 = Frequency(job["f0_hz"])
    return {
        "panel": ApertureSpec.from_element_grid(job["n"], f0),
        "targets": [Direction.from_degrees(t, job["phi_deg"]) for t in job["theta_deg"]],
        "taper": TaperSpec(job["edge_db"]),
        "bits": job["bits"],
        "span_hz": job["span_frac"] * f0.hertz,
        "n_samples": job["n_samples"],
    }


def execute(inputs, ctx):
    return ctx.tracer.call(
        "radiation.squint_vs_angle", squint_vs_angle,
        inputs["panel"], BROADSIDE, inputs["targets"], inputs["taper"],
        inputs["bits"], inputs["span_hz"], inputs["n_samples"],
    )


def digest(job, inputs, reports):
    rng = random.Random(job["check_seed"])
    freqs = reports[0].freq_hz
    samples = []
    for a, r in enumerate(reports):
        for i in rng.sample(range(freqs.size), GAIN_CHECKS_PER_ANGLE):
            samples.append((a, float(freqs[i]), float(r.gain_dbi[i])))
    n = inputs["panel"].n_per_side
    evals = freqs.size * len(reports)
    pitch = inputs["panel"].cell_pitch_m
    return {
        "inputs": inputs,
        "bw_hz": [r.bw_3db_hz for r in reports],
        "samples": samples,
        "ops": {
            "radiation.squint_vs_angle.cell_freq_evals": n * n * evals,
            "radiation.squint_vs_angle.lag_freq_evals": (2 * n - 1) ** 2 * evals,
        },
        "keys": {
            "radiation.squint_vs_angle": [(n, n, pitch, float(f)) for _ in reports for f in freqs],
        },
    }


def check(job, rec) -> float:
    """Largest error in dB; raises CheckError past a tolerance."""
    inputs = rec["inputs"]
    for bw in rec["bw_hz"]:
        if not 0.0 < bw <= inputs["span_hz"]:
            raise CheckError(f"3 dB band {bw:.6g} Hz outside (0, {inputs['span_hz']:.6g}]")
    profiles = []
    for target in inputs["targets"]:
        p = synthesize_profile(inputs["panel"], BROADSIDE, target, inputs["taper"])
        profiles.append(p if inputs["bits"] is None else quantize_profile(p, inputs["bits"]))
    worst = 0.0
    for a, f, gain in rec["samples"]:
        ref = gain_at(profiles[a], Frequency(f), inputs["targets"][a])
        worst = max(worst, within(abs(ref - gain), 1e-6, "squint gain vs gain_at (dB)"))
    return worst
