"""pattern-cuts: radiate one seeded panel per job at its design frequency.

A job synthesises the steering profile, quantises it (unless continuous),
integrates the exact hemisphere power, takes a 0.05 deg principal-plane cut
normalised by that power, evaluates the FFT (u, v) lattice and integrates
the quadrature directivity. It is the many-directions, one-frequency use of
the field kernel and the quadrature; every job draws a new (lattice, k), so
a power-kernel cache finds almost nothing to reuse here.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from common import within
from thz_ris_planner import (
    BROADSIDE,
    SPEED_OF_LIGHT,
    ApertureSpec,
    Direction,
    Frequency,
    TaperSpec,
    array_factor_direct,
    array_factor_fft,
    directivity,
    hemisphere_power_exact,
    principal_plane_cut,
    quantize_profile,
    synthesize_profile,
)

NOMINAL_BLOCK_S = 15.0  # one block in reference seconds, sizes the run
IMPORT = "thz_ris_planner"
CUT_STEP = math.radians(0.05)
# (cells per side, steering band) of the six jobs of each block; blocks
# take the plans in turn. The plans are fixed so runs with different seeds
# carry the same work; the seed draws the job order, the frequency, taper,
# bits and azimuth, and the steering within its band, BAND_DEG wide, of
# 0-60 degrees. The directivity grid, and so a job's time, grows by up to
# 2x with steering inside the first band, where the grid switches to its
# broadside form at a size-dependent angle. So only the 24- and 64-cell
# panels steer there, and the seven 48-cell jobs of two blocks, in bands
# 1-5, take similar times: the median and the tail job fall among them.
PLANS = {
    "full": (((24, 0), (48, 1), (48, 2), (48, 3), (64, 4), (128, 5)),
             ((48, 1), (48, 2), (48, 4), (48, 5), (64, 0), (128, 3))),
    "tiny": (((32, 0), (40, 1), (40, 2), (40, 3), (48, 4), (56, 5)),
             ((40, 1), (40, 2), (40, 4), (40, 5), (48, 0), (56, 3))),
}
BAND_DEG = 10.0
CUT_CHECKS = 16
FFT_CHECKS = 8
CHECK_FLOOR_DB = 60.0  # compare dB values only within this range of the peak


def blocks(rng: random.Random, size: str):
    for plan in itertools.cycle(PLANS[size]):
        bits = [1, 2, 3, None, rng.choice([1, 2, 3, None]), rng.choice([1, 2, 3, None])]
        rng.shuffle(bits)
        block = [
            {
                "n": n,
                "f_hz": rng.uniform(100e9, 300e9),
                "theta_deg": BAND_DEG * (band + rng.random()),
                "phi_deg": rng.uniform(0.0, 360.0),
                "edge_db": rng.uniform(-15.0, 0.0),
                "bits": bit,
                "check_seed": rng.getrandbits(32),
            }
            for (n, band), bit in zip(plan, bits)
        ]
        rng.shuffle(block)
        yield block


def prepare(job, ctx):
    return {
        "panel": ApertureSpec.from_element_grid(job["n"], Frequency(job["f_hz"])),
        "outgoing": Direction.from_degrees(job["theta_deg"], job["phi_deg"]),
        "taper": TaperSpec(job["edge_db"]),
        "bits": job["bits"],
    }


def execute(inputs, ctx):
    call = ctx.tracer.call
    p = call("surface.synthesize_profile", synthesize_profile,
             inputs["panel"], BROADSIDE, inputs["outgoing"], inputs["taper"])
    if inputs["bits"] is not None:
        p = call("surface.quantize_profile", quantize_profile, p, inputs["bits"])
    power = call("radiation.hemisphere_power_exact", hemisphere_power_exact, p)
    cut = call("radiation.principal_plane_cut", principal_plane_cut,
               p, None, inputs["outgoing"].phi, CUT_STEP, total_power=power)
    uv = call("radiation.array_factor_fft", array_factor_fft, p, p.design_freq)
    pattern = call("radiation.directivity", directivity, p)
    return p, power, cut, uv, pattern


def digest(job, inputs, raw):
    """Keep what the checks need; drop the large arrays before the next job."""
    p, _, (theta_deg, dbi), uv, pattern = raw
    rng = random.Random(job["check_seed"])
    mag = np.abs(uv.field)
    visible = np.argwhere(~np.isnan(mag))
    picks = [tuple(visible[rng.randrange(len(visible))]) for _ in range(FFT_CHECKS)]
    picks.append(np.unravel_index(int(np.nanargmax(mag)), mag.shape))
    n = p.rows * p.cols
    k = 2.0 * math.pi * p.design_freq.hertz / SPEED_OF_LIGHT
    return {
        "profile": p,
        "cut": (theta_deg, dbi),
        "fft": [(float(uv.ax1[i]), float(uv.ax2[j]), complex(uv.field[i, j])) for i, j in picks],
        "fft_peak": float(np.nanmax(mag)),
        "quadrature_power": pattern.total_power,
        "ops": {
            "radiation.principal_plane_cut.cell_dir_evals": n * theta_deg.size,
            "radiation.directivity.cell_grid_evals": n * pattern.ax1.size * pattern.ax2.size,
            "radiation.hemisphere_power_exact.lag_evals": (2 * p.rows - 1) * (2 * p.cols - 1),
            "radiation.array_factor_fft.lattice_pts": uv.ax1.size * uv.ax2.size,
        },
        "keys": {
            "radiation.hemisphere_power_exact": [(p.rows, p.cols, p.cell_pitch_m, k)],
        },
    }


def check(job, rec) -> float:
    """Largest error in dB; raises CheckError past a tolerance."""
    p = rec["profile"]
    f = p.design_freq
    rng = random.Random(job["check_seed"] + 1)
    worst = 0.0

    # cut samples against the direct sum and the closed-form power
    theta_deg, dbi = rec["cut"]
    peak = int(np.argmax(dbi))
    phi = math.radians(job["phi_deg"])
    eligible = np.flatnonzero(dbi >= dbi[peak] - CHECK_FLOOR_DB)
    idx = [peak] + [int(i) for i in rng.sample(list(eligible), min(CUT_CHECKS, eligible.size))]
    dirs = []
    for i in idx:
        t = math.radians(theta_deg[i])
        dirs.append(Direction(abs(t), phi if t >= 0 else phi + math.pi))
    power = hemisphere_power_exact(p, f)
    ref = 10.0 * np.log10(4.0 * math.pi * np.abs(array_factor_direct(p, f, dirs)) ** 2 / power)
    worst = max(worst, within(float(np.max(np.abs(ref - dbi[idx]))), 1e-6, "cut vs direct (dB)"))

    # FFT lattice points against the direct sum, relative to the lattice peak
    dirs = [Direction(math.asin(min(1.0, math.hypot(u, v))), math.atan2(v, u)) for u, v, _ in rec["fft"]]
    direct = array_factor_direct(p, f, dirs)
    rel = max(abs(e - d) for (_, _, e), d in zip(rec["fft"], direct)) / rec["fft_peak"]
    within(rel, 1e-9, "FFT vs direct (relative)")
    worst = max(worst, 20.0 * math.log10(1.0 + rel))

    # quadrature power against the closed form
    err = abs(10.0 * math.log10(rec["quadrature_power"] / power))
    return max(worst, within(err, 0.05, "quadrature vs closed-form power (dB)"))
