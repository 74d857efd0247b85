"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line with the measured values
(run pytest with -s or check captured output). Tolerances are pinned here and
nowhere else.
"""

import math
import time

import numpy as np
import pytest

from thz_ris_planner.aperture import (
    ApertureSpec,
    EfficiencyLedger,
    element_count,
    pec_bound_check,
    rcs,
    solve_aperture_size,
)
from thz_ris_planner.core import BROADSIDE, BistaticGeometry, Direction, Frequency
from thz_ris_planner.link_budget import (
    LinkScenario,
    ReceiverSpec,
    received_power,
    required_rcs,
    required_rcs_for_target,
    sensitivity,
)
from thz_ris_planner.radiation import (
    array_factor_direct,
    array_factor_fft,
    directivity,
    quantization_loss,
    squint_vs_angle,
)
from thz_ris_planner.surface import PhaseProfile, TaperSpec, synthesize_profile

from conftest import gradient_phasor

F140 = Frequency.from_ghz(140)


def _verdict(n, ok, detail, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}{stamp}")
    return ok


def reference_scenario():
    geo = BistaticGeometry(50.0, 50.0, Direction.from_degrees(0), Direction.from_degrees(45))
    return LinkScenario(geo, F140, 20.0, 46.0, 10.0)


def test_criterion_1_aperture_solve():
    t0 = time.perf_counter()
    scenario = reference_scenario()
    sigma_dbsm = required_rcs_for_target(scenario, -60.0)  # design sensitivity
    sigma_m2 = 10.0 ** (sigma_dbsm / 10.0)
    side = solve_aperture_size(
        sigma_m2, 0.25, scenario.geometry.incident, scenario.geometry.outgoing, F140
    )
    panel = ApertureSpec(side, F140, aperture_efficiency=0.25)
    n = element_count(panel)
    elapsed = time.perf_counter() - t0

    ok_d = 0.105 <= side <= 0.112
    ok_n = abs(n - 10540) / 10540 <= 0.03
    ok_t = elapsed < 1.0
    ok = _verdict(
        1,
        ok_d and ok_n and ok_t,
        f"D = {side * 1e3:.1f} mm (want 105..112), N = {n} ({(n - 10540) / 105.40:+.1f}% of 10540, want within 3%)",
        elapsed,
    )
    assert ok


def test_criterion_2_sensitivity_reconstruction():
    t0 = time.perf_counter()
    spec = ReceiverSpec(bandwidth_hz=2e9, noise_figure_db=7.0, modulation_order=4, target_ber=1e-6)
    value = sensitivity(spec)
    elapsed = time.perf_counter() - t0
    ok = _verdict(
        2,
        abs(value - (-60.0)) <= 1.0 and elapsed < 1.0,
        f"sensitivity = {value:.2f} dBm (want -60 +- 1)",
        elapsed,
    )
    assert ok


def test_criterion_3_beam_squint_bandwidths():
    t0 = time.perf_counter()
    panel = ApertureSpec(0.080, F140)
    taper = TaperSpec(-10.0)
    angles = list(range(10, 71, 5))
    reports = squint_vs_angle(
        panel,
        BROADSIDE,
        [Direction.from_degrees(t) for t in angles],
        taper,
        f_span_hz=40e9,
        n_samples=161,
    )
    by_angle = dict(zip(angles, reports))
    bw45 = by_angle[45].bw_3db_hz / 1e9
    bw60 = by_angle[60].bw_3db_hz / 1e9
    bws = [r.bw_3db_hz for r in reports]
    elapsed = time.perf_counter() - t0

    ok_45 = abs(bw45 - 4.2) / 4.2 <= 0.25
    ok_60 = abs(bw60 - 2.4) / 2.4 <= 0.25
    ok_trend = all(a > b for a, b in zip(bws, bws[1:]))
    ok_t = elapsed < 300.0
    ok = _verdict(
        3,
        ok_45 and ok_60 and ok_trend and ok_t,
        f"BW(45deg) = {bw45:.2f} GHz (want 4.2 +- 25%: {'ok' if ok_45 else 'out'}), "
        f"BW(60deg) = {bw60:.2f} GHz (want 2.4 +- 25%: {'ok' if ok_60 else 'out'}), "
        f"strictly decreasing over 10..70 deg: {'ok' if ok_trend else 'broken'}",
        elapsed,
    )
    assert ok


def test_criterion_4_quantization_losses():
    t0 = time.perf_counter()
    panel = ApertureSpec.from_element_grid(100, F140)
    report = quantization_loss(panel, Direction.from_degrees(45), [1, 2, 3], TaperSpec(-10.0))
    elapsed = time.perf_counter() - t0

    windows = {1: (3.9, 0.5), 2: (0.9, 0.3), 3: (0.22, 0.15)}
    checks, parts = [], []
    for bits, loss in zip(report.bits, report.losses_db):
        center, tol = windows[bits]
        delta = math.pi / 2**bits
        law = -20.0 * math.log10(math.sin(delta) / delta)
        inside = abs(loss - center) <= tol and abs(loss - law) <= tol
        checks.append(inside)
        parts.append(f"{bits}-bit {loss:.2f} dB (want {center} +- {tol}, law {law:.2f})")
    ok = _verdict(4, all(checks) and elapsed < 120.0, "; ".join(parts), elapsed)
    assert ok


def test_criterion_5_directivity_anchor():
    t0 = time.perf_counter()
    panel = ApertureSpec.from_element_grid(100, F140)
    profile = synthesize_profile(panel, BROADSIDE, BROADSIDE)
    peak, _ = directivity(profile).peak_directivity()
    elapsed = time.perf_counter() - t0
    ok = _verdict(
        5,
        abs(peak - 44.97) <= 0.3 and elapsed < 60.0,
        f"uniform broadside peak = {peak:.3f} dBi (want 44.97 +- 0.3)",
        elapsed,
    )
    assert ok


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (8, 17, 100):
        panel = ApertureSpec.from_element_grid(n, F140)
        base = gradient_phasor(  # a random wrapped gradient, drawn as an oblique synthesis would program it
            panel,
            Direction(rng.uniform(0, 0.5), rng.uniform(0, 2 * math.pi)),
            Direction(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi)),
        )
        amps = rng.uniform(0.1, 1.0, (n, n))
        profile = PhaseProfile(
            amps * np.exp(1j * np.angle(base)),
            F140,
            panel.cell_pitch_m,
        )
        for f in (F140, Frequency(0.9 * F140.hertz), Frequency(1.1 * F140.hertz)):
            pattern = array_factor_fft(profile, f, uv_oversample=2)
            uu, vv = np.meshgrid(pattern.ax1, pattern.ax2, indexing="ij")
            inside = np.argwhere(uu**2 + vv**2 < 1.0 - 1e-9)
            pick = inside[rng.choice(len(inside), 30, replace=False)]
            dirs = [
                Direction(
                    math.asin(math.hypot(pattern.ax1[i], pattern.ax2[j])),
                    math.atan2(pattern.ax2[j], pattern.ax1[i]),
                )
                for i, j in pick
            ]
            fft_vals = np.array([pattern.field[i, j] for i, j in pick])
            direct = array_factor_direct(profile, f, dirs)
            denom = np.maximum(np.abs(direct), 1e-12 * np.max(np.abs(direct)))
            worst = max(worst, float(np.max(np.abs(fft_vals - direct) / denom)))
    elapsed = time.perf_counter() - t0
    ok = _verdict(
        6,
        worst < 1e-9 and elapsed < 60.0,
        f"max relative error FFT vs direct = {worst:.2e} (want < 1e-9)",
        elapsed,
    )
    assert ok


def test_criterion_7_inverse_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_rt = 0.0
    for _ in range(1000):
        side = rng.uniform(0.01, 1.0)
        eta = rng.uniform(0.05, 1.0)
        f = Frequency(rng.uniform(1e9, 1e12))
        inc = Direction(rng.uniform(0.0, 1.4))
        out = Direction(rng.uniform(0.0, 1.4))
        sigma = rcs(ApertureSpec(side, f, aperture_efficiency=eta), inc, out)
        back = solve_aperture_size(sigma, eta, inc, out, f)
        worst_rt = max(worst_rt, abs(back - side) / side)

    worst_budget = 0.0
    for _ in range(200):
        geo = BistaticGeometry(
            rng.uniform(1, 500), rng.uniform(1, 500),
            Direction(rng.uniform(0, 1.5)), Direction(rng.uniform(0, 1.5)),
        )
        s = LinkScenario(geo, Frequency(rng.uniform(1e9, 1e12)),
                         rng.uniform(-10, 40), rng.uniform(0, 60), rng.uniform(0, 30))
        r = ReceiverSpec(rng.uniform(1e6, 1e10), rng.uniform(0, 15))
        residual = received_power(s, required_rcs(s, r)) - sensitivity(r)
        worst_budget = max(worst_budget, abs(residual))
    elapsed = time.perf_counter() - t0
    ok = _verdict(
        7,
        worst_rt < 1e-9 and worst_budget < 1e-9 and elapsed < 1.0,
        f"rcs round-trip rel err = {worst_rt:.2e}, budget closure = {worst_budget:.2e} dB (both < 1e-9)",
        elapsed,
    )
    assert ok


def test_criterion_8_pec_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    all_bounded = True
    for _ in range(500):
        eta = rng.uniform(1e-9, 1.0)
        panel = ApertureSpec(rng.uniform(0.01, 0.5), F140, aperture_efficiency=eta)
        inc = Direction(rng.uniform(0, math.pi / 2))
        out = Direction(rng.uniform(0, math.pi / 2))
        all_bounded &= pec_bound_check(panel, inc, out)
    elapsed = time.perf_counter() - t0
    ok = _verdict(
        8,
        all_bounded and elapsed < 1.0,
        "randomized eta never exceeds the PEC specular limit",
        elapsed,
    )
    assert ok


def test_criterion_9_efficiency_ledger():
    t0 = time.perf_counter()
    ledger = EfficiencyLedger(passive_aperture_eff=0.5, insertion_loss_db=3.0)
    eff = ledger.resulting_eff
    elapsed = time.perf_counter() - t0
    ok = _verdict(
        9,
        abs(eff - 0.25) < 0.005 and elapsed < 1.0,
        f"0.5 passive x 3 dB insertion = {eff * 100:.2f}% (want 25% +- 0.5 pp)",
        elapsed,
    )
    assert ok
