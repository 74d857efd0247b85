"""Every real scalar the library takes goes through one rule (core._finite).

Each case below feeds one hostile scalar to one parameter of a public
constructor or function, with every other input nominal. The call must give
finite numbers, or the documented -inf of an exact null at the horizon, or
raise ValueError with a one-line message: never TypeError, OverflowError, a
warning, NaN or inf.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thz_ris_planner.aperture import ApertureSpec, EfficiencyLedger, rcs, solve_aperture_size
from thz_ris_planner.core import BROADSIDE, BistaticGeometry, Direction, Frequency, Value
from thz_ris_planner.link_budget import (
    LinkScenario,
    ReceiverSpec,
    evaluate_link,
    noise_floor_dbm,
    received_power,
    required_rcs_for_target,
    required_snr_db,
    sensitivity,
)
from thz_ris_planner.power import TechnologyProfile, panel_power
from thz_ris_planner.radiation import (
    directivity,
    gain_at,
    hemisphere_power_exact,
    principal_plane_cut,
    quantized_cuts,
    squint_sweep,
)
from thz_ris_planner.surface import PhaseProfile, TaperSpec, synthesize_profile

F140 = Frequency.from_ghz(140)
OUT30 = Direction.from_degrees(30.0)
PANEL = ApertureSpec.from_element_grid(4, F140)
PROFILE = synthesize_profile(PANEL, BROADSIDE, OUT30, TaperSpec(-10.0))
GEOMETRY = BistaticGeometry(50.0, 50.0, BROADSIDE, OUT30)
SCENARIO = LinkScenario(GEOMETRY, F140, 20.0, 46.0, 10.0)


def _link(s):
    return s, received_power(s, 10.0), required_rcs_for_target(s, -60.0)


def _receiver(r):
    return r, sensitivity(r)


def _geometry(g):
    return g, _link(LinkScenario(g, F140, 20.0, 46.0, 10.0))


CASES = {
    "Frequency": lambda x: (f := Frequency(x), f.wavelength_m),
    "Frequency.from_ghz": lambda x: (f := Frequency.from_ghz(x), f.wavelength_m),
    "Direction.theta": lambda x: Direction(x).transverse(),
    "Direction.phi": lambda x: Direction(0.3, x).transverse(),
    "Direction.from_degrees.theta": lambda x: Direction.from_degrees(x).transverse(),
    "Direction.from_degrees.phi": lambda x: Direction.from_degrees(30.0, x).transverse(),
    "BistaticGeometry.d1": lambda x: _geometry(BistaticGeometry(x, 50.0, BROADSIDE, OUT30)),
    "BistaticGeometry.d2": lambda x: _geometry(BistaticGeometry(50.0, x, BROADSIDE, OUT30)),
    "ApertureSpec.side": lambda x: rcs(ApertureSpec(x, F140), BROADSIDE, OUT30),
    "ApertureSpec.cell_pitch": lambda x: rcs(ApertureSpec(0.01, F140, x), BROADSIDE, OUT30),
    "ApertureSpec.efficiency": lambda x: rcs(ApertureSpec(0.01, F140, None, x), BROADSIDE, OUT30),
    # 2**70 cells per side: a str pitch must be refused before n_per_side * pitch repeats it
    "ApertureSpec.from_element_grid.cell_pitch": lambda x: ApertureSpec.from_element_grid(2**70, F140, x),
    "solve_aperture_size.sigma": lambda x: solve_aperture_size(x, 0.5, BROADSIDE, OUT30, F140),
    "solve_aperture_size.eta": lambda x: solve_aperture_size(1.0, x, BROADSIDE, OUT30, F140),
    "EfficiencyLedger.passive": lambda x: (e := EfficiencyLedger(x), e.resulting_eff),
    "EfficiencyLedger.insertion_loss": lambda x: (e := EfficiencyLedger(0.5, x), e.resulting_eff),
    "LinkScenario.tx_power": lambda x: _link(LinkScenario(GEOMETRY, F140, x, 46.0, 10.0)),
    "LinkScenario.bs_gain": lambda x: _link(LinkScenario(GEOMETRY, F140, 20.0, x, 10.0)),
    "LinkScenario.terminal_gain": lambda x: _link(LinkScenario(GEOMETRY, F140, 20.0, 46.0, x)),
    "ReceiverSpec.bandwidth": lambda x: _receiver(ReceiverSpec(x, 7.0)),
    "ReceiverSpec.noise_figure": lambda x: _receiver(ReceiverSpec(2e9, x)),
    "ReceiverSpec.target_ber": lambda x: _receiver(ReceiverSpec(2e9, 7.0, 16, x)),
    "ReceiverSpec.implementation_loss": lambda x: _receiver(ReceiverSpec(2e9, 7.0, 4, 1e-6, x)),
    "noise_floor_dbm.bandwidth": lambda x: noise_floor_dbm(x, 7.0),
    "noise_floor_dbm.noise_figure": lambda x: noise_floor_dbm(2e9, x),
    "required_snr_db.target_ber": lambda x: required_snr_db(4, x),
    "received_power.sigma": lambda x: received_power(SCENARIO, x),
    "required_rcs_for_target.target": lambda x: required_rcs_for_target(SCENARIO, x),
    "evaluate_link.sensitivity": lambda x: (r := evaluate_link(SCENARIO, x, 10.0), r.margin_db),
    "evaluate_link.sigma": lambda x: (r := evaluate_link(SCENARIO, -60.0, x), r.margin_db),
    "TechnologyProfile.per_cell_power": lambda x: panel_power(10, TechnologyProfile("lab", x)),
    "TaperSpec.edge_level": lambda x: synthesize_profile(PANEL, BROADSIDE, OUT30, TaperSpec(x)),
    "PhaseProfile.cell_pitch": lambda x: (p := PhaseProfile(np.ones((2, 2)), F140, x), p.x_m, p.y_m),
    "principal_plane_cut.theta_step": lambda x: principal_plane_cut(PROFILE, theta_step=x),
    "principal_plane_cut.total_power": lambda x: principal_plane_cut(PROFILE, total_power=x),
    "principal_plane_cut.phi": lambda x: principal_plane_cut(PROFILE, phi=x),
    "quantized_cuts.phi": lambda x: quantized_cuts(PROFILE, [1, None], x),
    "directivity.grid_resolution": lambda x: directivity(PROFILE, x),
    "gain_at.frequency": lambda x: gain_at(PROFILE, Frequency(x), OUT30),
    "gain_at.theta_deg": lambda x: gain_at(PROFILE, F140, Direction.from_degrees(x)),
    "hemisphere_power_exact.frequency": lambda x: hemisphere_power_exact(PROFILE, Frequency(x)),
    "squint_sweep.f_span": lambda x: squint_sweep(PANEL, BROADSIDE, OUT30, f_span_hz=x, n_samples=11),
    "squint_sweep.theta_deg": lambda x: squint_sweep(PANEL, BROADSIDE, Direction.from_degrees(x), n_samples=11),
}
# directivities, where an exact null (the element factor at theta = 90 deg) reads -inf
NULL_IS_DOCUMENTED = {
    "principal_plane_cut.theta_step", "principal_plane_cut.total_power", "principal_plane_cut.phi",
    "quantized_cuts.phi", "directivity.grid_resolution", "gain_at.theta_deg",
}


def _numbers(result):
    """Every number a result holds: record fields, tuple items and array entries, complex as two reals."""
    if isinstance(result, Value):
        result = result._fields()
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, np.ndarray):
        yield from _numbers(result.ravel().tolist())
    elif isinstance(result, complex):
        yield from (result.real, result.imag)
    elif not isinstance(result, str):  # a technology name
        yield result


def _bad_numbers(case, result) -> list:
    """The numbers of result that are neither finite nor a documented null; an int past the float range is one."""
    null_ok = case in NULL_IS_DOCUMENTED
    return [v for v in _numbers(result) if not (-math.inf < v < math.inf or (null_ok and v == -math.inf))]


# magnitudes below 0.01 come from the explicit examples: a random cut step or
# grid resolution between 1e-7 and 1e-2 is a valid, slow and large run
HOSTILE = st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: abs(v) >= 0.01 and not v.is_integer())


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(x=HOSTILE)
@example(x=math.nan)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=0)
@example(x=0.0)
@example(x=-1.0)
@example(x=-1e300)
@example(x=1e300)
@example(x=1e-300)
@example(x=1e-320)
@example(x=True)
@example(x=False)
@example(x=0.5)
@example(x=10**400)
@example(x=-(10**400))
@example(x="1")
@example(x=None)
@example(x=1j)
@example(x=[1.0])
def test_a_real_scalar_gives_finite_numbers_or_a_one_line_value_error(case, x):
    try:
        result = CASES[case](x)
    except ValueError as refusal:
        message = str(refusal)
        assert message and "\n" not in message, (case, x, message)
        return
    assert not _bad_numbers(case, result), (case, x, _bad_numbers(case, result)[:3])
