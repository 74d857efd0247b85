"""Every real scalar the library takes goes through one rule (core._finite), every integer through one more.

Each case below feeds one hostile scalar to one parameter of a public
constructor or function, with every other input nominal. The call must give
finite numbers, or the documented -inf of an exact null at the horizon, or
raise ValueError with a one-line message: never TypeError, OverflowError, a
warning, NaN or inf. An integer parameter (core._integer) must give the bits
the Python int of its value gives, whatever the integer's type, or refuse it
in one line of its own text.
"""

import math
import pickle
import warnings

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
from thz_ris_planner.power import PROFILES, TechnologyProfile, panel_power
from thz_ris_planner.radiation import (
    array_factor_fft,
    directivity,
    gain_at,
    hemisphere_power_exact,
    principal_plane_cut,
    quantization_loss,
    quantized_cuts,
    squint_sweep,
)
from thz_ris_planner.surface import PhaseProfile, TaperSpec, quantization_levels, quantize_profile, synthesize_profile

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


# each integer parameter: its call, and the texts its route refuses with. An
# integer too large for the route's arrays or floats is refused by the memory
# guard or the overflow check that follows the rule, each in one line.
INTEGER_CASES = {
    "ApertureSpec.from_element_grid.n_per_side": (
        lambda n: (a := ApertureSpec.from_element_grid(n, F140), a.n_per_side), ("n_per_side must be",)),
    "quantization_levels.bits": (quantization_levels, ("quantization bits must be",)),
    "quantize_profile.bits": (lambda b: quantize_profile(PROFILE, b), ("quantization bits must be",)),
    "quantized_cuts.bits": (lambda b: quantized_cuts(PROFILE, [b, None], 0.0), ("quantization bits must be",)),
    "quantization_loss.bits": (lambda b: quantization_loss(PANEL, OUT30, [b]), ("quantization bits must be",)),
    "squint_sweep.bits": (lambda b: squint_sweep(PANEL, BROADSIDE, OUT30, bits=b, n_samples=11),
                          ("quantization bits must be",)),
    "array_factor_fft.uv_oversample": (
        lambda s: array_factor_fft(PROFILE, F140, s), ("uv_oversample must be", "the (u, v) lattice would need")),
    "squint_sweep.n_samples": (lambda n: squint_sweep(PANEL, BROADSIDE, OUT30, n_samples=n), ("n_samples must be",)),
    "panel_power.n_cells": (
        lambda n: panel_power(n, PROFILES["pin_diode"]), ("a panel needs a whole number", "panel power overflows")),
    "ReceiverSpec.modulation_order": (
        lambda m: _receiver(ReceiverSpec(2e9, 7.0, m)), ("unsupported modulation order",)),
    "required_snr_db.modulation_order": (lambda m: required_snr_db(m, 1e-6), ("unsupported modulation order",)),
}
# where bits=None asks for the continuous profile
NONE_IS_CONTINUOUS = {"quantized_cuts.bits", "quantization_loss.bits", "squint_sweep.bits"}
NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
# values at which a numpy integer went wrong in its fixed width: 2**bits and the lattice
# side nx * uv_oversample wrapped, the memory guard's byte counts overflowed, and a
# record kept the numpy type
WRAPPED = {
    "ApertureSpec.from_element_grid.n_per_side": (8, 127),
    "quantization_levels.bits": (7, 8),
    "quantize_profile.bits": (7, 8),
    "quantized_cuts.bits": (7, 8),
    "quantization_loss.bits": (8,),
    "squint_sweep.bits": (8,),
    "array_factor_fft.uv_oversample": (200,),
    "squint_sweep.n_samples": (255,),
    "panel_power.n_cells": (200, 70_000),
    "ReceiverSpec.modulation_order": (16, 256),
    "required_snr_db.modulation_order": (64, 4096),
}


def _outcome(case, x):
    """The pickled result of the case at x, or None where it refuses x with a one-line message of its own text."""
    call, texts = INTEGER_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a fixed-width integer that wraps warns, and so fails here
        try:
            result = call(x)
        except ValueError as refusal:
            message = str(refusal)
            assert message.startswith(texts) and "\n" not in message and len(message) < 200, (case, message)
            return None
    return pickle.dumps(result)  # every bit of every number, and the type of every field


def _numpy_integers(n):
    """n as each numpy integer type that holds it."""
    return [t(n) for t in NUMPY_INTEGERS if np.iinfo(t).min <= n <= np.iinfo(t).max]


@pytest.mark.parametrize("case", sorted(INTEGER_CASES))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(x=st.integers(min_value=-3, max_value=300).flatmap(lambda n: st.sampled_from([n, *_numpy_integers(n)])))
@example(x=True)
@example(x=np.True_)
@example(x=2.0)
@example(x=2.5)
@example(x=math.nan)
@example(x=math.inf)
@example(x="3")
@example(x=None)
@example(x=1j)
@example(x=0)
@example(x=-1)
@example(x=10**400)
@example(x=4**511)  # within the float range, but 308 digits: seven cases refused past 200 characters
@example(x=10**5000)
@example(x=-(10**5000))
def test_an_integer_gives_the_bits_of_its_value_or_a_one_line_value_error(case, x):
    outcome = _outcome(case, x)
    if x is None and case in NONE_IS_CONTINUOUS:
        assert outcome is not None
    elif isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        assert outcome is None, (case, x)
    elif type(x) is not int:
        assert outcome == _outcome(case, int(x)), (case, x)


@pytest.mark.parametrize("case", ["ReceiverSpec.modulation_order", "required_snr_db.modulation_order"])
def test_a_modulation_order_whose_snr_overflows_is_refused_in_one_line(case):
    # 4^511 made required_snr_db return inf, and 4^512 = 2^1024, past the float range,
    # ended in an OverflowError from math.sqrt; 4^510 is the largest order with a finite SNR
    assert _outcome(case, 4**510) is not None
    assert _outcome(case, 4**511) is None
    assert _outcome(case, 4**512) is None


@pytest.mark.parametrize("case", sorted(WRAPPED))
def test_a_numpy_integer_of_any_width_is_used_at_its_value(case):
    # np.uint8(8) bits made 2**bits wrap to 0 levels, and np.uint8(200) oversampling a 4-cell
    # side made a 32-wide lattice; every width that holds the value must give the int's bits
    for n in WRAPPED[case]:
        expected = _outcome(case, n)
        assert expected is not None, (case, n)
        for x in _numpy_integers(n):
            assert _outcome(case, x) == expected, (case, x)


def test_a_numpy_integer_oversample_gives_the_full_lattice():
    profile = synthesize_profile(ApertureSpec.from_element_grid(8, F140), BROADSIDE, OUT30)
    wide, narrow = (array_factor_fft(profile, F140, s) for s in (200, np.uint8(200)))
    assert narrow.field.shape == (1600, 1600)
    for a, b in ((wide.ax1, narrow.ax1), (wide.ax2, narrow.ax2), (wide.field, narrow.field)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_a_record_holds_the_int_of_a_numpy_integer():
    order = ReceiverSpec(2e9, 7.0, np.uint8(16)).modulation_order
    assert type(order) is int and order == 16
    assert [type(b) for b in quantization_loss(PANEL, OUT30, [np.int8(1), np.uint64(2)]).bits] == [int, int]
